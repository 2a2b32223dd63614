//! `qicbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path qicbench/Cargo.toml -- \
//!     --workload sim_sweep|small_campaigns|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the goldens are read from
//! `tests/golden/`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Exits non-zero when an output check fails.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use qicbench::catalog::PER_LAYER;
use qicbench::metrics::{self, Reading, ReplayTally};
use qicbench::replay::{check_equal, replay, replay_set};
use qicbench::trace::{NoSpans, Spans, Tracer};
use qicbench::workloads::{self, Options, Tally, Workload};

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: qicbench --workload sim_sweep|small_campaigns|serve_mix \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One line of caught-panic context on stderr; the message itself is
/// kept with the failed operation.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current();
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        eprintln!(
            "qicbench: panic in thread {}: {}",
            thread.name().unwrap_or("?"),
            msg.replace('\n', " | ")
        );
    }));
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs the traced replay, the same replay without spans (the tracing
/// overhead's baseline) and the equality check against `qic::run`.
fn traced_replay(cli: &Cli, tracer: &mut Tracer, tally: &mut Tally) -> ReplayTally {
    let mut r = ReplayTally::default();
    let (scale, passes) = cli.workload.replay_plan();
    let set = replay_set(scale, cli.seed);
    for (i, spec) in (0..passes).flat_map(|_| set.iter()).enumerate() {
        tracer.next_request();
        let json = spec.to_json();
        // A panic on either side is a failed check, not a lost run.
        let caught = |payload: Box<dyn std::any::Any + Send>| {
            format!("panicked: {}", workloads::panic_message(payload.as_ref()))
        };
        let mut run_traced = || {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| replay(tracer, &json)))
                .unwrap_or_else(|p| Err(caught(p)));
            (out, t.elapsed().as_nanos() as u64)
        };
        let run_untraced = || {
            let t = Instant::now();
            let out = catch_unwind(|| replay(&mut NoSpans, &json));
            (out.is_ok_and(|o| o.is_ok()), t.elapsed().as_nanos() as u64)
        };
        // Alternate which side runs first, so neither always gets the
        // warm caches.
        let ((replayed, traced_ns), (untraced_ok, untraced_ns)) = if i % 2 == 0 {
            let traced = run_traced();
            (traced, run_untraced())
        } else {
            let untraced = run_untraced();
            (run_traced(), untraced)
        };
        r.traced_ns += traced_ns;
        r.untraced_ns += untraced_ns;
        if !untraced_ok {
            tally
                .mismatches
                .push(format!("{}: untraced replay failed", spec.name));
        }
        let reference = catch_unwind(|| qic::run(spec).map_err(|e| e.to_string()))
            .unwrap_or_else(|p| Err(caught(p)));
        tally.checks += 1;
        match (replayed, reference) {
            (Ok(report), Ok(reference)) => match check_equal(&report.metrics(), &reference) {
                Ok(()) => {
                    r.points += 1;
                    r.comms += report.comms_completed;
                    r.stalls +=
                        report.teleporter_stalls + report.wire_stalls + report.storage_stalls;
                    r.makespan_us += report.makespan.as_us_f64();
                }
                Err(e) => tally.mismatches.push(e),
            },
            (Err(e), _) => tally
                .mismatches
                .push(format!("{}: replay failed: {e}", spec.name)),
            (_, Err(e)) => tally
                .mismatches
                .push(format!("{}: qic::run failed: {e}", spec.name)),
        }
    }
    r
}

fn result_json(correct: bool, tally: &Tally, readings: &[Reading]) -> String {
    let mut metrics = String::new();
    for (i, m) in readings.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("qicbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_panics();
    let root = std::env::current_dir().expect("current directory");
    let out_dir = root.join(".qicbench");
    let opts = Options {
        workload: cli.workload,
        seed: cli.seed,
        seconds: cli.seconds,
        root: root.clone(),
        scratch: out_dir.join(format!("run-{}", std::process::id())),
    };
    println!(
        "qicbench workload={} seed={} seconds={} trace={}",
        cli.workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace)
    );
    println!(
        "env nproc={} git_rev={} rustc=\"{}\" profile={} workers={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(&root),
        env!("QICBENCH_RUSTC"),
        env!("QICBENCH_PROFILE"),
        match cli.workload {
            Workload::SimSweep => 1,
            _ => workloads::WORKERS,
        }
    );

    let (mut tally, readings, spans) = if cli.trace {
        let mut tracer = Tracer::new();
        let mut tally = workloads::run(&opts, &mut tracer, process_start);
        let replayed = traced_replay(&cli, &mut tracer, &mut tally);
        let readings = metrics::per_layer(&tally, &tracer, &replayed);
        (tally, readings, Some(tracer))
    } else {
        let tally = workloads::run(&opts, &mut NoSpans, process_start);
        let peak = metrics::rss_mb("VmHWM:") - tally.yardstick.footprint_mb;
        let readings = metrics::end_to_end(&tally, peak);
        (tally, readings, None)
    };
    if opts.scratch.exists() {
        if let Err(e) = std::fs::remove_dir_all(&opts.scratch) {
            tally
                .mismatches
                .push(format!("removing {}: {e}", opts.scratch.display()));
        }
    }
    if let Some(tracer) = spans {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cli.workload.name(),
            cli.seed
        ));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => println!(
                "spans {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => tally
                .mismatches
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    println!(
        "rounds={} attempted={} failed={} failed_ratio={} measured_s={}",
        tally.rounds,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.wall_ns as f64 / 1e9
    );
    println!(
        "yardstick slices={} footprint_mb={} median_ns={} scale={}",
        tally.yardstick.slices_ns.len(),
        tally.yardstick.footprint_mb,
        metrics::p50(&tally.yardstick.slices_ns),
        tally.yardstick.scale()
    );
    for s in &tally.series {
        println!(
            "op {} ok={} failed={} median_ms={} emit_median_ms={} events={} bytes={}",
            s.label,
            s.ok_ms.len(),
            s.failed_ms.len(),
            metrics::p50(&s.ok_ms),
            metrics::p50(&s.emit_ms),
            s.events,
            s.emit_bytes
        );
    }
    for (message, count) in &tally.failures {
        println!("failure x{count}: {}", message.replace('\n', " | "));
    }
    for m in &tally.mismatches {
        println!("MISMATCH {m}");
    }
    let correct = tally.mismatches.is_empty();
    println!(
        "checks={} mismatches={} correct={correct}",
        tally.checks,
        tally.mismatches.len()
    );
    for (i, m) in readings.iter().enumerate() {
        print!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
        match PER_LAYER.get(i).filter(|_| cli.trace) {
            Some(def) => println!(" layer={} moves=\"{}\"", def.layer, def.moves),
            None => println!(),
        }
    }
    println!("{}", result_json(correct, &tally, &readings));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
