//! The hot-path bench gate: measures the hot-path benches and compares
//! them against the committed `BENCH_net_hotpath.json` trajectory.
//!
//! ```text
//! bench_gate                      # gate mode: fail on >15% regression
//! bench_gate --record "<note>"    # append a new trajectory entry
//! bench_gate --record "<note>" --accept-regression "<reason>"
//! QIC_BENCH_QUICK=1 bench_gate    # CI: shorter warm-ups, fewer samples
//! ```
//!
//! Gate mode prints a markdown before/after table (pipe it into
//! `$GITHUB_STEP_SUMMARY` in CI) and exits non-zero if any bench
//! regressed beyond the tolerance, or if a bench in the baseline is no
//! longer measured (`MISSING`). Two defenses keep machine noise
//! from failing the build while real regressions still do: a fixed-work
//! calibration bench normalizes for uniform machine slowdown (CPU
//! throttling, busy shared runners), and apparent regressions are
//! re-measured up to six more times, 20 seconds apart so the retries
//! outlive a noise burst, keeping each bench's best median.
//!
//! Record mode refuses, writing nothing and exiting non-zero, when a
//! bench regressed beyond the tolerance against its best recorded
//! median, unless `--accept-regression` names a reason; the reason then
//! goes into the recorded note. A baseline can only rise on purpose.

use std::hint::black_box;

use qic_bench::hotpath::{
    calibration_spin, gate, git_rev, measure, quick_mode, record_note, today_utc, workspace_root,
    BenchEntry, Measured, Trajectory, BASELINE_FILE, CALIBRATION_BENCH,
};
use qic_des::queue::EventQueue;
use qic_des::rng::mix64;
use qic_fault::FaultPlan;
use qic_modular::{ModularFabric, ModularSpec};
use qic_net::config::NetConfig;
use qic_net::routing::{DimensionOrder, MinimalAdaptive, Router};
use qic_net::sim::{BatchDriver, NetworkSim, OneShotDriver};
use qic_net::topology::{Coord, Hypercube, Mesh, Topology, TopologyKind, Torus};
use qic_physics::bell::BellDiagonal;
use qic_physics::time::Duration;
use qic_purify::protocol::{Protocol, RoundNoise};

/// Runs every hot-path bench and returns the medians, in a fixed order.
fn run_benches(quick: bool) -> Vec<Measured> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, (median_ns, samples): (f64, u32)| {
        println!("{name:<36} median {median_ns:>10.1} ns  ({samples} samples)");
        out.push(Measured {
            name,
            median_ns,
            samples,
        });
    };

    // Machine-speed yardstick, measured first: `gate` uses its ratio
    // against the recorded baseline to factor uniform machine slowdown
    // out of every other comparison.
    push(
        CALIBRATION_BENCH,
        measure(quick, || calibration_spin(black_box(0x9e37_79b9_7f4a_7c15))),
    );

    // End-to-end simulator hot path: one corner-to-corner communication
    // on the 4x4 test fabrics.
    push(
        "net_sim_one_comm_4x4",
        measure(quick, || {
            let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
            NetworkSim::new(NetConfig::small_test()).run(&mut driver)
        }),
    );
    push(
        "net_sim_one_comm_4x4_torus",
        measure(quick, || {
            let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
            NetworkSim::new(NetConfig::small_test().with_topology(TopologyKind::Torus))
                .run(&mut driver)
        }),
    );

    // Fault-layer overhead: the same run through a zero-fault
    // DegradedFabric, and a genuinely detoured route.
    let cfg = NetConfig::small_test();
    let healthy = FaultPlan::healthy().compile(cfg.fabric());
    push(
        "fault_overhead_zero_fault_wrapper",
        measure(quick, || {
            let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
            NetworkSim::with_topology(cfg.clone(), healthy.clone()).run(&mut driver)
        }),
    );
    let fabric = cfg.fabric();
    let mid = fabric.link_index(
        fabric.node_index(Coord::new(1, 1)),
        qic_net::topology::Port(0),
    ) as u32;
    let detour = FaultPlan::healthy().with_dead_link(mid).compile(fabric);
    push(
        "fault_overhead_degraded_detour",
        measure(quick, || {
            let mut driver = OneShotDriver::new(Coord::new(0, 1), Coord::new(3, 1));
            NetworkSim::with_topology(cfg.clone(), detour.clone()).run(&mut driver)
        }),
    );
    // Bernoulli damage under crossing traffic.
    let damaged = FaultPlan::healthy()
        .with_seed(42)
        .with_link_kill(0.15)
        .compile(cfg.fabric());
    push(
        "fault_overhead_degraded_batch",
        measure(quick, || {
            let mut driver = BatchDriver::new(vec![
                (Coord::new(0, 0), Coord::new(3, 3)),
                (Coord::new(3, 0), Coord::new(0, 3)),
            ]);
            NetworkSim::with_topology(cfg.clone(), damaged.clone()).run(&mut driver)
        }),
    );
    // Plan compilation (schedule resolution + all-pairs BFS) at the
    // paper's 16×16 scale — the per-sweep-point setup cost.
    push(
        "fault_compile_16x16_mesh",
        measure(quick, || {
            black_box(
                FaultPlan::healthy()
                    .with_seed(7)
                    .with_link_kill(0.1)
                    .compile(Mesh::new(16, 16)),
            )
            .surviving_links()
        }),
    );

    // Routing micro-benches.
    let mesh = Mesh::new(16, 16);
    let torus = Torus::new(16, 16);
    let cube = Hypercube::new(8);
    let no_load = |_: usize| 0u32;
    let load = |l: usize| (l % 5) as u32;
    let (src, dst) = (0usize, 255usize);
    push(
        "dor_route_mesh_16x16",
        measure(quick, || {
            DimensionOrder.route(&mesh, black_box(src), black_box(dst), &no_load)
        }),
    );
    push(
        "dor_route_torus_16x16",
        measure(quick, || {
            DimensionOrder.route(&torus, black_box(src), black_box(dst), &no_load)
        }),
    );
    push(
        "dor_route_hypercube_256",
        measure(quick, || {
            DimensionOrder.route(&cube, black_box(src), black_box(dst), &no_load)
        }),
    );
    push(
        "adaptive_route_mesh_16x16",
        measure(quick, || {
            MinimalAdaptive.route(&mesh, black_box(src), black_box(dst), &load)
        }),
    );
    // The modular route hot path: a cross-module route over four 4x4
    // meshes behind an optical switch (distance-table lookups + the
    // uplink port scan).
    let modular = ModularFabric::new(
        Mesh::new(4, 4),
        &ModularSpec::single().with_modules(4).with_latency_ns(500),
    );
    let (msrc, mdst) = (0usize, modular.nodes() - 1);
    push(
        "dor_route_modular_4x4x4",
        measure(quick, || {
            DimensionOrder.route(&modular, black_box(msrc), black_box(mdst), &no_load)
        }),
    );

    // Event-queue throughput.
    push(
        "event_queue_1k_schedule_pop",
        measure(quick, || {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule_after(Duration::from_nanos((i * 7919) % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        }),
    );

    // The traffic the simulator's queue serves: a hold model with 512
    // pending events where each pop reschedules with a delay in fig16's
    // proportions — mostly one hop (122 600 ns), some zero and some a
    // turn plus a hop (124 600 ns), and one odd delay in 20.
    let delays: Vec<u64> = (0..1000u64)
        .map(|i| match mix64(i) % 20 {
            0 => 1_000 + (i * 7919) % 200_000,
            1..=3 => 0,
            4 | 5 => 124_600,
            _ => 122_600,
        })
        .collect();
    let mut hold = EventQueue::new();
    for i in 0..512u64 {
        hold.schedule_after(Duration::from_nanos(i * 240), i);
    }
    let mut next = 0;
    push(
        "event_queue_recurring_delays",
        measure(quick, || {
            let mut acc = 0u64;
            for _ in 0..1000 {
                let (_, e) = hold.pop().expect("the hold model keeps 512 pending");
                acc = acc.wrapping_add(e);
                hold.schedule_after(Duration::from_nanos(delays[next]), e);
                next = (next + 1) % delays.len();
            }
            acc
        }),
    );

    // Purification kernels: one noisy DEJMPS round and one Bell-diagonal
    // convolution.
    let state = BellDiagonal::werner_f64(0.99).unwrap();
    let noise = RoundNoise::ion_trap();
    push(
        "dejmps_noisy_step",
        measure(quick, || {
            Protocol::Dejmps.noisy_step(black_box(&state), black_box(&noise))
        }),
    );
    push(
        "bell_convolve",
        measure(quick, || black_box(&state).convolve(black_box(&state))),
    );

    out
}

const USAGE: &str = "usage: bench_gate [--record <note> [--accept-regression <reason>]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (record_note_arg, accept_regression) = match args[..] {
        [] => (None, None),
        ["--record"] => (Some("recorded"), None),
        ["--record", note] => (Some(note), None),
        ["--record", note, "--accept-regression", reason] => (Some(note), Some(reason)),
        _ => {
            eprintln!("unexpected arguments {args:?}; {USAGE}");
            std::process::exit(2);
        }
    };

    let quick = quick_mode();
    let path = workspace_root().join(BASELINE_FILE);
    println!(
        "hot-path benches ({} mode), baseline {}",
        if quick { "quick" } else { "full" },
        path.display()
    );
    let measured = run_benches(quick);

    if let Some(note) = record_note_arg {
        let mut trajectory = match std::fs::read_to_string(&path) {
            Ok(text) => Trajectory::parse(&text).expect("baseline file parses"),
            Err(_) => Trajectory::default(),
        };
        let note = match record_note(&measured, &trajectory, note, accept_regression) {
            Ok(note) => note,
            Err(regressions) => {
                eprintln!(
                    "bench-gate: refusing to record — {} regression(s) against the best recorded median:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                eprintln!(
                    "nothing written; pass --accept-regression \"<reason>\" to record anyway"
                );
                std::process::exit(1);
            }
        };
        let (date, rev) = (today_utc(), git_rev());
        for m in &measured {
            trajectory.record(
                m.name,
                BenchEntry {
                    median_ns: (m.median_ns * 10.0).round() / 10.0,
                    samples: m.samples,
                    date: date.clone(),
                    git_rev: rev.clone(),
                    note: note.clone(),
                },
            );
        }
        std::fs::write(&path, trajectory.to_json()).expect("baseline file writes");
        println!(
            "recorded {} benches into {} (note: {note})",
            measured.len(),
            path.display()
        );
        return;
    }

    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => Trajectory::parse(&text).expect("baseline file parses"),
        Err(e) => {
            eprintln!("no baseline at {}: {e}", path.display());
            eprintln!("record one with: cargo run --release -p qic-bench --bin bench_gate -- --record \"<note>\"");
            std::process::exit(2);
        }
    };
    let mut measured = measured;
    let (mut table, mut failures) = gate(&measured, &baseline);
    // Shared-runner noise routinely exceeds the tolerance for
    // nanosecond-scale benches, and the noisy phases last tens of
    // seconds to minutes — far longer than a back-to-back re-run. A
    // genuine regression survives re-measurement; a noise burst does
    // not. Keep the per-bench best over up to seven passes, spaced
    // 20 s apart so the retries outlive a burst, before declaring
    // failure.
    for pass in 0..6 {
        if failures.is_empty() {
            break;
        }
        eprintln!(
            "bench-gate: {} failure(s) on pass {}; re-measuring in 20 s",
            failures.len(),
            pass + 1
        );
        std::thread::sleep(std::time::Duration::from_secs(20));
        for (slot, fresh) in measured.iter_mut().zip(run_benches(quick)) {
            assert_eq!(slot.name, fresh.name, "bench order is fixed");
            if fresh.median_ns < slot.median_ns {
                slot.median_ns = fresh.median_ns;
            }
        }
        (table, failures) = gate(&measured, &baseline);
    }
    println!("\n{table}");
    if failures.is_empty() {
        println!("bench-gate: OK (tolerance 15%)");
    } else {
        eprintln!("bench-gate: FAILED — {} failure(s):", failures.len());
        for r in &failures {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
