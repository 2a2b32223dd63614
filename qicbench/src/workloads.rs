//! The three workloads, generic over [`Spans`] so the untraced and the
//! traced run share one code path.
//!
//! Each workload sets up (specs, goldens, reference runs, service),
//! then runs whole *rounds* of operations until `--seconds` have
//! passed, so every run measures the same mix of operations. The
//! workload seed picks the scenario seeds and the order within each
//! round.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qic::core::scenario::{ScenarioRegistry, ScenarioScale, ScenarioSpec};
use qic::serve::{CacheDir, CacheSource, JobState, Serve, ServeConfig, ServeHandle};
use qic::sweep::{derive_seed, CampaignReport};

use crate::trace::Spans;
use crate::yardstick::Yardstick;

/// The simulator presets of the registry (every preset but the
/// analytic fig10-12).
pub const SIM_PRESETS: [&str; 11] = [
    "fig16",
    "topology_faceoff",
    "qft_torus",
    "qft_hypercube",
    "shor_kernel",
    "synthetic_stress",
    "resilience_sweep",
    "degraded_faceoff",
    "modular_faceoff",
    "cost_fidelity_pareto",
    "design_space",
];

/// The analytic presets, run at Full in `small_campaigns`.
pub const ANALYTIC_PRESETS: [&str; 3] = ["fig10", "fig11", "fig12"];

/// Campaigns compared byte for byte against `tests/golden/`, all at the
/// registry seed: `(preset, scale, golden stem)`.
pub const GOLDENS: [(&str, ScenarioScale, &str); 4] = [
    ("fig16", ScenarioScale::SmallTest, "fig16_tiny"),
    ("topology_faceoff", ScenarioScale::SmallTest, "faceoff_tiny"),
    ("fig10", ScenarioScale::Full, "fig10"),
    ("fig12", ScenarioScale::Full, "fig12"),
];

/// Kept at its registry seed everywhere: its Full-scale failure is a
/// known defect the benchmark must keep showing.
pub const KNOWN_FAILING: &str = "degraded_faceoff";

/// Set-ups per run: one before the first round, then one after each
/// round until there are this many, so the repeats fall at different
/// moments of the run. `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Executor workers for `small_campaigns` and the service.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSweep,
    SmallCampaigns,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimSweep,
        Workload::SmallCampaigns,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::SmallCampaigns => "small_campaigns",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the traced replay runs at, and how many times it
    /// replays the set: SmallTest points take about a millisecond, so
    /// one pass is too short to time the tracing overhead.
    pub fn replay_plan(self) -> (ScenarioScale, usize) {
        match self {
            Workload::SimSweep => (ScenarioScale::Full, 1),
            _ => (ScenarioScale::SmallTest, 25),
        }
    }
}

/// Serve-side observations of `serve_mix`.
#[derive(Debug, Default)]
pub struct ServeTally {
    pub cold_ms: Vec<f64>,
    pub memory_ms: Vec<f64>,
    pub disk_ms: Vec<f64>,
    /// Client latency minus the service's own `wall_ns`, per Done job.
    pub client_overhead_ms: Vec<f64>,
    pub submitted: f64,
    /// Memory hits + disk hits + coalesced jobs.
    pub hits: f64,
    pub cache_errors: f64,
}

/// One operation of a round (a campaign, or a request of the serve
/// trace), sampled once per round.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub label: String,
    /// Latency of each completed attempt.
    pub ok_ms: Vec<f64>,
    /// Time of each failed attempt.
    pub failed_ms: Vec<f64>,
    /// Time spent emitting the report, per completed attempt.
    pub emit_ms: Vec<f64>,
    /// Bytes emitted per completed attempt.
    pub emit_bytes: u64,
    /// Simulated events per completed attempt (serve: computed jobs).
    pub events: u64,
}

impl Series {
    fn labelled(label: &str) -> Series {
        Series {
            label: label.to_string(),
            ..Series::default()
        }
    }

    fn done(&mut self, k: f64, ms: f64, emit: Duration, bytes: usize, events: u64) {
        self.ok_ms.push(k * ms);
        self.emit_ms.push(k * emit.as_nanos() as f64 / 1e6);
        self.emit_bytes = bytes as u64;
        self.events = events;
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Tally {
    pub setup_s: Vec<f64>,
    /// Wall time of the measured phase.
    pub wall_ns: u64,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Distinct failure messages with their counts, in first-seen order.
    pub failures: Vec<(String, u64)>,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Checks made (golden, determinism and reference comparisons).
    pub checks: u64,
    /// One series per operation of a round.
    pub series: Vec<Series>,
    pub reports_emitted: u64,
    /// `CampaignReport::wall_ns` of every evaluated point.
    pub point_ms: Vec<f64>,
    pub point_busy_ns: u64,
    /// Σ workers × campaign wall time.
    pub pool_ns: u64,
    pub serve: ServeTally,
    /// Calibration slices run between operations.
    pub yardstick: Yardstick,
}

impl Tally {
    /// Records a set-up that started at `t0`, scaled by a yardstick
    /// slice run right after it.
    fn setup_done(&mut self, t0: Instant) {
        let elapsed = t0.elapsed().as_secs_f64();
        self.yardstick.slice();
        self.setup_s.push(self.yardstick.local_scale() * elapsed);
    }

    /// Counts a failed attempt of operation `key` that started at `t0`.
    fn fail(&mut self, key: usize, t0: Instant, message: String) {
        let k = self.yardstick.local_scale();
        self.series[key]
            .failed_ms
            .push(k * t0.elapsed().as_nanos() as f64 / 1e6);
        self.failed += 1;
        match self.failures.iter_mut().find(|(m, _)| *m == message) {
            Some((_, n)) => *n += 1,
            None => self.failures.push((message, 1)),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Repository root: the goldens live under `tests/golden/` there.
    pub root: PathBuf,
    /// Scratch directory for the service's caches (removed by the caller).
    pub scratch: PathBuf,
}

/// Runs the workload: set-up (repeated), then the measured rounds.
pub fn run<S: Spans>(opts: &Options, spans: &mut S, process_start: Instant) -> Tally {
    let mut tally = Tally::default();
    match opts.workload {
        Workload::SimSweep | Workload::SmallCampaigns => {
            let jobs = campaign_setup(opts);
            tally.setup_done(process_start);
            let mut again = |tally: &mut Tally| {
                let t0 = Instant::now();
                campaign_setup(opts);
                tally.setup_done(t0);
            };
            campaign_rounds(opts, &jobs, spans, &mut tally, &mut again);
        }
        Workload::ServeMix => {
            let (requests, first) = serve_setup(opts);
            tally.setup_done(process_start);
            let mut again = |tally: &mut Tally| {
                let t0 = Instant::now();
                let (_, serve) = serve_setup(opts);
                tally.setup_done(t0);
                serve.shutdown();
            };
            serve_rounds(opts, &requests, first, spans, &mut tally, &mut again);
        }
    }
    tally
}

/// Fisher-Yates order of `n` items for `round`, drawn from the seed.
pub fn shuffled(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let r = derive_seed(seed, round, i as u64);
        order.swap(i, (r % (i as u64 + 1)) as usize);
    }
    order
}

/// A registry preset's spec at `scale`: a seeded variant, except for
/// goldens and the known-failing preset, which keep the registry seed.
fn preset(name: &str, scale: ScenarioScale, seed: u64, keep_seed: bool) -> ScenarioSpec {
    let spec = ScenarioRegistry::builtin()
        .spec(name, scale)
        .unwrap_or_else(|| panic!("registry has no preset {name}"));
    if keep_seed || name == KNOWN_FAILING {
        spec
    } else {
        let variant = derive_seed(seed, qic::sweep::digest_str(name), scale as u64);
        spec.with_seed(variant)
    }
}

/// Total simulated events over every point and replicate of a report.
pub fn events_of(report: &CampaignReport) -> u64 {
    report
        .points
        .iter()
        .flat_map(|p| p.replicates.iter())
        .filter_map(|m| m.get("events"))
        .sum::<f64>() as u64
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Emits a report as JSON, CSV and record, each inside its span;
/// returns the texts and the time the three emitters took.
fn emit<S: Spans>(
    spans: &mut S,
    report: &CampaignReport,
    tally: &mut Tally,
) -> ([String; 3], Duration) {
    let mut total = Duration::ZERO;
    let mut one = |name, f: &dyn Fn() -> String| {
        let id = spans.begin(name);
        let t = Instant::now();
        let text = f();
        total += t.elapsed();
        spans.end(id, text.len() as u64);
        text
    };
    let json = one("emit.json", &|| report.to_json());
    let csv = one("emit.csv", &|| report.to_csv());
    let record = one("emit.record", &|| report.to_record_json());
    tally.reports_emitted += 1;
    ([json, csv, record], total)
}

// ---------------------------------------------------------------------
// sim_sweep and small_campaigns

/// One campaign of a round.
pub struct Job {
    pub label: String,
    pub spec: ScenarioSpec,
    /// `(csv, json)` golden bytes the emitted report must equal.
    pub golden: Option<(String, String)>,
}

fn campaign_setup(opts: &Options) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut add = |name: &str, scale: ScenarioScale, workers: usize| {
        let golden_stem = GOLDENS
            .iter()
            .find(|(n, s, _)| *n == name && *s == scale)
            .map(|g| g.2);
        let spec = preset(name, scale, opts.seed, golden_stem.is_some()).with_workers(workers);
        let golden = golden_stem.map(|stem| {
            let read = |ext: &str| {
                let path = opts.root.join(format!("tests/golden/{stem}.{ext}"));
                std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()))
            };
            (read("csv"), read("json"))
        });
        jobs.push(Job {
            label: format!("{name}@{scale:?}"),
            spec,
            golden,
        });
    };
    match opts.workload {
        Workload::SimSweep => {
            for name in SIM_PRESETS {
                add(name, ScenarioScale::Full, 1);
            }
        }
        _ => {
            for e in ScenarioRegistry::builtin().entries() {
                add(e.name, ScenarioScale::SmallTest, WORKERS);
            }
            for name in ANALYTIC_PRESETS {
                add(name, ScenarioScale::Full, WORKERS);
            }
        }
    }
    // Warm-up, untimed by the rounds: every campaign once at SmallTest
    // (sim_sweep) or as measured (small_campaigns). Failures here are
    // reported by the rounds, which run the same specs.
    for job in &jobs {
        let warm = match opts.workload {
            Workload::SimSweep => {
                let name = job.label.split('@').next().unwrap_or_default();
                preset(name, ScenarioScale::SmallTest, opts.seed, false).with_workers(1)
            }
            _ => job.spec.clone(),
        };
        let _ = catch_unwind(AssertUnwindSafe(|| qic::run(&warm)));
    }
    jobs
}

/// A repeated set-up, run between rounds and timed into `setup_s`.
type Again<'a> = dyn FnMut(&mut Tally) + 'a;

fn campaign_rounds<S: Spans>(
    opts: &Options,
    jobs: &[Job],
    spans: &mut S,
    tally: &mut Tally,
    again: &mut Again<'_>,
) {
    let mut first_record: HashMap<&str, String> = HashMap::new();
    tally.series = jobs.iter().map(|j| Series::labelled(&j.label)).collect();
    tally.yardstick.slice();
    let start = Instant::now();
    while tally.rounds == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        for i in shuffled(jobs.len(), opts.seed, tally.rounds) {
            let job = &jobs[i];
            if let Some(record) = campaign_op(i, job, spans, tally) {
                let first = first_record
                    .entry(&job.label)
                    .or_insert_with(|| record.clone());
                let same = *first == record;
                tally.check(same, || {
                    format!("{}: record differs between rounds", job.label)
                });
            }
            tally.yardstick.tick();
        }
        tally.rounds += 1;
        if tally.setup_s.len() < SETUP_REPEATS {
            again(tally);
        }
    }
    tally.wall_ns = start.elapsed().as_nanos() as u64;
}

/// Runs and emits one campaign; returns its record when it completed.
fn campaign_op<S: Spans>(
    key: usize,
    job: &Job,
    spans: &mut S,
    tally: &mut Tally,
) -> Option<String> {
    spans.next_request();
    tally.attempted += 1;
    let op = spans.begin("op.campaign");
    let t0 = Instant::now();
    if S::ON {
        let id = spans.begin("spec.validate");
        let _ = job.spec.validate();
        spans.end(id, 0);
    }
    let id = spans.begin("sweep.campaign");
    let t_run = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| qic::run(&job.spec)));
    let run_ns = t_run.elapsed().as_nanos() as u64;
    spans.end(id, 0);
    let report = match outcome {
        Ok(Ok(report)) => report.report,
        Ok(Err(e)) => {
            spans.end(op, 0);
            tally.fail(key, t0, format!("{}: {e}", job.label));
            return None;
        }
        Err(payload) => {
            spans.end(op, 0);
            let why = panic_message(payload.as_ref());
            tally.fail(key, t0, format!("{}: panicked: {why}", job.label));
            return None;
        }
    };
    let ([json, csv, record], emit_time) = emit(spans, &report, tally);
    let op_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    spans.end(op, 0);
    let bytes = json.len() + csv.len() + record.len();
    let k = tally.yardstick.local_scale();
    tally.series[key].done(k, op_ms, emit_time, bytes, events_of(&report));
    tally
        .point_ms
        .extend(report.wall_ns.iter().map(|&w| w as f64 / 1e6));
    tally.point_busy_ns += report.total_wall_ns();
    tally.pool_ns += job.spec.workers as u64 * run_ns;
    if let Some((g_csv, g_json)) = &job.golden {
        tally.check(csv == *g_csv, || {
            format!("{}: CSV differs from golden", job.label)
        });
        tally.check(json == *g_json, || {
            format!("{}: JSON differs from golden", job.label)
        });
    }
    Some(record)
}

// ---------------------------------------------------------------------
// serve_mix

/// One spec of the serve trace, with the reference outcome of a direct
/// `qic::run` made during set-up.
pub struct Request {
    pub label: String,
    /// The request document the client decodes.
    pub json: String,
    /// The reference record, or why the direct run failed.
    pub reference: Result<String, String>,
    /// Whether the trace repeats it (memory hit, then disk hit after
    /// the restart).
    pub repeated: bool,
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig::default()
        .with_workers(WORKERS)
        .with_parallel_jobs(1)
        .with_cache_dir(dir)
}

fn round_dir(opts: &Options, round: u64) -> PathBuf {
    opts.scratch.join(format!("round-{round}"))
}

fn serve_setup(opts: &Options) -> (Vec<Request>, Serve) {
    let mut specs: Vec<(&str, ScenarioScale)> = ScenarioRegistry::builtin()
        .entries()
        .iter()
        .map(|e| (e.name, ScenarioScale::SmallTest))
        .collect();
    for name in ["design_space", "cost_fidelity_pareto", KNOWN_FAILING] {
        specs.push((name, ScenarioScale::Full));
    }
    let requests = specs
        .into_iter()
        .map(|(name, scale)| {
            let spec = preset(name, scale, opts.seed, false).with_workers(WORKERS);
            let reference = match catch_unwind(AssertUnwindSafe(|| qic::run(&spec))) {
                Ok(Ok(report)) => Ok(report.report.to_record_json()),
                Ok(Err(e)) => Err(e.to_string()),
                Err(payload) => Err(panic_message(payload.as_ref())),
            };
            Request {
                label: format!("{name}@{scale:?}"),
                json: spec.to_json(),
                reference,
                repeated: name != KNOWN_FAILING,
            }
        })
        .collect();
    std::fs::create_dir_all(&opts.scratch)
        .unwrap_or_else(|e| panic!("creating {}: {e}", opts.scratch.display()));
    let first = Serve::start(serve_config(&round_dir(opts, 0)));
    (requests, first)
}

fn serve_rounds<S: Spans>(
    opts: &Options,
    requests: &[Request],
    first: Serve,
    spans: &mut S,
    tally: &mut Tally,
    again: &mut Again<'_>,
) {
    let client_cache = if S::ON {
        Some(CacheDir::open(opts.scratch.join("client")).expect("client cache directory"))
    } else {
        None
    };
    let repeated: Vec<&Request> = requests.iter().filter(|r| r.repeated).collect();
    // Series keys: first-time requests, then memory repeats, then disk
    // repeats.
    let (memory, disk) = (requests.len(), requests.len() + repeated.len());
    let phase = |phase: &str, r: &Request| Series::labelled(&format!("{}:{phase}", r.label));
    tally.series = requests.iter().map(|r| phase("first", r)).collect();
    for p in ["memory", "disk"] {
        tally.series.extend(repeated.iter().map(|r| phase(p, r)));
    }
    tally.yardstick.slice();
    let mut first = Some(first);
    let start = Instant::now();
    while tally.rounds == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let round = tally.rounds;
        let dir = round_dir(opts, round);
        // First service: cold computes, then repeats served from memory.
        let serve = first
            .take()
            .unwrap_or_else(|| Serve::start(serve_config(&dir)));
        let handle = serve.handle();
        let cache = client_cache.as_ref();
        for i in shuffled(requests.len(), opts.seed, 3 * round) {
            serve_op(i, &handle, &requests[i], cache, spans, tally);
            tally.yardstick.tick();
        }
        for i in shuffled(repeated.len(), opts.seed, 3 * round + 1) {
            serve_op(memory + i, &handle, repeated[i], cache, spans, tally);
            tally.yardstick.tick();
        }
        stop(serve, handle, tally);
        // Restart on the same directory: repeats are disk hits.
        let serve = Serve::start(serve_config(&dir));
        let handle = serve.handle();
        for i in shuffled(repeated.len(), opts.seed, 3 * round + 2) {
            serve_op(disk + i, &handle, repeated[i], cache, spans, tally);
            tally.yardstick.tick();
        }
        stop(serve, handle, tally);
        tally.rounds += 1;
        if tally.setup_s.len() < SETUP_REPEATS {
            again(tally);
        }
    }
    tally.wall_ns = start.elapsed().as_nanos() as u64;
}

fn stop(serve: Serve, handle: ServeHandle, tally: &mut Tally) {
    let m = handle.metrics();
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    let s = &mut tally.serve;
    s.submitted += get("serve.submitted");
    s.hits += get("serve.hits.memory") + get("serve.hits.disk") + get("serve.coalesced");
    s.cache_errors += get("serve.cache.errors");
    drop(handle);
    serve.shutdown();
}

/// One request: decode, submit and wait (the timed latency), then the
/// client's emit and the reference check.
fn serve_op<S: Spans>(
    key: usize,
    handle: &ServeHandle,
    req: &Request,
    client_cache: Option<&CacheDir>,
    spans: &mut S,
    tally: &mut Tally,
) {
    spans.next_request();
    tally.attempted += 1;
    let op = spans.begin("op.request");
    let t0 = Instant::now();
    let id = spans.begin("spec.decode");
    let spec = ScenarioSpec::from_json(&req.json);
    spans.end(id, req.json.len() as u64);
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => {
            spans.end(op, 0);
            tally.fail(key, t0, format!("{}: decode: {e}", req.label));
            return;
        }
    };
    let kept = client_cache.map(|_| spec.clone());
    let id = spans.begin("serve.submit");
    let job = handle.submit(spec);
    spans.end(id, 0);
    let state = match job {
        Ok(job) => {
            let id = spans.begin("serve.wait");
            let state = handle.wait(job);
            spans.end(id, 0);
            state
        }
        Err(e) => {
            spans.end(op, 0);
            tally.fail(key, t0, format!("{}: submit: {e}", req.label));
            return;
        }
    };
    let latency = t0.elapsed();
    spans.end(op, 0);
    let (report, source, wall_ns) = match state {
        Some(JobState::Done {
            report,
            source,
            wall_ns,
        }) => (report, source, wall_ns),
        Some(JobState::Failed { message }) => {
            tally.fail(key, t0, format!("{}: failed: {message}", req.label));
            return;
        }
        Some(JobState::Rejected { reason }) => {
            tally.fail(key, t0, format!("{}: rejected: {reason}", req.label));
            return;
        }
        other => {
            tally.fail(key, t0, format!("{}: wait returned {other:?}", req.label));
            return;
        }
    };
    let ms = latency.as_nanos() as f64 / 1e6;
    let s = &mut tally.serve;
    s.client_overhead_ms
        .push((latency.as_nanos() as f64 - wall_ns as f64) / 1e6);
    let mut events = 0;
    match source {
        CacheSource::Computed => {
            s.cold_ms.push(ms);
            events = events_of(&report.report);
        }
        CacheSource::Memory => s.memory_ms.push(ms),
        CacheSource::Disk => s.disk_ms.push(ms),
        // One closed-loop client never has two identical jobs in flight.
        CacheSource::Coalesced => {}
    }
    let ([json, csv, record], emit_time) = emit(spans, &report.report, tally);
    let bytes = json.len() + csv.len() + record.len();
    let k = tally.yardstick.local_scale();
    tally.series[key].done(k, ms, emit_time, bytes, events);
    let same = req.reference.as_ref() == Ok(&record);
    tally.check(same, || match &req.reference {
        Ok(_) => format!(
            "{}: {} record differs from qic::run",
            req.label,
            source.label()
        ),
        Err(why) => format!("{}: served a report but qic::run failed: {why}", req.label),
    });
    if let (Some(cache), Some(spec)) = (client_cache, kept) {
        codec_and_cache(
            cache,
            &spec,
            &report.report,
            &record,
            spans,
            tally,
            &req.label,
        );
    }
}

/// Traced run only: the codec's read side and the disk cache, timed on
/// the trace's records.
fn codec_and_cache<S: Spans>(
    cache: &CacheDir,
    spec: &ScenarioSpec,
    report: &CampaignReport,
    record: &str,
    spans: &mut S,
    tally: &mut Tally,
    label: &str,
) {
    let id = spans.begin("codec.decode");
    let decoded = CampaignReport::from_record_json(record);
    spans.end(id, record.len() as u64);
    let ok = decoded.as_ref().is_ok_and(|d| d == report);
    tally.check(ok, || {
        format!("{label}: record does not decode to the report")
    });
    let id = spans.begin("serve.cache.store");
    let stored = cache.store(spec, report);
    spans.end(id, record.len() as u64);
    tally.check(stored.is_ok(), || {
        format!("{label}: CacheDir::store failed: {stored:?}")
    });
    let id = spans.begin("serve.cache.load");
    let loaded = cache.load(spec);
    spans.end(id, record.len() as u64);
    let ok = matches!(&loaded, Ok(Some(l)) if l == report);
    tally.check(ok, || {
        format!("{label}: CacheDir::load did not return the report")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(17, 5, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..17).collect::<Vec<_>>());
        assert_eq!(a, shuffled(17, 5, 0));
        assert_ne!(a, shuffled(17, 6, 0));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
