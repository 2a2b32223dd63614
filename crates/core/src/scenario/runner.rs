//! The single entry point: `run(&spec) -> ScenarioReport`.
//!
//! Every point goes through `PointEval`; a machine point composes its
//! fabric once and `MachineEval::drive` is the one simulator call site.

use std::path::Path;
use std::sync::Arc;

use qic_analytic::cost::{ComponentCounts, CostModel, NetworkShape};
use qic_analytic::figures::{pair_budget, PairMetric};
use qic_analytic::plan::ChannelModel;
use qic_analytic::strategy::PurifyPlacement;
use qic_fault::FaultPlan;
use qic_modular::{ModularFabric, ModularSpec};
use qic_net::config::NetConfig;
use qic_net::report::NetReport;
use qic_net::sim::{BatchDriver, Driver, NetworkSim};
use qic_net::topology::{Coord, Fabric, Topology, TopologyKind};
use qic_probe::RecordingProbe;
use qic_sweep::{
    Campaign, CampaignProgress, CampaignReport, CancelToken, CheckpointConfig, CheckpointError,
    Executor, JsonlProgress, Metrics, NoProgress, ProgressSink, RunCtx, Shard, SweepPoint,
};
use qic_workload::Program;

use crate::layout::Layout;
use crate::scenario::spec::{
    ExperimentSpec, MachineSpec, ObserveSpec, ScenarioAxis, ScenarioError, ScenarioSpec,
    WorkloadSpec,
};
use crate::scheduler::ProgramDriver;

/// The result of running a scenario: the spec that produced it plus the
/// full campaign report.
///
/// The report is byte-identical however the run was scheduled (worker
/// count, thread interleaving); see `qic-sweep`'s determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The spec that was run (after validation).
    pub spec: ScenarioSpec,
    /// Per-point results, CSV/JSON emitters included.
    pub report: CampaignReport,
}

impl ScenarioReport {
    /// The campaign report as deterministic CSV.
    pub fn to_csv(&self) -> String {
        self.report.to_csv()
    }

    /// The campaign report as deterministic JSON.
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

/// How far a budgeted, checkpointed scenario run got — either the
/// finished report or the checkpoint manifest's progress.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioProgress {
    /// Every point completed; the full report.
    Complete(Box<ScenarioReport>),
    /// The point budget ran out; the manifest holds `done` of `total`
    /// points and a later run resumes from it.
    Partial {
        /// Points completed so far (across all runs).
        done: usize,
        /// Points in the scenario's sweep.
        total: usize,
    },
}

/// Which slice of the campaign this invocation executes.
#[derive(Clone, Copy)]
enum ExecMode {
    /// The whole campaign (resuming from a checkpoint manifest when the
    /// spec asks for one).
    Full,
    /// One contiguous shard of the point space, buffered.
    Shard(Shard),
    /// Checkpointed with a point budget: stop after this many newly
    /// completed points (`None` = run to completion).
    Budgeted(Option<usize>),
}

/// An execution's result: a report, or checkpointed partial progress.
enum ExecOutcome {
    Report(CampaignReport),
    Partial { done: usize, total: usize },
}

/// Runs a scenario: validates the spec, builds the campaign its axes
/// describe, evaluates every point (in parallel, deterministically) and
/// returns the report.
///
/// This is the one entry point every experiment goes through — the
/// figure presets in [`crate::scenario::ScenarioRegistry`], the
/// examples, and ad-hoc specs loaded from JSON. Specs with a
/// [`crate::scenario::CheckpointSpec`] resume from their manifest and
/// run to completion.
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation or — for
/// checkpointed specs — the manifest cannot be read, written, or does
/// not belong to this spec. Running a validated, uncheckpointed spec
/// cannot fail.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    spec.validate()?;
    match execute(spec, ExecMode::Full)? {
        ExecOutcome::Report(report) => Ok(ScenarioReport {
            spec: spec.clone(),
            report,
        }),
        ExecOutcome::Partial { .. } => unreachable!("a full run always completes"),
    }
}

/// Runs one contiguous shard of a scenario's campaign: the points of
/// `shard` evaluate exactly as they would in [`run`] (per-point seeds
/// derive from absolute indices), and the report contains only those
/// points. Merging every shard's report with
/// [`qic_sweep::CampaignReport::merge`] reproduces the serial report
/// byte for byte — the cross-process fan-out primitive behind
/// `scenario_run --shard i/K`.
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation, or if it has a
/// checkpoint block (a shard neither reads nor writes the manifest, so
/// combining the two would silently disable resume).
pub fn run_shard(spec: &ScenarioSpec, shard: Shard) -> Result<ScenarioReport, ScenarioError> {
    spec.validate()?;
    if spec.checkpoint.is_some() {
        return Err(ScenarioError::Spec {
            scenario: spec.name.clone(),
            problem: "sharded runs do not checkpoint; drop the checkpoint block \
                      (shards are restarted whole) or run unsharded"
                .into(),
        });
    }
    match execute(spec, ExecMode::Shard(shard))? {
        ExecOutcome::Report(report) => Ok(ScenarioReport {
            spec: spec.clone(),
            report,
        }),
        ExecOutcome::Partial { .. } => unreachable!("shard runs always complete"),
    }
}

/// Runs a checkpointed scenario with a point budget: at most `budget`
/// not-yet-completed points are evaluated before the manifest is
/// committed and progress reported (`None` = run to completion). Call
/// repeatedly — or from separate processes, one after another — until
/// [`ScenarioProgress::Complete`]; the final report is byte-identical
/// to an uninterrupted run's.
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation, has no checkpoint
/// block (there is nowhere to record progress), or the manifest cannot
/// be read, written, or does not belong to this spec.
pub fn run_budgeted(
    spec: &ScenarioSpec,
    budget: Option<usize>,
) -> Result<ScenarioProgress, ScenarioError> {
    spec.validate()?;
    if spec.checkpoint.is_none() {
        return Err(ScenarioError::Spec {
            scenario: spec.name.clone(),
            problem: "budgeted runs need a checkpoint block to record progress in".into(),
        });
    }
    match execute(spec, ExecMode::Budgeted(budget))? {
        ExecOutcome::Report(report) => Ok(ScenarioProgress::Complete(Box::new(ScenarioReport {
            spec: spec.clone(),
            report,
        }))),
        ExecOutcome::Partial { done, total } => Ok(ScenarioProgress::Partial { done, total }),
    }
}

/// Runs a scenario on a shared [`Executor`] instead of a transient
/// per-call thread pool.
///
/// The report is **byte-identical** to [`run`]'s: both paths evaluate
/// the same per-point seeds and fold replicates through the same
/// buffered aggregation. What changes is scheduling only — the
/// executor's workers serve this campaign alongside any others
/// submitted concurrently (fair round-robin at point granularity), so a
/// long-lived service can run many scenarios without spawning a pool
/// per request. The spec's `workers` hint is ignored on this path: the
/// pool was sized when the executor was built (explicit count, else the
/// `QIC_WORKERS` environment variable, else the machine's parallelism —
/// see [`Executor::new`]).
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation, or if it has a
/// checkpoint block — executor runs neither read nor write manifests
/// (resume bookkeeping belongs to the dedicated [`run_budgeted`] path),
/// so combining the two would silently disable resume.
pub fn run_on(spec: &ScenarioSpec, exec: &Executor) -> Result<ScenarioReport, ScenarioError> {
    let report = run_on_cancellable(spec, exec, Arc::new(NoProgress), &CancelToken::new())?;
    Ok(report.expect("an uncancelled run completes"))
}

/// [`run_on`] with live progress and cooperative cancellation — the
/// service-layer entry point (`qic-serve` streams the sink's events to
/// job watchers and trips the token on cancel/shutdown).
///
/// `progress` hears one start/finish pair per *point* (not per
/// replicate). Cancelling stops further points from being claimed;
/// points already evaluating finish, and the call returns `Ok(None)`
/// instead of a report. A token that is never cancelled makes this
/// exactly [`run_on`].
///
/// # Errors
///
/// As [`run_on`]: validation failures and checkpointed specs.
pub fn run_on_cancellable(
    spec: &ScenarioSpec,
    exec: &Executor,
    progress: Arc<dyn ProgressSink + Send + Sync>,
    cancel: &CancelToken,
) -> Result<Option<ScenarioReport>, ScenarioError> {
    spec.validate()?;
    if spec.checkpoint.is_some() {
        return Err(ScenarioError::Spec {
            scenario: spec.name.clone(),
            problem: "executor runs do not checkpoint; drop the checkpoint block \
                      or use run_budgeted for resumable execution"
                .into(),
        });
    }
    let pe = Arc::new(PointEval::new(spec));
    let eval = move |point: &SweepPoint<'_>, ctx: RunCtx| pe.eval(point, ctx);
    let report = campaign(spec).run_on_observed(exec, eval, progress, cancel);
    Ok(report.map(|report| ScenarioReport {
        spec: spec.clone(),
        report,
    }))
}

fn campaign(spec: &ScenarioSpec) -> Campaign {
    Campaign::new(spec.name.clone(), spec.param_space())
        .seed(spec.seed)
        .replicates(spec.replicates)
        .workers(spec.workers)
}

/// Maps path-hostile characters of a scenario name to `_`, the shared
/// file-stem convention for trace exports, progress streams and
/// checkpoint manifests.
fn sanitize_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Evaluates a validated spec's points on the transient pool under the
/// chosen execution mode: plain, sharded, or checkpoint/resume
/// (streaming aggregation, atomic manifest commits).
fn execute(spec: &ScenarioSpec, mode: ExecMode) -> Result<ExecOutcome, ScenarioError> {
    let pe = PointEval::new(spec);
    let eval = |point: &SweepPoint<'_>, ctx: RunCtx| pe.eval(point, ctx);
    let campaign = campaign(spec);
    match (mode, &spec.checkpoint) {
        (ExecMode::Shard(shard), _) => Ok(ExecOutcome::Report(campaign.run_shard(shard, eval))),
        (ExecMode::Full, None) => Ok(ExecOutcome::Report(match &spec.observe {
            // Campaign-level observability rides along: a machine-
            // readable progress stream (wall-clock, outside the
            // determinism contract) next to the traces. Checkpointed and
            // sharded runs skip the stream (their eval still writes
            // per-point traces) — the manifest / shard merge is their
            // progress record.
            Some(obs) => {
                let total = spec.param_space().len() * spec.replicates as usize;
                let path = Path::new(&obs.dir)
                    .join(format!("{}.progress.jsonl", sanitize_stem(&spec.name)));
                let file = std::fs::File::create(&path)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
                campaign.run_with_progress(eval, &JsonlProgress::new(file, total))
            }
            None => campaign.run(eval),
        })),
        (ExecMode::Full, Some(ckpt)) => {
            let config = checkpoint_config(spec, &ckpt.dir, ckpt.every)?;
            let report = campaign.run_resumable(&config, eval)?;
            Ok(ExecOutcome::Report(report))
        }
        (ExecMode::Budgeted(budget), Some(ckpt)) => {
            let config = checkpoint_config(spec, &ckpt.dir, ckpt.every)?;
            match campaign.run_resumable_budgeted(&config, budget, eval)? {
                CampaignProgress::Complete(report) => Ok(ExecOutcome::Report(*report)),
                CampaignProgress::Partial { done, total } => {
                    Ok(ExecOutcome::Partial { done, total })
                }
            }
        }
        (ExecMode::Budgeted(_), None) => {
            unreachable!("run_budgeted rejects specs without a checkpoint block")
        }
    }
}

/// Builds the manifest location `{dir}/{stem}.ckpt.json`, creating the
/// directory if needed.
fn checkpoint_config(
    spec: &ScenarioSpec,
    dir: &str,
    every: u32,
) -> Result<CheckpointConfig, ScenarioError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        ScenarioError::Checkpoint(CheckpointError::Io {
            path: dir.to_string(),
            op: "create dir",
            message: e.to_string(),
        })
    })?;
    let path = Path::new(dir).join(format!("{}.ckpt.json", sanitize_stem(&spec.name)));
    Ok(CheckpointConfig::new(path).every(every as usize))
}

/// Writes one evaluation's trace exports under the observe directory.
/// The file stem is `{name}_p{index:04}_r{replicate}`, with any
/// path-hostile characters of the scenario name mapped to `_`.
fn write_traces(
    obs: &ObserveSpec,
    name: &str,
    point: usize,
    replicate: u32,
    probe: &RecordingProbe,
) {
    let stem = sanitize_stem(name);
    let base = Path::new(&obs.dir).join(format!("{stem}_p{point:04}_r{replicate}"));
    if obs.events {
        let path = base.with_extension("events.jsonl");
        std::fs::write(&path, probe.events_jsonl())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
    if obs.chrome_trace {
        let path = base.with_extension("trace.json");
        std::fs::write(&path, probe.chrome_trace())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

/// The owned evaluator behind every scenario point, built once per run
/// from the spec. Everything one point evaluation needs is cloned out
/// of the spec, so the same value serves both execution paths —
/// borrowed by the transient scoped pool (`run` / `run_shard` /
/// `run_budgeted`) and `Arc`'d into the shared [`Executor`] (`run_on`),
/// whose tasks must be `Send + 'static`.
enum PointEval {
    /// A simulated machine point.
    Machine(Box<MachineEval>),
    /// A point of the closed-form pair-budget model.
    Channel(ChannelEval),
}

impl PointEval {
    fn new(spec: &ScenarioSpec) -> PointEval {
        match &spec.experiment {
            ExperimentSpec::Machine { machine, workload } => {
                PointEval::Machine(Box::new(MachineEval::new(spec, machine, workload)))
            }
            ExperimentSpec::Channel {
                placement,
                hops,
                metric,
            } => PointEval::Channel(ChannelEval {
                axes: spec.axes.clone(),
                placement: *placement,
                hops: *hops,
                metric: *metric,
            }),
        }
    }

    fn eval(&self, point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        match self {
            PointEval::Machine(me) => me.eval(point, ctx),
            PointEval::Channel(ce) => ce.eval(point),
        }
    }
}

/// Evaluates machine experiments: per point, apply the axes, compose
/// the fabric, and drive the simulator over it.
struct MachineEval {
    name: String,
    axes: Vec<ScenarioAxis>,
    machine: MachineSpec,
    workload: WorkloadSpec,
    /// Unless a workload axis varies it per point, the program is
    /// generated once up front (QFT-256 is tens of thousands of
    /// instructions).
    base_program: Option<Program>,
    observe: Option<ObserveSpec>,
}

impl MachineEval {
    /// Clones the evaluation state out of a validated spec and creates
    /// the observe directory if trace export is requested.
    fn new(spec: &ScenarioSpec, machine: &MachineSpec, workload: &WorkloadSpec) -> MachineEval {
        let workload_varies = spec
            .axes
            .iter()
            .any(|a| matches!(a, ScenarioAxis::Workloads { .. }));
        let base_program = if workload_varies {
            None
        } else {
            workload.program()
        };
        if let Some(obs) = &spec.observe {
            std::fs::create_dir_all(&obs.dir)
                .unwrap_or_else(|e| panic!("creating observe directory {}: {e}", obs.dir));
        }
        MachineEval {
            name: spec.name.clone(),
            axes: spec.axes.clone(),
            machine: machine.clone(),
            workload: workload.clone(),
            base_program,
            observe: spec.observe.clone(),
        }
    }

    /// Evaluates one `(point, replicate)`: applies every axis to the
    /// base machine/workload, stamps the derived seed on the config,
    /// composes the fabric (base → modular? → degraded?) and drives it.
    /// Modular points that report cost append their cost/fidelity
    /// columns after the measured metrics.
    fn eval(&self, point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        let mut net = self.machine.net_config();
        let mut layout = self.machine.layout;
        let mut wl = self.workload.clone();
        let mut fault = self.machine.fault.clone();
        let mut modular = self.machine.modular.clone();
        for (a, axis) in self.axes.iter().enumerate() {
            axis.apply_machine(
                point.coord(a),
                &mut net,
                &mut layout,
                &mut wl,
                &mut fault,
                &mut modular,
            );
        }
        // Per-point derived seeds follow the engine's replication
        // contract; the simulator draws no random numbers (the seed is
        // provenance), so they cannot shift a figure's numbers. The
        // fault plan keeps its *own* declared seed: which components
        // die is part of the scenario, not of the replication noise.
        net.seed = ctx.seed;
        let tag = (point.index(), ctx.replicate);
        let Some(m) = modular else {
            return self
                .drive_faulted(net.fabric(), fault, net, layout, &wl, tag)
                .metrics();
        };
        let fabric = ModularFabric::new(net.fabric(), &m);
        if m.modules > 1 {
            // The driver addresses the composed grid: modules tile side
            // by side, so placement snakes across the full width. A
            // single module leaves the config untouched — the flat
            // path's placement (gray-coded on hypercubes) included —
            // which is what keeps the degenerate case byte-identical.
            net.mesh_width *= m.modules as u16;
            net.topology = TopologyKind::Mesh;
        }
        let cost = m.report_cost.then(|| cost_columns(&fabric, &net, &m));
        let mut metrics = self
            .drive_faulted(fabric, fault, net, layout, &wl, tag)
            .metrics();
        for (name, value) in cost.into_iter().flatten() {
            metrics.push(name, value);
        }
        metrics
    }

    /// Wraps `topo` in the point's compiled fault plan, if it has one,
    /// and drives it. Scenarios with a fault plan run degraded even at
    /// rate zero, so a fault sweep reports the same metric columns at
    /// every point; plain scenarios drive the untouched fabric.
    fn drive_faulted<T: Topology>(
        &self,
        topo: T,
        fault: Option<FaultPlan>,
        net: NetConfig,
        layout: Layout,
        wl: &WorkloadSpec,
        tag: (usize, u32),
    ) -> NetReport {
        match fault {
            Some(plan) => self.drive(plan.compile(topo), net, layout, wl, tag),
            None => self.drive(topo, net, layout, wl, tag),
        }
    }

    /// Runs one workload over a composed topology — the one place a
    /// scenario builds a simulator — probed when trace export is on.
    /// Programs run at [`ProgramDriver`]'s default gate time (the
    /// machine builder's). `tag` is the `(point index, replicate)` pair
    /// that names any exported traces.
    fn drive<T: Topology>(
        &self,
        topo: T,
        net: NetConfig,
        layout: Layout,
        wl: &WorkloadSpec,
        (point, replicate): (usize, u32),
    ) -> NetReport {
        let mut batch_driver = None;
        let mut program_driver = None;
        let per_point;
        let driver: &mut dyn Driver = match wl {
            WorkloadSpec::Batch { comms } => batch_driver.insert(BatchDriver::new(
                comms
                    .iter()
                    .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
                    .collect(),
            )),
            program_workload => {
                let program = match &self.base_program {
                    Some(shared) => shared,
                    None => {
                        per_point = program_workload
                            .program()
                            .expect("non-batch workloads generate programs");
                        &per_point
                    }
                };
                program_driver.insert(
                    ProgramDriver::new(&net, layout, program)
                        .expect("validated scenario points fit the grid"),
                )
            }
        };
        let report = match &self.observe {
            Some(obs) => {
                let probe = RecordingProbe::with_bins(obs.bins);
                let (report, probe) =
                    NetworkSim::with_topology_probe(net, topo, probe).run_traced(driver);
                write_traces(obs, &self.name, point, replicate, &probe);
                report
            }
            None => NetworkSim::with_topology(net, topo).run(driver),
        };
        // Dropped communications still retire their instructions, so
        // even degraded programs always drain (delivered/dropped counts
        // tell the resilience story).
        if let Some(driver) = program_driver {
            driver.assert_finished();
        }
        report
    }
}

/// The cost/fidelity columns of a modular point: the analytic cost
/// model over the composed fabric's component counts and shape, plus
/// its fidelity estimate. Independent of the simulated run.
fn cost_columns(
    fabric: &ModularFabric<Fabric>,
    net: &NetConfig,
    m: &ModularSpec,
) -> [(&'static str, f64); 4] {
    let t = u64::from(net.teleporters_per_node);
    let g = u64::from(net.generators_per_edge);
    let p = u64::from(net.purifiers_per_site);
    let nodes = fabric.nodes() as u64;
    let intra = fabric.intra_links() as u64;
    let inter = fabric.inter_links() as u64;
    let counts = ComponentCounts {
        nodes,
        intra_links: intra,
        inter_links: inter,
        switch_ports: fabric.switch_ports() as u64,
        teleporters: nodes * t + fabric.uplink_slots(),
        generators: (intra + inter) * g,
        purifiers: nodes * p,
    };
    let shape = NetworkShape {
        avg_distance: fabric.avg_distance(),
        diameter: fabric.diameter(),
        bisection_width: fabric.bisection_width(),
        hop_ns: net.times.teleport(net.hop_cells).as_nanos(),
        inter_penalty_ns: m.inter.latency_ns * u64::from(fabric.tier_hops()),
    };
    let est = CostModel::ion_trap()
        .with_inter_link_cost(m.inter_unit_cost)
        .estimate(&counts, &shape);
    [
        ("cost_dollars", est.dollars),
        ("cost_area_cells", est.area_cells),
        ("predicted_latency_ns", est.predicted_latency_ns),
        ("fidelity", fabric.fidelity_estimate()),
    ]
}

/// Evaluates channel experiments — the closed-form pair-budget model.
struct ChannelEval {
    axes: Vec<ScenarioAxis>,
    placement: PurifyPlacement,
    hops: u32,
    metric: PairMetric,
}

impl ChannelEval {
    fn eval(&self, point: &SweepPoint<'_>) -> Metrics {
        let mut placement = self.placement;
        let mut hops = self.hops;
        let mut rates = None;
        for (a, axis) in self.axes.iter().enumerate() {
            axis.apply_channel(point.coord(a), &mut placement, &mut hops, &mut rates);
        }
        let mut model = ChannelModel::ion_trap().with_placement(placement);
        if let Some(rates) = rates {
            model = model.with_rates(rates);
        }
        Metrics::new().with("pairs", pair_budget(&model, hops, self.metric))
    }
}
