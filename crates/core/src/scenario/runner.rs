//! The two entry points: `run(&spec)` on a per-call pool and
//! `run_with(&spec, &Executor, Plan)` on any pool, for any point set.
//!
//! Every point goes through `PointEval`; a machine point composes its
//! fabric once and `MachineEval::drive` is the one simulator call site.

use std::path::{Path, PathBuf};
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
    Campaign, CampaignProgress, CampaignReport, CheckpointConfig, CheckpointError, Executor,
    JsonlProgress, Metrics, Plan, Points, RunCtx, SweepPoint,
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

/// How far a [`run_with`] call got — either the finished report or the
/// partial progress of a cancelled or budgeted run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioProgress {
    /// Every point of the plan completed; the full report.
    Complete(Box<ScenarioReport>),
    /// The run was cancelled, or the plan's budget ran out, first.
    /// For a checkpointed spec the manifest holds `done` of `total`
    /// points and a later run resumes from it.
    Partial {
        /// Points completed so far (for a resume: across all runs).
        done: usize,
        /// Points in the plan.
        total: usize,
    },
}

impl ScenarioProgress {
    /// The finished report; `None` for partial progress.
    pub fn into_report(self) -> Option<ScenarioReport> {
        match self {
            ScenarioProgress::Complete(report) => Some(*report),
            ScenarioProgress::Partial { .. } => None,
        }
    }
}

/// Runs a scenario: validates the spec, builds the campaign its axes
/// describe, evaluates every point on a per-call pool (in parallel,
/// deterministically) and returns the report.
///
/// This is the entry point every experiment goes through — the figure
/// presets in [`crate::scenario::ScenarioRegistry`], the examples, and
/// ad-hoc specs loaded from JSON. It is [`run_with`] on an
/// [`Executor`] of the spec's `workers` (capped at the point count)
/// with the whole-campaign [`Plan::all`], so specs with a
/// [`crate::scenario::CheckpointSpec`] resume from their manifest and
/// run to completion. An uncheckpointed spec with an
/// [`ObserveSpec`] also streams campaign progress to
/// `{dir}/{name}.progress.jsonl`.
///
/// # Errors
///
/// As [`run_with`]. Running a validated spec with neither a checkpoint
/// nor an observe block cannot fail.
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
    spec.validate()?;
    let mut plan = Plan::all();
    if let (Some(obs), None) = (&spec.observe, &spec.checkpoint) {
        // A machine-readable progress stream (wall-clock, outside the
        // determinism contract) next to the traces.
        let path = observe_dir(obs)?.join(format!("{}.progress.jsonl", sanitize_stem(&spec.name)));
        let file = std::fs::File::create(&path)
            .map_err(|e| io_error(&path, "create progress stream", &e))?;
        plan.progress = Arc::new(JsonlProgress::new(file, spec.param_space().len()));
    }
    let exec = Executor::new(campaign(spec).pool_size());
    Ok(execute(spec, &exec, plan)?
        .into_report()
        .expect("an uncancelled whole-campaign run completes"))
}

/// Runs the points `plan` selects of a validated scenario on `exec`.
///
/// The report is **byte-identical** to [`run`]'s whatever the pool
/// size or the concurrent load on `exec` (fair round-robin at point
/// granularity — how `qic-serve` runs many scenarios on one pool); the
/// spec's `workers` hint is not used, as the pool was sized when the
/// executor was built. The plan's point set is read against the spec:
///
/// * [`Points::All`] is the whole campaign — resumed from the spec's
///   checkpoint manifest when it has a checkpoint block;
/// * [`Points::Shard`] evaluates one contiguous shard; merging every
///   shard's report with [`qic_sweep::CampaignReport::merge`]
///   reproduces the whole report byte for byte (the cross-process
///   fan-out behind `scenario_run --shard i/K`);
/// * [`Points::Resume`] is rejected: a scenario's manifest is the one
///   its checkpoint block names, so resume by running [`Plan::all`] on
///   a checkpointed spec.
///
/// A budget (`Plan { budget: Some(n), ..Plan::all() }`) on a
/// checkpointed spec evaluates at most `n` missing points and commits
/// the manifest — call repeatedly (or from separate processes, one
/// after another) until [`ScenarioProgress::Complete`].
///
/// Tripping the plan's cancel token stops further point claims; the
/// call then returns [`ScenarioProgress::Partial`] (a checkpointed run
/// commits the finished points first). The plan's progress sink hears
/// one start/finish pair per point.
///
/// # Errors
///
/// [`ScenarioError`] if the spec fails validation; if a shard plan
/// meets a checkpoint block (a shard neither reads nor writes the
/// manifest, so combining the two would silently disable resume); if a
/// budget meets a spec without one (there is nowhere to record
/// progress); if the plan is a [`Points::Resume`]; if the observe
/// directory cannot be created; or if the manifest cannot be read,
/// written, or does not belong to this spec.
pub fn run_with(
    spec: &ScenarioSpec,
    exec: &Executor,
    plan: Plan,
) -> Result<ScenarioProgress, ScenarioError> {
    spec.validate()?;
    execute(spec, exec, plan)
}

/// [`run_with`] minus validation: reads the plan against the spec's
/// checkpoint block, prepares the output directories, and executes.
fn execute(
    spec: &ScenarioSpec,
    exec: &Executor,
    plan: Plan,
) -> Result<ScenarioProgress, ScenarioError> {
    let spec_err = |problem: &str| ScenarioError::Spec {
        scenario: spec.name.clone(),
        problem: problem.into(),
    };
    if let Points::Resume(_) = plan.points {
        return Err(spec_err(
            "a scenario resumes from its own checkpoint block's manifest; \
             run the whole-campaign plan on a checkpointed spec instead",
        ));
    }
    if plan.budget.is_some() && spec.checkpoint.is_none() {
        return Err(spec_err(
            "budgeted runs need a checkpoint block to record progress in",
        ));
    }
    let points = match (plan.points, &spec.checkpoint) {
        (Points::Shard(_), Some(_)) => {
            return Err(spec_err(
                "sharded runs do not checkpoint; drop the checkpoint block \
                 (shards are restarted whole) or run unsharded",
            ))
        }
        (_, Some(ckpt)) => {
            // `{dir}/{name}.ckpt.json`, committed every `every` points.
            std::fs::create_dir_all(&ckpt.dir).map_err(|e| {
                ScenarioError::Checkpoint(CheckpointError::Io {
                    path: ckpt.dir.clone(),
                    op: "create dir",
                    message: e.to_string(),
                })
            })?;
            let path =
                Path::new(&ckpt.dir).join(format!("{}.ckpt.json", sanitize_stem(&spec.name)));
            Points::Resume(CheckpointConfig::new(path).every(ckpt.every as usize))
        }
        (points, None) => points,
    };
    if let Some(obs) = &spec.observe {
        observe_dir(obs)?;
    }
    let pe = Arc::new(PointEval::new(spec));
    let eval = move |point: &SweepPoint<'_>, ctx: RunCtx| pe.eval(point, ctx);
    let plan = Plan { points, ..plan };
    Ok(match campaign(spec).execute(exec, plan, eval)? {
        CampaignProgress::Complete(report) => {
            ScenarioProgress::Complete(Box::new(ScenarioReport {
                spec: spec.clone(),
                report: *report,
            }))
        }
        CampaignProgress::Partial { done, total } => ScenarioProgress::Partial { done, total },
    })
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

fn io_error(path: &Path, op: &'static str, e: &std::io::Error) -> ScenarioError {
    ScenarioError::Io {
        path: path.display().to_string(),
        op,
        message: e.to_string(),
    }
}

/// Creates the observe directory, so an unusable one fails the run
/// before any point is evaluated.
fn observe_dir(obs: &ObserveSpec) -> Result<PathBuf, ScenarioError> {
    let dir = PathBuf::from(&obs.dir);
    std::fs::create_dir_all(&dir).map_err(|e| io_error(&dir, "create observe dir", &e))?;
    Ok(dir)
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
/// of the spec, because the [`Executor`]'s tasks must be
/// `Send + 'static`.
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
    /// Clones the evaluation state out of a validated spec.
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
