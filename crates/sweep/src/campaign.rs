//! Campaign definition and execution.

use std::ops::Range;
use std::sync::Arc;

use crate::checkpoint::{CheckpointConfig, CheckpointError, Manifest};
use crate::derive_seed;
use crate::exec::{default_workers, CancelToken, Executor};
use crate::progress::{NoProgress, ProgressSink};
use crate::report::{CampaignReport, PointReport};
use crate::shard::Shard;
use crate::space::{ParamSpace, SweepPoint};
use qic_des::metrics::Metrics;
use qic_des::stats::Tally;

/// Per-evaluation context handed to the campaign's evaluation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// The seed for this `(point, replicate)` evaluation, derived by
    /// [`derive_seed`] — identical whatever thread or order ran it.
    pub seed: u64,
    /// Replicate number, `0..replicates`.
    pub replicate: u32,
}

/// Which points of a campaign one [`Campaign::execute`] call evaluates.
#[derive(Debug, Clone)]
pub enum Points {
    /// Every point; replicates are buffered, so the report keeps each
    /// point's raw replicate metrics.
    All,
    /// One contiguous shard `i/K` — exactly the points of
    /// [`Shard::point_range`], buffered like [`Points::All`], reported
    /// alone. Per-point seeds derive from the point's **absolute**
    /// index, so merging every shard's report with
    /// [`CampaignReport::merge`] reproduces the whole campaign's report
    /// byte for byte: run shard `i/K` on machine `i`, ship the records
    /// home, merge.
    Shard(Shard),
    /// Resume from a checkpoint manifest (where it lives and how often
    /// it is committed): load the points a previous run committed,
    /// evaluate the missing ones, and commit the manifest as points
    /// land.
    ///
    /// Resumed points fold their replicates into streaming tallies
    /// (a point's replicates never co-reside in memory), so
    /// [`PointReport::replicates`] is empty and the JSON emitter's
    /// `samples` arrays are too; the summaries, the CSV and the record
    /// JSON are bit-for-bit those of a buffered run. Kill and resume as
    /// often as you like: the final report is byte-identical to an
    /// uninterrupted resume run's.
    Resume(CheckpointConfig),
}

/// How one [`Campaign::execute`] call runs: the points it evaluates, a
/// cap on how many it evaluates, a progress observer, and a
/// cancellation latch.
///
/// Build one with [`Plan::all`], [`Plan::shard`] or [`Plan::resume`]
/// and override the budget, observer or latch with struct-update
/// syntax:
///
/// ```
/// use std::sync::Arc;
/// use qic_sweep::{CancelToken, JsonlProgress, Plan};
///
/// let cancel = CancelToken::new();
/// let plan = Plan {
///     progress: Arc::new(JsonlProgress::new(std::io::sink(), 6)),
///     cancel: cancel.clone(),
///     ..Plan::all()
/// };
/// # let _ = plan;
/// ```
pub struct Plan {
    /// The point set.
    pub points: Points,
    /// The most not-yet-completed points to evaluate this call (`None`
    /// = all of them); a run it stops short returns
    /// [`CampaignProgress::Partial`]. Meant for resume plans, whose
    /// manifest keeps the evaluated points for the next call.
    pub budget: Option<usize>,
    /// Hears every point claim and finish, from the worker that ran it.
    /// Task indices are positions in the plan's point set (the point
    /// indices themselves for [`Points::All`]).
    pub progress: Arc<dyn ProgressSink + Send + Sync>,
    /// Tripping it stops further point claims; in-flight points finish
    /// and the run returns [`CampaignProgress::Partial`].
    pub cancel: CancelToken,
}

impl Plan {
    /// The whole campaign, unobserved and never cancelled.
    pub fn all() -> Plan {
        Plan::of(Points::All)
    }

    /// Shard `shard` of the campaign, unobserved and never cancelled.
    pub fn shard(shard: Shard) -> Plan {
        Plan::of(Points::Shard(shard))
    }

    /// Resume from `checkpoint`, unbudgeted, unobserved and never
    /// cancelled.
    pub fn resume(checkpoint: CheckpointConfig) -> Plan {
        Plan::of(Points::Resume(checkpoint))
    }

    fn of(points: Points) -> Plan {
        Plan {
            points,
            budget: None,
            progress: Arc::new(NoProgress),
            cancel: CancelToken::new(),
        }
    }
}

/// Outcome of [`Campaign::execute`]: the finished report, or how far the
/// run got.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignProgress {
    /// Every point of the plan completed; this is its report.
    Complete(Box<CampaignReport>),
    /// The run was cancelled, or the plan's budget ran out, first.
    /// A resume plan's manifest holds the finished points and a later
    /// run picks up from there.
    Partial {
        /// Points completed so far (for a resume plan: across all runs).
        done: usize,
        /// Points in the plan.
        total: usize,
    },
}

impl CampaignProgress {
    /// The finished report; `None` for partial progress.
    pub fn into_report(self) -> Option<CampaignReport> {
        match self {
            CampaignProgress::Complete(report) => Some(*report),
            CampaignProgress::Partial { .. } => None,
        }
    }
}

/// A declarative sweep: a parameter space, replication, seeding and a
/// worker budget.
///
/// The evaluation function is supplied at [`Campaign::run`] time, so
/// one campaign definition can drive simulators, analytic models, or
/// anything else that maps a point to [`Metrics`].
///
/// # Example
///
/// ```
/// use qic_sweep::{Axis, Campaign, Metrics, ParamSpace};
///
/// let space = ParamSpace::new()
///     .axis(Axis::ints("n", [1, 2, 3]))
///     .axis(Axis::ints("k", [10, 20]));
/// let report = Campaign::new("toy", space)
///     .workers(4)
///     .run(|point, _ctx| {
///         let v = (point.i64("n") * point.i64("k")) as f64;
///         Metrics::new().with("product", v)
///     });
/// assert_eq!(report.points.len(), 6);
/// assert_eq!(report.mean_at(5, "product"), Some(60.0));
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    space: ParamSpace,
    replicates: u32,
    seed: u64,
    workers: usize,
}

impl Campaign {
    /// A campaign over `space` with one replicate, seed 0, and the
    /// default worker budget.
    pub fn new(name: impl Into<String>, space: ParamSpace) -> Campaign {
        Campaign {
            name: name.into(),
            space,
            replicates: 1,
            seed: 0,
            workers: 0,
        }
    }

    /// Sets the replicates evaluated per point (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicates(mut self, n: u32) -> Campaign {
        assert!(n > 0, "campaigns need at least one replicate");
        self.replicates = n;
        self
    }

    /// Sets the campaign-level seed (default 0).
    pub fn seed(mut self, seed: u64) -> Campaign {
        self.seed = seed;
        self
    }

    /// Pins the worker-thread count [`Campaign::run`] uses; `0` (the
    /// default) uses [`default_workers`].
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter space.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Replicates evaluated per point.
    pub fn replicate_count(&self) -> u32 {
        self.replicates
    }

    /// The campaign-level seed per-point seeds derive from.
    pub fn campaign_seed(&self) -> u64 {
        self.seed
    }

    /// The pool size [`Campaign::run`] uses: the pinned (or default)
    /// worker count, capped at the number of points.
    pub fn pool_size(&self) -> usize {
        let workers = if self.workers == 0 {
            default_workers()
        } else {
            self.workers
        };
        workers.min(self.space.len()).max(1)
    }

    /// Evaluates every point on a per-call [`Executor`] of
    /// [`Campaign::pool_size`] workers and returns the report.
    ///
    /// This is [`Campaign::execute`] with [`Plan::all`]: results are
    /// addressed by point index, so the report is byte-identical for
    /// any worker count. A panic inside `eval` cancels the remaining
    /// points and propagates.
    pub fn run<F>(&self, eval: F) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
    {
        self.execute(&Executor::new(self.pool_size()), Plan::all(), eval)
            .ok()
            .and_then(CampaignProgress::into_report)
            .expect("an uncancelled whole-campaign run completes")
    }

    /// Evaluates the points `plan` selects on `exec` — the one way a
    /// campaign runs, whether whole, sharded or resumed, on a per-call
    /// pool or on one shared by many concurrent campaigns.
    ///
    /// Each point is one task: its replicates are evaluated in the task
    /// with seeds from [`derive_seed`], and the result is placed by
    /// point index. The report is therefore byte-identical whatever
    /// the pool size, the concurrent load on `exec`, or the shard split
    /// (see [`Points`] for how each point set folds replicates). The
    /// campaign's own [`Campaign::workers`] setting is not used here:
    /// the pool was sized at [`Executor::new`].
    ///
    /// A panic inside `eval` (or in the plan's progress sink) cancels
    /// the remaining points of **this** campaign and propagates here;
    /// concurrent submissions are unaffected.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if a resume plan's manifest cannot be read,
    /// written, or does not belong to this campaign. Work committed
    /// before the error is preserved in the manifest.
    pub fn execute<F>(
        &self,
        exec: &Executor,
        plan: Plan,
        eval: F,
    ) -> Result<CampaignProgress, CheckpointError>
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
    {
        let n_points = self.space.len();
        let mut slots: Vec<Option<PointReport>> = Vec::new();
        slots.resize_with(n_points, || None);
        let mut wall_ns: Vec<u64> = vec![0; n_points];
        let mut manifest = None;
        // The points the report covers, and those still to evaluate.
        let (reported, mut todo): (Range<usize>, Vec<usize>) = match &plan.points {
            Points::All => (0..n_points, (0..n_points).collect()),
            Points::Shard(shard) => {
                let range = shard.point_range(n_points);
                (range.clone(), range.collect())
            }
            Points::Resume(checkpoint) => {
                let m = Manifest::new(self, checkpoint);
                slots = m.load(n_points)?;
                manifest = Some(m);
                (
                    0..n_points,
                    (0..n_points).filter(|&i| slots[i].is_none()).collect(),
                )
            }
        };
        todo.truncate(plan.budget.unwrap_or(usize::MAX));

        if !todo.is_empty() {
            let tasks = todo.len();
            let streaming = manifest.is_some();
            let campaign = Arc::new(self.clone());
            let task = move |task: usize| campaign.eval_point(todo[task], streaming, &eval);
            // The sink runs on this thread, so committing from it is
            // ordinary sequential file I/O; a commit error stops
            // further claims and fails the run once in-flight points
            // drain. It stops them through a child of the caller's
            // token, so a token the caller shares between runs is left
            // untripped.
            let stop = plan.cancel.child();
            let mut commit_error: Option<CheckpointError> = None;
            let mut fresh = 0usize;
            exec.run_indexed(
                tasks,
                task,
                |_task, point, wall| {
                    if commit_error.is_some() {
                        return;
                    }
                    let index = point.index;
                    wall_ns[index] = wall;
                    slots[index] = Some(point);
                    fresh += 1;
                    if let Some(m) = &manifest {
                        if fresh % m.every() == 0 {
                            if let Err(e) = m.commit(&slots) {
                                commit_error = Some(e);
                                stop.cancel();
                            }
                        }
                    }
                },
                plan.progress,
                &stop,
            );
            if let Some(e) = commit_error {
                return Err(e);
            }
            if let Some(m) = &manifest {
                m.commit(&slots)?;
            }
        }

        let total = reported.len();
        let done = slots[reported.clone()].iter().flatten().count();
        if done < total {
            return Ok(CampaignProgress::Partial { done, total });
        }
        let points = slots
            .drain(reported.clone())
            .map(|s| s.expect("every point completed"))
            .collect();
        let wall_ns = wall_ns[reported].to_vec();
        Ok(CampaignProgress::Complete(Box::new(
            self.report_of(points, wall_ns),
        )))
    }

    /// Evaluates every replicate of point `index` in sequence. Buffered
    /// (`streaming == false`) keeps the replicate metrics in the
    /// report; streaming folds each into per-metric tallies as it is
    /// produced — first-appearance metric order, samples in replicate
    /// order, the same fold [`PointReport::from_replicates`] performs —
    /// so the summaries are bitwise identical either way.
    fn eval_point<F>(&self, index: usize, streaming: bool, eval: &F) -> PointReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics,
    {
        let point = self.space.point(index);
        let params = point
            .params()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let ctx = |replicate| RunCtx {
            seed: derive_seed(self.seed, index as u64, u64::from(replicate)),
            replicate,
        };
        if !streaming {
            let replicates = (0..self.replicates)
                .map(|replicate| eval(&point, ctx(replicate)))
                .collect();
            return PointReport::from_replicates(index, params, replicates);
        }
        let mut names: Vec<String> = Vec::new();
        let mut tallies: Vec<Tally> = Vec::new();
        for replicate in 0..self.replicates {
            for (name, v) in eval(&point, ctx(replicate)).iter() {
                match names.iter().position(|n| n == name) {
                    Some(i) => tallies[i].record(v),
                    None => {
                        names.push(name.to_string());
                        let mut t = Tally::new();
                        t.record(v);
                        tallies.push(t);
                    }
                }
            }
        }
        PointReport::from_tallies(index, params, names.into_iter().zip(tallies).collect())
    }

    /// Wraps completed points into the campaign's report envelope.
    fn report_of(&self, points: Vec<PointReport>, wall_ns: Vec<u64>) -> CampaignReport {
        CampaignReport {
            name: self.name.clone(),
            seed: self.seed,
            replicates: self.replicates,
            axes: self.space.axes().to_vec(),
            points,
            wall_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Axis, AxisValue};

    /// Runs `plan` to completion on a fresh pool of `workers`.
    fn complete(campaign: &Campaign, workers: usize, plan: Plan) -> CampaignReport {
        campaign
            .execute(&Executor::new(workers), plan, eval)
            .unwrap()
            .into_report()
            .expect("the plan completes")
    }

    fn toy_space() -> ParamSpace {
        ParamSpace::new()
            .axis(Axis::ints("a", [1, 2, 3]))
            .axis(Axis::ints("b", [0, 10]))
    }

    /// A synthetic evaluation that depends on point values, the derived
    /// seed and the replicate — enough structure to catch any
    /// cross-wiring of task indices.
    fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
        Metrics::new()
            .with("v", (point.i64("a") + point.i64("b")) as f64)
            .with("seed_lo", (ctx.seed % 1000) as f64)
            .with("rep", f64::from(ctx.replicate))
    }

    #[test]
    fn points_land_at_their_index() {
        let report = Campaign::new("t", toy_space()).workers(3).run(eval);
        assert_eq!(report.points.len(), 6);
        for (i, p) in report.points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Point 3 is a=2, b=10.
        assert_eq!(report.mean_at(3, "v"), Some(12.0));
        assert_eq!(report.points[3].param("a"), &AxisValue::Int(2));
    }

    #[test]
    fn replicates_aggregate() {
        let report = Campaign::new("t", toy_space())
            .replicates(3)
            .workers(2)
            .run(eval);
        let p = &report.points[0];
        assert_eq!(p.replicates.len(), 3);
        // Replicate numbers 0,1,2 in order.
        let reps: Vec<f64> = p.replicates.iter().map(|m| m.get("rep").unwrap()).collect();
        assert_eq!(reps, vec![0.0, 1.0, 2.0]);
        assert_eq!(p.mean("rep"), Some(1.0));
        let s = p.summaries.iter().find(|s| s.name == "rep").unwrap();
        assert!(s.ci95.is_some());
        assert_eq!(s.n, 3);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let runs: Vec<CampaignReport> = [1, 2, 4, 8]
            .iter()
            .map(|&w| {
                Campaign::new("det", toy_space())
                    .replicates(2)
                    .seed(42)
                    .workers(w)
                    .run(eval)
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(&runs[0], other);
            assert_eq!(runs[0].to_json(), other.to_json());
            assert_eq!(runs[0].to_csv(), other.to_csv());
        }
    }

    #[test]
    fn progress_run_matches_plain_run_and_captures_wall_times() {
        use crate::exec::tests::SharedBuf;
        use crate::progress::JsonlProgress;
        let plain = Campaign::new("p", toy_space())
            .replicates(2)
            .seed(9)
            .workers(2)
            .run(eval);
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlProgress::new(buf.clone(), 6));
        let plan = Plan {
            progress: Arc::clone(&sink) as _,
            ..Plan::all()
        };
        let observed = complete(
            &Campaign::new("p", toy_space()).replicates(2).seed(9),
            2,
            plan,
        );
        assert_eq!(plain, observed, "observation must not perturb results");
        assert_eq!(plain.to_json(), observed.to_json());
        assert_eq!(observed.wall_ns.len(), 6, "one wall time per point");
        assert_eq!(sink.done(), 6, "one task per point");
        let text = buf.text();
        assert_eq!(text.lines().count(), 12, "a start and done line per task");
    }

    #[test]
    fn seeds_differ_by_point_and_replicate() {
        let report = Campaign::new("t", toy_space())
            .replicates(2)
            .seed(7)
            .workers(1)
            .run(eval);
        let mut lows: Vec<f64> = report
            .points
            .iter()
            .flat_map(|p| p.replicates.iter().map(|m| m.get("seed_lo").unwrap()))
            .collect();
        let n = lows.len();
        lows.sort_by(f64::total_cmp);
        lows.dedup();
        // 12 derived seeds; their low digits should essentially all
        // differ (splitmix64 scrambles well).
        assert!(lows.len() >= n - 1, "derived seeds collide: {lows:?}");
    }

    #[test]
    fn empty_space_runs_zero_points() {
        let space = ParamSpace::new().axis(Axis::ints("a", []));
        let report = Campaign::new("empty", space).run(|_, _| unreachable!());
        assert!(report.points.is_empty());
        assert!(report.to_csv().starts_with("index,a"));
    }

    #[test]
    fn a_budget_caps_the_points_evaluated() {
        let plan = Plan {
            budget: Some(4),
            ..Plan::all()
        };
        let progress = toy_campaign()
            .execute(&Executor::new(2), plan, eval)
            .unwrap();
        assert_eq!(progress, CampaignProgress::Partial { done: 4, total: 6 });
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        let _ = Campaign::new("t", toy_space()).replicates(0);
    }

    fn toy_campaign() -> Campaign {
        Campaign::new("t", toy_space())
            .replicates(3)
            .seed(2006)
            .workers(3)
    }

    #[test]
    fn merged_shards_reproduce_the_serial_report_byte_for_byte() {
        let serial = toy_campaign().workers(1).run(eval);
        for count in 1..=6usize {
            let parts: Vec<CampaignReport> = (0..count)
                .map(|i| complete(&toy_campaign(), 3, Plan::shard(Shard::new(i, count))))
                .collect();
            let merged = CampaignReport::merge(parts).unwrap();
            assert_eq!(merged, serial, "{count} shards");
            assert_eq!(merged.to_json(), serial.to_json(), "{count} shards");
            assert_eq!(merged.to_csv(), serial.to_csv(), "{count} shards");
            assert_eq!(
                merged.to_record_json(),
                serial.to_record_json(),
                "{count} shards"
            );
        }
    }

    #[test]
    fn shard_merge_order_does_not_matter() {
        let serial = toy_campaign().run(eval);
        let mut parts: Vec<CampaignReport> = (0..3)
            .map(|i| complete(&toy_campaign(), 3, Plan::shard(Shard::new(i, 3))))
            .collect();
        parts.reverse();
        assert_eq!(CampaignReport::merge(parts).unwrap(), serial);
    }

    #[test]
    fn shard_merge_rejects_gaps_overlaps_and_foreign_parts() {
        use crate::shard::MergeError;
        let shard =
            |i: usize, k: usize| complete(&toy_campaign(), 3, Plan::shard(Shard::new(i, k)));
        // Missing the second half.
        let err = CampaignReport::merge(vec![shard(0, 2)]).unwrap_err();
        assert!(matches!(err, MergeError::Gap { index: 3 }), "{err}");
        // The same half twice.
        let err = CampaignReport::merge(vec![shard(0, 2), shard(0, 2)]).unwrap_err();
        assert!(matches!(err, MergeError::Overlap { index: 0 }), "{err}");
        // A shard of a different campaign seed.
        let foreign = complete(&toy_campaign().seed(7), 3, Plan::shard(Shard::new(1, 2)));
        let err = CampaignReport::merge(vec![shard(0, 2), foreign]).unwrap_err();
        assert!(
            matches!(err, MergeError::Mismatch { field: "seed" }),
            "{err}"
        );
        assert!(CampaignReport::merge(vec![]).is_err());
    }

    /// A fresh manifest path under the temp dir.
    fn fresh_manifest(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("qic_sweep_{tag}_{}.ckpt.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A resume plan over a fresh manifest: the streaming fold.
    fn streamed(campaign: &Campaign, workers: usize) -> CampaignReport {
        let path = fresh_manifest(&format!("stream{workers}"));
        let report = complete(
            campaign,
            workers,
            Plan::resume(CheckpointConfig::new(&path)),
        );
        let _ = std::fs::remove_file(&path);
        report
    }

    #[test]
    fn streaming_matches_buffered_summaries_and_csv() {
        let buffered = toy_campaign().run(eval);
        let streamed = streamed(&toy_campaign(), 3);
        // Summaries are bitwise identical (same fold, same order)...
        for (b, s) in buffered.points.iter().zip(&streamed.points) {
            assert_eq!(b.index, s.index);
            assert_eq!(b.params, s.params);
            assert_eq!(b.summaries, s.summaries);
            // ...but streaming keeps no raw replicates.
            assert_eq!(b.replicates.len(), 3);
            assert!(s.replicates.is_empty());
        }
        // The CSV emitter reads only summaries — identical bytes.
        assert_eq!(buffered.to_csv(), streamed.to_csv());
    }

    #[test]
    fn streaming_is_deterministic_across_worker_counts() {
        let one = streamed(&toy_campaign(), 1);
        for w in [2, 4, 8] {
            let many = streamed(&toy_campaign(), w);
            assert_eq!(one, many, "{w} workers");
            assert_eq!(one.to_record_json(), many.to_record_json(), "{w} workers");
        }
    }

    #[test]
    fn streaming_sink_sees_every_point_exactly_once() {
        let seen = Arc::new(std::sync::Mutex::new(vec![0usize; 6]));
        let counter = Arc::clone(&seen);
        let path = fresh_manifest("once");
        toy_campaign()
            .execute(
                &Executor::new(3),
                Plan::resume(CheckpointConfig::new(&path)),
                move |point, ctx| {
                    if ctx.replicate == 0 {
                        counter.lock().unwrap()[point.index()] += 1;
                    }
                    eval(point, ctx)
                },
            )
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(*seen.lock().unwrap(), vec![1; 6]);
    }
}
