//! Campaign definition and execution.

use std::ops::Range;
use std::sync::Arc;

use crate::derive_seed;
use crate::exec::{default_workers, run_indexed_observed, CancelToken, Executor};
use crate::progress::{NoProgress, ProgressSink};
use crate::report::{CampaignReport, PointReport};
use crate::shard::Shard;
use crate::space::{AxisValue, ParamSpace, SweepPoint};
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

    /// Pins the worker-thread count; `0` (the default) uses
    /// [`default_workers`].
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

    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            default_workers()
        } else {
            self.workers
        }
    }

    /// The [`RunCtx`] for one `(point, replicate)` evaluation — the
    /// same derivation whether the campaign runs whole, sharded,
    /// streamed or resumed.
    fn ctx(&self, point_index: usize, replicate: u32) -> RunCtx {
        RunCtx {
            seed: derive_seed(self.seed, point_index as u64, u64::from(replicate)),
            replicate,
        }
    }

    /// Evaluates every `(point, replicate)` on the worker pool and
    /// aggregates the streamed results into a [`CampaignReport`].
    ///
    /// Results are aggregated as they arrive (a point's summary is
    /// finalised the moment its last replicate lands), but addressed by
    /// point index, so the report is byte-identical for any worker
    /// count. A panic inside `eval` cancels the remaining points and
    /// propagates.
    pub fn run<F>(&self, eval: F) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
    {
        self.run_with_progress(eval, &NoProgress)
    }

    /// [`Campaign::run`] with a [`ProgressSink`] observing the executor:
    /// the sink hears every task claim and completion as they happen
    /// (points done, in-flight, per-worker attribution).
    ///
    /// Progress output is wall-clock and scheduling-dependent; the
    /// returned report is still byte-identical for any worker count
    /// (per-point wall times are captured in
    /// [`CampaignReport::wall_ns`], which is excluded from report
    /// equality and serialization).
    pub fn run_with_progress<F>(&self, eval: F, progress: &dyn ProgressSink) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
    {
        let (points, wall_ns) = self.run_range_buffered(0..self.space.len(), &eval, progress);
        self.report_of(points, wall_ns)
    }

    /// Evaluates the campaign on a shared [`Executor`] instead of the
    /// per-call transient pool — the multi-tenant path behind
    /// `qic-serve`, where many campaigns share one machine fairly.
    ///
    /// The report is **byte-identical** to [`Campaign::run`]'s (same
    /// buffered per-point fold, same derived seeds, index-addressed),
    /// whatever the pool size or concurrent load. Differences from
    /// `run`:
    ///
    /// * scheduling is per **point** (one task per point, replicates
    ///   evaluated in-task), the granularity at which the executor
    ///   round-robins between concurrent submissions;
    /// * the campaign's own [`Campaign::workers`] setting is ignored —
    ///   the pool was sized at [`Executor::new`] (explicit count >
    ///   `QIC_WORKERS` > default);
    /// * `eval` must be `Send + 'static` (the pool's threads outlive
    ///   this call's borrows).
    ///
    /// A panic inside `eval` cancels the remaining points of **this**
    /// campaign and propagates here; concurrent submissions are
    /// unaffected.
    pub fn run_on<F>(&self, exec: &Executor, eval: F) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
    {
        self.run_on_observed(exec, eval, Arc::new(NoProgress), &CancelToken::new())
            .expect("an uncancelled run completes")
    }

    /// [`Campaign::run_on`] with observability and cancellation:
    /// `progress` hears every point claim/finish (task indices are
    /// **point** indices here, with pool-worker attribution), and
    /// tripping `cancel` stops further point claims — in-flight points
    /// finish, then the run returns `None`. `Some(report)` is
    /// byte-identical to [`Campaign::run`]'s.
    pub fn run_on_observed<F>(
        &self,
        exec: &Executor,
        eval: F,
        progress: Arc<dyn ProgressSink + Send + Sync>,
        cancel: &CancelToken,
    ) -> Option<CampaignReport>
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Send + Sync + 'static,
    {
        let n_points = self.space.len();
        let campaign = Arc::new(self.clone());
        let task = {
            let campaign = Arc::clone(&campaign);
            move |index: usize| -> PointReport {
                let point = campaign.space.point(index);
                // The same replicate-buffering fold as the transient
                // path (`run_range_buffered`), so the report bytes —
                // including per-metric `samples` arrays — match.
                let replicates: Vec<Metrics> = (0..campaign.replicates)
                    .map(|replicate| eval(&point, campaign.ctx(index, replicate)))
                    .collect();
                PointReport::from_replicates(
                    index,
                    point_params(&campaign.space, index),
                    replicates,
                )
            }
        };
        let mut slots: Vec<Option<(PointReport, u64)>> = Vec::new();
        slots.resize_with(n_points, || None);
        let complete = exec.run_indexed_observed(
            n_points,
            task,
            |index, point, wall_ns| slots[index] = Some((point, wall_ns)),
            progress,
            cancel,
        );
        if !complete {
            return None;
        }
        let (points, wall_ns) = slots
            .into_iter()
            .map(|s| s.expect("every point completed"))
            .unzip();
        Some(self.report_of(points, wall_ns))
    }

    /// Evaluates one contiguous shard of the campaign — exactly the
    /// points of [`Shard::point_range`], full replicate buffering like
    /// [`Campaign::run`] — and reports only those points.
    ///
    /// Per-point seeds derive from the point's **absolute** index, so a
    /// shard's evaluations are identical to the same points of a serial
    /// run; merging every shard's report with [`CampaignReport::merge`]
    /// reproduces the serial report byte for byte (JSON and CSV). This
    /// is the cross-process fan-out primitive: run shard `i/K` on
    /// machine `i`, ship the records home, merge.
    ///
    /// [`CampaignReport::merge`]: crate::report::CampaignReport::merge
    pub fn run_shard<F>(&self, shard: Shard, eval: F) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
    {
        let range = shard.point_range(self.space.len());
        let (points, wall_ns) = self.run_range_buffered(range, &eval, &NoProgress);
        self.report_of(points, wall_ns)
    }

    /// Evaluates the whole campaign with **streaming aggregation**: one
    /// task per point, replicates folded into per-metric Welford
    /// tallies ([`qic_des::stats::Tally`]) as they are produced, so a
    /// point's replicates never co-reside in memory.
    ///
    /// The resulting summaries (and therefore the CSV emitter's bytes)
    /// are bit-for-bit identical to [`Campaign::run`]'s — the fold
    /// visits the same samples in the same order. What streaming gives
    /// up is the raw replicate list: [`PointReport::replicates`] is
    /// empty, so [`CampaignReport::to_json`]'s per-metric `samples`
    /// arrays are empty too. Compare streaming runs against streaming
    /// runs for JSON byte-identity; CSV is identical across both modes.
    pub fn run_streaming<F>(&self, eval: F) -> CampaignReport
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
    {
        let indices: Vec<usize> = (0..self.space.len()).collect();
        let mut slots: Vec<Option<(PointReport, u64)>> = Vec::new();
        slots.resize_with(indices.len(), || None);
        self.run_point_set(&indices, &eval, |point, wall| {
            let i = point.index;
            slots[i] = Some((point, wall));
        });
        let (points, wall_ns) = slots
            .into_iter()
            .map(|s| s.expect("every point completed"))
            .unzip();
        self.report_of(points, wall_ns)
    }

    /// Buffered (replicate-retaining) evaluation of a contiguous point
    /// range: the engine behind [`Campaign::run`] and
    /// [`Campaign::run_shard`]. Returns the completed points in index
    /// order plus their wall times.
    fn run_range_buffered<F>(
        &self,
        range: Range<usize>,
        eval: &F,
        progress: &dyn ProgressSink,
    ) -> (Vec<PointReport>, Vec<u64>)
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
    {
        let base = range.start;
        let n_points = range.len();
        let reps = self.replicates as usize;
        let tasks = n_points * reps;

        // Replicate slots per point, filled as results stream in; a
        // point's report is built once its replicate set completes.
        let mut pending: Vec<Vec<Option<Metrics>>> = vec![vec![None; reps]; n_points];
        let mut remaining: Vec<usize> = vec![reps; n_points];
        let mut reports: Vec<Option<PointReport>> = Vec::new();
        reports.resize_with(n_points, || None);
        // Per-point wall time: replicate wall times summed. Measurement
        // noise only — excluded from report equality and serialization.
        let mut wall_ns: Vec<u64> = vec![0; n_points];

        run_indexed_observed(
            tasks,
            self.resolved_workers(),
            |task| {
                let point = self.space.point(base + task / reps);
                let replicate = (task % reps) as u32;
                eval(&point, self.ctx(point.index(), replicate))
            },
            |task, metrics, task_wall_ns| {
                let (p, r) = (task / reps, task % reps);
                wall_ns[p] = wall_ns[p].saturating_add(task_wall_ns);
                pending[p][r] = Some(metrics);
                remaining[p] -= 1;
                if remaining[p] == 0 {
                    let replicates = pending[p]
                        .iter_mut()
                        .map(|m| m.take().expect("all replicates landed"))
                        .collect();
                    reports[p] = Some(PointReport::from_replicates(
                        base + p,
                        point_params(&self.space, base + p),
                        replicates,
                    ));
                }
            },
            progress,
        );

        (
            reports
                .into_iter()
                .map(|r| r.expect("every point completed"))
                .collect(),
            wall_ns,
        )
    }

    /// Streaming evaluation of an arbitrary point-index set (one task
    /// per point, replicates folded sequentially into tallies): the
    /// engine behind [`Campaign::run_streaming`] and checkpoint resume,
    /// which evaluates exactly the not-yet-completed indices.
    pub(crate) fn run_point_set<F, S>(&self, indices: &[usize], eval: &F, mut sink: S)
    where
        F: Fn(&SweepPoint<'_>, RunCtx) -> Metrics + Sync,
        S: FnMut(PointReport, u64),
    {
        let reps = self.replicates;
        run_indexed_observed(
            indices.len(),
            self.resolved_workers(),
            |task| {
                let point_index = indices[task];
                let point = self.space.point(point_index);
                // First-appearance metric order, samples in replicate
                // order: the same fold `PointReport::from_replicates`
                // performs, so the summaries are bitwise identical —
                // but each replicate's metrics are dropped as soon as
                // they are folded.
                let mut names: Vec<String> = Vec::new();
                let mut tallies: Vec<Tally> = Vec::new();
                for replicate in 0..reps {
                    let metrics = eval(&point, self.ctx(point_index, replicate));
                    for (name, v) in metrics.iter() {
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
                PointReport::from_tallies(
                    point_index,
                    point_params(&self.space, point_index),
                    names.into_iter().zip(tallies).collect(),
                )
            },
            |_task, point, wall_ns| sink(point, wall_ns),
            &NoProgress {},
        );
    }

    /// Wraps completed points into the campaign's report envelope.
    pub(crate) fn report_of(&self, points: Vec<PointReport>, wall_ns: Vec<u64>) -> CampaignReport {
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

fn point_params(space: &ParamSpace, index: usize) -> Vec<(String, AxisValue)> {
    space
        .point(index)
        .params()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Axis;

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
        use crate::progress::JsonlProgress;
        let plain = Campaign::new("p", toy_space())
            .replicates(2)
            .seed(9)
            .workers(2)
            .run(eval);
        let sink = JsonlProgress::new(Vec::new(), 12);
        let observed = Campaign::new("p", toy_space())
            .replicates(2)
            .seed(9)
            .workers(2)
            .run_with_progress(eval, &sink);
        assert_eq!(plain, observed, "observation must not perturb results");
        assert_eq!(plain.to_json(), observed.to_json());
        assert_eq!(observed.wall_ns.len(), 6, "one wall time per point");
        assert_eq!(sink.done(), 12, "6 points x 2 replicates");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 24, "a start and done line per task");
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
                .map(|i| toy_campaign().run_shard(Shard::new(i, count), eval))
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
            .map(|i| toy_campaign().run_shard(Shard::new(i, 3), eval))
            .collect();
        parts.reverse();
        assert_eq!(CampaignReport::merge(parts).unwrap(), serial);
    }

    #[test]
    fn shard_merge_rejects_gaps_overlaps_and_foreign_parts() {
        use crate::shard::MergeError;
        let shard = |i: usize, k: usize| toy_campaign().run_shard(Shard::new(i, k), eval);
        // Missing the second half.
        let err = CampaignReport::merge(vec![shard(0, 2)]).unwrap_err();
        assert!(matches!(err, MergeError::Gap { index: 3 }), "{err}");
        // The same half twice.
        let err = CampaignReport::merge(vec![shard(0, 2), shard(0, 2)]).unwrap_err();
        assert!(matches!(err, MergeError::Overlap { index: 0 }), "{err}");
        // A shard of a different campaign seed.
        let foreign = toy_campaign().seed(7).run_shard(Shard::new(1, 2), eval);
        let err = CampaignReport::merge(vec![shard(0, 2), foreign]).unwrap_err();
        assert!(
            matches!(err, MergeError::Mismatch { field: "seed" }),
            "{err}"
        );
        assert!(CampaignReport::merge(vec![]).is_err());
    }

    #[test]
    fn streaming_matches_buffered_summaries_and_csv() {
        let buffered = toy_campaign().run(eval);
        let streamed = toy_campaign().run_streaming(eval);
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
        let one = toy_campaign().workers(1).run_streaming(eval);
        for w in [2, 4, 8] {
            let many = toy_campaign().workers(w).run_streaming(eval);
            assert_eq!(one, many, "{w} workers");
            assert_eq!(one.to_record_json(), many.to_record_json(), "{w} workers");
        }
    }

    #[test]
    fn streaming_sink_sees_every_point_exactly_once() {
        let mut seen = vec![0usize; 6];
        let indices: Vec<usize> = (0..6).collect();
        toy_campaign().run_point_set(&indices, &eval, |point, _wall| {
            seen[point.index] += 1;
        });
        assert_eq!(seen, vec![1; 6]);
    }
}
