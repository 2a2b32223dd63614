//! The one worker pool behind every campaign: the shared [`Executor`].
//!
//! An `Executor` keeps its threads alive and serves many concurrent
//! submissions with fair round-robin scheduling, bounded admission,
//! cooperative cancellation ([`CancelToken`]) and panic propagation.
//! Long-lived services (`qic-serve`) share one across every job;
//! [`Campaign::run`] builds a per-call one sized to the campaign and
//! drops it when the run ends. Both go through
//! [`Campaign::execute`].
//!
//! Work distribution is a shared cursor per submission: each worker
//! repeatedly claims the next unclaimed task index and evaluates it, so
//! stragglers never idle the pool (work stealing without queues —
//! cheap, fair, and contention-free for simulator-sized tasks).
//! Finished results stream back to the submitter over a channel tagged
//! with their task index, so aggregation order never depends on thread
//! scheduling.
//!
//! # Worker-count precedence
//!
//! A worker count of `0` resolves through [`default_workers`]: an
//! explicit count always wins, then the `QIC_WORKERS` environment
//! variable (parsed by [`parse_workers`]), then the machine's available
//! parallelism capped at 8.
//!
//! [`Campaign::run`]: crate::campaign::Campaign::run
//! [`Campaign::execute`]: crate::campaign::Campaign::execute

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::progress::ProgressSink;

/// Worker count to use when a campaign does not pin one.
///
/// The `QIC_WORKERS` environment variable, when set to a positive
/// integer, overrides the choice (clamped to 64) — CI and the bench
/// gate pin worker counts this way without code changes. Otherwise:
/// the machine's available parallelism, capped at 8 (simulator tasks
/// are CPU-bound; more threads only add scheduling noise).
pub fn default_workers() -> usize {
    if let Some(w) = std::env::var("QIC_WORKERS")
        .ok()
        .as_deref()
        .and_then(parse_workers)
    {
        return w;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Parses a `QIC_WORKERS` value: a positive integer, clamped to 64.
/// Anything else (empty, zero, garbage) yields `None` and falls back to
/// the automatic choice.
///
/// Public so service layers (`qic-serve`) resolve the same precedence —
/// explicit config > `QIC_WORKERS` > automatic — from the same parser.
pub fn parse_workers(v: &str) -> Option<usize> {
    let n: usize = v.trim().parse().ok()?;
    (n > 0).then(|| n.min(64))
}

/// A cooperative cancellation latch shared between the submitter of an
/// [`Executor`] run and the workers evaluating it.
///
/// Cancelling stops further task *claims*; tasks already in flight
/// finish normally. A cancelled run returns incomplete (see
/// [`Executor::run_indexed`]), and the token stays tripped —
/// tokens are one-shot, one per run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// A [`CancelToken::child`]'s parent: tripping it trips the child.
    parent: Option<Box<CancelToken>>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the latch: no further tasks of the associated run are
    /// claimed.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called (on this token or
    /// on a parent).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// A token tripped when `self` is, whose own cancellation leaves
    /// `self` alone: what a run hands its submission, so a task panic
    /// or a failed commit stops that run without tripping a token the
    /// caller shares with others.
    pub(crate) fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::default(),
            parent: Some(Box::new(self.clone())),
        }
    }
}

/// What a submission streams back to the thread that registered it.
enum Verdict<R> {
    /// Task `index` finished in `wall_ns` nanoseconds.
    Done(usize, R, u64),
    /// A task panicked; the payload re-raises on the submitter.
    Panicked(Box<dyn Any + Send>),
    /// Every claimed task has finished and no more will be claimed.
    Closed,
}

/// One registered submission as the worker ring sees it: claim task
/// indices until drained, run each claimed index. Object-safe so the
/// ring can hold submissions of any result type.
trait TaskSource: Send + Sync {
    /// Claims the next unclaimed task index; `None` once the source is
    /// exhausted or cancelled (monotone — `None` is permanent, and the
    /// ring drops the source on seeing it).
    fn claim(&self) -> Option<usize>;

    /// Runs claimed task `index` on pool worker `worker`, delivering
    /// the result to the submitter internally.
    fn run(&self, index: usize, worker: usize);

    /// The ring dropped the source; once in-flight tasks finish, the
    /// submitter is released.
    fn detached(&self);
}

/// The state behind one [`Executor`] submission: the shared claim
/// cursor, the accounting that closes the result stream exactly once,
/// and the caller's sink channel.
struct Submission<R, F> {
    tasks: usize,
    cursor: AtomicUsize,
    claimed: AtomicUsize,
    finished: AtomicUsize,
    detached: AtomicBool,
    closed: AtomicBool,
    cancel: CancelToken,
    progress: Arc<dyn ProgressSink + Send + Sync>,
    eval: F,
    tx: mpsc::Sender<Verdict<R>>,
}

impl<R, F> Submission<R, F>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    /// Sends the one `Closed` sentinel once the ring has let go of the
    /// source and every claimed task has finished.
    fn maybe_close(&self) {
        if self.detached.load(Ordering::SeqCst)
            && self.finished.load(Ordering::SeqCst) == self.claimed.load(Ordering::SeqCst)
            && !self.closed.swap(true, Ordering::SeqCst)
        {
            let _ = self.tx.send(Verdict::Closed);
        }
    }
}

impl<R, F> TaskSource for Submission<R, F>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    fn claim(&self) -> Option<usize> {
        if self.cancel.is_cancelled() {
            return None;
        }
        let i = self.cursor.fetch_add(1, Ordering::SeqCst);
        if i >= self.tasks {
            return None;
        }
        self.claimed.fetch_add(1, Ordering::SeqCst);
        Some(i)
    }

    fn run(&self, index: usize, worker: usize) {
        // The progress callbacks run inside the unwind guard too: a
        // panicking sink re-raises at the submitter like a panicking
        // task, and the worker survives.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.progress.on_start(index, worker);
            let begun = Instant::now();
            let result = (self.eval)(index);
            let wall_ns = u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.progress.on_finish(index, worker, wall_ns);
            (result, wall_ns)
        }));
        match outcome {
            Ok((result, wall_ns)) => {
                let _ = self.tx.send(Verdict::Done(index, result, wall_ns));
            }
            Err(payload) => {
                // Stop claiming the rest of this submission, carry the
                // payload home; other submissions are unaffected.
                self.cancel.cancel();
                let _ = self.tx.send(Verdict::Panicked(payload));
            }
        }
        self.finished.fetch_add(1, Ordering::SeqCst);
        self.maybe_close();
    }

    fn detached(&self) {
        self.detached.store(true, Ordering::SeqCst);
        self.maybe_close();
    }
}

/// The ring of live submissions, guarded by [`Shared::ring`].
struct Ring {
    /// Live submissions, claimed from round-robin for fairness.
    sources: Vec<Arc<dyn TaskSource>>,
    /// Next ring slot to claim from (reduced modulo the ring length at
    /// use, so removals need no fix-up).
    next: usize,
    /// Admission bound: registrations block while the ring is full.
    admit: usize,
    /// Workers exit once this is set and the ring has drained.
    shutdown: bool,
}

/// State shared between the [`Executor`] handle and its workers.
struct Shared {
    ring: Mutex<Ring>,
    /// Workers wait here for work; submitters notify on registration.
    work: Condvar,
    /// Submitters wait here for an admission slot; workers notify when
    /// a drained source leaves the ring.
    space: Condvar,
}

/// A persistent worker pool serving many concurrent campaign
/// submissions.
///
/// An `Executor` keeps `workers` threads alive and multiplexes every
/// concurrent submission over them with **fair round-robin claiming**:
/// each idle worker takes the next task from the next submission in the
/// ring, so two concurrent campaigns make interleaved progress instead
/// of queueing behind each other. Submissions beyond the admission
/// bound block until a slot frees.
///
/// # Worker-count precedence
///
/// `Executor::new(0)` resolves the pool size through
/// [`default_workers`]: an explicit non-zero count always wins, then a
/// positive-integer `QIC_WORKERS` environment variable (via
/// [`parse_workers`], clamped to 64), then the machine's available
/// parallelism capped at 8.
///
/// # Determinism
///
/// The executor only schedules; results are index-addressed, so
/// [`Campaign::execute`] reports are byte-identical regardless of pool
/// size or concurrent load.
///
/// Dropping the executor drains in-flight submissions, then joins the
/// workers.
///
/// [`Campaign::execute`]: crate::campaign::Campaign::execute
pub struct Executor {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// A pool of `workers` threads (`0` resolves via
    /// [`default_workers`]: `QIC_WORKERS`, then auto) with unbounded
    /// admission.
    pub fn new(workers: usize) -> Executor {
        Executor::with_admission(workers, usize::MAX)
    }

    /// A pool with at most `admit` concurrently registered submissions;
    /// further submissions block (in their calling thread) until a slot
    /// frees. Service layers that need *non-blocking* backpressure
    /// bound their own job queue in front (see `qic-serve`'s
    /// `ServeError::QueueFull`) and keep the executor bound as a
    /// backstop.
    pub fn with_admission(workers: usize, admit: usize) -> Executor {
        let workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        let shared = Arc::new(Shared {
            ring: Mutex::new(Ring {
                sources: Vec::new(),
                next: 0,
                admit: admit.max(1),
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qic-exec-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor {
            shared,
            workers,
            handles,
        }
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `tasks` task indices on the pool: `sink` receives
    /// each `(index, result, wall_ns)` on the submitting thread as it
    /// completes, `progress` hears every claim/finish (with pool-worker
    /// attribution), and tripping `cancel` stops further claims.
    ///
    /// Which worker runs which index is scheduling-dependent, but
    /// `sink` receives every completed index exactly once, so an
    /// index-addressed collection is deterministic. Wall times and
    /// progress callbacks are measurement side channels and must not
    /// feed anything that claims determinism.
    ///
    /// Returns `true` when every task ran, `false` when the run was
    /// cancelled (some indices then never reach `sink`). The submitting
    /// thread blocks until one or the other. A panicking task — or
    /// progress callback — cancels the rest of **this** submission and
    /// re-raises here; concurrent submissions are unaffected.
    pub fn run_indexed<R, F, S>(
        &self,
        tasks: usize,
        task: F,
        mut sink: S,
        progress: Arc<dyn ProgressSink + Send + Sync>,
        cancel: &CancelToken,
    ) -> bool
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
        S: FnMut(usize, R, u64),
    {
        if tasks == 0 {
            return true;
        }
        let (tx, rx) = mpsc::channel();
        let submission: Arc<Submission<R, F>> = Arc::new(Submission {
            tasks,
            cursor: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            detached: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            cancel: cancel.child(),
            progress,
            eval: task,
            tx,
        });
        {
            let mut ring = self.shared.ring.lock().expect("executor ring poisoned");
            while ring.sources.len() >= ring.admit {
                ring = self
                    .shared
                    .space
                    .wait(ring)
                    .expect("executor ring poisoned");
            }
            ring.sources.push(submission);
            self.shared.work.notify_all();
        }
        let mut delivered = 0usize;
        let mut payload: Option<Box<dyn Any + Send>> = None;
        // `Closed` always arrives: the ring drops the source once its
        // claims dry up, and the last in-flight task closes the stream.
        while let Ok(verdict) = rx.recv() {
            match verdict {
                Verdict::Done(i, r, wall_ns) => {
                    delivered += 1;
                    sink(i, r, wall_ns);
                }
                Verdict::Panicked(p) => payload = Some(p),
                Verdict::Closed => break,
            }
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        delivered == tasks
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut ring = self.shared.ring.lock().expect("executor ring poisoned");
            ring.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    }
}

/// One pool worker: round-robin over the ring, claim, run, repeat;
/// drop drained sources; sleep when the ring is idle.
fn worker_loop(shared: &Shared, worker: usize) {
    let mut ring = shared.ring.lock().expect("executor ring poisoned");
    loop {
        let mut claimed = None;
        while !ring.sources.is_empty() {
            let slot = ring.next % ring.sources.len();
            match ring.sources[slot].claim() {
                Some(index) => {
                    ring.next = slot + 1;
                    claimed = Some((Arc::clone(&ring.sources[slot]), index));
                    break;
                }
                None => {
                    // Exhausted or cancelled: out of the ring, release
                    // its submitter and anyone waiting for admission.
                    let source = ring.sources.remove(slot);
                    source.detached();
                    shared.space.notify_all();
                }
            }
        }
        match claimed {
            Some((source, index)) => {
                drop(ring);
                source.run(index, worker);
                ring = shared.ring.lock().expect("executor ring poisoned");
            }
            None => {
                if ring.shutdown {
                    return;
                }
                ring = shared.work.wait(ring).expect("executor ring poisoned");
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::progress::NoProgress;

    /// A pool's results, collected in task-index order.
    fn collect_indexed<R, F>(tasks: usize, workers: usize, task: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(tasks, || None);
        Executor::new(workers).run_indexed(
            tasks,
            task,
            |i, r, _wall| slots[i] = Some(r),
            Arc::new(NoProgress),
            &CancelToken::new(),
        );
        slots
            .into_iter()
            .map(|s| s.expect("every task index reported exactly once"))
            .collect()
    }

    #[test]
    fn covers_every_index_once() {
        for workers in [1, 2, 4, 7] {
            let got = collect_indexed(23, workers, |i| i * i);
            let want: Vec<usize> = (0..23).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let got: Vec<u32> = collect_indexed(0, 4, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn worker_count_is_clamped() {
        // More workers than tasks must not deadlock or skip work.
        let got = collect_indexed(3, 64, |i| i);
        assert_eq!(got, vec![0, 1, 2]);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn streams_tagged_results() {
        let mut seen = [false; 50];
        Executor::new(4).run_indexed(
            50,
            |i| i,
            |i, r, _wall| {
                assert_eq!(i, r);
                assert!(!seen[i], "index {i} delivered twice");
                seen[i] = true;
            },
            Arc::new(NoProgress),
            &CancelToken::new(),
        );
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parse_workers_accepts_positive_clamped_integers() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 12 \n"), Some(12));
        assert_eq!(parse_workers("1000"), Some(64), "clamped to 64");
        assert_eq!(parse_workers("0"), None, "zero falls back");
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("all"), None);
        assert_eq!(parse_workers("-2"), None);
    }

    #[test]
    fn observed_run_reports_progress_and_wall_times() {
        use crate::progress::JsonlProgress;
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlProgress::new(buf.clone(), 6));
        let mut walls = [0u64; 6];
        Executor::new(2).run_indexed(
            6,
            |i| i * 10,
            |i, r, wall_ns| {
                assert_eq!(r, i * 10);
                walls[i] = wall_ns;
            },
            Arc::clone(&sink) as _,
            &CancelToken::new(),
        );
        assert_eq!(sink.done(), 6);
        let text = buf.text();
        assert_eq!(text.lines().count(), 12, "one start + one done per task");
        for i in 0..6 {
            assert!(
                text.contains(&format!("\"event\":\"start\",\"task\":{i},")),
                "missing start line for task {i}:\n{text}"
            );
        }
        let final_line = text.lines().last().unwrap();
        assert!(final_line.contains("\"done\":6,\"total\":6,\"in_flight\":0"));
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates() {
        let _ = collect_indexed(8, 2, |i| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn panic_cancels_outstanding_tasks() {
        let evaluated = Arc::new(AtomicUsize::new(0));
        let tasks = 10_000;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let evaluated = Arc::clone(&evaluated);
            Executor::new(4).run_indexed(
                tasks,
                move |i| {
                    if i == 0 {
                        panic!("first task fails");
                    }
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(20));
                },
                |_, _, _| {},
                Arc::new(NoProgress),
                &CancelToken::new(),
            );
        }));
        assert!(result.is_err(), "the panic must propagate");
        // Without cancellation the surviving workers would evaluate every
        // remaining task before the panic surfaced.
        assert!(
            evaluated.load(Ordering::Relaxed) < tasks - 1,
            "workers kept draining after the panic"
        );
    }

    /// A writer whose bytes stay readable after the sink holding it has
    /// been handed to the pool.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub(crate) fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
