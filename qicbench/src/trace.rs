//! Spans around the calls into each layer's public functions.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation (request) it belongs to. Spans stay in memory and are
//! written out as JSON lines when the run ends. Calls that happen
//! millions of times per run (route selection, scheduler callbacks)
//! are recorded as one *group* span per enclosing span: its `calls`
//! and `busy_ns` sum the individual calls, so recording them costs no
//! allocation on the simulator's hot path.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover ([`Tracer::self_ns_of`]).
//!
//! Workloads are generic over [`Spans`]: [`NoSpans`] compiles every
//! span away for the untraced run, [`Tracer`] records them.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use qic::core::scheduler::ProgramDriver;
use qic::net::routing::Router;
use qic::net::sim::{CommDone, Driver, SimApi};
use qic::net::topology::{Port, Topology};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Calls folded into this span: 1 for a plain span.
    pub calls: u64,
    /// Time inside the calls themselves: the duration for a plain span,
    /// the summed call time for a group.
    pub busy_ns: u64,
    /// Work attribute (bytes, instructions, events), 0 when unused.
    pub work: u64,
}

/// Where spans go: recorded ([`Tracer`]) or nowhere ([`NoSpans`]).
pub trait Spans {
    /// Whether spans are recorded at all.
    const ON: bool;
    /// Opens a span under the innermost open span; returns its id.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Closes span `id` with a work attribute.
    fn end(&mut self, id: usize, work: u64);
    /// Starts a new operation: later spans carry a fresh request id.
    fn next_request(&mut self);
    /// Records a group span under `parent`: `calls` calls that together
    /// took `busy_ns`, all inside the parent's interval.
    fn group(&mut self, _name: &'static str, _parent: usize, _calls: u64, _busy_ns: u64) {}
}

/// The untraced run's span sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSpans;

impl Spans for NoSpans {
    const ON: bool = false;
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn end(&mut self, _id: usize, _work: u64) {}
    #[inline(always)]
    fn next_request(&mut self) {}
}

/// The traced run's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum over every span named `name` of its self time: the time its
    /// child spans do not cover.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.busy_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.busy_ns.saturating_sub(covered[i]))
            .sum()
    }

    /// `(calls, busy ns, work)` summed over every span named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.calls += s.calls;
            t.busy_ns += s.busy_ns;
            t.work += s.work;
        }
        t
    }

    /// The spans as JSON lines (one object per span, in open order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"calls\": {}, \"busy_ns\": {}, \"work\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls, s.busy_ns, s.work
            );
        }
        out
    }
}

impl Spans for Tracer {
    const ON: bool = true;

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
            calls: 1,
            busy_ns: 0,
            work: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize, work: u64) {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - s.start_ns;
        s.work = work;
    }

    fn next_request(&mut self) {
        self.request += 1;
    }

    fn group(&mut self, name: &'static str, parent: usize, calls: u64, busy_ns: u64) {
        let (start_ns, end_ns, request) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
            calls,
            busy_ns,
            work: 0,
        });
    }
}

/// Summed calls, time and work of a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Mean call time in the given unit (`1.0` = ns, `1e3` = µs, ...);
    /// 0 when there were no calls.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64 / unit_ns
        }
    }

    /// Work per second in MB/s (work in bytes); 0 without time.
    pub fn mb_per_s(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.work as f64 / 1e6 / (self.busy_ns as f64 / 1e9)
        }
    }
}

/// Call counters shared by [`TimedRouter`] and [`TimedDriver`] during
/// one simulation.
#[derive(Debug, Default)]
pub struct LayerClock {
    pub route_calls: Cell<u64>,
    pub route_ns: Cell<u64>,
    pub callbacks: Cell<u64>,
    /// Callback time minus the routing time nested inside callbacks.
    pub callback_self_ns: Cell<u64>,
}

/// A delegating [`Router`] that times every route call. It forwards
/// `name` and `cacheable`, so the simulator's route cache behaves as
/// with the inner router and every call is a cache miss.
pub struct TimedRouter {
    pub inner: Box<dyn Router>,
    pub clock: Rc<LayerClock>,
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &self,
        topo: &dyn Topology,
        src: usize,
        dst: usize,
        load: &dyn Fn(usize) -> u32,
    ) -> Vec<Port> {
        let t = Instant::now();
        let path = self.inner.route(topo, src, dst, load);
        let c = &self.clock;
        c.route_ns
            .set(c.route_ns.get() + t.elapsed().as_nanos() as u64);
        c.route_calls.set(c.route_calls.get() + 1);
        path
    }

    fn cacheable(&self) -> bool {
        self.inner.cacheable()
    }
}

/// A delegating [`Driver`] that times the scheduler's callbacks,
/// excluding route selection the callbacks trigger.
pub struct TimedDriver<'a> {
    pub inner: &'a mut ProgramDriver,
    pub clock: Rc<LayerClock>,
}

impl TimedDriver<'_> {
    fn timed(&mut self, f: impl FnOnce(&mut ProgramDriver)) {
        let route_before = self.clock.route_ns.get();
        let t = Instant::now();
        f(self.inner);
        let elapsed = t.elapsed().as_nanos() as u64;
        let c = &self.clock;
        let nested = c.route_ns.get() - route_before;
        c.callback_self_ns
            .set(c.callback_self_ns.get() + elapsed.saturating_sub(nested));
        c.callbacks.set(c.callbacks.get() + 1);
    }
}

impl Driver for TimedDriver<'_> {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.timed(|d| d.start(api));
    }

    fn on_complete(&mut self, done: CommDone, api: &mut SimApi<'_>) {
        self.timed(|d| d.on_complete(done, api));
    }

    fn on_notify(&mut self, tag: u64, api: &mut SimApi<'_>) {
        self.timed(|d| d.on_notify(tag, api));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 7);
        t.end(outer, 0);
        t.group("calls", outer, 3, 10);
        let s = t.spans();
        assert_eq!(s[inner].parent, Some(outer));
        assert_eq!(
            t.self_ns_of("outer"),
            s[outer].busy_ns - s[inner].busy_ns - 10
        );
        assert_eq!(t.self_ns_of("inner"), s[inner].busy_ns);
        assert_eq!(t.totals("inner").work, 7);
        assert_eq!(t.totals("calls").calls, 3);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
