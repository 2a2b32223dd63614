//! A fixed calibration workload, timed between operations.
//!
//! The host this benchmark runs on changes speed over seconds to
//! minutes (shared cores and caches). The change hits the simulator's
//! kind of code (a priority queue, hash lookups, branches over a few MB)
//! far more than simple arithmetic. So the yardstick is a small
//! discrete-event loop of the benchmark's own, on `std`'s `BinaryHeap`
//! and `HashMap`, which no change to the program can touch. A slice of
//! it runs between operations, at most every [`INTERVAL`], and after
//! each set-up, outside every operation's timing. Each operation's and
//! each set-up's time is scaled by [`Yardstick::local_scale`]: the
//! reference slice time over the latest slice's time. The end-to-end
//! times then read as on a host whose slice takes [`REFERENCE_NS`].

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The slice time the scaled metrics refer to.
pub const REFERENCE_NS: f64 = 1.25e6;

/// Least time between two slices.
pub const INTERVAL: Duration = Duration::from_millis(50);

const EVENTS: u64 = 100_000;
const KEYS: u64 = 200_000;
const STEPS: u64 = 2_500;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
pub struct Yardstick {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// Fixed-key hashing, so every process builds the same table.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
    last: Instant,
    /// Resident memory the yardstick holds, in MB (VmRSS growth while
    /// it was built), left out of `peak_rss_mb`.
    pub footprint_mb: f64,
    /// Time of every slice run, in ns.
    pub slices_ns: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        let before = crate::metrics::rss_mb("VmRSS:");
        let queue = (0..EVENTS)
            .map(|i| Reverse((mix(i) >> 24, i as u32)))
            .collect();
        let table = (0..KEYS).map(|i| (mix(i ^ 0x5EED), i)).collect();
        Yardstick {
            queue,
            table,
            state: 1,
            last: Instant::now(),
            footprint_mb: (crate::metrics::rss_mb("VmRSS:") - before).max(0.0),
            slices_ns: Vec::new(),
        }
    }
}

impl Yardstick {
    /// Runs one slice and records its time.
    pub fn slice(&mut self) {
        let t = Instant::now();
        for _ in 0..STEPS {
            let Some(Reverse((at, id))) = self.queue.pop() else {
                break;
            };
            self.state = mix(self.state ^ at);
            let key = mix((self.state % KEYS) ^ 0x5EED);
            if let Some(v) = self.table.get_mut(&key) {
                *v = v.wrapping_add(at);
                if *v & 1 == 0 {
                    self.state ^= *v;
                }
            }
            self.queue.push(Reverse((at + (self.state >> 44), id)));
        }
        std::hint::black_box(self.state);
        self.slices_ns.push(t.elapsed().as_nanos() as f64);
        self.last = Instant::now();
    }

    /// Runs a slice if [`INTERVAL`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.slice();
        }
    }

    /// Reference slice time over the latest slice time (1 without
    /// slices): the local scale for an operation that just ran.
    pub fn local_scale(&self) -> f64 {
        match self.slices_ns.last() {
            Some(&ns) if ns > 0.0 => REFERENCE_NS / ns,
            _ => 1.0,
        }
    }

    /// Reference slice time over the run's median slice time (1 without
    /// slices), printed as a summary of the host's speed.
    pub fn scale(&self) -> f64 {
        let median = crate::metrics::p50(&self.slices_ns);
        if median > 0.0 {
            REFERENCE_NS / median
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_rate_limited_and_scale_is_positive() {
        let mut y = Yardstick::default();
        assert_eq!(y.scale(), 1.0);
        y.slice();
        y.tick();
        assert_eq!(
            y.slices_ns.len(),
            1,
            "a tick right after a slice is skipped"
        );
        assert!(y.scale() > 0.0);
    }
}
