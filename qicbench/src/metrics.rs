//! Metric values from a run's tally and trace, in catalogue order.
//!
//! Percentiles are nearest-rank, from the repository's own
//! `qic_des::stats` (`Percentiles` and `percentile_of_sorted`).

use qic::des::stats::{percentile_of_sorted, Percentiles};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::Tally;

/// The median of `samples` (0 when empty).
pub fn p50(samples: &[f64]) -> f64 {
    Percentiles::from_samples(samples).map_or(0.0, |p| p.p50)
}

/// The 90th percentile of `samples` (0 when empty).
pub fn p90(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, 0.90).unwrap_or(0.0)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric value with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (operations, calls, events) the value summarises.
    pub n: u64,
}

/// Totals of the traced replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTally {
    pub points: u64,
    /// Wall time of the traced replay of every point.
    pub traced_ns: u64,
    /// Wall time of the same replay without spans or wrappers.
    pub untraced_ns: u64,
    pub comms: u64,
    pub stalls: u64,
    pub makespan_us: f64,
}

/// A memory line of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MB
/// (0 where the file is missing).
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The typical round of a run: each operation's median over the
/// rounds, so a burst of host noise in a few rounds moves no metric.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MedianRound {
    /// Σ over operations of the median attempt time (failed included).
    pub wall_ms: f64,
    /// Median latency of each operation that completed.
    pub latency_ms: Vec<f64>,
    /// Σ over operations of the median emit time.
    pub emit_ms: f64,
    pub emit_bytes: u64,
    pub events: u64,
    pub operations: u64,
}

impl MedianRound {
    pub fn of(t: &Tally) -> MedianRound {
        let mut r = MedianRound::default();
        for s in t
            .series
            .iter()
            .filter(|s| !s.ok_ms.is_empty() || !s.failed_ms.is_empty())
        {
            let attempts: Vec<f64> = s.ok_ms.iter().chain(&s.failed_ms).copied().collect();
            r.wall_ms += p50(&attempts);
            r.operations += 1;
            if !s.ok_ms.is_empty() {
                r.latency_ms.push(p50(&s.ok_ms));
                r.emit_ms += p50(&s.emit_ms);
                r.emit_bytes += s.emit_bytes;
                r.events += s.events;
            }
        }
        r
    }
}

/// Every end-to-end metric of an untraced run. Time-based metrics come
/// from the run's [`MedianRound`] of yardstick-scaled times
/// (`crate::yardstick`).
pub fn end_to_end(t: &Tally, peak_rss_mb: f64) -> Vec<Reading> {
    let r = MedianRound::of(t);
    let ok = t.attempted - t.failed;
    END_TO_END
        .iter()
        .map(|m| {
            let (value, n) = match m.name {
                "setup_s" => (p50(&t.setup_s), t.setup_s.len() as u64),
                "sim_ns_per_event" => {
                    (ratio(r.wall_ms * 1e6, r.events as f64), r.events * t.rounds)
                }
                "ops_per_s" => (ratio(r.operations as f64, r.wall_ms / 1e3), t.attempted),
                "op_ms.p50" => (p50(&r.latency_ms), ok),
                "op_ms.p90" => (p90(&r.latency_ms), ok),
                "emit_mb_per_s" => (
                    ratio(r.emit_bytes as f64 / 1e6, r.emit_ms / 1e3),
                    t.reports_emitted,
                ),
                "peak_rss_mb" => (peak_rss_mb, 1),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            Reading {
                name: m.name,
                unit: m.unit,
                value,
                n,
            }
        })
        .collect()
}

/// Every per-layer metric of a traced run.
pub fn per_layer(t: &Tally, tr: &Tracer, r: &ReplayTally) -> Vec<Reading> {
    let sim = tr.totals("sim.run");
    let events = sim.work as f64;
    let callbacks = tr.totals("scheduler.callback");
    let routes = tr.totals("routing.route");
    let emits = tr.totals("emit.record").calls;
    let emitted_bytes = ["emit.json", "emit.csv", "emit.record"]
        .iter()
        .map(|n| tr.totals(n).work)
        .sum::<u64>();
    let codec = tr.totals("codec.decode");
    let s = &t.serve;
    let overhead_ns = r.traced_ns as f64 - r.untraced_ns as f64;
    PER_LAYER
        .iter()
        .map(|m| {
            let count = |name: &str| tr.totals(name).calls;
            let (value, n) = match m.name {
                "spec.decode_us" => (tr.totals("spec.decode").mean(1e3), count("spec.decode")),
                "spec.validate_us" => {
                    (tr.totals("spec.validate").mean(1e3), count("spec.validate"))
                }
                "fabric.build_us" => (tr.totals("fabric.build").mean(1e3), count("fabric.build")),
                "fabric.builds" => (count("fabric.build") as f64, count("fabric.build")),
                "workload.program_us" => (
                    tr.totals("workload.program").mean(1e3),
                    count("workload.program"),
                ),
                "workload.instructions" => (
                    tr.totals("workload.program").work as f64,
                    count("workload.program"),
                ),
                "scheduler.build_us" => (
                    tr.totals("scheduler.build").mean(1e3),
                    count("scheduler.build"),
                ),
                "scheduler.self_ns_per_event" => {
                    (ratio(callbacks.busy_ns as f64, events), sim.work)
                }
                "scheduler.callbacks" => (callbacks.calls as f64, callbacks.calls),
                "routing.route_ns" => (routes.mean(1.0), routes.calls),
                "routing.calls" => (routes.calls as f64, routes.calls),
                "routing.calls_per_comm" => (ratio(routes.calls as f64, r.comms as f64), r.comms),
                "sim.self_ns_per_event" => {
                    (ratio(tr.self_ns_of("sim.run") as f64, events), sim.work)
                }
                "sim.events" => (events, sim.calls),
                "sim.events_per_comm" => (ratio(events, r.comms as f64), r.comms),
                "sim.stalls_per_comm" => (ratio(r.stalls as f64, r.comms as f64), r.comms),
                "sim.makespan_us" => (r.makespan_us, r.points),
                "sweep.point_ms.p50" => (p50(&t.point_ms), t.point_ms.len() as u64),
                "sweep.point_ms.p90" => (p90(&t.point_ms), t.point_ms.len() as u64),
                "sweep.idle_share" => (
                    if t.pool_ns == 0 {
                        0.0
                    } else {
                        1.0 - t.point_busy_ns as f64 / t.pool_ns as f64
                    },
                    count("sweep.campaign"),
                ),
                "emit.json_mb_per_s" => (tr.totals("emit.json").mb_per_s(), emits),
                "emit.csv_mb_per_s" => (tr.totals("emit.csv").mb_per_s(), emits),
                "emit.record_mb_per_s" => (tr.totals("emit.record").mb_per_s(), emits),
                "emit.bytes" => (ratio(emitted_bytes as f64, emits as f64), emits),
                "codec.record_decode_mb_per_s" => (codec.mb_per_s(), codec.calls),
                "codec.bytes" => (ratio(codec.work as f64, codec.calls as f64), codec.calls),
                "serve.cache.load_ms" => (
                    tr.totals("serve.cache.load").mean(1e6),
                    count("serve.cache.load"),
                ),
                "serve.cache.store_ms" => (
                    tr.totals("serve.cache.store").mean(1e6),
                    count("serve.cache.store"),
                ),
                "serve.client_overhead_ms" => (
                    mean(&s.client_overhead_ms),
                    s.client_overhead_ms.len() as u64,
                ),
                "serve.hit_ratio" => (ratio(s.hits, s.submitted), s.submitted as u64),
                "serve.cache.errors" => (s.cache_errors, s.submitted as u64),
                "serve.cold_ms.p50" => (p50(&s.cold_ms), s.cold_ms.len() as u64),
                "serve.memory_ms.p50" => (p50(&s.memory_ms), s.memory_ms.len() as u64),
                "serve.disk_ms.p50" => (p50(&s.disk_ms), s.disk_ms.len() as u64),
                "trace.overhead_ms" => (overhead_ns / 1e6, r.points),
                "trace.overhead_share" => (ratio(overhead_ns, r.untraced_ns as f64), r.points),
                other => unreachable!("per-layer metric {other} has no definition"),
            };
            Reading {
                name: m.name,
                unit: m.unit,
                value,
                n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_the_repository_s_nearest_rank() {
        let samples: Vec<f64> = (0..97).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let reference = Percentiles::from_samples(&samples).unwrap();
        assert_eq!(p50(&samples), reference.p50);
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(p90(&samples), percentile_of_sorted(&sorted, 0.9).unwrap());
        // Nearest rank: p90 of 1..=10 is the 9th sample.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(p90(&ten), 9.0);
        assert_eq!(p50(&ten), 5.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn every_catalogue_metric_has_a_definition() {
        let tally = Tally::default();
        let e2e = end_to_end(&tally, 1.0);
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers = per_layer(&tally, &Tracer::new(), &ReplayTally::default());
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(rss_mb("VmHWM:") > 0.0);
        assert!(rss_mb("VmRSS:") > 0.0);
        assert_eq!(rss_mb("NoSuchField:"), 0.0);
    }
}
