//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit and better direction.
//!
//! Every printed metric comes from these tables, and `BENCHMARK.json`
//! at the repository root mirrors them (the `catalog` test keeps the
//! two in step).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim_sweep",
        why: "every simulator preset at Full on one worker: the event loop, routing and scheduler do the work; emit and codec cost almost nothing",
    },
    WorkloadDef {
        name: "small_campaigns",
        why: "14 presets at SmallTest plus fig10-12 at Full on two workers: pool start, per-point set-up, fold and emit dominate",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "one closed-loop client against Serve: cold computes, memory hits, disk hits after a restart, large Full records",
    },
];

/// An end-to-end metric (untraced run).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: &[MetricDef] = &[
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    MetricDef {
        name: "sim_ns_per_event",
        unit: "ns",
        better: Better::Lower,
    },
    MetricDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    MetricDef {
        name: "op_ms.p50",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "op_ms.p90",
        unit: "ms",
        better: Better::Lower,
    },
    MetricDef {
        name: "emit_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
];

/// A per-layer metric (traced run), with the layer it measures and the
/// end-to-end metric and workload it should move.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate and module the timed calls belong to.
    pub layer: &'static str,
    /// `metric on workload` this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const SPEC: &str = "qic-core::scenario::spec";
const FABRIC: &str = "qic-net::topology, qic-fault::degraded, qic-modular";
const WORKLOAD: &str = "qic-workload";
const SCHED: &str = "qic-core::scheduler";
const ROUTING: &str = "qic-net::routing";
const SIM: &str = "qic-net::sim, qic-des::queue";
const SWEEP: &str = "qic-sweep::campaign, qic-sweep::exec";
const EMIT: &str = "qic-sweep::report";
const CODEC: &str = "qic-sweep::json";
const SERVE: &str = "qic-serve";
const TRACE: &str = "qicbench (this benchmark)";

const SERVE_P50: &str = "op_ms.p50 on serve_mix";
const CAMPAIGN_P50: &str = "op_ms.p50 on small_campaigns";
const SIM_NS: &str = "sim_ns_per_event on sim_sweep";
const DISK: &str = "op_ms.p90 on serve_mix (disk hits)";

pub const PER_LAYER: &[LayerDef] = &[
    layer("spec.decode_us", "us", Lower, SPEC, SERVE_P50),
    layer("spec.validate_us", "us", Lower, SPEC, SERVE_P50),
    layer("fabric.build_us", "us", Lower, FABRIC, CAMPAIGN_P50),
    layer("fabric.builds", "count", Lower, FABRIC, CAMPAIGN_P50),
    layer("workload.program_us", "us", Lower, WORKLOAD, CAMPAIGN_P50),
    layer(
        "workload.instructions",
        "count",
        Lower,
        WORKLOAD,
        CAMPAIGN_P50,
    ),
    layer("scheduler.build_us", "us", Lower, SCHED, SIM_NS),
    layer("scheduler.self_ns_per_event", "ns", Lower, SCHED, SIM_NS),
    layer("scheduler.callbacks", "count", Lower, SCHED, SIM_NS),
    layer("routing.route_ns", "ns", Lower, ROUTING, SIM_NS),
    layer("routing.calls", "count", Lower, ROUTING, SIM_NS),
    layer(
        "routing.calls_per_comm",
        "count/comm",
        Lower,
        ROUTING,
        SIM_NS,
    ),
    layer("sim.self_ns_per_event", "ns", Lower, SIM, SIM_NS),
    layer("sim.events", "count", Lower, SIM, SIM_NS),
    layer("sim.events_per_comm", "count/comm", Lower, SIM, SIM_NS),
    layer("sim.stalls_per_comm", "count/comm", Lower, SIM, SIM_NS),
    layer("sim.makespan_us", "us", Lower, SIM, SIM_NS),
    layer("sweep.point_ms.p50", "ms", Lower, SWEEP, CAMPAIGN_P50),
    layer("sweep.point_ms.p90", "ms", Lower, SWEEP, CAMPAIGN_P50),
    layer(
        "sweep.idle_share",
        "share",
        Lower,
        SWEEP,
        "ops_per_s on small_campaigns",
    ),
    layer(
        "emit.json_mb_per_s",
        "MB/s",
        Higher,
        EMIT,
        "emit_mb_per_s on small_campaigns",
    ),
    layer(
        "emit.csv_mb_per_s",
        "MB/s",
        Higher,
        EMIT,
        "emit_mb_per_s on small_campaigns",
    ),
    layer(
        "emit.record_mb_per_s",
        "MB/s",
        Higher,
        EMIT,
        "emit_mb_per_s on small_campaigns",
    ),
    layer(
        "emit.bytes",
        "B",
        Lower,
        EMIT,
        "emit_mb_per_s on small_campaigns",
    ),
    layer("codec.record_decode_mb_per_s", "MB/s", Higher, CODEC, DISK),
    layer("codec.bytes", "B", Lower, CODEC, DISK),
    layer("serve.cache.load_ms", "ms", Lower, SERVE, DISK),
    layer("serve.cache.store_ms", "ms", Lower, SERVE, SERVE_P50),
    layer("serve.client_overhead_ms", "ms", Lower, SERVE, SERVE_P50),
    layer("serve.hit_ratio", "share", Higher, SERVE, SERVE_P50),
    layer("serve.cache.errors", "count", Lower, SERVE, SERVE_P50),
    layer("serve.cold_ms.p50", "ms", Lower, SERVE, SERVE_P50),
    layer("serve.memory_ms.p50", "ms", Lower, SERVE, SERVE_P50),
    layer("serve.disk_ms.p50", "ms", Lower, SERVE, DISK),
    layer(
        "trace.overhead_ms",
        "ms",
        Lower,
        TRACE,
        "none: tracing cost of the replay",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        TRACE,
        "none: tracing cost of the replay",
    ),
];
