//! Cross-crate observability guarantees:
//!
//! * attaching a `RecordingProbe` never perturbs the simulation — on
//!   every fabric × routing × fault combination the traced report,
//!   minus its timeline block, equals the unprobed report exactly;
//! * the recorded utilization time series integrate back to the
//!   simulator's scalar utilizations (property-tested over random
//!   traffic and grid resolutions);
//! * scenario-level trace export is deterministic: the same observed
//!   spec writes byte-identical `.events.jsonl` and `.trace.json`
//!   files run-over-run and for 1 vs 4 workers.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use qic::fault::FaultPlan;
use qic::net::config::NetConfig;
use qic::net::sim::{BatchDriver, NetworkSim};
use qic::net::topology::{Coord, TopologyKind};
use qic::prelude::*;
use qic::probe::RecordingProbe;
use qic::ObserveSpec;

fn crossing_batch() -> Vec<(Coord, Coord)> {
    vec![
        (Coord::new(0, 0), Coord::new(3, 3)),
        (Coord::new(3, 3), Coord::new(0, 0)),
        (Coord::new(0, 3), Coord::new(3, 0)),
        (Coord::new(1, 2), Coord::new(2, 0)),
        (Coord::new(1, 1), Coord::new(2, 2)),
    ]
}

#[test]
fn recording_probe_is_invisible_to_the_report_on_every_combination() {
    for kind in TopologyKind::ALL {
        for routing in RoutingPolicy::ALL {
            for plan in [None, Some(FaultPlan::healthy().with_dead_link(0))] {
                let cfg = NetConfig::small_test()
                    .with_topology(kind)
                    .with_routing(routing);
                let ctx = format!("{kind:?} × {routing:?} × fault={}", plan.is_some());

                let (unprobed, mut traced) = match &plan {
                    None => (
                        NetworkSim::new(cfg.clone()).run(&mut BatchDriver::new(crossing_batch())),
                        NetworkSim::with_probe(cfg, RecordingProbe::new())
                            .run_traced(&mut BatchDriver::new(crossing_batch()))
                            .0,
                    ),
                    Some(plan) => (
                        NetworkSim::with_topology(cfg.clone(), plan.clone().compile(cfg.fabric()))
                            .run(&mut BatchDriver::new(crossing_batch())),
                        NetworkSim::with_topology_probe(
                            cfg.clone(),
                            plan.clone().compile(cfg.fabric()),
                            RecordingProbe::new(),
                        )
                        .run_traced(&mut BatchDriver::new(crossing_batch()))
                        .0,
                    ),
                };
                assert!(traced.timeline.is_some(), "{ctx}: probe must record");
                traced.timeline = None;
                assert_eq!(traced, unprobed, "{ctx}: the probe perturbed the run");
            }
        }
    }
}

proptest! {
    #[test]
    fn utilization_traces_integrate_to_the_report_scalars(
        pairs in proptest::collection::vec(
            ((0u16..4, 0u16..4), (0u16..4, 0u16..4)), 1..8),
        bins in 1u32..200,
        seed in 0u64..500,
    ) {
        let mut batch: Vec<(Coord, Coord)> = pairs
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect();
        if batch.is_empty() {
            batch.push((Coord::new(0, 0), Coord::new(3, 3)));
        }
        let mut cfg = NetConfig::small_test();
        cfg.seed = seed;
        let (report, _) = NetworkSim::with_probe(cfg, RecordingProbe::with_bins(bins))
            .run_traced(&mut BatchDriver::new(batch));
        let t = report.timeline.as_ref().expect("probe attached");
        prop_assert_eq!(t.bins, bins);
        prop_assert!(
            (t.mean_teleporter_utilization() - report.teleporter_utilization).abs() < 1e-9,
            "teleporter trace integral {} vs scalar {}",
            t.mean_teleporter_utilization(),
            report.teleporter_utilization,
        );
        prop_assert!(
            (t.mean_purifier_utilization() - report.purifier_utilization).abs() < 1e-9,
            "purifier trace integral {} vs scalar {}",
            t.mean_purifier_utilization(),
            report.purifier_utilization,
        );
    }
}

/// All observed output files of one run, keyed by file name.
fn run_observed(dir: &PathBuf, workers: usize) -> BTreeMap<String, String> {
    let spec = ScenarioSpec::machine(
        "obs_determinism",
        MachineSpec::preset(NetPreset::SmallTest),
        WorkloadSpec::Synthetic {
            qubits: 8,
            comms: 16,
            seed: 7,
        },
    )
    .with_axis(ScenarioAxis::Topologies {
        kinds: TopologyKind::ALL.to_vec(),
    })
    .with_replicates(2)
    .with_workers(workers)
    .with_observe(ObserveSpec::to_dir(dir.display().to_string()).with_bins(32));
    qic::run(&spec).expect("spec validates");
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("observe dir exists") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // The progress stream is wall-clock by contract; everything
        // else must be deterministic.
        if name.ends_with(".progress.jsonl") {
            continue;
        }
        files.insert(name, std::fs::read_to_string(path).expect("readable"));
    }
    files
}

#[test]
fn scenario_trace_export_is_deterministic_across_runs_and_workers() {
    let base = std::env::temp_dir().join(format!("qic_probe_obs_{}", std::process::id()));
    let dirs = [base.join("a"), base.join("b"), base.join("c")];
    let first = run_observed(&dirs[0], 1);
    let again = run_observed(&dirs[1], 1);
    let wide = run_observed(&dirs[2], 4);
    assert_eq!(first.len(), 3 * 2 * 2, "events + trace per (point, rep)");
    assert!(first.keys().any(|k| k.ends_with(".events.jsonl")));
    assert!(first.keys().any(|k| k.ends_with(".trace.json")));
    assert_eq!(first, again, "same spec, same bytes");
    assert_eq!(first, wide, "worker count must not change any trace");
    // Spot-validate the documents against the schema checker.
    for (name, text) in &first {
        if name.ends_with(".events.jsonl") {
            qic::probe::schema::validate_events_jsonl(text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            qic::probe::schema::validate_chrome_trace(text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A scenario name with path separators must not escape the observe
/// directory: the progress stream uses the same sanitised stem as the
/// trace files and checkpoint manifests.
#[test]
fn progress_stream_sanitises_the_scenario_name() {
    let dir = std::env::temp_dir().join(format!("qic_probe_stem_{}", std::process::id()));
    let spec = ScenarioSpec::machine(
        "fig16/variant",
        MachineSpec::preset(NetPreset::SmallTest),
        WorkloadSpec::Qft { qubits: 8 },
    )
    .with_observe(ObserveSpec::to_dir(dir.display().to_string()));
    qic::run(&spec).expect("spec validates");
    assert!(dir.join("fig16_variant.progress.jsonl").is_file());
    assert!(dir.join("fig16_variant_p0000_r0.events.jsonl").is_file());
    assert!(!dir.join("fig16").exists(), "the name made a subdirectory");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything but the `trace.*` columns of a report, per replicate.
fn untraced(report: &qic::sweep::CampaignReport) -> Vec<Vec<(String, f64)>> {
    report
        .points
        .iter()
        .flat_map(|p| &p.replicates)
        .map(|m| {
            m.iter()
                .filter(|(name, _)| !name.starts_with("trace."))
                .map(|(name, v)| (name.to_string(), v))
                .collect()
        })
        .collect()
}

/// Observing a scenario changes no result on any composition the
/// runner builds — flat, faulted, modular, modular + faulted — for both
/// the batch and the program driver, and writes one event log and one
/// Chrome trace per (point, replicate).
#[test]
fn observing_changes_no_result_on_any_composition() {
    let plan = || {
        FaultPlan::healthy()
            .with_seed(7)
            .with_link_kill(0.25)
            .with_node_loss(0.1)
    };
    let machines = [
        ("flat", MachineSpec::preset(NetPreset::SmallTest)),
        (
            "faulted",
            MachineSpec::preset(NetPreset::SmallTest).with_fault(plan()),
        ),
        (
            "modular",
            MachineSpec::preset(NetPreset::SmallTest)
                .with_modular(ModularSpec::single().with_modules(2)),
        ),
        (
            "modular_faulted",
            MachineSpec::preset(NetPreset::SmallTest)
                .with_modular(ModularSpec::single().with_modules(2))
                .with_fault(plan()),
        ),
    ];
    let batch = WorkloadSpec::Batch {
        comms: crossing_batch()
            .into_iter()
            .map(|(s, d)| ((s.x, s.y), (d.x, d.y)))
            .collect(),
    };
    let synthetic = WorkloadSpec::Synthetic {
        qubits: 8,
        comms: 16,
        seed: 7,
    };
    let base = std::env::temp_dir().join(format!("qic_probe_arms_{}", std::process::id()));
    for (machine_name, machine) in &machines {
        for (wl_name, workload) in [("batch", &batch), ("synthetic", &synthetic)] {
            let name = format!("{machine_name}_{wl_name}");
            let spec = ScenarioSpec::machine(&name, machine.clone(), workload.clone())
                .with_axis(ScenarioAxis::Routings {
                    policies: RoutingPolicy::ALL.to_vec(),
                })
                .with_replicates(2);
            let dir = base.join(&name);
            let plain = qic::run(&spec).expect("spec validates");
            let observed = qic::run(
                &spec
                    .clone()
                    .with_observe(ObserveSpec::to_dir(dir.display().to_string())),
            )
            .expect("spec validates");
            assert_eq!(
                untraced(&plain.report),
                untraced(&observed.report),
                "{name}: observing changed a result"
            );
            let points = plain.report.points.len();
            assert_eq!(points, RoutingPolicy::ALL.len(), "{name}");
            for p in 0..points {
                for r in 0..2 {
                    for ext in ["events.jsonl", "trace.json"] {
                        let file = dir.join(format!("{name}_p{p:04}_r{r}.{ext}"));
                        assert!(file.is_file(), "{name}: missing {}", file.display());
                    }
                }
            }
            let exported = std::fs::read_dir(&dir)
                .expect("observe dir exists")
                .filter(|e| {
                    !e.as_ref()
                        .unwrap()
                        .path()
                        .to_string_lossy()
                        .ends_with(".progress.jsonl")
                })
                .count();
            assert_eq!(exported, points * 2 * 2, "{name}: stray trace files");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// An observe directory that cannot be created — here a path under a
/// regular file — is a structured error naming the path and the
/// operation, raised before any point runs, on a per-call and a shared
/// pool alike.
#[test]
fn unusable_observe_dir_is_a_structured_error() {
    let file = std::env::temp_dir().join(format!("qic_probe_not_a_dir_{}", std::process::id()));
    std::fs::write(&file, "a regular file").unwrap();
    let dir = file.join("traces");
    let spec = ScenarioRegistry::builtin()
        .spec("fig16", ScenarioScale::SmallTest)
        .unwrap()
        .with_observe(ObserveSpec::to_dir(dir.display().to_string()));
    let err = qic::run(&spec).expect_err("the observe dir cannot exist");
    let ScenarioError::Io { path, op, .. } = &err else {
        panic!("expected an I/O error, got {err}");
    };
    assert_eq!(path, &dir.display().to_string());
    assert_eq!(*op, "create observe dir");
    let err = qic::run_with(&spec, &Executor::new(1), Plan::all()).expect_err("shared pool");
    assert!(matches!(err, ScenarioError::Io { .. }), "{err}");
    let _ = std::fs::remove_file(&file);

    // A directory squatting on the progress stream's name (the
    // scenario name with path-hostile characters mapped to `_`).
    let dir = std::env::temp_dir().join(format!("qic_probe_squat_{}", std::process::id()));
    let stem = spec.name.replace(':', "_");
    let stream = dir.join(format!("{stem}.progress.jsonl"));
    std::fs::create_dir_all(&stream).unwrap();
    let spec = spec.with_observe(ObserveSpec::to_dir(dir.display().to_string()));
    let err = qic::run(&spec).expect_err("the stream cannot be created");
    let ScenarioError::Io { path, op, .. } = &err else {
        panic!("expected an I/O error, got {err}");
    };
    assert_eq!(path, &stream.display().to_string());
    assert_eq!(*op, "create progress stream");
    let _ = std::fs::remove_dir_all(&dir);
}
