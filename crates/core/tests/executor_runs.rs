//! `run_with` (shared executor) versus `run` (per-call pool): the
//! report must be byte-identical — the service layer's cache keys on a
//! spec digest and then serves `run_with` output as if it were `run`
//! output.

use std::sync::Arc;

use qic_core::scenario::{
    self, CheckpointSpec, ScenarioError, ScenarioProgress, ScenarioRegistry, ScenarioReport,
    ScenarioScale, ScenarioSpec, SpecDigest,
};
use qic_sweep::{CancelToken, Executor, JsonlProgress, Plan, ProgressSink};

/// A whole-campaign run on a shared executor.
fn run_on(spec: &ScenarioSpec, exec: &Executor) -> Result<ScenarioReport, ScenarioError> {
    scenario::run_with(spec, exec, Plan::all())
        .map(|p| p.into_report().expect("an uncancelled run completes"))
}

/// A whole-campaign run with a progress sink and a cancel token;
/// `None` when cancelled.
fn run_on_cancellable(
    spec: &ScenarioSpec,
    exec: &Executor,
    progress: Arc<dyn ProgressSink + Send + Sync>,
    cancel: &CancelToken,
) -> Result<Option<ScenarioReport>, ScenarioError> {
    let plan = Plan {
        progress,
        cancel: cancel.clone(),
        ..Plan::all()
    };
    scenario::run_with(spec, exec, plan).map(ScenarioProgress::into_report)
}

fn preset(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::SmallTest)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

#[test]
fn run_on_matches_run_byte_for_byte() {
    let exec = Executor::new(2);
    // One machine preset (simulator path) and one channel spec
    // (closed-form path) — both families go through the executor.
    for spec in [
        preset("design_space"),
        preset("topology_faceoff"),
        preset("fig12"),
    ] {
        let direct = scenario::run(&spec).expect("direct run");
        let shared = run_on(&spec, &exec).expect("executor run");
        assert_eq!(shared, direct, "{}", spec.name);
        assert_eq!(
            shared.report.to_json(),
            direct.report.to_json(),
            "{}",
            spec.name
        );
        assert_eq!(
            shared.report.to_csv(),
            direct.report.to_csv(),
            "{}",
            spec.name
        );
        assert_eq!(
            shared.report.to_record_json(),
            direct.report.to_record_json(),
            "{}",
            spec.name
        );
    }
}

#[test]
fn run_on_ignores_the_workers_hint() {
    let exec = Executor::new(1);
    let spec = preset("design_space");
    let hinted = spec.clone().with_workers(6);
    assert_eq!(
        SpecDigest::of(&hinted),
        SpecDigest::of(&spec),
        "workers is not identity"
    );
    assert_eq!(
        run_on(&hinted, &exec).unwrap().report.to_json(),
        scenario::run(&spec).unwrap().report.to_json()
    );
}

/// A checkpointed spec on a shared executor resumes from its manifest:
/// a budgeted first pass, then a whole-campaign pass, ends byte-
/// identical to an uninterrupted checkpointed run.
#[test]
fn run_with_resumes_checkpointed_specs_on_a_shared_executor() {
    let exec = Executor::new(2);
    let base = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("run_with_ckpt");
    let _ = std::fs::remove_dir_all(&base);
    let checkpointed = |dir: &str| {
        preset("design_space")
            .with_checkpoint(CheckpointSpec::to_dir(base.join(dir).display().to_string()))
    };
    let spec = checkpointed("resumed");
    let plan = Plan {
        budget: Some(3),
        ..Plan::all()
    };
    let partial = scenario::run_with(&spec, &exec, plan).unwrap();
    assert!(
        matches!(partial, ScenarioProgress::Partial { done: 3, .. }),
        "{partial:?}"
    );
    let resumed = run_on(&spec, &exec).unwrap();
    let fresh = scenario::run(&checkpointed("fresh")).unwrap();
    assert_eq!(resumed.report, fresh.report);
    assert_eq!(
        resumed.report.to_record_json(),
        fresh.report.to_record_json()
    );
    assert_eq!(resumed.report.to_csv(), fresh.report.to_csv());
    // The streaming fold keeps summaries: the CSV equals a plain run's.
    assert_eq!(
        resumed.report.to_csv(),
        scenario::run(&preset("design_space"))
            .unwrap()
            .report
            .to_csv()
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn run_on_cancellable_streams_progress_and_stops() {
    let exec = Executor::new(2);
    let spec = preset("design_space");
    // Uncancelled: completes, and the sink hears one finish per point.
    let sink = Arc::new(JsonlProgress::new(Vec::new(), 8));
    let report = run_on_cancellable(&spec, &exec, Arc::clone(&sink) as _, &CancelToken::new())
        .expect("valid spec")
        .expect("uncancelled runs complete");
    assert_eq!(sink.done(), report.report.points.len());
    // Pre-cancelled: no points run, no report.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = run_on_cancellable(&spec, &exec, Arc::new(qic_sweep::NoProgress), &token)
        .expect("valid spec");
    assert!(cancelled.is_none(), "cancelled runs yield no report");
}
