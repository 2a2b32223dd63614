//! Campaign sharding differentials: for arbitrary parameter spaces and
//! every registry preset, K shard reports merge byte-identically to the
//! one-worker serial run — the contract `scenario_run --shard i/K`
//! plus `--merge K` is built on.

use proptest::prelude::*;

use qic::prelude::*;
use qic::sweep::prelude::{
    Axis, Campaign, CampaignReport, CheckpointConfig, Metrics, ParamSpace, Plan, RunCtx, SweepPoint,
};
use qic::sweep::Shard;
use qic::Executor;

/// A synthetic evaluation with enough structure to expose index or
/// seed cross-wiring: every metric depends on the point's values, the
/// derived seed, and the replicate number.
fn eval(point: &SweepPoint<'_>, ctx: RunCtx) -> Metrics {
    let sum: i64 = (0..point.params().len() as u32)
        .map(|a| point.i64(&format!("ax{a}")))
        .sum();
    Metrics::new()
        .with("sum", sum as f64)
        .with("seeded", (ctx.seed % 100_003) as f64 / 7.0)
        .with("rep", f64::from(ctx.replicate))
}

/// Runs `plan` to completion on a pool of the campaign's size.
fn complete(campaign: &Campaign, plan: Plan) -> CampaignReport {
    let exec = Executor::new(campaign.pool_size());
    campaign
        .execute(&exec, plan, eval)
        .unwrap()
        .into_report()
        .expect("the plan completes")
}

/// The streaming fold: a resume plan over an empty manifest.
fn run_streaming(campaign: &Campaign) -> CampaignReport {
    let path = std::env::temp_dir().join(format!(
        "qic_sharding_stream_{}.ckpt.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let report = complete(campaign, Plan::resume(CheckpointConfig::new(&path)));
    std::fs::remove_file(&path).unwrap();
    report
}

fn campaign(axes: &[Vec<i64>], replicates: u32, seed: u64, workers: usize) -> Campaign {
    let space = axes
        .iter()
        .enumerate()
        .fold(ParamSpace::new(), |s, (i, v)| {
            s.axis(Axis::ints(format!("ax{i}"), v.iter().copied()))
        });
    Campaign::new("prop", space)
        .replicates(replicates)
        .seed(seed)
        .workers(workers)
}

proptest! {
    /// Arbitrary axes x shard count x worker count: the merged shard
    /// reports are byte-identical (JSON and CSV) to the one-worker
    /// serial run.
    #[test]
    fn merged_shards_equal_the_serial_run(
        axes in proptest::collection::vec(
            proptest::collection::vec(-50i64..50, 1..5), 1..4),
        replicates in 1u32..=3,
        shards in 1usize..=8,
        workers in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let serial = campaign(&axes, replicates, seed, 1).run(eval);
        let parts: Vec<CampaignReport> = (0..shards)
            .map(|i| {
                complete(
                    &campaign(&axes, replicates, seed, workers),
                    Plan::shard(Shard::new(i, shards)),
                )
            })
            .collect();
        let merged = CampaignReport::merge(parts).unwrap();
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(merged.to_json(), serial.to_json());
        prop_assert_eq!(merged.to_csv(), serial.to_csv());
        prop_assert_eq!(merged.to_record_json(), serial.to_record_json());
    }

    /// Streaming aggregation emits the same CSV bytes and summaries as
    /// the buffered engine, for any space and worker count.
    #[test]
    fn streaming_csv_equals_buffered_csv(
        axes in proptest::collection::vec(
            proptest::collection::vec(-50i64..50, 1..5), 1..4),
        replicates in 1u32..=3,
        workers in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let buffered = campaign(&axes, replicates, seed, 1).run(eval);
        let streamed = run_streaming(&campaign(&axes, replicates, seed, workers));
        prop_assert_eq!(buffered.to_csv(), streamed.to_csv());
        for (b, s) in buffered.points.iter().zip(&streamed.points) {
            prop_assert_eq!(&b.summaries, &s.summaries);
        }
    }
}

/// Every registry preset, sharded two ways at SmallTest scale, merges
/// back to the serial report — JSON and CSV bytes alike. This is the
/// acceptance differential for `--shard`, run against real simulator
/// and channel-model evaluations rather than synthetic metrics.
#[test]
fn every_preset_shards_and_merges_byte_identically() {
    for entry in ScenarioRegistry::builtin().entries() {
        let spec = entry.spec(ScenarioScale::SmallTest);
        let serial = qic::run(&spec).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let parts: Vec<CampaignReport> = (0..2)
            .map(|i| {
                qic::run_with(&spec, &Executor::new(2), Plan::shard(Shard::new(i, 2)))
                    .unwrap_or_else(|e| panic!("{} shard {i}: {e}", entry.name))
                    .into_report()
                    .expect("an uncancelled shard completes")
                    .report
            })
            .collect();
        let merged = CampaignReport::merge(parts)
            .unwrap_or_else(|e| panic!("{}: merge failed: {e}", entry.name));
        assert_eq!(merged, serial.report, "{}: reports differ", entry.name);
        assert_eq!(
            merged.to_json(),
            serial.report.to_json(),
            "{}: JSON bytes differ",
            entry.name
        );
        assert_eq!(
            merged.to_csv(),
            serial.report.to_csv(),
            "{}: CSV bytes differ",
            entry.name
        );
    }
}

/// A shard of a checkpointed spec is rejected up front: silently
/// skipping the manifest would be worse than refusing.
#[test]
fn sharding_a_checkpointed_spec_is_an_error() {
    let spec = ScenarioRegistry::builtin()
        .spec("synthetic_stress", ScenarioScale::SmallTest)
        .unwrap()
        .with_checkpoint(CheckpointSpec::to_dir("target/shard_ckpt_conflict"));
    let err = qic::run_with(&spec, &Executor::new(1), Plan::shard(Shard::new(0, 2))).unwrap_err();
    assert!(
        matches!(err, ScenarioError::Spec { .. }),
        "expected a spec error, got {err}"
    );
}
