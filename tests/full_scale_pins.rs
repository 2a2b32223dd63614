//! Pinned simulator output at `ScenarioScale::Full`.
//!
//! The byte-identity goldens cover the simulator only at SmallTest,
//! where a handful of events are pending at once. At Full, hundreds are,
//! so this is where the event queue's `(at, seq)` pop order decides the
//! result. Each simulator preset that completes at Full is pinned by the
//! digest of its CSV and of its record JSON; `degraded_faceoff` is pinned
//! as its known failure (ROADMAP item 1).
//!
//! Together the presets take a few seconds in release and far longer in
//! debug, so this suite runs only in release builds:
//! `cargo test -q --release --test full_scale_pins`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qic::core::scenario::{ScenarioRegistry, ScenarioScale};
use qic::sweep::digest_str;

/// `(preset, digest of to_csv(), digest of to_record_json())`.
const PINS: [(&str, u64, u64); 10] = [
    ("fig16", 0xbee6_3066_1f11_ea79, 0x658d_a090_7524_60ca),
    (
        "topology_faceoff",
        0xa465_692a_2ad5_766b,
        0x33c8_c78d_2c85_be3e,
    ),
    ("qft_torus", 0xfa73_c5e0_e226_5ba1, 0x9e4b_677f_0f83_e87f),
    (
        "qft_hypercube",
        0x31ac_083b_ef1a_de50,
        0xecee_f53e_2c26_041d,
    ),
    ("shor_kernel", 0xb9f7_3b63_7851_5e5d, 0xfe84_e65e_9f75_d2a9),
    (
        "synthetic_stress",
        0x9ff7_a88f_0a3c_4b3b,
        0x925c_7086_1acb_ba52,
    ),
    (
        "resilience_sweep",
        0xba33_1c96_f387_7f4b,
        0x77df_39ba_fb31_5fbd,
    ),
    (
        "modular_faceoff",
        0xdf01_0899_9c3d_79e0,
        0x2282_4212_e989_8fa4,
    ),
    (
        "cost_fidelity_pareto",
        0xc258_fd58_529f_0f56,
        0xca5c_48dc_5208_5ae2,
    ),
    ("design_space", 0xa3b1_9017_8389_2ce1, 0xe59d_f398_41c3_9e1e),
];

fn full(name: &str) -> qic::ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::Full)
        .unwrap_or_else(|| panic!("registry has no preset {name}"))
        .with_workers(2)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Full scale: run with --release")]
fn simulator_presets_at_full_scale_match_their_pins() {
    let mut drift = Vec::new();
    for (name, csv, record) in PINS {
        let report = qic::run(&full(name)).expect("preset validates").report;
        let got = (
            digest_str(&report.to_csv()),
            digest_str(&report.to_record_json()),
        );
        if got != (csv, record) {
            drift.push(format!("(\"{name}\", {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(
        drift.is_empty(),
        "Full-scale output drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Full scale: run with --release")]
fn degraded_faceoff_at_full_scale_strands_seventeen_comms() {
    let spec = full("degraded_faceoff");
    let panic = catch_unwind(AssertUnwindSafe(|| qic::run(&spec)))
        .expect_err("degraded_faceoff at Full is a known failure (ROADMAP item 1)");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("simulation drained with live comms"),
        "unexpected failure: {message}"
    );
    assert!(
        message.contains("left: 17"),
        "unexpected failure: {message}"
    );
}
