//! Pinned outputs of the one SplitMix64 finaliser (`qic_des::rng::mix64`)
//! as every crate uses it: campaign seeds and spec digests (`qic-sweep`)
//! and fault draws (`qic-fault`). These values key checkpoint manifests,
//! the serve result cache and every fault schedule on disk, so drift
//! here would silently orphan or change all three.

use qic::des::rng::{mix64, GOLDEN_GAMMA};
use qic::fault::{component_seed, splitmix64, FaultDomain};
use qic::sweep::{derive_seed, digest_str};

#[test]
fn derive_seed_values_are_pinned() {
    assert_eq!(derive_seed(0, 0, 0), 0xc073_7b7c_f89e_44ab);
    assert_eq!(derive_seed(2006, 5, 1), 0x6103_49b8_bcf7_7f31);
    assert_eq!(derive_seed(u64::MAX, 123, 7), 0x9cb9_7c45_ed3d_5740);
    assert_eq!(derive_seed(7, 3, 1), 0x0bd7_1e85_9509_afe1);
}

#[test]
fn digest_str_values_are_pinned() {
    assert_eq!(digest_str(""), 0x9e37_79b9_7f4a_7c15);
    assert_eq!(digest_str("qic"), 0x5965_4baf_691f_da99);
    assert_eq!(
        digest_str("{\"campaign\":\"fig16\"}"),
        0x3db1_511f_6227_ce08
    );
    assert_eq!(digest_str("design_space"), 0x6020_fb4f_f2cd_2281);
}

#[test]
fn component_seed_values_are_pinned() {
    assert_eq!(
        component_seed(0, FaultDomain::Link, 0),
        0x4791_11fc_0bb0_ed65
    );
    assert_eq!(
        component_seed(2006, FaultDomain::Node, 17),
        0x148a_ea58_0f4d_7248
    );
    assert_eq!(
        component_seed(42, FaultDomain::Teleporter, u64::MAX),
        0xcd11_0c61_e9ac_6a90
    );
}

#[test]
fn fault_splitmix_step_is_gamma_then_the_shared_finaliser() {
    assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    assert_eq!(mix64(GOLDEN_GAMMA), splitmix64(0));
}
