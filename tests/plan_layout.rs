//! Every canonical placement recipe pinned to the layout and digest it
//! has always produced.
//!
//! A [`Plan`] is a validated `DeviceConfig` plus its tenant wiring. The
//! recipes build that layout through `AccelConfig`, reading the engine,
//! group and WQ-entry limits from `DeviceCaps::dsa1()`. The table below
//! pins, for each recipe and roster, the device layout (group engines
//! with any read-buffer override, then each WQ's mode, size, group and
//! priority) and the plan's `digest64()`, which also folds the label and
//! the wiring. A change to any recipe, to the digest fold, or to the
//! wiring shows up here as a changed row.

use dsa_core::digest::Digestible;
use dsa_core::DsaError;
use dsa_device::config::{DeviceConfig, WqMode};
use dsa_svc::plan::{Plan, Wiring};
use dsa_svc::tenant::QosClass::{self, Latency as L, Throughput as T};

/// Per-engine read buffers the governor's `by-class+rbuf` candidate
/// leaves to the throughput group.
const RBUF_CLAMP: u32 = 8;

/// `(case, digest64, layout)`: groups as `engines[/rbN]`, then WQs as
/// `{s|d}size@group` + `pPRIORITY`.
const PINNED: &[(&str, u64, &str)] = &[
    ("shared", 0x4d68_04cb_e332_02b0, "4 | s128@0p8"),
    ("dedicated(1)", 0x780e_5772_2b9a_a987, "4 | d128@0p8"),
    ("dedicated(2)", 0x1fbc_166d_9bd7_b6e0, "2 2 | d64@0p8 d64@1p8"),
    ("dedicated(3)", 0xf54c_2eae_cb9b_4749, "2 1 1 | d42@0p8 d42@1p8 d42@2p8"),
    ("dedicated(4)", 0x0bbf_ffb3_e6fa_8a26, "1 1 1 1 | d32@0p8 d32@1p8 d32@2p8 d32@3p8"),
    ("dedicated(5)", 0x9aa5_55e4_4b28_f55b, "1 1 1 1 | d25@0p8 d25@1p8 d25@2p8 d25@3p8 d25@0p8"),
    (
        "dedicated(6)",
        0xf735_2c90_09b2_f646,
        "1 1 1 1 | d21@0p8 d21@1p8 d21@2p8 d21@3p8 d21@0p8 d21@1p8",
    ),
    (
        "dedicated(7)",
        0x4b97_ced9_f222_2a30,
        "1 1 1 1 | d18@0p8 d18@1p8 d18@2p8 d18@3p8 d18@0p8 d18@1p8 d18@2p8",
    ),
    (
        "dedicated(8)",
        0x073d_689d_dac0_1de6,
        "1 1 1 1 | d16@0p8 d16@1p8 d16@2p8 d16@3p8 d16@0p8 d16@1p8 d16@2p8 d16@3p8",
    ),
    ("all-latency(2)", 0xaee5_b999_9496_1e0f, "2 2 | d64@0p8 d64@1p8"),
    ("all-throughput(2)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(2)", 0x8ce9_03b7_d19a_254f, "1 3 | d64@0p8 s64@1p8"),
    ("rbuf(2)", 0x4ca5_3bd1_b03e_2076, "1 3/rb8 | d64@0p8 s64@1p8"),
    ("all-latency(3)", 0xdb83_cb86_a6e9_9fa6, "2 1 1 | d42@0p8 d42@1p8 d42@2p8"),
    ("all-throughput(3)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(3)", 0x8ce9_03b7_d19a_254f, "1 3 | d64@0p8 s64@1p8"),
    ("rbuf(3)", 0x4ca5_3bd1_b03e_2076, "1 3/rb8 | d64@0p8 s64@1p8"),
    ("all-latency(4)", 0x2041_49dc_382d_60c9, "1 1 1 1 | d32@0p8 d32@1p8 d32@2p8 d32@3p8"),
    ("all-throughput(4)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(4)", 0xa88a_3d15_18ee_506c, "1 1 2 | d32@0p8 d32@1p8 s64@2p8"),
    ("rbuf(4)", 0x3587_3fc6_2dd7_37b5, "1 1 2/rb8 | d32@0p8 d32@1p8 s64@2p8"),
    ("all-latency(5)", 0xcb62_32da_bf2d_ecb4, "1 1 1 1 | d25@0p8 d25@1p8 d25@2p8 d25@3p8 d25@0p8"),
    ("all-throughput(5)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(5)", 0xa88a_3d15_18ee_506c, "1 1 2 | d32@0p8 d32@1p8 s64@2p8"),
    ("rbuf(5)", 0x3587_3fc6_2dd7_37b5, "1 1 2/rb8 | d32@0p8 d32@1p8 s64@2p8"),
    (
        "all-latency(6)",
        0xf215_d839_23e1_4729,
        "1 1 1 1 | d21@0p8 d21@1p8 d21@2p8 d21@3p8 d21@0p8 d21@1p8",
    ),
    ("all-throughput(6)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(6)", 0xad2a_d543_094d_159a, "1 1 1 1 | d21@0p8 d21@1p8 d21@2p8 s64@3p8"),
    ("rbuf(6)", 0xebd2_b8b3_7c9a_80a3, "1 1 1 1/rb8 | d21@0p8 d21@1p8 d21@2p8 s64@3p8"),
    (
        "all-latency(7)",
        0x24af_424d_d406_badf,
        "1 1 1 1 | d18@0p8 d18@1p8 d18@2p8 d18@3p8 d18@0p8 d18@1p8 d18@2p8",
    ),
    ("all-throughput(7)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(7)", 0xad2a_d543_094d_159a, "1 1 1 1 | d21@0p8 d21@1p8 d21@2p8 s64@3p8"),
    ("rbuf(7)", 0xebd2_b8b3_7c9a_80a3, "1 1 1 1/rb8 | d21@0p8 d21@1p8 d21@2p8 s64@3p8"),
    (
        "all-latency(8)",
        0x956c_0f1d_b149_9a89,
        "1 1 1 1 | d16@0p8 d16@1p8 d16@2p8 d16@3p8 d16@0p8 d16@1p8 d16@2p8 d16@3p8",
    ),
    ("all-throughput(8)", 0xfa6c_1fd7_b003_e609, "4 | s128@0p8"),
    ("mixed(8)", 0xfc9a_8026_27b2_54cd, "1 1 1 1 | d16@0p8 d16@1p8 d16@2p8 d16@0p8 s64@3p8"),
    ("rbuf(8)", 0x95f6_d4cd_5d15_9bf4, "1 1 1 1/rb8 | d16@0p8 d16@1p8 d16@2p8 d16@0p8 s64@3p8"),
];

/// Renders a device layout in the table's notation.
fn layout(d: &DeviceConfig) -> String {
    let groups = d.groups.iter().map(|g| match g.read_buffers_per_engine {
        Some(rb) => format!("{}/rb{rb}", g.engines),
        None => g.engines.to_string(),
    });
    let wqs = d.wqs.iter().map(|w| {
        let mode = if w.mode == WqMode::Shared { 's' } else { 'd' };
        format!("{mode}{}@{}p{}", w.size, w.group, w.priority)
    });
    format!("{} | {}", groups.collect::<Vec<_>>().join(" "), wqs.collect::<Vec<_>>().join(" "))
}

/// Every pinned case, built fresh from the recipes.
fn recipes() -> Vec<(String, Plan)> {
    let mut out = vec![(String::from("shared"), Plan::shared().unwrap())];
    for n in 1..=8 {
        out.push((format!("dedicated({n})"), Plan::dedicated(n).unwrap()));
    }
    for n in 2..=8usize {
        out.push((format!("all-latency({n})"), Plan::by_class_of(&vec![L; n]).unwrap()));
        out.push((format!("all-throughput({n})"), Plan::by_class_of(&vec![T; n]).unwrap()));
        let mixed: Vec<QosClass> = (0..n).map(|i| if i % 2 == 0 { T } else { L }).collect();
        let p = Plan::by_class_of(&mixed).unwrap();
        // The governor's read-buffer candidate: the throughput pool is
        // the last group of the class carve.
        let last = p.device().groups.len() - 1;
        let rbuf = p.with_read_buffers(last, RBUF_CLAMP).unwrap().with_label("by-class+rbuf");
        out.push((format!("mixed({n})"), p));
        out.push((format!("rbuf({n})"), rbuf));
    }
    out
}

#[test]
fn every_recipe_keeps_its_layout_and_digest() {
    let built = recipes();
    assert_eq!(built.len(), PINNED.len());
    for ((case, plan), &(pinned, digest, want)) in built.iter().zip(PINNED) {
        assert_eq!(case, pinned);
        assert_eq!(layout(plan.device()), want, "{case}: device layout");
        assert_eq!(plan.digest64(), digest, "{case}: digest {:#018x}", plan.digest64());
    }
}

#[test]
fn envelope_and_wiring_violations_are_rejected() {
    let nine = Plan::dedicated(9);
    assert!(matches!(nine, Err(DsaError::InvalidConfig(_))), "got {nine:?}");
    let device = Plan::shared().unwrap().device().clone();
    let out_of_range = Plan::new("p", device.clone(), Wiring::ByIndex(vec![1]));
    assert!(matches!(out_of_range, Err(DsaError::InvalidService { .. })), "got {out_of_range:?}");
    let by_class = Wiring::ByClass { latency: vec![0], throughput: vec![0, 3] };
    let out_of_range = Plan::new("p", device, by_class);
    assert!(matches!(out_of_range, Err(DsaError::InvalidService { .. })), "got {out_of_range:?}");
}
