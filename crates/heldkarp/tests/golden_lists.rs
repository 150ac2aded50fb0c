//! Golden candidate lists: the sparse ascent's outcome and the α lists
//! built on it, as FNV-1a-64 digests, recorded from the serial α pass
//! and the lazy-deletion heap Prim before the α rows went through
//! `fan_out` and the sparse Prim got an indexed heap. A change that
//! claims to leave the lists as they are must leave these constants
//! exactly as they are; a change that means to alter them re-records
//! them and says so.
//!
//! The α rows run in blocks of 64, so the drill plates of 63, 64 and 65
//! cities sit at both sides of a block boundary (one short block, one
//! full block, a full block and one row), and at 129 cities the special
//! node `n / 2` is the first row of the second block.

use heldkarp::{alpha_candidate_lists, sparse_ascent, AscentConfig};
use tsp_core::{generate, Instance};

/// `(instance, bound, iterations, FNV(π), FNV(one_tree.parent),
/// FNV(α lists at k = 8))`.
type Golden = (&'static str, i64, usize, u64, u64, u64);

const GOLDEN: [Golden; 8] = [
    (
        "drill300",
        416862,
        200,
        0x5eca26980ef6eeeb,
        0x8b28c2cd6a6e528a,
        0x6f99ca3070994b29,
    ),
    (
        "dimacs1000",
        11040367,
        200,
        0xa3cbe3190d0a1e8b,
        0x4e3c4086e19efd5b,
        0x82b1bc2e5364f0da,
    ),
    (
        "uniform700",
        193946,
        200,
        0x436d1defbf8de69d,
        0xd401c58ac754c404,
        0xfa1fe785cbf0a115,
    ),
    (
        "grid12",
        14400,
        121,
        0x36fe4d3f1c233d25,
        0xe769db361b3e6053,
        0x7b9277404e16d9a7,
    ),
    (
        "drill63",
        129307,
        200,
        0x2d653167b14c0a05,
        0xd0b633ac8c15de4a,
        0xf9330f958b617afc,
    ),
    (
        "drill64",
        95224,
        200,
        0x505df0eedf1c959d,
        0x768665ce93522068,
        0x7e3eced01fa65694,
    ),
    (
        "drill65",
        130535,
        200,
        0x5df709cba8bc6a2a,
        0x205345b1984bf64a,
        0x3e639c2d7c4a31c8,
    ),
    (
        "drill129",
        232047,
        200,
        0x3aae6b69a592fef5,
        0xfcf96ef6444201fd,
        0x4fd8d63a9be4db4e,
    ),
];

fn fnv1a64(words: impl Iterator<Item = u64>, width: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in &w.to_le_bytes()[..width] {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The instances of [`GOLDEN`], in its order, with their ascent config.
fn instances() -> Vec<(&'static str, Instance, AscentConfig)> {
    let at = |special| AscentConfig {
        special,
        ..AscentConfig::default()
    };
    vec![
        ("drill300", generate::drill_plate(300, 8), at(0)),
        ("dimacs1000", generate::clustered_dimacs(1000, 4242), at(0)),
        ("uniform700", generate::uniform(700, 1e4, 3), at(0)),
        ("grid12", generate::grid_known_optimum(12, 12, 100.0), at(0)),
        ("drill63", generate::drill_plate(63, 5), at(31)),
        ("drill64", generate::drill_plate(64, 5), at(32)),
        ("drill65", generate::drill_plate(65, 5), at(32)),
        ("drill129", generate::drill_plate(129, 5), at(64)),
    ]
}

fn digest(name: &'static str, inst: &Instance, cfg: &AscentConfig) -> Golden {
    let res = sparse_ascent(inst, cfg);
    let lists = alpha_candidate_lists(inst, 8, cfg);
    (
        name,
        res.bound,
        res.iterations,
        fnv1a64(res.pi.iter().map(|&p| p as u64), 8),
        fnv1a64(res.one_tree.parent.iter().map(|&p| p as u64), 4),
        fnv1a64(
            (0..inst.len()).flat_map(|c| lists.of(c).iter().map(|&u| u as u64)),
            4,
        ),
    )
}

#[test]
fn ascent_and_alpha_lists_match_the_recorded_digests() {
    let got: Vec<Golden> = instances()
        .iter()
        .map(|(name, inst, cfg)| digest(name, inst, cfg))
        .collect();
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(*g, want, "{} drifted", want.0);
    }
}
