//! Candidate-list construction strategies for the CLK engine.
//!
//! Lin-Kernighan move quality is dominated by which edges the search is
//! allowed to consider (Helsgaun, EJOR 2000): plain k-nearest-neighbor
//! lists are cheap but purely geometric, while α-nearness lists derived
//! from the Held-Karp 1-tree rank edges by how much they would cost a
//! relaxed optimum and capture *structural* edges (cluster bridges,
//! detours) that k-NN misses. [`CandidateKind`] selects between:
//!
//! - **k-NN** — spatial-index lists (`NeighborLists::build`), O(n log n),
//!   the default; the only practical choice at 10⁵⁺ cities.
//! - **α** — `heldkarp::alpha_candidate_lists` under
//!   `AscentConfig::default()`. The subgradient iterations run on a
//!   sparse graph at k-NN prices, but two 1-trees (the first and the
//!   last) and the α ranking itself still visit all n² pairs — ≈ 0.2 s
//!   in all at 2 000 cities, minutes at 10⁵ — so this is for the
//!   paper-scale instances (10³–10⁴ cities) the ablation sweeps, not
//!   the 100k perf point.
//! - **Hybrid** — the first ⌈k/2⌉ α candidates per city (structural
//!   edges), remaining slots filled with the nearest k-NN candidates not
//!   already present. The α build plus one k-NN build.
//!
//! All three are deterministic: the ascent is seed-free, k-NN ties are
//! broken by `(dist, id)` in every builder, and α ties by
//! `(α, shifted cost, id)` — so distributed nodes that agree on the
//! wire-level config build bit-identical lists independently.

use heldkarp::{alpha_candidate_lists, AscentConfig};
use tsp_core::{Instance, NeighborLists};

/// How the engine's candidate lists are built. Part of the wire-level
/// node configuration: every node of a distributed run derives its lists
/// from this knob, so all nodes must agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateKind {
    /// Plain k-nearest-neighbor lists (spatial index).
    Knn,
    /// Helsgaun α-nearness lists over the Held-Karp 1-tree.
    Alpha,
    /// ⌈k/2⌉ α candidates per city, topped up with nearest neighbors.
    Hybrid,
}

impl CandidateKind {
    /// All kinds, in ablation-sweep order.
    pub const ALL: [CandidateKind; 3] = [
        CandidateKind::Knn,
        CandidateKind::Alpha,
        CandidateKind::Hybrid,
    ];

    /// Stable lower-case name used in benchmark reports and CLI args.
    pub fn name(&self) -> &'static str {
        match self {
            CandidateKind::Knn => "knn",
            CandidateKind::Alpha => "alpha",
            CandidateKind::Hybrid => "hybrid",
        }
    }

    /// Parse by (case-insensitive) name; `None` for unknown names.
    pub fn by_name(name: &str) -> Option<CandidateKind> {
        match name.to_ascii_lowercase().as_str() {
            "knn" => Some(CandidateKind::Knn),
            "alpha" => Some(CandidateKind::Alpha),
            "hybrid" => Some(CandidateKind::Hybrid),
            _ => None,
        }
    }

    /// Build width-`k` candidate lists of this kind.
    pub fn build(self, inst: &Instance, k: usize) -> NeighborLists {
        build_candidate_lists(inst, self, k)
    }
}

/// Build candidate lists of the given kind and width `k`.
///
/// # Panics
///
/// Panics if `k == 0` ([`NeighborLists::assert_k`]).
pub fn build_candidate_lists(inst: &Instance, kind: CandidateKind, k: usize) -> NeighborLists {
    let n = inst.len();
    NeighborLists::assert_k(k, n);
    let k = k.min(n - 1);
    match kind {
        CandidateKind::Knn => NeighborLists::build(inst, k),
        CandidateKind::Alpha => alpha_candidate_lists(inst, k, &AscentConfig::default()),
        CandidateKind::Hybrid => hybrid_lists(inst, k),
    }
}

/// Hybrid lists: per city, the first ⌈k/2⌉ α candidates followed by the
/// nearest k-NN candidates not already present. The α prefix keeps the
/// structural edges Helsgaun's ranking surfaces; the k-NN suffix keeps
/// the short local edges the double-bridge kicks rely on.
fn hybrid_lists(inst: &Instance, k: usize) -> NeighborLists {
    let n = inst.len();
    let alpha = alpha_candidate_lists(inst, k, &AscentConfig::default());
    let knn = NeighborLists::build(inst, k);
    let alpha_k = k.div_ceil(2);
    let mut flat = vec![0u32; n * k];
    let mut out: Vec<u32> = Vec::with_capacity(k);
    for c in 0..n {
        out.clear();
        out.extend_from_slice(&alpha.of(c)[..alpha_k]);
        for &g in knn.of(c) {
            if out.len() == k {
                break;
            }
            if !out.contains(&g) {
                out.push(g);
            }
        }
        // The k-NN list holds k distinct cities, so at most alpha_k of
        // them were already present and the top-up always reaches k.
        debug_assert_eq!(out.len(), k);
        flat[c * k..(c + 1) * k].copy_from_slice(&out);
    }
    NeighborLists::from_flat(inst, k, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn names_roundtrip() {
        for kind in CandidateKind::ALL {
            assert_eq!(CandidateKind::by_name(kind.name()), Some(kind));
        }
        assert_eq!(CandidateKind::by_name("KNN"), Some(CandidateKind::Knn));
        assert_eq!(CandidateKind::by_name("quadrant"), None);
    }

    /// `kind.build(inst, 0)` must panic with the one width message.
    fn width_zero_panics(kind: CandidateKind) {
        let inst = generate::uniform(20, 1_000.0, 4);
        kind.build(&inst, 0);
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 20 cities")]
    fn knn_lists_of_width_zero_are_refused() {
        width_zero_panics(CandidateKind::Knn);
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 20 cities")]
    fn alpha_lists_of_width_zero_are_refused() {
        width_zero_panics(CandidateKind::Alpha);
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 20 cities")]
    fn hybrid_lists_of_width_zero_are_refused() {
        width_zero_panics(CandidateKind::Hybrid);
    }

    #[test]
    fn all_kinds_build_valid_lists() {
        let inst = generate::uniform(60, 10_000.0, 31);
        for kind in CandidateKind::ALL {
            let nl = build_candidate_lists(&inst, kind, 8);
            assert_eq!(nl.k(), 8, "{kind:?}");
            assert_eq!(nl.len(), 60, "{kind:?}");
            for c in 0..60 {
                assert!(!nl.of(c).contains(&(c as u32)), "{kind:?} self-loop at {c}");
                let mut ids = nl.of(c).to_vec();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), 8, "{kind:?} duplicate candidate at {c}");
                for (&o, &d) in nl.of(c).iter().zip(nl.dists_of(c)) {
                    assert_eq!(d, inst.dist(c, o as usize), "{kind:?} cached dist");
                }
            }
        }
    }

    #[test]
    fn hybrid_starts_with_alpha_prefix_and_stays_deterministic() {
        // The drill plate's equal spacings put ties in both rankings.
        for inst in [
            generate::uniform(80, 10_000.0, 32),
            generate::drill_plate(400, 32),
        ] {
            let alpha = alpha_candidate_lists(&inst, 8, &AscentConfig::default());
            let a = build_candidate_lists(&inst, CandidateKind::Hybrid, 8);
            let b = build_candidate_lists(&inst, CandidateKind::Hybrid, 8);
            for c in 0..inst.len() {
                assert_eq!(
                    a.of_with_dists(c),
                    b.of_with_dists(c),
                    "hybrid not deterministic at {c}"
                );
                assert_eq!(&a.of(c)[..4], &alpha.of(c)[..4], "α prefix lost at {c}");
            }
        }
    }

    #[test]
    fn alpha_and_knn_kinds_match_their_direct_builders() {
        let inst = generate::uniform(50, 10_000.0, 33);
        let knn = build_candidate_lists(&inst, CandidateKind::Knn, 6);
        let direct = tsp_core::NeighborLists::build(&inst, 6);
        for c in 0..50 {
            assert_eq!(knn.of(c), direct.of(c));
        }
        let alpha = build_candidate_lists(&inst, CandidateKind::Alpha, 6);
        let direct = alpha_candidate_lists(&inst, 6, &AscentConfig::default());
        for c in 0..50 {
            assert_eq!(alpha.of(c), direct.of(c));
        }
    }

    #[test]
    fn k_clamped_on_tiny_instances() {
        let inst = generate::uniform(5, 1_000.0, 34);
        for kind in CandidateKind::ALL {
            let nl = build_candidate_lists(&inst, kind, 10);
            assert_eq!(nl.k(), 4, "{kind:?}");
        }
    }
}
