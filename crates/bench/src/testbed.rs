//! The scaled testbed: stand-ins for the paper's instances and the
//! experiment scale knobs.
//!
//! The paper's testbed spans 1 000–85 900 cities with budgets of
//! 10³–10⁵ CPU seconds on a 2004 cluster. Our default ("quick") scale
//! shrinks instances ~2–10× and budgets to seconds so the whole suite
//! reruns in minutes; `--full` uses the original sizes for the smaller
//! instances. The 10:1 budget ratio between standalone CLK and
//! per-node DistCLK (with 8 nodes) is preserved exactly — it is what
//! the paper's speed-up claims rest on.

use tsp_core::{generate, Instance};

/// How a tour quality is referenced for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Exact known optimum (grid instances; TSPLIB files with recorded
    /// optima).
    Optimum(i64),
    /// Best length seen across all runs of the experiment (surrogate
    /// optimum; recorded in EXPERIMENTS.md).
    Surrogate(i64),
}

impl Reference {
    /// The reference value.
    pub fn value(&self) -> i64 {
        match *self {
            Reference::Optimum(v) | Reference::Surrogate(v) => v,
        }
    }

    /// Excess of `length` over the reference.
    pub fn excess(&self, length: i64) -> f64 {
        let v = self.value();
        (length - v) as f64 / v as f64
    }

    /// Label for report footnotes.
    pub fn label(&self) -> &'static str {
        match self {
            Reference::Optimum(_) => "optimum",
            Reference::Surrogate(_) => "surrogate best-known",
        }
    }
}

/// A testbed entry: the paper's instance name and our stand-in.
pub struct TestInstance {
    /// Name as the paper prints it.
    pub paper_name: &'static str,
    /// The stand-in instance (see DESIGN.md §3).
    pub inst: Instance,
}

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Runs per configuration (paper: 10).
    pub runs: usize,
    /// Standalone-CLK kick budget — the analog of the paper's long
    /// time limit (10⁴/10⁵ s).
    pub clk_kicks: u64,
    /// Size multiplier applied to the stand-in instances (1.0 = the
    /// base sizes the experiments pass to [`Scale::stand_in`]).
    pub size_factor: f64,
    /// Nodes in the distributed runs (paper: 8).
    pub nodes: usize,
    /// Internal kicks per distributed CLK call.
    pub kicks_per_call: u64,
}

impl Scale {
    /// Fast default: suite reruns in minutes (sized for a single-core
    /// CI host; see DESIGN.md §3).
    pub fn quick() -> Self {
        Scale {
            runs: 3,
            clk_kicks: 1000,
            size_factor: 0.3,
            nodes: 8,
            kicks_per_call: 5,
        }
    }

    /// Paper-shaped scale (still reduced budgets, larger instances,
    /// 10 runs).
    pub fn full() -> Self {
        Scale {
            runs: 10,
            clk_kicks: 10_000,
            size_factor: 1.0,
            nodes: 8,
            kicks_per_call: 10,
        }
    }

    /// The per-node kick budget for DistCLK: one tenth of the CLK
    /// budget, exactly the paper's ratio (§3.1).
    pub fn dist_kicks_per_node(&self) -> u64 {
        (self.clk_kicks / 10).max(1)
    }

    /// Per-node CLK-call budget implied by
    /// [`Scale::dist_kicks_per_node`] and the kicks-per-call setting.
    pub fn dist_calls_per_node(&self) -> u64 {
        (self.dist_kicks_per_node() / self.kicks_per_call).max(1)
    }

    /// The stand-in for the paper's `paper_name` (its generator from
    /// [`generate::testbed_instance`]) at `base` cities times the size
    /// factor, and at least `floor`.
    pub fn stand_in(
        &self,
        paper_name: &'static str,
        base: usize,
        floor: usize,
        seed: u64,
    ) -> TestInstance {
        let n = ((base as f64 * self.size_factor) as usize).max(floor);
        let inst = generate::testbed_instance(paper_name, n, seed).expect("a testbed family");
        TestInstance { paper_name, inst }
    }
}

/// Small-instance testbed (the paper's Table 3/4/5 set up to fnl4461):
/// `(paper name, base size, seed)`. `grid1024` is the known-optimum
/// grid, not a generator family.
const SMALL_TESTBED: [(&str, usize, u64); 8] = [
    ("C1k.1", 1000, 11),
    ("E1k.1", 1000, 12),
    ("grid1024", 1024, 0),
    ("fl1577", 1577, 13),
    ("pr2392", 2392, 14),
    ("pcb3038", 3038, 15),
    ("fl3795", 3795, 16),
    ("fnl4461", 4461, 17),
];

/// The small testbed at this scale; quick runs (`runs <= 3`) take its
/// first four instances to keep the suite fast.
pub fn small_testbed(scale: &Scale) -> Vec<TestInstance> {
    let keep = if scale.runs <= 3 {
        4
    } else {
        SMALL_TESTBED.len()
    };
    SMALL_TESTBED[..keep]
        .iter()
        .map(|&(paper_name, base, seed)| match paper_name {
            "grid1024" => TestInstance {
                paper_name,
                inst: sized_grid(scale),
            },
            _ => scale.stand_in(paper_name, base, 64, seed),
        })
        .collect()
}

fn sized_grid(scale: &Scale) -> Instance {
    // Nearest even-sized square grid to 1024 * factor (at least 8 x 8).
    let n = ((1024.0 * scale.size_factor) as usize).max(64);
    let w = (n as f64).sqrt().round() as usize;
    generate::grid_known_optimum(w + w % 2, w + w % 2, 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_testbed_builds() {
        let tb = small_testbed(&Scale::quick());
        assert_eq!(tb.len(), 4);
        let full = small_testbed(&Scale::full());
        assert_eq!(full.len(), 8);
        for t in tb.iter().chain(&full) {
            assert!(t.inst.len() >= 64, "{} too small", t.paper_name);
        }
        // The grid carries its known optimum.
        let grid = tb.iter().find(|t| t.paper_name == "grid1024").unwrap();
        assert!(grid.inst.known_optimum().is_some());
    }

    #[test]
    fn budget_ratio_matches_paper() {
        let s = Scale::full();
        assert_eq!(s.dist_kicks_per_node() * 10, s.clk_kicks);
    }

    #[test]
    fn reference_excess() {
        let r = Reference::Optimum(1000);
        assert_eq!(r.excess(1010), 0.01);
        assert_eq!(r.value(), 1000);
        assert_eq!(Reference::Surrogate(5).label(), "surrogate best-known");
    }

    #[test]
    fn size_factor_scales() {
        let mut s = Scale::quick();
        s.size_factor = 0.1;
        let tb = small_testbed(&s);
        assert!(tb[0].inst.len() <= 120);
    }
}
