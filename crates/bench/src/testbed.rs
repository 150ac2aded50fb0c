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
    /// quick sizes listed in [`testbed`]).
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

    fn sized(&self, base: usize) -> usize {
        ((base as f64 * self.size_factor) as usize).max(64)
    }
}

/// Small-instance testbed (the paper's Table 3/4/5 set up to fnl4461).
pub fn small_testbed(scale: &Scale) -> Vec<TestInstance> {
    vec![
        TestInstance {
            paper_name: "C1k.1",
            inst: generate::clustered_dimacs(scale.sized(1000), 11),
        },
        TestInstance {
            paper_name: "E1k.1",
            inst: generate::uniform(scale.sized(1000), 1_000_000.0, 12),
        },
        TestInstance {
            paper_name: "grid1024",
            inst: sized_grid(scale),
        },
        TestInstance {
            paper_name: "fl1577",
            inst: generate::drill_plate(scale.sized(1577), 13),
        },
        TestInstance {
            paper_name: "pr2392",
            inst: generate::pcb_like(scale.sized(2392), 14),
        },
        TestInstance {
            paper_name: "pcb3038",
            inst: generate::pcb_like(scale.sized(3038), 15),
        },
        TestInstance {
            paper_name: "fl3795",
            inst: generate::drill_plate(scale.sized(3795), 16),
        },
        TestInstance {
            paper_name: "fnl4461",
            inst: generate::uniform(scale.sized(4461), 1_000_000.0, 17),
        },
    ]
}

fn sized_grid(scale: &Scale) -> Instance {
    // Nearest even-sized square grid to 1024 * factor.
    let n = ((1024.0 * scale.size_factor) as usize).max(64);
    let mut w = (n as f64).sqrt().round() as usize;
    if w < 8 {
        w = 8;
    }
    if w % 2 == 1 {
        w += 1;
    }
    generate::grid_known_optimum(w, w, 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_testbed_builds() {
        let scale = Scale::quick();
        let tb = small_testbed(&scale);
        assert_eq!(tb.len(), 8);
        for t in &tb {
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
