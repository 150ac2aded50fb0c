//! The variable-strength perturbation of paper §2.3 / Fig. 1.
//!
//! ```text
//! function PERTURBATE(s)
//!     if NumNoImprovements > c_r then
//!         RESETCOUNTERS; return INITIALTOUR
//!     else
//!         NumPerturbations := NumNoImprovements / c_v + 1
//!         return VARIATETOUR(s, NumPerturbations)
//! ```
//!
//! Weak kicks first; strength grows every `c_v` non-improving
//! iterations; after `c_r` of them the tour is discarded entirely and a
//! fresh initial tour is constructed. The run-A/run-B case study of
//! §4.2.1 is reproduced by logging every strength change.

use rand::Rng;
use tsp_core::Tour;

/// What the perturbation step decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbAction {
    /// Applied this many random double-bridge moves to the tour.
    Kicked(u32),
    /// Counters exceeded `c_r`: the caller must replace the tour with a
    /// fresh initial tour (counters were reset).
    Restart,
}

/// Tracks `NumNoImprovements` and applies variable-strength kicks.
#[derive(Debug, Clone)]
pub struct Perturbator {
    /// Strength divisor `c_v` (paper default 64).
    pub c_v: u32,
    /// Restart threshold `c_r` (paper default 256).
    pub c_r: u32,
    /// Disable double-bridge perturbation entirely (the paper's "no
    /// DBM" ablation of §4.2: the tour is passed to CLK unchanged).
    pub use_dbm: bool,
    num_no_improvements: u32,
}

impl Default for Perturbator {
    fn default() -> Self {
        Perturbator {
            c_v: 64,
            c_r: 256,
            use_dbm: true,
            num_no_improvements: 0,
        }
    }
}

impl Perturbator {
    /// Create with explicit parameters.
    pub fn new(c_v: u32, c_r: u32, use_dbm: bool) -> Self {
        assert!(c_v > 0, "c_v must be positive");
        Perturbator {
            c_v,
            c_r,
            use_dbm,
            num_no_improvements: 0,
        }
    }

    /// Current `NumNoImprovements` counter.
    pub fn no_improvements(&self) -> u32 {
        self.num_no_improvements
    }

    /// Current kick strength `NumPerturbations` that the next
    /// perturbation would use.
    pub fn strength(&self) -> u32 {
        self.num_no_improvements / self.c_v + 1
    }

    /// Record a non-improving iteration (paper: `NumNoImprovements++`).
    pub fn record_no_improvement(&mut self) {
        self.num_no_improvements = self.num_no_improvements.saturating_add(1);
    }

    /// Record an improvement — found locally *or received from another
    /// node*; both reset the counter (§4.2.1: "As this tour was …
    /// improving the local best tours, the local NumNoImprovements
    /// variables were resetted, too").
    pub fn record_improvement(&mut self) {
        self.num_no_improvements = 0;
    }

    /// Perturbate `tour` in place per the paper's rule. On
    /// [`PerturbAction::Restart`] the tour is left untouched and the
    /// caller must rebuild it.
    pub fn perturbate<R: Rng>(&mut self, tour: &mut Tour, rng: &mut R) -> PerturbAction {
        if self.num_no_improvements > self.c_r {
            self.num_no_improvements = 0;
            return PerturbAction::Restart;
        }
        let kicks = if self.use_dbm { self.strength() } else { 0 };
        // Report what was done to the tour: one too small to kick
        // (`Tour::random_double_bridge`) comes back as `Kicked(0)`.
        let mut applied = 0;
        for _ in 0..kicks {
            applied += u32::from(tour.random_double_bridge(rng));
        }
        PerturbAction::Kicked(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn strength_grows_stepwise() {
        let mut p = Perturbator::new(4, 100, true);
        assert_eq!(p.strength(), 1);
        for _ in 0..4 {
            p.record_no_improvement();
        }
        assert_eq!(p.strength(), 2);
        for _ in 0..4 {
            p.record_no_improvement();
        }
        assert_eq!(p.strength(), 3);
        p.record_improvement();
        assert_eq!(p.strength(), 1);
    }

    #[test]
    fn restart_after_c_r() {
        let mut p = Perturbator::new(4, 10, true);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut tour = Tour::identity(20);
        for _ in 0..=10 {
            p.record_no_improvement();
        }
        let action = p.perturbate(&mut tour, &mut rng);
        assert_eq!(action, PerturbAction::Restart);
        assert_eq!(p.no_improvements(), 0);
        // Tour untouched on restart.
        let expected: Vec<u32> = (0..20).collect();
        assert_eq!(tour.order(), expected.as_slice());
    }

    #[test]
    fn kick_count_follows_formula() {
        let mut p = Perturbator::new(64, 256, true);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut tour = Tour::identity(50);
        assert_eq!(p.perturbate(&mut tour, &mut rng), PerturbAction::Kicked(1));
        for _ in 0..130 {
            p.record_no_improvement();
        }
        // 130 / 64 + 1 = 3
        assert_eq!(p.perturbate(&mut tour, &mut rng), PerturbAction::Kicked(3));
        assert!(tour.is_valid());
    }

    #[test]
    fn no_dbm_variant_never_kicks() {
        let mut p = Perturbator::new(64, 256, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut tour = Tour::identity(50);
        let before = tour.order().to_vec();
        assert_eq!(p.perturbate(&mut tour, &mut rng), PerturbAction::Kicked(0));
        assert_eq!(tour.order(), before.as_slice());
        // But restart still applies.
        for _ in 0..=256 {
            p.record_no_improvement();
        }
        assert_eq!(p.perturbate(&mut tour, &mut rng), PerturbAction::Restart);
    }

    #[test]
    fn tour_too_small_to_kick_reports_no_kicks() {
        let mut p = Perturbator::new(1, 256, true);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..3 {
            p.record_no_improvement();
        }
        assert_eq!(p.strength(), 4);
        let mut small = Tour::identity(7);
        assert_eq!(p.perturbate(&mut small, &mut rng), PerturbAction::Kicked(0));
        assert_eq!(small, Tour::identity(7));
        let mut tour = Tour::identity(8);
        assert_eq!(p.perturbate(&mut tour, &mut rng), PerturbAction::Kicked(4));
        assert_ne!(tour, Tour::identity(8));
    }

    #[test]
    fn paper_defaults() {
        let p = Perturbator::default();
        assert_eq!(p.c_v, 64);
        assert_eq!(p.c_r, 256);
        assert!(p.use_dbm);
    }
}
