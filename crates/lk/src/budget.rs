//! Search budgets and convergence traces.
//!
//! The paper bounds runs by CPU time (10³–10⁵ s) with the known optimum
//! as an additional termination criterion. For deterministic tests we
//! additionally support *effort* budgets counted in kicks/CLK calls, so
//! CI never depends on wall-clock speed.

use std::time::{Duration, Instant};

/// Composite termination criterion: a run stops when *any* enabled
/// bound is hit.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Maximum number of kicks / outer iterations.
    pub max_kicks: Option<u64>,
    /// Stop as soon as a tour of this length (or shorter) is found —
    /// the paper's "known optimum" criterion.
    pub target_length: Option<i64>,
}

impl Budget {
    /// Time-bounded budget.
    pub fn time(d: Duration) -> Self {
        Budget {
            time_limit: Some(d),
            ..Default::default()
        }
    }

    /// Effort-bounded budget (deterministic).
    pub fn kicks(k: u64) -> Self {
        Budget {
            max_kicks: Some(k),
            ..Default::default()
        }
    }

    /// Add a target length (builder style).
    pub fn with_target(mut self, target: i64) -> Self {
        self.target_length = Some(target);
        self
    }

    /// Add a kick bound (builder style).
    pub fn with_max_kicks(mut self, k: u64) -> Self {
        self.max_kicks = Some(k);
        self
    }

    /// Add a time bound (builder style).
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Whether the run should stop given elapsed time, kicks performed
    /// and the best length so far.
    pub fn exhausted(&self, elapsed: Duration, kicks: u64, best: i64) -> bool {
        if let Some(t) = self.time_limit {
            if elapsed >= t {
                return true;
            }
        }
        if let Some(k) = self.max_kicks {
            if kicks >= k {
                return true;
            }
        }
        if let Some(target) = self.target_length {
            if best <= target {
                return true;
            }
        }
        false
    }

    /// Whether `best` already meets the target length.
    pub fn target_met(&self, best: i64) -> bool {
        self.target_length.is_some_and(|t| best <= t)
    }
}

/// Monotonic stopwatch (thin wrapper so experiment code reads clearly).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as f64 (for traces and CSV output).
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// A best-so-far convergence trace: `(seconds, kicks, tour length)`
/// samples recorded at every improvement — the raw series behind the
/// paper's Figures 2 and 3.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    points: Vec<(f64, u64, i64)>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record an improvement. The trace is a *best-so-far* series, so
    /// a sample that does not improve on the last recorded length is
    /// dropped — repeated or regressing entries (e.g. a received tour
    /// tying the local best) can never corrupt the convergence curves;
    /// the full history lives in the obs event log instead.
    pub fn record(&mut self, secs: f64, kicks: u64, length: i64) {
        if self.points.last().is_some_and(|&(_, _, l)| length >= l) {
            return;
        }
        self.points.push((secs, kicks, length));
    }

    /// All samples, in recording order.
    pub fn points(&self) -> &[(f64, u64, i64)] {
        &self.points
    }

    /// Final (best) length, if any sample was recorded.
    pub fn final_length(&self) -> Option<i64> {
        self.points.last().map(|&(_, _, l)| l)
    }

    /// First time (seconds) at which the trace reached `length` or
    /// better — the "time to quality level" statistic of Table 1.
    pub fn time_to_reach(&self, length: i64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, _, l)| l <= length)
            .map(|&(s, _, _)| s)
    }

    /// First effort point (kicks / CLK calls) at which the trace
    /// reached `length` or better — the machine-independent variant of
    /// [`Trace::time_to_reach`], used on single-core hosts where
    /// wall-clock comparisons across thread counts would be unfair.
    pub fn kicks_to_reach(&self, length: i64) -> Option<u64> {
        self.points
            .iter()
            .find(|&&(_, _, l)| l <= length)
            .map(|&(_, k, _)| k)
    }

    /// Merge several per-node traces into the network-best trace
    /// (minimum length over nodes as a function of time).
    pub fn network_best(traces: &[Trace]) -> Trace {
        let mut all: Vec<(f64, u64, i64)> = traces
            .iter()
            .flat_map(|t| t.points.iter().copied())
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut out = Trace::new();
        let mut best = i64::MAX;
        for (s, k, l) in all {
            if l < best {
                best = l;
                out.record(s, k, l);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kick_budget() {
        let b = Budget::kicks(10);
        assert!(!b.exhausted(Duration::ZERO, 9, i64::MAX));
        assert!(b.exhausted(Duration::ZERO, 10, i64::MAX));
    }

    #[test]
    fn time_budget() {
        let b = Budget::time(Duration::from_millis(5));
        assert!(!b.exhausted(Duration::from_millis(4), 0, i64::MAX));
        assert!(b.exhausted(Duration::from_millis(5), 0, i64::MAX));
    }

    #[test]
    fn target_budget() {
        let b = Budget::default().with_target(100);
        assert!(!b.exhausted(Duration::ZERO, 0, 101));
        assert!(b.exhausted(Duration::ZERO, 0, 100));
        assert!(b.target_met(99));
        assert!(!b.target_met(101));
    }

    #[test]
    fn combined_budget_any_bound_stops() {
        let b = Budget::kicks(5).with_target(10);
        assert!(b.exhausted(Duration::ZERO, 5, 50));
        assert!(b.exhausted(Duration::ZERO, 0, 10));
        assert!(!b.exhausted(Duration::ZERO, 4, 11));
    }

    #[test]
    fn trace_time_to_reach() {
        let mut t = Trace::new();
        t.record(0.1, 1, 1000);
        t.record(0.5, 3, 900);
        t.record(2.0, 9, 850);
        assert_eq!(t.time_to_reach(950), Some(0.5));
        assert_eq!(t.time_to_reach(850), Some(2.0));
        assert_eq!(t.time_to_reach(800), None);
        assert_eq!(t.final_length(), Some(850));
    }

    #[test]
    fn trace_drops_non_improving_samples() {
        let mut t = Trace::new();
        t.record(0.1, 1, 1000);
        t.record(0.2, 2, 1000); // duplicate length: dropped
        t.record(0.3, 3, 1100); // regression: dropped
        t.record(0.4, 4, 900);
        assert_eq!(t.points(), &[(0.1, 1, 1000), (0.4, 4, 900)]);
        for w in t.points().windows(2) {
            assert!(w[1].2 < w[0].2);
        }
    }

    #[test]
    fn network_best_merges() {
        let mut a = Trace::new();
        a.record(0.1, 0, 1000);
        a.record(1.0, 0, 800);
        let mut b = Trace::new();
        b.record(0.2, 0, 900);
        b.record(0.5, 0, 950); // worse than current best, dropped
        let merged = Trace::network_best(&[a, b]);
        assert_eq!(
            merged.points(),
            &[(0.1, 0, 1000), (0.2, 0, 900), (1.0, 0, 800)]
        );
    }
}
