//! Order statistics over the repetitions of one run.

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two closest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Five-number summary of one timing over the repetitions; the metric
/// is the median, the rest goes to the diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a percentage of the median.
    pub fn spread_pct(&self) -> f64 {
        100.0 * (self.q3 - self.q1) / self.median
    }

    pub fn max_over_median(&self) -> f64 {
        self.max / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&even, 0.25), 1.75);
        assert_eq!(quantile(&even, 0.75), 3.25);
    }

    #[test]
    fn summary_reports_spread_relative_to_median() {
        let s = Summary::of(&[2.0, 4.0, 1.0, 3.0, 5.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!((s.spread_pct() - 100.0 * 2.0 / 3.0).abs() < 1e-12);
        assert!((s.max_over_median() - 5.0 / 3.0).abs() < 1e-12);
    }
}
