//! Inputs: what a run derives from `--seed`, and the quality yardstick.
//!
//! The three solver workloads follow the paper's protocol (§4: a fixed
//! TSPLIB instance, several independently seeded runs): the instance
//! geometry is fixed by [`INSTANCE_SEED`] — the stand-in for a committed
//! TSPLIB file — and `--seed` drives every solver seed. Drawing the
//! geometry from `--seed` as well was measured and rejected: at 50k
//! uniform cities the final length moves by 0.2 % (interquartile) from
//! instance to instance, two thirds of everything 400 kicks gain
//! (0.32 %), so no quality target would mean the same thing on two
//! seeds. The service workload, whose inputs are many and small, does
//! draw its payloads from `--seed`.

/// Generator seed of the fixed solver instances.
pub const INSTANCE_SEED: u64 = 4242;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of stream `tag` under run seed `seed`. Owned by
/// the harness (not the vendored `rand`), so inputs stay the same when
/// the product's RNG changes.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let stream = tag.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    splitmix64(splitmix64(seed ^ stream).wrapping_add(index))
}

/// A small seeded stream for the harness's own draws (probe inputs).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at probe sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Solver seed of repetition `rep`: the run has `slots` distinct seeds
/// and repetition `slots + i` repeats repetition `i`, which must then
/// return the bit-identical result.
pub fn rep_seed(seed: u64, tag: &str, rep: usize, slots: usize) -> u64 {
    derive(seed, tag, (rep % slots) as u64)
}

/// Tour quality relative to a per-instance reference length.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Reference length: 0.7124·√(n·A) on uniform instances, the
    /// Held-Karp bound elsewhere.
    pub reference: f64,
    /// The quality target in `final_len_pct` units — a committed
    /// constant per workload, the same for every seed.
    pub target_pct: f64,
}

impl Quality {
    /// The random-uniform constant of Johnson & McGeoch: the optimal
    /// tour through `n` uniform points in area `A` tends to 0.7124·√(n·A).
    pub fn uniform(n: usize, side: f64, target_pct: f64) -> Quality {
        Quality {
            reference: 0.7124 * (n as f64 * side * side).sqrt(),
            target_pct,
        }
    }

    /// `final_len_pct` of a tour length.
    pub fn pct(&self, length: i64) -> f64 {
        100.0 * length as f64 / self.reference
    }

    /// Longest tour length that still meets the target.
    pub fn target_length(&self) -> i64 {
        (self.reference * self.target_pct / 100.0).floor() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_stream_and_index() {
        let base = derive(4242, "clk", 0);
        assert_eq!(base, derive(4242, "clk", 0));
        assert_ne!(base, derive(4243, "clk", 0));
        assert_ne!(base, derive(4242, "dist", 0));
        assert_ne!(base, derive(4242, "clk", 1));
    }

    #[test]
    fn repetitions_past_the_slots_repeat_earlier_seeds() {
        for seed in [4242, 7, u64::MAX] {
            let seeds: Vec<u64> = (0..11).map(|rep| rep_seed(seed, "w", rep, 8)).collect();
            assert_eq!(seeds[8], seeds[0]);
            assert_eq!(seeds[10], seeds[2]);
            let mut distinct = seeds[..8].to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 8);
        }
    }

    #[test]
    fn target_is_a_constant_of_the_instance_not_of_the_seed() {
        let q = Quality::uniform(50_000, 1e6, 103.0);
        assert!((q.reference - 159_297_482.7).abs() < 1.0, "{}", q.reference);
        let t = q.target_length();
        assert!(q.pct(t) <= 103.0 && q.pct(t + 1) > 103.0);
        // Nothing in the look-up takes the run seed: the same yardstick
        // holds for the default seed and any other.
        let hk = Quality {
            reference: 1_783_102.0,
            target_pct: 106.5,
        };
        assert_eq!(hk.target_length(), 1_899_003);
    }
}
