//! Order statistics and the seeded generator the workloads draw from.
//!
//! The generator lives here, not in `mosaic-numerics`, so that no change
//! to the engine can change the inputs a seed produces.

/// Linear-interpolated percentile (`p` in `0..=100`) of `values`;
/// `NaN` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// SplitMix64: a small, fixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn generator_is_fixed_by_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut xs: Vec<usize> = (0..10).collect();
        let mut ys = xs.clone();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_eq!(xs, ys);
        assert_ne!(xs, (0..10).collect::<Vec<_>>());
    }
}
