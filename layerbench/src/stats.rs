//! Small numeric helpers shared by the workloads.

/// The benchmark's input generator (SplitMix64): a seed fully determines
/// every roster, size choice and service seed a workload draws. It is the
/// benchmark's own, not `dsa-sim`'s, so a change to the simulator can
/// never change the inputs it is measured on.
#[derive(Clone, Debug)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; `None` when empty.
pub fn percentile(v: &mut [u64], p: f64) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Jain's fairness index over `x`: 1.0 for perfectly even shares.
pub fn jain(x: &[f64]) -> f64 {
    let sum: f64 = x.iter().sum();
    let sumsq: f64 = x.iter().map(|v| v * v).sum();
    if x.is_empty() || sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (x.len() as f64 * sumsq)
    }
}

/// Mean host nanoseconds per item over the first and the last tenth of
/// `samples` (each `(host_ns, items)`, in run order), as last ÷ first: a
/// cost that stays flat as the run grows reads 1.0.
pub fn cost_growth(samples: &[(u64, u64)]) -> f64 {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let tenth = (total / 10).max(1);
    let per_item = |it: &mut dyn Iterator<Item = &(u64, u64)>| {
        let (mut ns, mut items) = (0u64, 0u64);
        for &(t, n) in it {
            if items >= tenth {
                break;
            }
            ns += t;
            items += n;
        }
        ns as f64 / items.max(1) as f64
    };
    let first = per_item(&mut samples.iter());
    let last = per_item(&mut samples.iter().rev());
    if first == 0.0 {
        1.0
    } else {
        last / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
    }

    #[test]
    fn cost_growth_reads_flat_and_rising_costs() {
        let flat: Vec<(u64, u64)> = (0..100).map(|_| (500, 5)).collect();
        assert!((cost_growth(&flat) - 1.0).abs() < 1e-9);
        let rising: Vec<(u64, u64)> = (0..100).map(|i| (100 * (i + 1), 1)).collect();
        assert!(cost_growth(&rising) > 5.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = Gen::new(7);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| g.below(7) < 7));
    }
}
