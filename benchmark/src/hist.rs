//! Fixed-size log-linear latency histogram: 128 sub-buckets per power of
//! two (values below 256 ns are exact, everything above is within 0.8 %),
//! so a run's memory does not grow with the number of samples.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^41 ns (≈ 37 min).
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    max: u64,
}

fn index(nanos: u64) -> usize {
    if nanos < 2 * SUB {
        return nanos as usize;
    }
    let exp = (63 - nanos.leading_zeros()).min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let top = (nanos >> shift).min(2 * SUB - 1);
    (((shift + 1) as usize) << SUB_BITS) + (top - SUB) as usize
}

/// Midpoint of a bucket's value range.
fn value(index: usize) -> f64 {
    if index < (2 * SUB) as usize {
        return index as f64;
    }
    let shift = (index >> SUB_BITS) as u32 - 1;
    let low = (SUB + (index as u64 & (SUB - 1))) << shift;
    low as f64 + (1u64 << shift) as f64 / 2.0
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, nanos: u64) {
        self.counts[index(nanos)] += 1;
        self.total += 1;
        self.max = self.max.max(nanos);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile in nanoseconds (nearest rank; 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return value(i);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn percentiles_track_a_sorted_vec() {
        let mut rng = SplitMix64::new(11);
        let mut hist = Hist::default();
        // Log-uniform over 1 µs .. 100 ms, like a latency distribution
        // with a long tail.
        let mut values: Vec<u64> = (0..50_000)
            .map(|_| (1_000.0 * 10f64.powf(rng.next_f64() * 5.0)) as u64)
            .collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let approx = hist.quantile(q);
            assert!(
                (approx - exact).abs() / exact < 0.01,
                "q{q}: {approx} vs {exact}"
            );
        }
        assert_eq!(hist.count(), 50_000);
        assert_eq!(hist.max_nanos(), *values.last().unwrap());
    }

    #[test]
    fn index_is_monotone_and_bounded() {
        let mut last = 0;
        for v in (0..4_000u64).chain((12..44).flat_map(|e| [(1u64 << e) - 1, 1 << e, (1 << e) + 1]))
        {
            let i = index(v);
            assert!(i >= last && i < BUCKETS, "value {v} -> bucket {i}");
            last = i;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_nanos(), 1_000_000);
        assert_eq!(a.quantile(0.5), 100.0);
    }
}
