//! The benchmark's own randomness: a private splitmix64 (the program
//! under test never sees it, only the inputs it generates), a Zipf
//! sampler for head-heavy item popularity, and a seeded permutation so
//! popularity rank is independent of item id and leaf.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A child stream, so each client thread draws its own sequence.
    pub fn fork(&mut self) -> Self {
        Self(self.next_u64())
    }
}

/// Zipf(s) over ranks `0..n`: rank r is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty range");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_head_heavy() {
        let zipf = Zipf::new(10_000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..5_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let sample = draw(7);
        assert!(sample.iter().all(|&r| r < 10_000));
        let head = sample.iter().filter(|&&r| r < 100).count();
        assert!(
            head > sample.len() / 2,
            "top 1% of ranks drew only {head} of 5000"
        );
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(1_000, &mut SplitMix64::new(3));
        assert_eq!(a, permutation(1_000, &mut SplitMix64::new(3)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert_ne!(a, sorted);
    }
}
