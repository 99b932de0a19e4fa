//! The benchmark's own input generators.
//!
//! The program under test receives only finished plans and arrival lists;
//! nothing here uses the repo's `rand` or `legion_sim::workload`
//! generators, so a change to those cannot silently change the
//! benchmark's inputs. Everything is a pure function of the seed.

/// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at `n ≪ 2⁶⁴` is far
    /// below anything the workloads can resolve.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent stream for sub-generator `salt`.
    pub fn fork(&self, salt: u64) -> SplitMix64 {
        let mut s = SplitMix64(self.0 ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s.next_u64();
        s
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    #[cfg(test)]
    pub fn mass(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }
}

/// Arrival times (ns, ascending, all `< horizon_ns`) of a
/// non-homogeneous Poisson process with intensity `rate_per_s(t_ns)`,
/// drawn by Lewis–Shedler thinning against `peak_per_s`, which must
/// bound the intensity from above.
pub fn thinned_arrivals(
    rng: &mut SplitMix64,
    horizon_ns: u64,
    peak_per_s: f64,
    rate_per_s: impl Fn(u64) -> f64,
) -> Vec<u64> {
    assert!(peak_per_s > 0.0, "thinning needs a positive envelope");
    let peak_per_ns = peak_per_s / 1e9;
    let mut out = Vec::with_capacity((horizon_ns as f64 * peak_per_ns) as usize);
    let mut t = 0.0f64;
    loop {
        // 1 − u is in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / peak_per_ns;
        if t >= horizon_ns as f64 {
            return out;
        }
        let rate = rate_per_s(t as u64);
        debug_assert!(rate <= peak_per_s, "intensity above the thinning envelope");
        if rng.next_f64() * peak_per_s < rate {
            out.push(t as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_per_seed_and_forks_differ() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let base = SplitMix64::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        // Reference value of the published algorithm (seed 0, first draw).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn zipf_rank_frequencies_match_the_law_within_two_percent() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = SplitMix64::new(11);
        let draws = 2_000_000;
        let mut hist = vec![0u64; 1000];
        for _ in 0..draws {
            hist[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 2, 9] {
            let want = z.mass(k) * draws as f64;
            let got = hist[k] as f64;
            assert!(
                (got - want).abs() / want < 0.02,
                "rank {k}: got {got}, want {want}"
            );
        }
        // Head mass (top 10 %) as a whole.
        let want: f64 = (0..100).map(|k| z.mass(k)).sum::<f64>() * draws as f64;
        let got: u64 = hist[..100].iter().sum();
        assert!((got as f64 - want).abs() / want < 0.02);
    }

    #[test]
    fn zipf_plans_repeat_per_seed() {
        let z = Zipf::new(5000, 0.9);
        let plan = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..256).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
    }

    #[test]
    fn thinning_reproduces_each_phase_rate_within_two_percent() {
        // Square wave: 10 000/s for the first 40 % of each 100 ms period,
        // 2 000/s for the rest.
        let rate = |t: u64| {
            if t % 100_000_000 < 40_000_000 {
                10_000.0
            } else {
                2_000.0
            }
        };
        let horizon = 60_000_000_000u64;
        let arrivals = thinned_arrivals(&mut SplitMix64::new(5), horizon, 10_000.0, rate);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&t| t < horizon));
        let high = arrivals
            .iter()
            .filter(|&&t| t % 100_000_000 < 40_000_000)
            .count() as f64;
        let low = arrivals.len() as f64 - high;
        let secs = horizon as f64 / 1e9;
        assert!((high / (secs * 0.4) - 10_000.0).abs() / 10_000.0 < 0.02);
        assert!((low / (secs * 0.6) - 2_000.0).abs() / 2_000.0 < 0.02);
        let again = thinned_arrivals(&mut SplitMix64::new(5), horizon, 10_000.0, rate);
        assert_eq!(arrivals, again);
    }
}
