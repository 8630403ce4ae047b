//! Key popularity distributions.
//!
//! Key/value workloads (the NetCache-style cache that motivates array
//! matching in §3.2) are skewed: a few keys dominate. The standard model
//! is a Zipf distribution. [`ZipfKeys`] samples it by Hörmann–Derflinger
//! rejection-inversion: O(1) memory and O(1) expected time per draw, so
//! 10⁷-key workloads don't pay an 80 MB CDF per sampler. The explicit-CDF
//! sampler survives as [`ZipfCdf`], the test oracle the rejection sampler
//! is validated against.

use adcp_sim::rng::SimRng;

/// Zipf-distributed key sampler over keys `0..n` (key 0 most popular),
/// using rejection-inversion (Hörmann & Derflinger, "Rejection-inversion
/// to generate variates from monotone discrete distributions"). The
/// struct is `Copy` and holds five scalars — constant memory at any `n`.
///
/// ```
/// use adcp_workloads::keys::ZipfKeys;
/// use adcp_sim::rng::SimRng;
///
/// let zipf = ZipfKeys::new(1000, 0.99);
/// let mut rng = SimRng::seed_from(1);
/// let hot = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
/// assert!(hot > 2_000, "the 1% hottest keys draw >20% of requests");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ZipfKeys {
    n: u64,
    exponent: f64,
    /// `h_integral(1.5) - 1`: the upper end of the inversion domain.
    h_integral_x1: f64,
    /// `h_integral(n + 0.5)`: the lower end of the inversion domain.
    h_integral_n: f64,
    /// Acceptance shortcut threshold `s`.
    s: f64,
}

/// `log1p(x) / x`, stable near 0 (→ 1).
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * 0.5 + x * x / 3.0
    }
}

/// `expm1(x) / x`, stable near 0 (→ 1).
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

impl ZipfKeys {
    /// Keys `0..n` with skew `s` (s = 0 is uniform; s ≈ 0.99 is the classic
    /// YCSB skew; larger is more skewed). Key 0 is the most popular.
    /// Construction is O(1) in `n`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        assert!(s >= 0.0 && s.is_finite());
        let exponent = s;
        let h_integral = |x: f64| -> f64 {
            let log_x = x.ln();
            helper2((1.0 - exponent) * log_x) * log_x
        };
        let h = |x: f64| -> f64 { (-exponent * x.ln()).exp() };
        let h_integral_inverse = |x: f64| -> f64 {
            let t = (x * (1.0 - exponent)).max(-1.0);
            (helper1(t) * x).exp()
        };
        ZipfKeys {
            n: n as u64,
            exponent,
            h_integral_x1: h_integral(1.5) - 1.0,
            h_integral_n: h_integral(n as f64 + 0.5),
            s: 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0)),
        }
    }

    /// Number of distinct keys.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.exponent) * log_x) * log_x
    }

    fn h(&self, x: f64) -> f64 {
        (-self.exponent * x.ln()).exp()
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.exponent)).max(-1.0);
        (helper1(t) * x).exp()
    }

    /// Draw one key. O(1) expected time: the rejection loop accepts with
    /// probability bounded away from zero for every `n` and skew.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            // u is uniform in (h_integral(n + 0.5), h_integral(1.5) - 1].
            let u = self.h_integral_n + rng.f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5) as u64;
            let k = k.clamp(1, self.n);
            if k as f64 - x <= self.s || u >= self.h_integral(k as f64 + 0.5) - self.h(k as f64) {
                return k - 1;
            }
        }
    }
}

/// The explicit-CDF Zipf sampler: O(n) construction and memory, retained
/// as the oracle [`ZipfKeys`] is validated against, and as the source of
/// exact per-key probability mass ([`ZipfCdf::pmf`]).
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    /// Keys `0..n` with skew `s`, same parameterization as [`ZipfKeys`].
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfCdf { cdf }
    }

    /// Number of distinct keys.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one key: the *first* index whose CDF reaches the uniform draw.
    /// `partition_point` makes the choice deterministic when extreme skew
    /// collapses adjacent CDF entries to equal floats (`binary_search_by`
    /// returned an arbitrary index among the duplicates).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }

    /// Probability mass of key `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_dominates() {
        let z = ZipfKeys::new(1000, 0.99);
        let mut r = SimRng::seed_from(1);
        let n = 100_000;
        let hits0 = (0..n).filter(|_| z.sample(&mut r) == 0).count() as f64 / n as f64;
        // Key 0 mass for n=1000, s=0.99 is ~13%.
        assert!((0.10..0.17).contains(&hits0), "p(key0) = {hits0}");
        assert!((ZipfCdf::new(1000, 0.99).pmf(0) - hits0).abs() < 0.02);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = ZipfKeys::new(100, 0.0);
        let mut r = SimRng::seed_from(2);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(min > 700 && max < 1300, "min={min} max={max}");
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let z = ZipfCdf::new(64, 1.2);
        let mut prev = 0.0;
        for k in 0..z.n() {
            let p = z.pmf(k);
            assert!(p >= 0.0);
            if k > 0 {
                assert!(p <= prev * 1.0001, "pmf must decay");
            }
            prev = p;
        }
        let total: f64 = (0..z.n()).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejection_sampler_matches_cdf_oracle() {
        // Empirical frequency of the rejection-inversion sampler must match
        // the CDF oracle's exact pmf key by key across the head, and in
        // aggregate over the tail, for every skew regime we use.
        for (n, s) in [(1000usize, 0.99f64), (64, 1.2), (100, 0.0), (10, 2.0)] {
            let z = ZipfKeys::new(n, s);
            let oracle = ZipfCdf::new(n, s);
            let mut r = SimRng::seed_from(0x51F);
            let draws = 200_000;
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                let k = z.sample(&mut r);
                assert!((k as usize) < n);
                counts[k as usize] += 1;
            }
            for (k, &c) in counts.iter().enumerate().take(n.min(10)) {
                let emp = c as f64 / draws as f64;
                let want = oracle.pmf(k);
                assert!(
                    (emp - want).abs() < 0.01 + want * 0.1,
                    "n={n} s={s} key {k}: empirical {emp} vs pmf {want}"
                );
            }
            let tail_emp: f64 = counts[n.min(10)..].iter().sum::<u64>() as f64 / draws as f64;
            let tail_want: f64 = (n.min(10)..n).map(|k| oracle.pmf(k)).sum();
            assert!(
                (tail_emp - tail_want).abs() < 0.01,
                "n={n} s={s} tail: empirical {tail_emp} vs pmf {tail_want}"
            );
        }
    }

    #[test]
    fn ten_million_keys_allocate_o1_memory() {
        // The sampler is Copy over five scalars: its entire footprint is
        // its size, independent of n — no heap, no CDF vector.
        assert!(std::mem::size_of::<ZipfKeys>() <= 64);
        let z = ZipfKeys::new(10_000_000, 1.1);
        let mut r = SimRng::seed_from(7);
        let mut max_seen = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!(k < 10_000_000);
            max_seen = max_seen.max(k);
        }
        assert!(max_seen > 1_000, "tail keys are reachable: max {max_seen}");
    }

    #[test]
    fn extreme_skew_resolves_duplicate_cdf_entries_to_first() {
        // s = 40 underflows every pmf past key 0, so the CDF is a run of
        // equal 1.0 entries; the first-index rule must pick key 0 every
        // time (binary_search_by could return any index in the run).
        let z = ZipfCdf::new(50, 40.0);
        let mut r = SimRng::seed_from(9);
        for _ in 0..10_000 {
            assert_eq!(z.sample(&mut r), 0);
        }
        let zr = ZipfKeys::new(50, 40.0);
        for _ in 0..10_000 {
            assert_eq!(zr.sample(&mut r), 0);
        }
    }

    #[test]
    fn samples_always_in_range() {
        let z = ZipfKeys::new(10, 2.0);
        let mut r = SimRng::seed_from(4);
        for _ in 0..10_000 {
            assert!(z.sample(&mut r) < 10);
        }
    }
}
