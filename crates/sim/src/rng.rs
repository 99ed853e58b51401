//! Deterministic random-number plumbing.
//!
//! All randomness in a simulation flows from a single master seed through a
//! [`RngTree`]: each component derives an independent, stable stream keyed
//! by its identifier. This keeps runs reproducible *and* insensitive to the
//! order in which unrelated components draw numbers.
//!
//! [`SimRng`] carries two standard-normal samplers. Which one runs is
//! fixed by the component that draws, never by a setting:
//!
//! * [`SimRng::standard_normal`] (Box–Muller) serves the event-driven
//!   simulation. Every `repro_all` result and golden fixture depends on
//!   its exact bits, so it stays bit-for-bit unchanged.
//! * [`SimRng::ziggurat_normal`] (a 128-layer ziggurat) serves the
//!   surrogate tier, which draws three normals per ring period and
//!   claims only statistical equivalence. It takes one raw draw per
//!   sample almost always, against a logarithm, a square root and a
//!   sine/cosine pair per two samples for Box–Muller.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// SplitMix64 step — used to derive stream seeds from `(master, key)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Factory for independent, reproducible random streams.
///
/// # Examples
///
/// ```
/// use strent_sim::RngTree;
///
/// let tree = RngTree::new(1234);
/// let mut a = tree.stream(0);
/// let mut b = tree.stream(1);
/// // Streams with different keys are independent...
/// assert_ne!(a.next_u64(), b.next_u64());
/// // ...and the same key always yields the same stream.
/// assert_eq!(tree.stream(0).next_u64(), tree.stream(0).next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngTree {
    master: u64,
}

impl RngTree {
    /// Creates a tree rooted at the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        RngTree {
            master: master_seed,
        }
    }

    /// The master seed this tree was created with.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// Derives the independent stream for `key`.
    #[must_use]
    pub fn stream(&self, key: u64) -> SimRng {
        let seed = splitmix64(self.master ^ splitmix64(key));
        SimRng::seed_from_u64(seed)
    }

    /// Derives a sub-tree, for components that themselves own many
    /// stochastic elements (e.g. a board deriving per-LUT streams).
    #[must_use]
    pub fn subtree(&self, key: u64) -> RngTree {
        RngTree {
            master: splitmix64(self.master ^ splitmix64(key ^ 0x5bf0_3635_dcd1_d867)),
        }
    }

    /// Forks an independent per-job tree keyed by a stable identifier —
    /// the seed-sharding primitive behind
    /// [`sweep::SweepRunner`](crate::sweep::SweepRunner). `fork(i)`
    /// depends only on `(master, i)`, never on draw order, so sweeps
    /// stay bit-identical under any parallel schedule.
    #[must_use]
    pub fn fork(&self, key: u64) -> RngTree {
        self.subtree(key ^ 0x6a09_e667_f3bc_c908)
    }
}

/// A deterministic random stream with Gaussian sampling support.
///
/// Wraps [`StdRng`] and adds a Box–Muller normal sampler (with spare
/// caching) and a ziggurat normal sampler, so the simulator does not
/// need an external distributions crate. See the module docs for which
/// component uses which.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    spare: Option<f64>,
}

impl SimRng {
    /// Creates a stream from a raw seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal sample (mean 0, standard deviation 1) via
    /// Box–Muller with spare caching.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0). `sin_cos` shares the
        // argument reduction between the two projections; libm computes
        // it with the same kernels as separate `sin`/`cos` calls, so the
        // samples (and every downstream RNG-dependent result) stay
        // bit-identical to the two-call form.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        let (sin, cos) = theta.sin_cos();
        self.spare = Some(r * sin);
        r * cos
    }

    /// Standard normal sample via the Marsaglia–Tsang ziggurat in
    /// Doornik's 128-layer form (ZIGNOR). Exact: the rectangle, wedge
    /// and tail branches together reproduce `N(0, 1)` with no
    /// approximation beyond `f64` rounding.
    ///
    /// Each attempt takes one raw draw: the low 7 bits pick the layer
    /// and the top 53 bits give the signed uniform. About 97% of
    /// samples return from the first rectangle test; the rest fall to
    /// the wedge or tail code, which draws more. It never touches the
    /// Box–Muller spare, so interleaving the two samplers is
    /// well-defined.
    #[inline]
    pub fn ziggurat_normal(&mut self) -> f64 {
        let zig = ziggurat();
        let (layer, u) = zig_split(self.inner.next_u64());
        if u.abs() < zig.inner[layer] {
            return u * zig.x[layer];
        }
        self.ziggurat_slow(zig, layer, u)
    }

    /// The wedge and tail branches of [`ziggurat_normal`], and its
    /// retries after a rejected wedge.
    ///
    /// [`ziggurat_normal`]: SimRng::ziggurat_normal
    #[cold]
    fn ziggurat_slow(&mut self, zig: &Ziggurat, mut layer: usize, mut u: f64) -> f64 {
        loop {
            if u.abs() < zig.inner[layer] {
                return u * zig.x[layer];
            }
            if layer == 0 {
                return self.ziggurat_tail(u < 0.0);
            }
            // Inside the layer but outside its inner rectangle: a uniform
            // height between the layer's bottom and top edges, both
            // scaled by f(x), is accepted below the density.
            let x = u * zig.x[layer];
            let bottom = (-0.5 * (zig.x[layer] * zig.x[layer] - x * x)).exp();
            let top = (-0.5 * (zig.x[layer + 1] * zig.x[layer + 1] - x * x)).exp();
            if bottom + self.uniform() * (top - bottom) < 1.0 {
                return x;
            }
            (layer, u) = zig_split(self.inner.next_u64());
        }
    }

    /// Marsaglia's exact tail sampler beyond [`ZIG_R`].
    fn ziggurat_tail(&mut self, negative: bool) -> f64 {
        loop {
            // ln of a value in (0, 1], so both are <= 0 and finite.
            let x = (1.0 - self.uniform()).ln() / ZIG_R;
            let y = (1.0 - self.uniform()).ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    #[inline]
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        mean + sigma * self.standard_normal()
    }

    /// Bernoulli sample with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        self.uniform() < p
    }
}

/// Number of ziggurat layers; the low 7 bits of a draw index them.
const ZIG_LAYERS: usize = 128;

/// Right edge of the base layer, where the tail starts.
const ZIG_R: f64 = 3.442_619_855_899;

/// Area of every layer (the base layer's includes the tail), for the
/// unnormalised density `f(x) = exp(-x^2 / 2)`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's layer geometry, built once by [`ziggurat`].
#[derive(Debug)]
struct Ziggurat {
    /// Layer widths: `x[0] = V / f(R)` is the base layer's virtual
    /// width (rectangle plus tail), `x[1] = R`, decreasing to
    /// `x[128] = 0` at the peak.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: the share of layer `i` lying wholly under the
    /// curve, so a uniform below it is accepted without evaluating `f`.
    inner: [f64; ZIG_LAYERS],
}

/// The shared ziggurat tables. Built on first use by a fixed sequence
/// of `f64` operations, so every stream sees identical tables.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
            f = (-0.5 * x[i] * x[i]).exp();
        }
        let mut inner = [0.0; ZIG_LAYERS];
        for (i, share) in inner.iter_mut().enumerate() {
            *share = x[i + 1] / x[i];
        }
        Ziggurat { x, inner }
    })
}

/// Splits one raw draw into a layer index (low 7 bits) and a uniform in
/// `[-1, 1)` (top 53 bits, exact).
#[inline]
fn zig_split(bits: u64) -> (usize, f64) {
    let layer = (bits & (ZIG_LAYERS as u64 - 1)) as usize;
    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
    (layer, u)
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

/// A reusable normal distribution `N(mean, sigma^2)`.
///
/// # Examples
///
/// ```
/// use strent_sim::{Normal, RngTree};
///
/// let gate_delay = Normal::new(255.0, 2.0); // ps
/// let mut rng = RngTree::new(7).stream(0);
/// let d = gate_delay.sample(&mut rng);
/// assert!((d - 255.0).abs() < 20.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        Normal { mean, sigma }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.normal(self.mean, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let tree = RngTree::new(99);
        let a: Vec<u64> = (0..8).map(|_| tree.stream(5).next_u64()).collect();
        // Same key, fresh streams: every draw equals the first draw.
        assert!(a.iter().all(|&x| x == a[0]));
        let mut s = tree.stream(5);
        let seq1: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        let mut s = tree.stream(5);
        let seq2: Vec<u64> = (0..8).map(|_| s.next_u64()).collect();
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn streams_differ_across_keys_and_seeds() {
        let tree = RngTree::new(99);
        assert_ne!(tree.stream(0).next_u64(), tree.stream(1).next_u64());
        assert_ne!(
            RngTree::new(1).stream(0).next_u64(),
            RngTree::new(2).stream(0).next_u64()
        );
        assert_ne!(
            tree.subtree(0).stream(0).next_u64(),
            tree.subtree(1).stream(0).next_u64()
        );
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = RngTree::new(3).stream(0);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
        for _ in 0..100 {
            let u = rng.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = RngTree::new(11).stream(7);
        let dist = Normal::new(10.0, 2.0);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = RngTree::new(5).stream(0);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_rejected() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn bad_bernoulli_rejected() {
        let mut rng = RngTree::new(5).stream(0);
        let _ = rng.bernoulli(1.5);
    }

    #[test]
    fn master_seed_accessor() {
        assert_eq!(RngTree::new(77).master_seed(), 77);
    }

    /// `erfc` to ~1.2e-7 relative error (Numerical Recipes' `erfcc`):
    /// far below the 1e6-draw sampling noise the tests below resolve.
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, c| acc * t + c);
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    /// The standard normal CDF.
    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    /// Draws enough ziggurat samples that the tail beyond `R` holds
    /// several hundred of them.
    const ZIG_DRAWS: usize = 1_000_000;

    fn ziggurat_draws(seed: u64) -> Vec<f64> {
        let mut rng = RngTree::new(seed).stream(3);
        (0..ZIG_DRAWS).map(|_| rng.ziggurat_normal()).collect()
    }

    #[test]
    fn ziggurat_tables_are_consistent() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "widths decrease");
        // The constants close the ziggurat: the top layer, from the
        // last computed width to the peak, has the common area V.
        let top = zig.x[ZIG_LAYERS - 1];
        let top_area = top * (1.0 - (-0.5 * top * top).exp());
        assert!(
            (top_area / ZIG_V - 1.0).abs() < 1e-6,
            "top layer {top_area}"
        );
        // The same tables every time.
        assert!(std::ptr::eq(zig, ziggurat()));
    }

    #[test]
    fn ziggurat_moments_match_the_standard_normal() {
        let z = ziggurat_draws(2012);
        let n = z.len() as f64;
        let mean = z.iter().sum::<f64>() / n;
        let var = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m4 = z.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        let kurtosis = m4 / (var * var);
        // Tolerances are about five standard errors at 1e6 draws.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!((kurtosis - 3.0).abs() < 0.025, "kurtosis {kurtosis}");
    }

    #[test]
    fn ziggurat_tail_mass_matches_phi() {
        let z = ziggurat_draws(7);
        let n = z.len() as f64;
        for cut in [2.0, ZIG_R] {
            let p = 2.0 * (1.0 - phi(cut));
            let expected = p * n;
            let sd = (n * p * (1.0 - p)).sqrt();
            let beyond = z.iter().filter(|x| x.abs() > cut).count() as f64;
            assert!(
                (beyond - expected).abs() < 5.0 * sd,
                "|z| > {cut}: {beyond} draws, expected {expected:.1} +- {sd:.1}"
            );
        }
        // Only the tail branch returns |z| > R; both signs occur.
        assert!(z.iter().any(|&x| x > ZIG_R) && z.iter().any(|&x| x < -ZIG_R));
    }

    #[test]
    fn ziggurat_histogram_passes_chi_square_against_phi() {
        let z = ziggurat_draws(99);
        // 0.25-wide bins over [-3, 3], split at +-R, open outer bins.
        let mut edges: Vec<f64> = (0..=24).map(|i| -3.0 + 0.25 * f64::from(i)).collect();
        edges.insert(0, -ZIG_R);
        edges.push(ZIG_R);
        let mut counts = vec![0u64; edges.len() + 1];
        for &x in &z {
            counts[edges.partition_point(|&e| e <= x)] += 1;
        }
        let cdf = |i: usize| -> f64 {
            match i {
                0 => 0.0,
                i if i > edges.len() => 1.0,
                i => phi(edges[i - 1]),
            }
        };
        let n = z.len() as f64;
        let chi2: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let expected = n * (cdf(i + 1) - cdf(i));
                (c as f64 - expected).powi(2) / expected
            })
            .sum();
        // 28 bins, 27 degrees of freedom: the 1e-4 upper quantile is
        // about 63.4 (Wilson–Hilferty).
        assert_eq!(counts.len(), 28);
        assert!(chi2 < 63.4, "chi-square {chi2} over {counts:?}");
    }

    #[test]
    fn ziggurat_is_deterministic_per_stream() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = RngTree::new(seed).stream(1);
            (0..4096).map(|_| rng.ziggurat_normal().to_bits()).collect()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        // The ziggurat leaves the Box–Muller spare alone.
        let mut mixed = RngTree::new(5).stream(1);
        let first = mixed.standard_normal();
        let _ = mixed.ziggurat_normal();
        let mut plain = RngTree::new(5).stream(1);
        assert_eq!(first, plain.standard_normal());
        assert_eq!(mixed.standard_normal(), plain.standard_normal());
    }

    #[test]
    fn box_muller_bits_are_pinned() {
        // The full simulation and every repro_all golden depend on these
        // exact bits; a changed Box–Muller must fail here first.
        const PINNED: [u64; 8] = [
            0x4007_a6ab_9429_1dc5,
            0xbfe1_345e_645b_33ee,
            0xbfa7_854f_fa16_eb21,
            0xbfca_b232_ae47_aab3,
            0xbff8_d095_baad_e141,
            0x3ff5_187e_bafe_2309,
            0xbff1_827e_4f76_986c,
            0xbfe7_c9c7_4cf6_9bca,
        ];
        let mut rng = RngTree::new(2012).stream(7);
        let got: Vec<u64> = (0..8).map(|_| rng.standard_normal().to_bits()).collect();
        assert_eq!(got, PINNED);
    }
}
