//! Discrete-time stochastic processes for calibrated surrogate models.
//!
//! The surrogate source tier (see `strent-rings`) replaces per-event
//! simulation of a locked ring with a per-period stochastic model:
//! white thermal jitter plus a slowly wandering flicker component. The
//! flicker part is the classic first-order Gauss–Markov (AR(1))
//! process — the simplest process with an exponentially decaying
//! autocorrelation, which is exactly the lag-1 structure a calibration
//! run can fit reliably from a few hundred periods.
//!
//! Everything here draws from [`SimRng`] (its ziggurat sampler), so a
//! surrogate stream is as reproducible as the event-driven simulation
//! it stands in for.

use crate::rng::SimRng;

/// A stationary first-order autoregressive (Gauss–Markov) process:
///
/// ```text
/// x[k+1] = rho * x[k] + sqrt(1 - rho^2) * sigma * n[k],   n ~ N(0, 1)
/// ```
///
/// The drive is scaled so the *stationary* standard deviation is the
/// `sigma` handed to [`Ar1Process::new`], and the lag-`k`
/// autocorrelation is `rho^k`. With `rho = 0` the process degenerates
/// to white noise; with `sigma = 0` it is identically zero.
///
/// # Examples
///
/// ```
/// use strent_sim::{Ar1Process, RngTree};
///
/// let mut flicker = Ar1Process::new(0.9, 2.0);
/// let mut rng = RngTree::new(7).stream(0);
/// let x0 = flicker.step(&mut rng);
/// let x1 = flicker.step(&mut rng);
/// // Successive samples are strongly correlated at rho = 0.9.
/// assert!((x1 - 0.9 * x0).abs() < 4.0 * 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ar1Process {
    rho: f64,
    sigma: f64,
    drive_sigma: f64,
    state: f64,
}

impl Ar1Process {
    /// Creates the process at rest (`x[0] = 0`) with autocorrelation
    /// `rho` and stationary standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1)` or `sigma` is negative or
    /// non-finite — the parameters come from a calibration fit that is
    /// supposed to have clamped them already.
    #[must_use]
    pub fn new(rho: f64, sigma: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rho),
            "rho must be in [0, 1), got {rho}"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative, got {sigma}"
        );
        Ar1Process {
            rho,
            sigma,
            drive_sigma: sigma * (1.0 - rho * rho).sqrt(),
            state: 0.0,
        }
    }

    /// The lag-1 autocorrelation coefficient.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The stationary standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The current process value (the last value [`step`](Self::step)
    /// returned, or 0 before the first step).
    #[must_use]
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Advances the process one step and returns the new value. The
    /// drive comes from [`SimRng::ziggurat_normal`]: the surrogate tier
    /// is this process's caller, and it draws its normals there.
    #[inline]
    pub fn step(&mut self, rng: &mut SimRng) -> f64 {
        self.state = self.rho * self.state + self.drive_sigma * rng.ziggurat_normal();
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngTree;

    fn series(rho: f64, sigma: f64, seed: u64, n: usize) -> Vec<f64> {
        let mut p = Ar1Process::new(rho, sigma);
        let mut rng = RngTree::new(seed).stream(0);
        (0..n).map(|_| p.step(&mut rng)).collect()
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    fn autocov(xs: &[f64], lag: usize) -> f64 {
        let m = mean(xs);
        xs.windows(lag + 1)
            .map(|w| (w[0] - m) * (w[lag] - m))
            .sum::<f64>()
            / (xs.len() - lag) as f64
    }

    #[test]
    fn stationary_variance_matches_sigma() {
        let xs = series(0.8, 3.0, 11, 200_000);
        let var = autocov(&xs, 0);
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sigma {}", var.sqrt());
        assert!(mean(&xs).abs() < 0.05, "mean {}", mean(&xs));
    }

    #[test]
    fn lag_autocorrelation_decays_geometrically() {
        let xs = series(0.7, 1.0, 5, 200_000);
        let c0 = autocov(&xs, 0);
        for lag in 1..=3 {
            let r = autocov(&xs, lag) / c0;
            assert!(
                (r - 0.7f64.powi(lag as i32)).abs() < 0.02,
                "lag {lag}: {r}"
            );
        }
    }

    #[test]
    fn zero_rho_is_white_noise() {
        let xs = series(0.0, 2.0, 9, 100_000);
        let c0 = autocov(&xs, 0);
        let r1 = autocov(&xs, 1) / c0;
        assert!(r1.abs() < 0.02, "white noise has no lag-1 correlation: {r1}");
    }

    #[test]
    fn zero_sigma_is_identically_zero() {
        let xs = series(0.5, 0.0, 1, 100);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn steps_are_deterministic_per_seed() {
        assert_eq!(series(0.6, 1.5, 42, 64), series(0.6, 1.5, 42, 64));
        assert_ne!(series(0.6, 1.5, 42, 64), series(0.6, 1.5, 43, 64));
    }

    #[test]
    fn accessors_report_parameters() {
        let p = Ar1Process::new(0.25, 4.0);
        assert_eq!(p.rho(), 0.25);
        assert_eq!(p.sigma(), 4.0);
        assert_eq!(p.state(), 0.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rho_one_is_rejected() {
        let _ = Ar1Process::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_is_rejected() {
        let _ = Ar1Process::new(0.5, -1.0);
    }
}
