//! Sampling a jittery clock with a reference clock.
//!
//! The elementary TRNG architecture (refs \[1\], \[2\] of the paper): a D
//! flip-flop clocked by a stable reference samples the jittery ring
//! output. When a data transition falls inside the flip-flop's
//! setup/hold window the output is metastable and resolves randomly —
//! modelled here as a fair coin, the conventional simplification.

use strent_rings::RingError;
use strent_sim::{SimRng, Time, Trace};

use crate::bits::BitString;
use crate::error::TrngError;

/// A D flip-flop sampling model.
///
/// # Examples
///
/// ```
/// use strent_trng::sampler::Sampler;
///
/// // 10 MHz reference, 20 ps metastability window.
/// let sampler = Sampler::new(1e5, 20.0)?;
/// assert_eq!(sampler.period_ps(), 1e5);
/// # Ok::<(), strent_trng::TrngError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    period_ps: f64,
    meta_window_ps: f64,
}

impl Sampler {
    /// Creates a sampler with the given reference period and
    /// metastability window (both ps).
    ///
    /// # Errors
    ///
    /// Returns [`TrngError::InvalidParameter`] if the period is not
    /// positive or the window is negative.
    pub fn new(period_ps: f64, meta_window_ps: f64) -> Result<Self, TrngError> {
        if !(period_ps.is_finite() && period_ps > 0.0) {
            return Err(TrngError::InvalidParameter {
                name: "period_ps",
                constraint: "finite and positive",
            });
        }
        if !(meta_window_ps.is_finite() && meta_window_ps >= 0.0) {
            return Err(TrngError::InvalidParameter {
                name: "meta_window_ps",
                constraint: "finite and non-negative",
            });
        }
        Ok(Sampler {
            period_ps,
            meta_window_ps,
        })
    }

    /// The reference sampling period, ps.
    #[must_use]
    pub fn period_ps(&self) -> f64 {
        self.period_ps
    }

    /// The metastability window, ps.
    #[must_use]
    pub fn meta_window_ps(&self) -> f64 {
        self.meta_window_ps
    }

    /// Samples a recorded trace starting at `t0`, producing `count` bits.
    ///
    /// The waveform is considered defined only up to its last recorded
    /// transition. When the producer knows the simulation ran further
    /// (a stalled ring is flat, not unknown), use
    /// [`sample_trace_until`](Sampler::sample_trace_until).
    ///
    /// # Errors
    ///
    /// Returns an error (via [`RingError::HorizonExceeded`]) if the trace
    /// ends before the last sample instant.
    pub fn sample_trace(
        &self,
        trace: &Trace,
        t0: Time,
        count: usize,
        rng: &mut SimRng,
    ) -> Result<BitString, TrngError> {
        let trace_end = trace
            .transitions()
            .last()
            .map_or(Time::ZERO, |&(t, _)| t);
        self.sample_trace_until(trace, t0, count, trace_end, rng)
    }

    /// Samples a trace whose waveform is known valid up to
    /// `valid_until` — typically the simulation horizon. Beyond the
    /// last recorded transition the signal holds its final value, so a
    /// stuck ring yields a (correctly alarming) constant bit stream
    /// instead of a horizon error.
    ///
    /// # Errors
    ///
    /// Returns an error (via [`RingError::HorizonExceeded`]) if the
    /// last sample instant lies past both `valid_until` and the final
    /// recorded transition.
    pub fn sample_trace_until(
        &self,
        trace: &Trace,
        t0: Time,
        count: usize,
        valid_until: Time,
        rng: &mut SimRng,
    ) -> Result<BitString, TrngError> {
        let last_needed = t0 + self.period_ps * count as f64;
        let trace_end = trace
            .transitions()
            .last()
            .map_or(Time::ZERO, |&(t, _)| t)
            .max(valid_until);
        if trace_end < last_needed {
            return Err(TrngError::Ring(RingError::HorizonExceeded {
                collected: ((trace_end - t0) / self.period_ps).max(0.0) as usize,
                requested: count,
            }));
        }
        // The sample instants only increase, so one forward cursor over
        // the (time-sorted) transitions replaces a binary search per
        // sample. `next` counts the transitions strictly before `t`.
        let transitions = trace.transitions();
        let half = self.meta_window_ps / 2.0;
        let mut next = transitions.partition_point(|&(tt, _)| tt < t0);
        let mut bits = BitString::with_capacity(count);
        for k in 1..=count {
            let t = t0 + self.period_ps * k as f64;
            while transitions.get(next).is_some_and(|&(tt, _)| tt < t) {
                next += 1;
            }
            let before = next.checked_sub(1).map(|j| transitions[j]);
            let after = transitions.get(next).copied();
            if after.is_some_and(|(tt, _)| tt == t) {
                // An instant exactly on a transition reads through the
                // binary-search path, so ties resolve as they always have.
                bits.push(self.sample_at_tie(trace, t, rng));
                continue;
            }
            let metastable = self.meta_window_ps > 0.0
                && (before.is_some_and(|(tt, _)| t - tt <= half)
                    || after.is_some_and(|(tt, _)| tt - t <= half));
            if metastable {
                bits.push_bool(rng.bernoulli(0.5));
            } else {
                bits.push(before.map_or(trace.initial(), |(_, v)| v).into());
            }
        }
        Ok(bits)
    }

    /// One sample at an instant `t` that equals a recorded transition
    /// time: the per-sample binary-search form of the sampler.
    fn sample_at_tie(&self, trace: &Trace, t: Time, rng: &mut SimRng) -> u8 {
        if self.meta_window_ps > 0.0 && self.near_transition(trace, t) {
            u8::from(rng.bernoulli(0.5))
        } else {
            trace.value_at(t).into()
        }
    }

    /// Whether any data transition falls within the metastability window
    /// of the sample instant `t`.
    fn near_transition(&self, trace: &Trace, t: Time) -> bool {
        let half = self.meta_window_ps / 2.0;
        trace
            .transitions()
            .binary_search_by(|&(tt, _)| tt.cmp(&t))
            .map(|_| true)
            .unwrap_or_else(|i| {
                let before = i
                    .checked_sub(1)
                    .and_then(|j| trace.transitions().get(j))
                    .is_some_and(|&(tt, _)| (t - tt).abs() <= half);
                let after = trace
                    .transitions()
                    .get(i)
                    .is_some_and(|&(tt, _)| (tt - t).abs() <= half);
                before || after
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use strent_sim::{Bit, RngTree};

    /// The reference sampler: the per-sample binary-search loop
    /// (`near_transition` plus `Trace::value_at` at every instant) that
    /// the forward cursor replaced. The cursor must agree with it bit
    /// for bit and draw the same metastability coins.
    fn reference_sample(
        sampler: &Sampler,
        trace: &Trace,
        t0: Time,
        count: usize,
        valid_until: Time,
        rng: &mut SimRng,
    ) -> Result<BitString, TrngError> {
        let last_needed = t0 + sampler.period_ps * count as f64;
        let trace_end = trace
            .transitions()
            .last()
            .map_or(Time::ZERO, |&(t, _)| t)
            .max(valid_until);
        if trace_end < last_needed {
            return Err(TrngError::Ring(RingError::HorizonExceeded {
                collected: ((trace_end - t0) / sampler.period_ps).max(0.0) as usize,
                requested: count,
            }));
        }
        let mut bits = BitString::with_capacity(count);
        for k in 1..=count {
            let t = t0 + sampler.period_ps * k as f64;
            if sampler.meta_window_ps > 0.0 && sampler.near_transition(trace, t) {
                bits.push_bool(rng.bernoulli(0.5));
            } else {
                bits.push(trace.value_at(t).into());
            }
        }
        Ok(bits)
    }

    /// An alternating trace from a start level, a first instant and
    /// non-negative gaps (zero gaps give coincident transitions).
    fn trace_from_gaps(initial: bool, start: f64, gaps: &[f64]) -> Trace {
        let mut level = if initial { Bit::High } else { Bit::Low };
        let mut trace = Trace::new(level);
        let mut t = start;
        for &gap in gaps {
            t += gap;
            level = !level;
            trace.record(Time::from_ps(t), level);
        }
        trace
    }

    /// Runs both samplers on one case; equal results and equal RNG
    /// states afterwards.
    fn assert_matches_reference(
        trace: &Trace,
        period: f64,
        window: f64,
        t0: f64,
        count: usize,
        valid_until: f64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let sampler = Sampler::new(period, window).expect("valid sampler");
        let (t0, valid_until) = (Time::from_ps(t0), Time::from_ps(valid_until));
        let mut cursor_rng = RngTree::new(seed).stream(0);
        let mut reference_rng = RngTree::new(seed).stream(0);
        let got = sampler.sample_trace_until(trace, t0, count, valid_until, &mut cursor_rng);
        let want = reference_sample(&sampler, trace, t0, count, valid_until, &mut reference_rng);
        prop_assert_eq!(got, want);
        prop_assert_eq!(cursor_rng.next_u64(), reference_rng.next_u64());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sorted traces at real-valued instants, with the first
        /// sample before, inside or past the recorded edges and a flat
        /// tail read through `valid_until`.
        #[test]
        fn cursor_matches_reference_on_random_traces(
            initial in any::<bool>(),
            start in -500.0f64..500.0,
            gaps in prop::collection::vec(0.0f64..120.0, 0..200),
            period in 1.0f64..150.0,
            windowed in any::<bool>(),
            window in 0.0f64..40.0,
            t0_offset in -800.0f64..800.0,
            count in 0usize..300,
            tail in 0.0f64..2_000.0,
            seed in any::<u64>(),
        ) {
            let trace = trace_from_gaps(initial, start, &gaps);
            let window = if windowed { window } else { 0.0 };
            let end = start + gaps.iter().sum::<f64>();
            assert_matches_reference(
                &trace, period, window, start + t0_offset, count, end + tail, seed,
            )?;
        }

        /// Integer-valued instants and periods: float arithmetic is exact,
        /// so many samples land exactly on (possibly coincident)
        /// transitions and take the tie path.
        #[test]
        fn cursor_matches_reference_on_exact_ties(
            initial in any::<bool>(),
            start in -20i32..20,
            gaps in prop::collection::vec(0u8..5, 0..120),
            period in 1u8..6,
            window in 0u8..4,
            t0_offset in -30i32..30,
            count in 0usize..150,
            tail in 0u16..100,
            seed in any::<u64>(),
        ) {
            let gaps: Vec<f64> = gaps.into_iter().map(f64::from).collect();
            let trace = trace_from_gaps(initial, f64::from(start), &gaps);
            let end = f64::from(start) + gaps.iter().sum::<f64>();
            assert_matches_reference(
                &trace,
                f64::from(period),
                f64::from(window),
                f64::from(start + t0_offset),
                count,
                end + f64::from(tail),
                seed,
            )?;
        }
    }

    fn square_trace(period: f64, cycles: usize) -> Trace {
        let mut trace = Trace::new(Bit::Low);
        for i in 0..cycles {
            let t0 = i as f64 * period;
            trace.record(Time::from_ps(t0), Bit::High);
            trace.record(Time::from_ps(t0 + period / 2.0), Bit::Low);
        }
        trace
    }

    #[test]
    fn samples_follow_the_waveform() {
        // 100 ps signal sampled every 100 ps at phase 25 ps: always High.
        let trace = square_trace(100.0, 100);
        let sampler = Sampler::new(100.0, 0.0).expect("valid");
        let mut rng = RngTree::new(1).stream(0);
        let bits = sampler
            .sample_trace(&trace, Time::from_ps(-75.0), 50, &mut rng)
            .expect("long enough");
        assert_eq!(bits.len(), 50);
        assert_eq!(bits.count_ones(), 50);
        // Phase 75 ps: always Low.
        let bits = sampler
            .sample_trace(&trace, Time::from_ps(-25.0), 50, &mut rng)
            .expect("long enough");
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn incommensurate_sampling_mixes_values() {
        let trace = square_trace(100.0, 2000);
        let sampler = Sampler::new(137.3, 0.0).expect("valid");
        let mut rng = RngTree::new(1).stream(0);
        let bits = sampler
            .sample_trace(&trace, Time::ZERO, 1000, &mut rng)
            .expect("long enough");
        let ones = bits.count_ones();
        assert!((350..650).contains(&ones), "ones {ones}");
    }

    #[test]
    fn metastability_randomizes_near_edges() {
        // Sample exactly on the rising edges: with a window, the outcome
        // is a coin flip.
        let trace = square_trace(100.0, 3000);
        let sampler = Sampler::new(100.0, 10.0).expect("valid");
        let mut rng = RngTree::new(2).stream(0);
        let bits = sampler
            .sample_trace(&trace, Time::ZERO, 2000, &mut rng)
            .expect("long enough");
        let ones = bits.count_ones();
        assert!((800..1200).contains(&ones), "ones {ones}");
        // Without a window the same instants read deterministically.
        let sampler = Sampler::new(100.0, 0.0).expect("valid");
        let bits = sampler
            .sample_trace(&trace, Time::ZERO, 2000, &mut rng)
            .expect("long enough");
        assert!(bits.count_ones() == 2000 || bits.count_ones() == 0);
    }

    #[test]
    fn trace_exhaustion_is_an_error() {
        let trace = square_trace(100.0, 10);
        let sampler = Sampler::new(100.0, 0.0).expect("valid");
        let mut rng = RngTree::new(1).stream(0);
        assert!(sampler
            .sample_trace(&trace, Time::ZERO, 100, &mut rng)
            .is_err());
    }

    #[test]
    fn parameter_validation() {
        assert!(Sampler::new(0.0, 0.0).is_err());
        assert!(Sampler::new(100.0, -1.0).is_err());
        assert!(Sampler::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn flat_tail_samples_hold_the_final_value() {
        // Ten cycles end Low at 950 ps; the simulation "ran" to 5 ns.
        // sample_trace refuses past the final edge, sample_trace_until
        // reads the held Low level.
        let trace = square_trace(100.0, 10);
        let sampler = Sampler::new(400.0, 10.0).expect("valid");
        let mut rng = RngTree::new(5).stream(0);
        assert!(sampler
            .sample_trace(&trace, Time::ZERO, 10, &mut rng)
            .is_err());
        let bits = sampler
            .sample_trace_until(&trace, Time::ZERO, 10, Time::from_ps(5_000.0), &mut rng)
            .expect("valid to the simulation horizon");
        assert_eq!(bits.len(), 10);
        // Samples at 1.2 ns and beyond all read the held Low.
        assert!(bits.as_slice()[2..].iter().all(|&b| b == 0), "{bits:?}");
        // A horizon short of the request still errors with progress.
        assert!(sampler
            .sample_trace_until(&trace, Time::ZERO, 20, Time::from_ps(5_000.0), &mut rng)
            .is_err());
    }

    #[test]
    fn empty_trace_window_is_horizon_exceeded_with_zero_collected() {
        // A trace with no transitions at all ends at t = 0: any request
        // fails cleanly instead of inventing flat samples.
        let trace = Trace::new(Bit::Low);
        let sampler = Sampler::new(100.0, 10.0).expect("valid");
        let mut rng = RngTree::new(1).stream(0);
        let err = sampler
            .sample_trace(&trace, Time::ZERO, 5, &mut rng)
            .expect_err("empty trace cannot satisfy any sample");
        match err {
            TrngError::Ring(RingError::HorizonExceeded {
                collected,
                requested,
            }) => {
                assert_eq!(collected, 0);
                assert_eq!(requested, 5);
            }
            other => panic!("unexpected error {other}"),
        }
        // Zero requested bits from an empty trace is trivially fine.
        let bits = sampler
            .sample_trace(&trace, Time::ZERO, 0, &mut rng)
            .expect("nothing to sample");
        assert!(bits.is_empty());
    }

    #[test]
    fn sample_period_longer_than_the_trace_reports_partial_progress() {
        // Ten 100 ps cycles span 1 ns; a 400 ps sampler asking for 10
        // bits needs 4 ns. The error reports how many bits the trace
        // could have provided.
        let trace = square_trace(100.0, 10);
        let sampler = Sampler::new(400.0, 0.0).expect("valid");
        let mut rng = RngTree::new(3).stream(0);
        let err = sampler
            .sample_trace(&trace, Time::ZERO, 10, &mut rng)
            .expect_err("trace far too short");
        match err {
            TrngError::Ring(RingError::HorizonExceeded {
                collected,
                requested,
            }) => {
                assert!(collected < 10, "partial progress {collected}");
                assert_eq!(requested, 10);
            }
            other => panic!("unexpected error {other}"),
        }
        // One period beyond the whole trace: even a single bit fails.
        let sampler = Sampler::new(2_000.0, 0.0).expect("valid");
        assert!(sampler
            .sample_trace(&trace, Time::ZERO, 1, &mut rng)
            .is_err());
    }

    #[test]
    fn metastability_window_straddling_the_final_edge_still_flips() {
        // The last transition of the trace is the falling edge at
        // 950 ps. Sample exactly there with a window: the sampler must
        // treat it as metastable even though no transition follows.
        let trace = square_trace(100.0, 10);
        let last = trace.transitions().last().map(|&(t, _)| t).expect("edges");
        assert_eq!(last, Time::from_ps(950.0));
        let sampler = Sampler::new(950.0, 30.0).expect("valid");
        let flips: usize = (0..200)
            .filter(|&seed| {
                let mut rng = RngTree::new(seed).stream(0);
                let bits = sampler
                    .sample_trace(&trace, Time::ZERO, 1, &mut rng)
                    .expect("exactly reaches the final edge");
                bits.as_slice()[0] == 1
            })
            .count();
        assert!(
            (40..160).contains(&flips),
            "final-edge sample is a coin flip, got {flips}/200 ones"
        );
        // Just outside the half-window the read is deterministic: the
        // instant 930 ps sits 20 ps before the final edge (half-window
        // is 15 ps), inside the High segment that began at 900 ps.
        let sampler = Sampler::new(930.0, 30.0).expect("valid");
        let mut rng = RngTree::new(9).stream(0);
        let bits = sampler
            .sample_trace(&trace, Time::ZERO, 1, &mut rng)
            .expect("within the trace");
        assert_eq!(bits.as_slice(), &[1], "outside the window reads High");
    }
}
