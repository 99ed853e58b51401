//! The streaming surrogate sampler against the trace sequence it
//! replaces in the serving layer.
//!
//! Two clones of one `SurrogateStream` run several consecutive batches:
//! one records its waveform (`advance_by`, `sample_trace_until`,
//! `prune_before`, as a pool slot did), the other samples straight off
//! the period generator (`Sampler::sample_surrogate`). After every batch
//! the bits, the next metastability draw, the horizon, the period count
//! and the stored edges a later read needs must agree, and so must the
//! re-lock figure of merit over a following window.

use proptest::prelude::*;
use strent_rings::fault::rising_interval_cv;
use strent_rings::surrogate::{SurrogateModel, SurrogateStream};
use strent_sim::{RngTree, Time};
use strent_trng::sampler::Sampler;

/// Warm-up before the first batch, periods (as a pool slot).
const WARMUP_PERIODS: f64 = 64.0;

/// Re-lock window, periods; a slot keeps this much history.
const RELOCK_PERIODS: f64 = 64.0;

/// One batch of the sequence.
#[derive(Debug, Clone, Copy)]
struct Batch {
    /// Raw samples.
    count: usize,
    /// An advance on both streams before the batch (a re-lock window),
    /// in batch spans; past one span the batch needs no advance.
    detour_spans: f64,
    /// A jump of the cursor before the batch (a re-admission), periods.
    skip_periods: f64,
}

fn batch() -> impl Strategy<Value = Batch> {
    (1usize..=512, 0u8..4, 0.0f64..3.0, 0u8..3, 0.0f64..200.0).prop_map(
        |(count, detour, detour_spans, skip, skip_periods)| Batch {
            count,
            detour_spans: if detour == 0 { detour_spans } else { 0.0 },
            skip_periods: if skip == 0 { skip_periods.floor() } else { 0.0 },
        },
    )
}

/// Drives both clones through `batches`; `Err` on the first mismatch.
fn run(
    model: SurrogateModel,
    factor: f64,
    window: f64,
    batches: &[Batch],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut traced = SurrogateStream::new(model, seed);
    let mut streamed = traced.clone();
    let period = model.period_mean_ps;
    let sampler = Sampler::new(factor * period, window).expect("valid sampler");
    let mut traced_rng = RngTree::new(seed).stream(1);
    let mut streamed_rng = traced_rng.clone();
    let relock_ps = RELOCK_PERIODS * period;
    let keep_ps = relock_ps + window;
    let mut cursor_ps = WARMUP_PERIODS * period;
    for (i, b) in batches.iter().enumerate() {
        let span_ps = sampler.period_ps() * b.count as f64;
        if b.detour_spans > 0.0 {
            traced.advance_by(b.detour_spans * span_ps);
            streamed.advance_by(b.detour_spans * span_ps);
        }
        cursor_ps += b.skip_periods * period;
        let t0 = Time::from_ps(cursor_ps);

        let needed_ps = sampler.batch_horizon_ps(t0, b.count);
        let now_ps = traced.now().as_ps();
        if now_ps < needed_ps {
            traced.advance_by(needed_ps - now_ps);
        }
        let want =
            sampler.sample_trace_until(traced.trace(), t0, b.count, traced.now(), &mut traced_rng);
        let got = sampler.sample_surrogate(&mut streamed, t0, b.count, &mut streamed_rng);
        prop_assert_eq!(got, want, "batch {}", i);
        prop_assert_eq!(streamed_rng.next_u64(), traced_rng.next_u64(), "batch {}", i);
        prop_assert_eq!(streamed.now(), traced.now(), "batch {}", i);
        prop_assert_eq!(streamed.periods_emitted(), traced.periods_emitted(), "batch {}", i);

        // The edges from the one before the last sample instant on are
        // what any later read of this stream can see.
        let last = t0 + span_ps;
        let (want, got) = (traced.trace().transitions(), streamed.trace().transitions());
        let (w, g) = (
            want.partition_point(|&(t, _)| t < last),
            got.partition_point(|&(t, _)| t < last),
        );
        prop_assert!(g <= 1, "batch {}: {} stored edges before the last instant", i, g);
        prop_assert_eq!(&got[g..], &want[w..], "batch {}", i);
        if w > 0 {
            prop_assert_eq!(g.checked_sub(1).map(|j| got[j]), Some(want[w - 1]), "batch {}", i);
        }

        cursor_ps += span_ps;
        if cursor_ps > keep_ps {
            traced.prune_before(Time::from_ps(cursor_ps - keep_ps));
        }

        // A re-lock window after this batch measures the same edges.
        let (mut relock_traced, mut relock_streamed) = (traced.clone(), streamed.clone());
        let from = traced.now().as_ps();
        relock_traced.advance_by(relock_ps);
        relock_streamed.advance_by(relock_ps);
        let until = relock_traced.now().as_ps();
        prop_assert_eq!(
            rising_interval_cv(relock_streamed.trace(), from, until),
            rising_interval_cv(relock_traced.trace(), from, until),
            "batch {}",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Calibrated-looking models: real-valued jitter of every kind.
    #[test]
    fn streaming_matches_the_trace_sequence(
        period in 20.0f64..2_000.0,
        jitter in (0.0f64..0.1, 0.0f64..0.05, 0.0f64..0.05, 0.0f64..0.95),
        duty in 0.2f64..0.8,
        factor in 1.0f64..20.0,
        windowed in any::<bool>(),
        window in 0.0f64..0.5,
        batches in prop::collection::vec(batch(), 1..6),
        seed in any::<u64>(),
    ) {
        let (white, edge, flicker, rho) = jitter;
        let model = SurrogateModel {
            period_mean_ps: period,
            sigma_white_ps: white * period,
            sigma_edge_ps: edge * period,
            sigma_flicker_ps: flicker * period,
            flicker_rho: rho,
            duty,
        };
        let window = if windowed { window * period } else { 0.0 };
        run(model, factor, window, &batches, seed)?;
    }

    /// Zero jitter on an integer grid: float arithmetic is exact, so
    /// sample instants land exactly on edges and take the tie rule.
    #[test]
    fn streaming_matches_the_trace_sequence_on_exact_ties(
        quarter in 1u8..20,
        duty_quarters in 1u8..4,
        factor in 1u8..=20,
        window in 0u8..4,
        batches in prop::collection::vec(batch(), 1..6),
        seed in any::<u64>(),
    ) {
        let model = SurrogateModel {
            period_mean_ps: 4.0 * f64::from(quarter),
            sigma_white_ps: 0.0,
            sigma_edge_ps: 0.0,
            sigma_flicker_ps: 0.0,
            flicker_rho: 0.0,
            duty: f64::from(duty_quarters) / 4.0,
        };
        run(model, f64::from(factor), f64::from(window), &batches, seed)?;
    }

    /// Corrupted models whose jitter dwarfs the mean period, so the
    /// period floor and the edge monotonicity clamp bind.
    #[test]
    fn streaming_matches_the_trace_sequence_when_the_clamps_bind(
        period in 10.0f64..200.0,
        jitter in (1.0f64..5.0, 0.5f64..3.0, 0.0f64..1.0, 0.0f64..0.9),
        duty in 0.05f64..0.95,
        factor in 1.0f64..20.0,
        windowed in any::<bool>(),
        window in 0.0f64..1.0,
        batches in prop::collection::vec(batch(), 1..6),
        seed in any::<u64>(),
    ) {
        let (white, edge, flicker, rho) = jitter;
        let model = SurrogateModel {
            period_mean_ps: period,
            sigma_white_ps: white * period,
            sigma_edge_ps: edge * period,
            sigma_flicker_ps: flicker * period,
            flicker_rho: rho,
            duty,
        };
        let window = if windowed { window * period } else { 0.0 };
        run(model, factor, window, &batches, seed)?;
    }
}
