//! The per-stage slot profile: `PooledSource::next_batch`'s stage
//! sequence rebuilt from public components, with a timer around each
//! stage.
//!
//! The replay is only trusted after [`check_identity`] has shown that it
//! produces byte-identical batches to `next_batch` for the same spec and
//! config. It covers the healthy path only: an alarmed batch (which
//! `next_batch` answers with the quarantine lifecycle) ends the replay
//! with an error instead of diverging silently.

use std::time::Instant;

use strent_rings::surrogate::{EntropySource, SourceBackend};
use strent_serve::{PooledSource, RateEstimator};
use strent_sim::{RngTree, SimRng, Time};
use strent_trng::postprocess::StreamConditioner;
use strent_trng::sampler::Sampler;
use strent_trng::{BitString, HealthMonitor};
use strentropy::pool::{PoolConfig, SourceSpec};

/// The RNG stream key `PooledSource` derives its metastability coin
/// flips from; the identity check fails if it ever changes.
const META_RNG_KEY: u64 = 0xD0F1_CA11;

/// Nanoseconds spent in each stage, and the bytes they delivered.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    /// `EntropySource::advance_by` plus trace pruning (the rings layer).
    pub advance_ns: u64,
    /// `Sampler::sample_trace_until`.
    pub sample_ns: u64,
    /// `HealthMonitor::scan_chunk`.
    pub health_ns: u64,
    /// `StreamConditioner::feed` plus byte packing.
    pub condition_ns: u64,
    /// `RateEstimator::feed_bytes`.
    pub estimator_ns: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

impl StageTimes {
    /// Total slot time over all stages.
    pub fn total_ns(&self) -> u64 {
        self.advance_ns + self.sample_ns + self.health_ns + self.condition_ns + self.estimator_ns
    }

    /// Adds another slot's times.
    pub fn absorb(&mut self, other: &StageTimes) {
        self.advance_ns += other.advance_ns;
        self.sample_ns += other.sample_ns;
        self.health_ns += other.health_ns;
        self.condition_ns += other.condition_ns;
        self.estimator_ns += other.estimator_ns;
        self.bytes += other.bytes;
    }
}

fn lap(since: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*since).as_nanos() as u64;
    *since = now;
    ns
}

/// One pool slot rebuilt stage by stage.
pub struct ReplaySlot {
    config: PoolConfig,
    stream: EntropySource,
    sampler: Sampler,
    meta_rng: SimRng,
    conditioner: StreamConditioner,
    monitor: HealthMonitor,
    estimator: RateEstimator,
    cursor_ps: f64,
    bit_carry: BitString,
    /// Stage times so far.
    pub times: StageTimes,
}

impl ReplaySlot {
    /// Builds slot `index` exactly as `PooledSource::build` does.
    pub fn build(index: usize, spec: &SourceSpec, config: &PoolConfig) -> Result<Self, String> {
        let stream = EntropySource::build(
            &spec.ring.stream_config(),
            &spec.board(index),
            spec.seed,
            spec.fault.as_ref(),
            spec.backend,
        )
        .map_err(|e| format!("source build: {e}"))?;
        let period = stream.expected_period_ps();
        let sampler = Sampler::new(config.sample_period_factor * period, config.meta_window_ps)
            .map_err(|e| format!("sampler: {e}"))?;
        Ok(ReplaySlot {
            config: config.clone(),
            sampler,
            meta_rng: RngTree::new(spec.seed).stream(META_RNG_KEY),
            conditioner: StreamConditioner::new(config.conditioner),
            monitor: HealthMonitor::new(config.claimed_min_entropy)
                .map_err(|e| format!("monitor: {e}"))?,
            estimator: RateEstimator::new(config.entropy_order, config.entropy_window_bits)
                .map_err(|e| format!("estimator: {e}"))?,
            cursor_ps: config.warmup_periods * period,
            bit_carry: BitString::new(),
            stream,
            times: StageTimes::default(),
        })
    }

    /// The backend the fallback rules resolved.
    pub fn backend(&self) -> SourceBackend {
        self.stream.selected_backend()
    }

    /// The next delivered chunk, timing each stage.
    pub fn next_batch(&mut self) -> Result<Vec<u8>, String> {
        loop {
            let count = self.config.batch_raw_bits;
            let period_ps = self.sampler.period_ps();
            let mut clock = Instant::now();

            let t0 = Time::from_ps(self.cursor_ps);
            let needed_ps =
                self.cursor_ps + period_ps * count as f64 + self.sampler.meta_window_ps();
            let now_ps = self.stream.now().as_ps();
            if now_ps < needed_ps {
                self.stream
                    .advance_by(needed_ps - now_ps)
                    .map_err(|e| format!("advance: {e}"))?;
            }
            self.times.advance_ns += lap(&mut clock);

            let raw = self
                .sampler
                .sample_trace_until(
                    self.stream.trace(),
                    t0,
                    count,
                    self.stream.now(),
                    &mut self.meta_rng,
                )
                .map_err(|e| format!("sample: {e}"))?;
            self.times.sample_ns += lap(&mut clock);

            self.cursor_ps += period_ps * count as f64;
            let keep_ps = self.config.relock_window_periods * self.stream.expected_period_ps()
                + self.sampler.meta_window_ps();
            if self.cursor_ps > keep_ps {
                self.stream
                    .prune_before(Time::from_ps(self.cursor_ps - keep_ps));
            }
            self.times.advance_ns += lap(&mut clock);

            let alarmed = self.monitor.scan_chunk(&raw);
            self.times.health_ns += lap(&mut clock);
            if alarmed > 0 {
                return Err("health alarm: the replay covers the healthy path only".to_owned());
            }

            self.bit_carry.extend(self.conditioner.feed(&raw).iter());
            let whole_bytes = self.bit_carry.len() / 8;
            if whole_bytes == 0 {
                self.times.condition_ns += lap(&mut clock);
                continue;
            }
            let packed = self.bit_carry.slice(0, whole_bytes * 8).pack().to_vec();
            self.bit_carry = self
                .bit_carry
                .slice(whole_bytes * 8, self.bit_carry.len() - whole_bytes * 8);
            self.times.condition_ns += lap(&mut clock);

            self.estimator.feed_bytes(&packed);
            self.times.estimator_ns += lap(&mut clock);
            self.times.bytes += packed.len() as u64;
            return Ok(packed);
        }
    }
}

/// What one identity check measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Identity {
    /// Replayed stage times.
    pub times: StageTimes,
    /// Nanoseconds `PooledSource::next_batch` took for the same bytes.
    pub pooled_ns: u64,
    /// Bytes `next_batch` delivered.
    pub pooled_bytes: u64,
    /// The backend both resolved.
    pub backend: Option<SourceBackend>,
}

/// Runs `PooledSource::next_batch` and the replay side by side over at
/// least `min_bytes` and fails on the first batch that differs.
pub fn check_identity(
    index: usize,
    spec: &SourceSpec,
    config: &PoolConfig,
    min_bytes: usize,
) -> Result<Identity, String> {
    let mut pooled =
        PooledSource::build(index, spec, config).map_err(|e| format!("pooled build: {e}"))?;
    let mut replay = ReplaySlot::build(index, spec, config)?;
    if pooled.backend() != replay.backend() {
        return Err(format!(
            "backend differs: pooled {:?}, replay {:?}",
            pooled.backend(),
            replay.backend()
        ));
    }
    let mut out = Identity {
        backend: Some(pooled.backend()),
        ..Identity::default()
    };
    let mut batch = 0usize;
    while (out.pooled_bytes as usize) < min_bytes {
        let start = Instant::now();
        let expected = pooled
            .next_batch()
            .map_err(|e| format!("next_batch: {e}"))?;
        out.pooled_ns += start.elapsed().as_nanos() as u64;
        out.pooled_bytes += expected.len() as u64;
        let got = replay.next_batch()?;
        if got != expected {
            return Err(format!(
                "slot {index} ({}, {:?}): batch {batch} differs from next_batch",
                spec.ring.label(),
                spec.backend
            ));
        }
        batch += 1;
    }
    if pooled.stats().alarms != 0 {
        return Err(format!("slot {index}: next_batch raised a health alarm"));
    }
    out.times = replay.times;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;

    #[test]
    fn replay_is_byte_identical_on_both_backends() {
        for backend in [SourceBackend::Surrogate, SourceBackend::FullSim] {
            let specs = config::sources(7, backend);
            let pool = config::pool(&config::BULK, specs.clone());
            for (i, spec) in specs.iter().take(config::PRESETS.len()).enumerate() {
                let min_bytes = if backend == SourceBackend::Surrogate {
                    512
                } else {
                    48
                };
                let identity = check_identity(i, spec, &pool, min_bytes).expect("identical");
                assert!(identity.times.bytes >= min_bytes as u64);
                assert!(identity.times.total_ns() > 0);
            }
        }
    }

    #[test]
    fn a_changed_config_is_caught() {
        // The replay built with a different conditioner must not match.
        let specs = config::sources(7, SourceBackend::Surrogate);
        let pool = config::pool(&config::BULK, specs.clone());
        let mut pooled = PooledSource::build(0, &specs[0], &pool).expect("builds");
        let other = config::pool(&config::CHEAP, specs.clone());
        let mut replay = ReplaySlot::build(0, &specs[0], &other).expect("builds");
        assert_ne!(
            pooled.next_batch().expect("batch"),
            replay.next_batch().expect("batch")
        );
    }
}
