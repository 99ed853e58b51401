//! The pinned operating points of the serving workloads.
//!
//! Every field the serving stack reads is set here explicitly instead of
//! being inherited from `PoolConfig::mixed_default` or
//! `ServeConfig::new`: a later change to those defaults must not
//! silently change what the benchmark measures. Fields added to the
//! config structs after this file was written take their defaults
//! through the `..` tails.

use strent_rings::surrogate::SourceBackend;
use strent_serve::{RestartPolicy, SchedulerMode, ServeConfig};
use strent_trng::postprocess::ConditionerKind;
use strentropy::pool::{PoolConfig, RingSpec, SourceSpec};

/// Pool slots of both serving workloads, cycling through the presets.
pub const SLOTS: usize = 6;
/// Producer worker threads (the host has 2 cores).
pub const WORKERS: usize = 2;
/// Scheduler shards: one, so no scaling ratio is measured.
pub const SHARDS: usize = 1;
/// Per-shard admission budget: far above what the load keeps in flight,
/// so a stall of the host (tens of milliseconds on a shared virtual
/// machine) queues requests instead of refusing them.
pub const MAX_IN_FLIGHT: usize = 256;
/// The presets the slots cycle through.
pub const PRESETS: [RingSpec; 3] = [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32];

/// One pool operating point: the knobs that differ between workloads.
#[derive(Debug, Clone, Copy)]
pub struct OperatingPoint {
    pub label: &'static str,
    pub sample_period_factor: f64,
    pub conditioner: ConditionerKind,
    pub batch_raw_bits: usize,
    pub warmup_periods: f64,
}

/// `bulk_draw`: the service's default operating point, pinned.
pub const BULK: OperatingPoint = OperatingPoint {
    label: "bulk",
    sample_period_factor: 8.37,
    conditioner: ConditionerKind::XorDecimate(2),
    batch_raw_bits: 256,
    warmup_periods: 64.0,
};

/// `socket_small`: a cheap pool, so the request path dominates.
pub const CHEAP: OperatingPoint = OperatingPoint {
    label: "cheap",
    sample_period_factor: 2.37,
    conditioner: ConditionerKind::Raw,
    batch_raw_bits: 64,
    warmup_periods: 16.0,
};

/// The source specs of a pool: slot `i` runs `PRESETS[i % 3]` with noise
/// seed `seed + 1 + i`, on the requested backend.
pub fn sources(seed: u64, backend: SourceBackend) -> Vec<SourceSpec> {
    (0..SLOTS)
        .map(|i| {
            SourceSpec::new(PRESETS[i % PRESETS.len()], seed.wrapping_add(1 + i as u64))
                .with_backend(backend)
        })
        .collect()
}

/// The pool configuration of an operating point over `sources`.
// The `..` tail sets nothing today; it keeps this file compiling when a
// field is added to `PoolConfig`.
#[allow(clippy::needless_update)]
pub fn pool(point: &OperatingPoint, sources: Vec<SourceSpec>) -> PoolConfig {
    PoolConfig {
        sources,
        claimed_min_entropy: 1.0,
        conditioner: point.conditioner,
        sample_period_factor: point.sample_period_factor,
        meta_window_ps: 10.0,
        batch_raw_bits: point.batch_raw_bits,
        warmup_periods: point.warmup_periods,
        relock_cv_threshold: 0.05,
        relock_window_periods: 64.0,
        max_relock_windows: 256,
        entropy_order: 2,
        entropy_window_bits: 4096,
        demote_fraction: 0.5,
        ..PoolConfig::mixed_default(0, 0)
    }
}

/// The fair-mode service configuration both serving workloads run.
pub fn serve(point: &OperatingPoint, seed: u64) -> ServeConfig {
    let pool = pool(point, sources(seed, SourceBackend::Surrogate));
    let mode = SchedulerMode::Fair {
        max_in_flight: MAX_IN_FLIGHT,
    };
    ServeConfig {
        workers: WORKERS,
        shards: SHARDS,
        mode,
        rate_limit: None,
        shed_limit: None,
        entropy_weighting: false,
        restart: RestartPolicy::default(),
        chaos: None,
        ..ServeConfig::new(pool, mode)
    }
}

/// The operating point as one JSON object, for the conditions record.
pub fn describe(point: &OperatingPoint) -> String {
    format!(
        "{{\"label\": \"{}\", \"sample_period_factor\": {}, \"conditioner\": \"{}\", \
         \"batch_raw_bits\": {}, \"warmup_periods\": {}, \"claimed_min_entropy\": 1.0, \
         \"slots\": {SLOTS}, \"workers\": {WORKERS}, \"shards\": {SHARDS}, \
         \"max_in_flight\": {MAX_IN_FLIGHT}}}",
        point.label,
        point.sample_period_factor,
        point.conditioner.label(),
        point.batch_raw_bits,
        point.warmup_periods,
    )
}
