//! The traced run's per-layer profile.
//!
//! Every number here comes from timing calls into one layer's public
//! functions from this file; nothing inside the program is
//! instrumented. The profile is the same whichever workload is traced.

use std::time::{Duration, Instant};

use strent_rings::surrogate::SourceBackend;
use strent_rings::RingStream;
use strent_serve::{EntropyService, SourcePool, UdsServer};
use strentropy::pool::RingSpec;

use crate::config;
use crate::gen::{self, OpenLoop, Tally};
use crate::replay::{check_identity, StageTimes};
use crate::report::{percentile, us, Report};
use crate::workloads::{self, SECTIONS};

/// Bytes each surrogate slot is replayed (and checked) over.
const SURROGATE_BYTES: usize = 6400;
/// Bytes each full-simulation preset is replayed over (a full-sim slot
/// serves well under 1 KB/s).
const FULLSIM_BYTES: usize = 400;
/// How long `SourcePool::read_bytes` is timed.
const POOL_READ: Duration = Duration::from_secs(1);
/// Length of each open-loop probe phase.
const PROBE: Duration = Duration::from_millis(1500);
/// Simulated span the event-kernel probe runs the STR-32 ring for, ps.
const SIM_SPAN_PS: f64 = 1.0e8;

fn per_byte(ns: u64, bytes: u64) -> f64 {
    ns as f64 / bytes.max(1) as f64
}

fn stage_metrics(report: &mut Report, t: &StageTimes) {
    let total = t.total_ns().max(1) as f64;
    for (name, ns) in [
        ("rings.advance", t.advance_ns),
        ("trng.sample", t.sample_ns),
        ("trng.health", t.health_ns),
        ("trng.condition", t.condition_ns),
    ] {
        report.metric(&format!("{name}_ns_per_B"), per_byte(ns, t.bytes), "ns/B");
        report.metric(&format!("{name}_share"), ns as f64 / total, "share");
    }
    report.metric(
        "serve.estimator.ns_per_B",
        per_byte(t.estimator_ns, t.bytes),
        "ns/B",
    );
    report.metric(
        "serve.estimator.share",
        t.estimator_ns as f64 / total,
        "share",
    );
}

/// Slot stages: replay identity on every preset and both backends,
/// then the stage timings of the bulk operating point.
fn slot_profile(seed: u64, report: &mut Report) -> Result<(), String> {
    let mut surrogate = StageTimes::default();
    let (mut pooled_ns, mut pooled_bytes) = (0u64, 0u64);
    let specs = config::sources(seed, SourceBackend::Surrogate);
    let pool = config::pool(&config::BULK, specs.clone());
    for (i, spec) in specs.iter().enumerate() {
        let identity = check_identity(i, spec, &pool, SURROGATE_BYTES);
        report.check(
            &format!("replay.identity.surrogate.slot{i}"),
            identity.is_ok(),
            identity.as_ref().err().cloned().unwrap_or_default(),
        );
        let identity = identity?;
        if identity.backend != Some(SourceBackend::Surrogate) {
            println!("# slot {i} resolved to {:?}", identity.backend);
        }
        surrogate.absorb(&identity.times);
        pooled_ns += identity.pooled_ns;
        pooled_bytes += identity.pooled_bytes;
    }
    let mut full = StageTimes::default();
    let specs = config::sources(seed, SourceBackend::FullSim);
    let pool = config::pool(&config::BULK, specs.clone());
    for (i, spec) in specs.iter().take(config::PRESETS.len()).enumerate() {
        let identity = check_identity(i, spec, &pool, FULLSIM_BYTES);
        report.check(
            &format!("replay.identity.full_sim.slot{i}"),
            identity.is_ok(),
            identity.as_ref().err().cloned().unwrap_or_default(),
        );
        full.absorb(&identity?.times);
    }
    stage_metrics(report, &surrogate);
    report.metric(
        "serve.source.batch_ns_per_B",
        per_byte(pooled_ns, pooled_bytes),
        "ns/B",
    );
    report.metric(
        "rings.fullsim.advance_ns_per_B",
        per_byte(full.advance_ns, full.bytes),
        "ns/B",
    );
    println!(
        "# replay: {} B surrogate over {} slots, {} B full-sim over {} presets",
        surrogate.bytes,
        config::SLOTS,
        full.bytes,
        config::PRESETS.len()
    );
    Ok(())
}

/// Time blocked in `SourcePool::read_bytes` at the bulk point, and the
/// share of produced batches the pool's health gate discarded.
fn pool_profile(seed: u64, report: &mut Report) -> Result<(), String> {
    let pool_config = config::pool(
        &config::BULK,
        config::sources(seed, SourceBackend::Surrogate),
    );
    let mut pool =
        SourcePool::start(&pool_config, config::WORKERS).map_err(|e| format!("pool start: {e}"))?;
    let mut waits = Vec::new();
    let start = Instant::now();
    while start.elapsed() < POOL_READ {
        let t = Instant::now();
        let bytes = pool
            .read_bytes(workloads::BULK_REQUEST)
            .map_err(|e| format!("read_bytes: {e}"))?;
        waits.push(t.elapsed().as_nanos() as u64);
        report.attempted += 1;
        if bytes.len() != workloads::BULK_REQUEST {
            report.failed += 1;
        }
    }
    let (delivered, discarded) = pool.status().iter().fold((0, 0), |(d, x), s| {
        (d + s.stats.batches_delivered, x + s.stats.batches_discarded)
    });
    pool.shutdown();
    let waits = us(&waits);
    report.metric(
        "serve.pool.read_wait_us_p50",
        percentile(&waits, 50.0),
        "us",
    );
    report.metric(
        "serve.pool.read_wait_us_p99",
        percentile(&waits, 99.0),
        "us",
    );
    report.metric(
        "serve.source.discard_share",
        discarded as f64 / (delivered + discarded).max(1) as f64,
        "share",
    );
    println!(
        "# pool: {} reads of {} B",
        waits.len(),
        workloads::BULK_REQUEST
    );
    Ok(())
}

fn tally_p50_p99(tally: &Tally) -> (f64, f64) {
    let lat = us(&tally.latency_ns);
    (percentile(&lat, 50.0), percentile(&lat, 99.0))
}

/// The request path at the two `socket_small` rates: in-process through
/// the scheduler, then through the socket frontend of the same service.
fn request_path_profile(seed: u64, report: &mut Report) -> Result<(), String> {
    let probe = |rate: f64| OpenLoop {
        rate,
        duration: PROBE,
        nbytes: workloads::SMALL_REQUEST,
        conns: workloads::SOCKET_CONNS,
    };
    let (lo, hi) = (probe(workloads::LO_RPS), probe(workloads::HI_RPS));
    let service = EntropyService::start(&config::serve(&config::CHEAP, seed))
        .map_err(|e| format!("service start: {e}"))?;
    let connector = service.connector();
    let in_lo = gen::run_inproc(&connector, 100, &lo)?;
    let in_hi = gen::run_inproc(&connector, 110, &hi)?;
    let path = workloads::socket_path("layers")?;
    let server = UdsServer::start(service.connector(), &path);
    let sockets = match server {
        Ok(server) => {
            let runs = gen::run_socket(&path, 120, &lo)
                .and_then(|l| gen::run_socket(&path, 130, &hi).map(|h| (l, h)));
            let stats = server.stats();
            let counters = (
                stats.accepted(),
                stats.protocol_errors(),
                stats.wake_full(),
                stats.wake_errors(),
            );
            let stopped = server
                .shutdown()
                .map_err(|e| format!("server shutdown: {e}"));
            runs.and_then(|r| stopped.map(|()| (r, counters)))
        }
        Err(e) => Err(format!("server start: {e}")),
    };
    workloads::remove_socket_dir();
    service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;
    let ((sock_lo, sock_hi), (accepted, protocol_errors, wake_full, wake_errors)) = sockets?;

    let (in_lo_p50, in_lo_p99) = tally_p50_p99(&in_lo);
    let (in_hi_p50, in_hi_p99) = tally_p50_p99(&in_hi);
    report.metric("serve.scheduler.lo.grant_p50_us", in_lo_p50, "us");
    report.metric("serve.scheduler.lo.grant_p99_us", in_lo_p99, "us");
    report.metric("serve.scheduler.hi.grant_p50_us", in_hi_p50, "us");
    report.metric("serve.scheduler.hi.grant_p99_us", in_hi_p99, "us");
    let refusals =
        |f: fn(&Tally) -> u64| (f(&in_lo) + f(&in_hi) + f(&sock_lo) + f(&sock_hi)) as f64;
    report.metric("serve.scheduler.busy", refusals(|t| t.busy), "count");
    report.metric(
        "serve.scheduler.rate_limited",
        refusals(|t| t.rate_limited),
        "count",
    );
    report.metric("serve.scheduler.shed", refusals(|t| t.shed), "count");
    let (sock_lo_p50, _) = tally_p50_p99(&sock_lo);
    report.metric("serve.server.self_p50_us", sock_lo_p50 - in_lo_p50, "us");
    report.metric("serve.server.accepted", accepted as f64, "count");
    report.metric(
        "serve.server.protocol_errors",
        protocol_errors as f64,
        "count",
    );
    report.metric("serve.server.wake_full", wake_full as f64, "count");
    report.metric("serve.server.wake_errors", wake_errors as f64, "count");

    let tallies = [&in_lo, &in_hi, &sock_lo, &sock_hi];
    for tally in tallies {
        workloads::tally_into(report, tally);
    }
    workloads::generator_metrics(report, &tallies, &in_lo);
    println!(
        "# request path: {} + {} in-process and {} + {} socket requests at {} / {} rps",
        in_lo.issued, in_hi.issued, sock_lo.issued, sock_hi.issued, lo.rate, hi.rate
    );
    Ok(())
}

/// The event kernel: a fixed STR-32 (16-token) ring run for a fixed
/// simulated span through the public stream API.
fn sim_profile(seed: u64, report: &mut Report) -> Result<(), String> {
    let spec = config::sources(seed, SourceBackend::FullSim)
        .into_iter()
        .find(|s| s.ring == RingSpec::Str32)
        .expect("the presets include STR-32");
    let mut stream = RingStream::build(&spec.ring.stream_config(), &spec.board(0), spec.seed, None)
        .map_err(|e| format!("ring build: {e}"))?;
    let before = stream.stats().events_processed;
    let t = Instant::now();
    stream
        .advance_by(SIM_SPAN_PS)
        .map_err(|e| format!("advance: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let events = stream.stats().events_processed - before;
    report.metric("sim.events_per_s", events as f64 / secs, "1/s");
    println!("# sim: {events} events in {secs:.3} s");
    Ok(())
}

/// The 18 experiment sections, one pass, each timed — unless the
/// traced `repro_full` workload already timed them.
fn experiments_profile(golden: &str, report: &mut Report) {
    if SECTIONS.iter().all(|(_, module, _)| {
        report
            .get(&format!("core.experiments.{module}_s"))
            .is_some()
    }) {
        return;
    }
    let pass = workloads::repro_pass(golden);
    report.attempted += SECTIONS.len() as u64;
    report.check(
        "repro.golden.profile_pass",
        pass.mismatches.is_empty(),
        format!("mismatched sections: {:?}", pass.mismatches),
    );
    for ((_, module, _), secs) in SECTIONS.iter().zip(&pass.section_s) {
        report.metric(&format!("core.experiments.{module}_s"), *secs, "s");
    }
}

/// Runs every layer probe; `golden` is the expected `repro_all` output.
pub fn profile(seed: u64, golden: &str, report: &mut Report) -> Result<(), String> {
    slot_profile(seed, report)?;
    pool_profile(seed, report)?;
    request_path_profile(seed, report)?;
    sim_profile(seed, report)?;
    experiments_profile(golden, report);
    Ok(())
}

/// The per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "rings.advance_ns_per_B",
        "rings.advance_share",
        "trng.sample_ns_per_B",
        "trng.sample_share",
        "trng.health_ns_per_B",
        "trng.health_share",
        "trng.condition_ns_per_B",
        "trng.condition_share",
        "serve.estimator.ns_per_B",
        "serve.estimator.share",
        "serve.source.batch_ns_per_B",
        "serve.source.discard_share",
        "serve.pool.read_wait_us_p50",
        "serve.pool.read_wait_us_p99",
        "serve.scheduler.lo.grant_p50_us",
        "serve.scheduler.lo.grant_p99_us",
        "serve.scheduler.hi.grant_p50_us",
        "serve.scheduler.hi.grant_p99_us",
        "serve.scheduler.busy",
        "serve.scheduler.rate_limited",
        "serve.scheduler.shed",
        "serve.server.self_p50_us",
        "serve.server.accepted",
        "serve.server.protocol_errors",
        "serve.server.wake_full",
        "serve.server.wake_errors",
        "sim.events_per_s",
        "rings.fullsim.advance_ns_per_B",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    names.extend(
        SECTIONS
            .iter()
            .map(|(_, module, _)| format!("core.experiments.{module}_s")),
    );
    names.extend(
        [
            "gen.late_p50_us",
            "gen.late_p99_us",
            "gen.sender_cpu_share",
            "trace.overhead",
        ]
        .iter()
        .map(|s| (*s).to_owned()),
    );
    names
}
