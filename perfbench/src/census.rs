//! `census_cold`: each op builds a fresh 3-wire unit-cost engine at the
//! default thread count and runs the FMCF census to cost 6 (Table 2).
//! Level expansion does nearly all the work; `mitm` and the service do
//! none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvq_core::{Census, ProbeHandle, SynthesisEngine, EXPECTED_TABLE_2};
use mvq_obs::{Registry, RegistryProbe};

use crate::probe::CountingProbe;
use crate::stats::{median, ms, quantile, round_plan};
use crate::Report;

/// The census depth of one op.
pub const CB: u32 = 6;

/// The Table 2 check: rows `0..=CB` equal the verified counts (the
/// paper's row with its k = 2, 3 slips corrected), with 8 NOT cosets
/// per class.
fn rows_ok(census: &Census) -> bool {
    census.rows().len() == CB as usize + 1
        && census.rows().iter().enumerate().all(|(k, row)| {
            row.cost as usize == k
                && row.g_count == EXPECTED_TABLE_2[k]
                && row.s8_count == 8 * row.g_count
        })
}

struct Op {
    time: Duration,
    /// Wall time of the engine construction.
    construct: Duration,
    /// Wall time of each `expand_one_level()` call, by level.
    levels: Vec<Duration>,
    circuits_explored: usize,
    ok: bool,
}

/// One op: construct, expand level by level (timing each call from
/// outside), read the census, check it, drop the engine.
fn op(probe: &ProbeHandle) -> Op {
    let start = Instant::now();
    let mut engine = SynthesisEngine::unit_cost();
    let construct = start.elapsed();
    engine.set_probe(probe.clone());
    let mut levels = Vec::with_capacity(CB as usize + 1);
    while engine.completed_cost().is_none_or(|c| c < CB) {
        let level = Instant::now();
        if !engine.expand_one_level() {
            break;
        }
        levels.push(level.elapsed());
    }
    let census = Census::compute_with(&mut engine, CB);
    let ok = rows_ok(&census);
    let circuits_explored = std::hint::black_box(census.a_size());
    drop(engine);
    Op {
        time: start.elapsed(),
        construct,
        levels,
        circuits_explored,
        ok,
    }
}

/// Census ops take about 0.5 s, so a round holds about 10 ops: enough
/// for a per-round throughput, too few for per-round percentiles.
const ROUND: Duration = Duration::from_secs(5);

/// `latency_p50_ms` is taken over all the run's ops at once, and
/// `setup_s` is the median engine construction time over them. The
/// median over rounds of each round's rate, and the run's p90, are
/// recorded, not gated: about 65 ops leave only 6 beyond the p90, and
/// its ten-run spread reached 0.5 on a 2-core VM.
pub fn run(seconds: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let none = ProbeHandle::none();
    let (round_count, round_len) = round_plan(seconds, ROUND);
    let mut rates = Vec::with_capacity(round_count);
    let (mut latencies, mut setups) = (Vec::new(), Vec::new());
    for _ in 0..round_count {
        let (start, first) = (Instant::now(), latencies.len());
        while latencies.len() == first || start.elapsed() < round_len {
            let op = op(&none);
            report.attempted += 1;
            report.failed += u64::from(!op.ok);
            latencies.push(op.time);
            setups.push(op.construct);
        }
        rates.push((latencies.len() - first) as f64 / start.elapsed().as_secs_f64());
    }
    report.note(format!(
        "census_cold ops={} rounds={round_count} throughput_ops_s={:.3} latency_p90_ms={:.6} \
         (recorded, not gated)",
        report.attempted,
        median(&mut rates),
        ms(quantile(&mut latencies, 0.9))
    ));
    report.metric("setup_s", quantile(&mut setups, 0.5).as_secs_f64(), "s");
    report.metric("latency_p50_ms", ms(quantile(&mut latencies, 0.5)), "ms");
    Ok(report)
}

/// The traced breakdown: one op under a counting probe for the exact
/// work counts, then alternating untraced ops and ops under the
/// `RegistryProbe` that `mvq serve` installs, for per-level times and
/// the probe's overhead.
pub fn traced(budget: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let counting = Arc::new(CountingProbe::default());
    let first = op(&ProbeHandle::new(counting.clone()));
    report.attempted += 1;
    report.failed += u64::from(!first.ok);

    let registry = Registry::new();
    let registry_probe = ProbeHandle::new(Arc::new(RegistryProbe::new(registry.probe_metrics())));
    let none = ProbeHandle::none();
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    let (mut level5, mut level6) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0usize;
    while plain.is_empty() || probed.is_empty() || start.elapsed() < budget {
        // Alternate which kind runs first, so drift hits both alike.
        let order = if round.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let op = op(if traced { &registry_probe } else { &none });
            report.attempted += 1;
            report.failed += u64::from(!op.ok || op.circuits_explored != first.circuits_explored);
            if traced {
                probed.push(op.time);
            } else {
                if let (Some(&l5), Some(&l6)) = (op.levels.get(5), op.levels.get(6)) {
                    level5.push(l5);
                    level6.push(l6);
                }
                plain.push(op.time);
            }
        }
        round += 1;
    }
    let plain_p50 = quantile(&mut plain, 0.5);
    let probed_p50 = quantile(&mut probed, 0.5);
    report.note(format!(
        "census_cold traced: {} untraced + {} probed ops",
        plain.len(),
        probed.len()
    ));
    report.metric("engine.level5_ms", ms(quantile(&mut level5, 0.5)), "ms");
    report.metric("engine.level6_ms", ms(quantile(&mut level6, 0.5)), "ms");
    report.metric(
        "engine.circuits_explored",
        first.circuits_explored as f64,
        "count",
    );
    report.metric(
        "engine.ns_per_circuit",
        plain_p50.as_nanos() as f64 / first.circuits_explored as f64,
        "ns",
    );
    report.metric(
        "engine.frontier_words",
        counting
            .last_frontier
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
    );
    report.metric(
        "par.sharded_buckets",
        counting
            .sharded_buckets
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
    );
    report.metric(
        "par.shard_imbalance_pct",
        counting.shard_imbalance_pct(),
        "%",
    );
    report.metric(
        "obs.probe_overhead_pct",
        (probed_p50.as_secs_f64() / plain_p50.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    Ok(report)
}
