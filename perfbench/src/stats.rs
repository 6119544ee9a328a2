//! Sampling helpers shared by the workloads: the seeded input
//! generator, nearest-rank percentiles, and the process's peak memory.

use std::time::{Duration, Instant};

/// SplitMix64: a small, fixed generator, so one seed gives the same
/// inputs on every machine and every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵⁰ for the small
    /// `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank `q`-quantile of `samples` (sorted in place). Panics on
/// an empty sample: every workload completes at least one op.
pub fn quantile(samples: &mut [Duration], q: f64) -> Duration {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `values` (sorts in place; the upper middle value of an
/// even count). Panics on an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Rounds between two timed set-ups: set-up is timed repeatedly across
/// the run, not in one burst at its start, and `setup_s` is the median.
pub const SETUP_EVERY: usize = 7;

/// Length of one measurement round of the short-op workloads.
pub const ROUND: Duration = Duration::from_millis(500);

/// Splits `seconds` into whole rounds of about `round`: the number of
/// rounds and the length of each.
pub fn round_plan(seconds: Duration, round: Duration) -> (usize, Duration) {
    let n = (seconds.as_secs_f64() / round.as_secs_f64())
        .round()
        .max(1.0) as u32;
    (n as usize, seconds / n)
}

/// A run split into short rounds. The box's speed drifts over seconds
/// and a multi-threaded op stalls whenever one CPU is held up, so a run
/// reports the median over its rounds of each round's percentiles and
/// throughput: a stalled round or a short slow period moves one round,
/// not the run.
#[derive(Default)]
pub struct Rounds {
    pub ops: u64,
    pub rate: Vec<f64>,
    pub p50: Vec<f64>,
    pub p90: Vec<f64>,
    pub p99: Vec<f64>,
}

impl Rounds {
    /// Summarizes one round: its op latencies and its wall time. A
    /// round in which every op failed adds nothing.
    pub fn record(&mut self, latencies: &mut [Duration], elapsed: Duration) {
        if latencies.is_empty() {
            return;
        }
        self.ops += latencies.len() as u64;
        self.rate
            .push(latencies.len() as f64 / elapsed.as_secs_f64());
        self.p50.push(ms(quantile(latencies, 0.5)));
        self.p90.push(ms(quantile(latencies, 0.9)));
        self.p99.push(ms(quantile(latencies, 0.99)));
    }
}
