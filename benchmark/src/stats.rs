//! Metric records, latency summaries and host facts.
//!
//! Percentiles come from `wedge_core::metrics::LatencyStats` (exact,
//! nearest rank on the sorted samples) — the benchmark adds no
//! percentile implementation of its own.

use crate::json::Json;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use wedge_core::metrics::LatencyStats;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a counter).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric { name: name.into(), value, unit, samples }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.into())),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

/// A gated percentile is taken per slice of the run — up to
/// [`MAX_SLICES`] consecutive slices of at least [`MIN_SLICE`] samples
/// — and the gate is the **lower quartile** of the slices' figures.
/// On a shared two-core host other tenants only ever add latency, in
/// bursts: the quieter slices are the better estimate of the program's
/// own percentile, while anything the program does regularly (a merge
/// every eleventh block) is in every slice and stays in the figure.
/// The whole-run p99 and max stay visible as `driver.*` diagnostics.
pub const MAX_SLICES: usize = 10;
pub const MIN_SLICE: usize = 40;

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Latency samples in microseconds, each stamped with when it was
/// taken so that samples of several callers or rounds slice in time
/// order.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// `(seconds since the process epoch, microseconds)`.
    samples: Vec<(f64, f64)>,
}

fn quantile_of(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut stats = LatencyStats::new();
    values.for_each(|v| stats.record(v));
    stats.quantile(q)
}

impl Latencies {
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_secs_f64() * 1e6);
    }

    pub fn record_us(&mut self, us: f64) {
        self.samples.push((process_epoch().elapsed().as_secs_f64(), us));
    }

    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Whole-run quantile.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_of(self.samples.iter().map(|s| s.1), q)
    }

    /// Lower quartile, over consecutive slices in time order, of each
    /// slice's `q`-quantile.
    pub fn sliced_quantile_us(&self, q: f64) -> f64 {
        let mut ordered = self.samples.clone();
        ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let slices = (ordered.len() / MIN_SLICE).clamp(1, MAX_SLICES);
        let per_slice = ordered.len().div_ceil(slices).max(1);
        let figures = ordered.chunks(per_slice).map(|c| quantile_of(c.iter().map(|s| s.1), q));
        quantile_of(figures, 0.25)
    }

    /// `<prefix>_p50_us` and `<prefix>_p95_us`: the gated pair.
    pub fn gated(&self, prefix: &str) -> [Metric; 2] {
        let n = self.count();
        [
            Metric::new(format!("{prefix}_p50_us"), self.sliced_quantile_us(0.50), "us", n),
            Metric::new(format!("{prefix}_p95_us"), self.sliced_quantile_us(0.95), "us", n),
        ]
    }

    /// `driver.<prefix>_p99_us` and `driver.<prefix>_max_us` over the
    /// whole run: printed as diagnostics only — on a shared two-core
    /// host p99 moves by tens of percent between identical runs.
    pub fn diagnostics(&self, prefix: &str) -> [Metric; 2] {
        let n = self.count();
        [
            Metric::new(format!("driver.{prefix}_p99_us"), self.quantile_us(0.99), "us", n),
            Metric::new(format!("driver.{prefix}_max_us"), self.quantile_us(1.0), "us", n),
        ]
    }
}

/// Median of a small set of plain values (set-up times, per-round
/// figures). `NaN`-free input assumed; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values.iter().copied(), 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB. 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the scheduler will give this process.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_pair_reports_slice_figures_with_counts() {
        let mut lat = Latencies::default();
        // 1..=100 µs in scrambled order: no trend across the slices.
        for i in 0..100u64 {
            lat.record(Duration::from_micros(i * 37 % 100 + 1));
        }
        assert!((lat.quantile_us(0.5) - 51.0).abs() < 1e-6, "whole-run nearest rank");
        let [p50, p95] = lat.gated("get");
        assert_eq!((p50.name.as_str(), p50.samples), ("get_p50_us", 100));
        // 100 samples: two slices of 50, the lower of the two figures.
        assert!((35.0..=60.0).contains(&p50.value) && p95.value >= 85.0, "{p50:?} {p95:?}");
        let mut more = Latencies::default();
        more.record_us(1000.0);
        lat.extend(&more);
        let [p99, max] = lat.diagnostics("get");
        assert_eq!((max.name.as_str(), max.samples), ("driver.get_max_us", 101));
        assert!((max.value - 1000.0).abs() < 1e-9 && p99.value <= 100.0);
    }

    /// A stalled stretch moves the whole-run p95 and not the gated one.
    #[test]
    fn a_stall_in_one_stretch_does_not_move_the_gated_percentiles() {
        let mut lat = Latencies::default();
        for i in 0..1000 {
            // A fifth of the run stalls: every sample there is slow.
            let stalled = (400..600).contains(&i);
            lat.record_us(if stalled { 50_000.0 } else { 1_000.0 + (i % 100) as f64 });
        }
        let [p50, p95] = lat.gated("put_p1");
        assert!(p50.value < 1_100.0 && p95.value < 1_100.0, "{} {}", p50.value, p95.value);
        assert_eq!(lat.quantile_us(0.95), 50_000.0, "the whole-run p95 sees the stall");
        let [_, max] = lat.diagnostics("put_p1");
        assert_eq!(max.value, 50_000.0, "and it stays visible in the diagnostics");
    }

    #[test]
    fn median_and_rss_are_sane() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(peak_rss_mb() > 0.0, "VmHWM is readable on the benchmark host");
    }
}
