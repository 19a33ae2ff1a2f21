//! Measurement: latency statistics and commit-phase timelines.
//!
//! The bench harness reads these after a run to print the paper's
//! rows: latency percentiles (Fig 4a, 7), throughput (Fig 4b, 5), and
//! the Phase I / Phase II commit-progress timelines of Fig 6.

use wedge_sim::SimTime;

/// Streaming latency statistics (milliseconds of virtual time).
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<f64>,
    sorted: bool,
}

impl LatencyStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (ms).
    pub fn record(&mut self, ms: f64) {
        self.samples.push(ms);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.samples
    }

    /// The q-quantile (`q` in `[0, 1]`) by nearest-rank; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        let s = self.sorted_samples();
        if s.is_empty() {
            return 0.0;
        }
        let idx = ((s.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        s[idx]
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// Smallest sample (0 when empty).
    pub fn min(&mut self) -> f64 {
        self.sorted_samples().first().copied().unwrap_or(0.0)
    }

    /// Largest sample (0 when empty).
    pub fn max(&mut self) -> f64 {
        self.sorted_samples().last().copied().unwrap_or(0.0)
    }
}

/// An event-count timeline: `(virtual seconds, cumulative count)`
/// pairs — exactly what Fig 6 plots for P1/P2 commits.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    points: Vec<(f64, u64)>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the cumulative count reached `count` at `at`.
    pub fn record(&mut self, at: SimTime, count: u64) {
        self.points.push((at.as_secs_f64(), count));
    }

    /// All points.
    pub fn points(&self) -> &[(f64, u64)] {
        &self.points
    }

    /// Cumulative count at or before `t_secs` (0 if none).
    pub fn count_at(&self, t_secs: f64) -> u64 {
        self.points.iter().take_while(|(t, _)| *t <= t_secs).last().map(|(_, c)| *c).unwrap_or(0)
    }

    /// Time (secs) at which the cumulative count first reached `n`.
    pub fn time_to_reach(&self, n: u64) -> Option<f64> {
        self.points.iter().find(|(_, c)| *c >= n).map(|(t, _)| *t)
    }

    /// Final cumulative count.
    pub fn total(&self) -> u64 {
        self.points.last().map(|(_, c)| *c).unwrap_or(0)
    }
}

/// Everything a client records during a run.
#[derive(Clone, Debug, Default)]
pub struct ClientMetrics {
    /// Phase-I commit latency per batch (ms).
    pub p1_latency: LatencyStats,
    /// Phase-II commit latency per batch (ms, from send).
    pub p2_latency: LatencyStats,
    /// Verified read latency per get (ms).
    pub read_latency: LatencyStats,
    /// P1 commit progress (Fig 6).
    pub p1_timeline: Timeline,
    /// P2 commit progress (Fig 6).
    pub p2_timeline: Timeline,
    /// Operations (entries) Phase-I committed.
    pub ops_p1: u64,
    /// Operations Phase-II committed.
    pub ops_p2: u64,
    /// Reads completed and verified.
    pub reads_ok: u64,
    /// Read proofs that failed verification (edge caught lying).
    pub reads_rejected: u64,
    /// Disputes filed.
    pub disputes_filed: u64,
    /// Disputes upheld (edge punished).
    pub disputes_upheld: u64,
    /// Stale reads rejected by the freshness window.
    pub stale_rejected: u64,
    /// Time the workload finished (virtual).
    pub finished_at: Option<SimTime>,
}

impl ClientMetrics {
    /// Total completed operations (writes P1 + verified reads).
    pub fn total_ops(&self) -> u64 {
        self.ops_p1 + self.reads_ok
    }

    /// Throughput in K operations per virtual second, measured to the
    /// later of the last write / read completion.
    pub fn throughput_kops(&self) -> f64 {
        match self.finished_at {
            Some(t) if t.as_secs_f64() > 0.0 => self.total_ops() as f64 / t.as_secs_f64() / 1_000.0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_quantiles() {
        let mut s = LatencyStats::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-9);
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn nan_sample_sorts_last_instead_of_panicking() {
        let mut s = LatencyStats::new();
        for v in [2.0, f64::NAN, 1.0] {
            s.record(v);
        }
        assert_eq!(s.p50(), 2.0);
        assert_eq!(s.min(), 1.0);
        assert!(s.max().is_nan());
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn timeline_queries() {
        let mut t = Timeline::new();
        t.record(SimTime::from_nanos(1_000_000_000), 10);
        t.record(SimTime::from_nanos(2_000_000_000), 20);
        t.record(SimTime::from_nanos(4_000_000_000), 40);
        assert_eq!(t.count_at(0.5), 0);
        assert_eq!(t.count_at(2.5), 20);
        assert_eq!(t.time_to_reach(15), Some(2.0));
        assert_eq!(t.time_to_reach(100), None);
        assert_eq!(t.total(), 40);
    }
}
