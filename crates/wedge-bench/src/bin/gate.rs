//! Rehearses the benchmark's acceptance rule on two sets of runs:
//!
//! ```text
//! gate PARENT.json… -- CHANGE.json…
//! ```
//!
//! Each file is a `benchmark` result file (`<out>/all.json` or
//! `<out>/<workload>.json`); each workload in it is one run of that
//! workload. The gated metrics, their directions and their bounds are
//! the `end_to_end` list of `BENCHMARK.json` at the workspace root,
//! read and never written. Pass the runs of the two sides in the order
//! they were taken: the `wins` column pairs the i-th run of each side.
//!
//! For each workload and metric it prints both sides' medians, how much
//! worse the change is and the bound, and the spread margin
//! `IQR(change) / (bound × median(parent))`, worst first. The change
//! fails, and the exit status is 1, when a median is worse than its
//! bound, a margin is 1 or more, or failed ÷ attempted differs between
//! the sides. A margin at or over 1 means the change's runs spread too
//! widely for the bound to tell a regression from noise.
//!
//! `wins` counts the pairs in which the change is better, and
//! `gain/IQRp` is the change's gain on the median over the distance
//! between the parent's quartiles: a claimed gain holds when it wins
//! nine pairs in ten and that ratio is over 1. Quartiles interpolate
//! linearly between order statistics.

// CI gate CLI: the table goes to stdout, errors to stderr.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::BTreeMap;
use std::process::ExitCode;
use wedge_bench::results::{read_benchmark_run, read_end_to_end_bounds, Bound, WorkloadRun};

/// `BENCHMARK.json`, from the workspace root.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// One gated metric of one workload, both sides.
#[derive(Debug)]
struct Line {
    workload: String,
    metric: String,
    parent: f64,
    change: f64,
    /// Share of the parent's median by which the change's is worse
    /// (negative: better).
    worse_by: f64,
    bound: f64,
    /// `IQR(change) / (bound × median(parent))`.
    margin: f64,
    /// Pairs in which the change is better, of `pairs`.
    wins: usize,
    pairs: usize,
    /// The change's gain on the median over the parent's IQR.
    gain_over_iqr: f64,
}

impl Line {
    fn worse(&self) -> bool {
        self.worse_by > self.bound
    }

    fn too_wide(&self) -> bool {
        self.margin >= 1.0
    }

    /// How close the line is to failing: 1 is the edge.
    fn severity(&self) -> f64 {
        (self.worse_by / self.bound).max(self.margin)
    }
}

/// The value at quantile `q` of sorted `xs`, interpolating linearly.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Median and interquartile range of `xs` (not empty).
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (quantile(&sorted, 0.5), quantile(&sorted, 0.75) - quantile(&sorted, 0.25))
}

/// Every workload's runs, in file order.
type Runs = BTreeMap<String, Vec<WorkloadRun>>;

fn by_workload(runs: Vec<WorkloadRun>) -> Runs {
    let mut out = Runs::new();
    for run in runs {
        out.entry(run.workload.clone()).or_default().push(run);
    }
    out
}

/// The values of `metric` over `runs`, or the reason there are none.
fn values(runs: &[WorkloadRun], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .map(|r| {
            let found = r.end_to_end.iter().find(|m| m.name == metric);
            found.map(|m| m.value).ok_or(format!("{}: a run lacks {metric}", r.workload))
        })
        .collect()
}

fn failed_share(runs: &[WorkloadRun]) -> f64 {
    let (failed, attempted) =
        runs.iter().fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
    failed / f64::max(attempted, 1.0)
}

/// Applies the rule to every workload both sides ran. Returns the
/// lines, worst first, and every reason the change fails.
fn gate(parent: Runs, change: Runs, bounds: &[Bound]) -> (Vec<Line>, Vec<String>) {
    let (mut lines, mut problems) = (Vec::new(), Vec::new());
    for name in change.keys().filter(|n| !parent.contains_key(*n)) {
        problems.push(format!("{name}: no parent runs"));
    }
    for (workload, parent) in &parent {
        let Some(change) = change.get(workload) else {
            problems.push(format!("{workload}: no change runs"));
            continue;
        };
        let (pf, cf) = (failed_share(parent), failed_share(change));
        if pf != cf {
            problems.push(format!("{workload}: failed/attempted {pf} -> {cf}"));
        }
        for b in bounds {
            let (p, c) = match (values(parent, &b.name), values(change, &b.name)) {
                (Ok(p), Ok(c)) => (p, c),
                (Err(e), _) | (_, Err(e)) => {
                    problems.push(e);
                    continue;
                }
            };
            let sign = if b.higher_is_better { -1.0 } else { 1.0 };
            let ((pm, p_iqr), (cm, c_iqr)) = (median_iqr(&p), median_iqr(&c));
            let worse_by = if pm == 0.0 { 0.0 } else { sign * (cm - pm) / pm.abs() };
            let margin = if c_iqr == 0.0 { 0.0 } else { c_iqr / (b.bound * pm.abs()) };
            let wins = p.iter().zip(&c).filter(|(p, c)| sign * (*c - *p) < 0.0).count();
            let gain = -sign * (cm - pm);
            let gain_over_iqr = if gain == 0.0 { 0.0 } else { gain / p_iqr };
            let line = Line {
                workload: workload.clone(),
                metric: b.name.clone(),
                parent: pm,
                change: cm,
                worse_by,
                bound: b.bound,
                margin,
                wins,
                pairs: p.len().min(c.len()),
                gain_over_iqr,
            };
            if line.worse() {
                problems.push(format!(
                    "{workload}: {} is {:.1} % worse (bound {:.1} %)",
                    line.metric,
                    worse_by * 100.0,
                    b.bound * 100.0
                ));
            }
            if line.too_wide() {
                problems.push(format!("{workload}: {} spread margin {margin:.2}", line.metric));
            }
            lines.push(line);
        }
    }
    lines.sort_by(|a, b| b.severity().total_cmp(&a.severity()));
    (lines, problems)
}

fn render(lines: &[Line]) -> String {
    let mut out = format!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>6} {:>7} {:>6} {:>9}\n",
        "workload", "metric", "parent", "change", "worse", "bound", "margin", "wins", "gain/IQRp"
    );
    for l in lines {
        let flag = match (l.worse(), l.too_wide()) {
            (true, _) => "  WORSE",
            (false, true) => "  TOO WIDE",
            (false, false) => "",
        };
        out += &format!(
            "{:<12} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>5.1}% {:>7.2} {:>6} {:>9.2}{flag}\n",
            l.workload,
            l.metric,
            l.parent,
            l.change,
            l.worse_by * 100.0,
            l.bound * 100.0,
            l.margin,
            format!("{}/{}", l.wins, l.pairs),
            l.gain_over_iqr,
        );
    }
    out
}

fn read_side(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        runs.extend(read_benchmark_run(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(by_workload(runs))
}

fn run(args: &[String]) -> Result<bool, String> {
    let usage = "usage: gate PARENT.json... -- CHANGE.json...";
    let split = args.iter().position(|a| a == "--").ok_or(usage)?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err(usage.into());
    }
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let bounds = read_end_to_end_bounds(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let (lines, problems) = gate(read_side(parent)?, read_side(change)?, &bounds);
    print!("{}", render(&lines));
    for problem in &problems {
        println!("FAIL {problem}");
    }
    println!("{}", if problems.is_empty() { "PASS" } else { "FAIL" });
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_bench::results::BenchResult;

    fn bounds() -> Vec<Bound> {
        let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
        read_end_to_end_bounds(&text).expect("reads")
    }

    /// Ten runs of `workload` with `metric` at `values` and every other
    /// gated metric at 1.
    fn runs(workload: &str, metric: &str, values: [f64; 10]) -> Runs {
        let run = |v: f64| WorkloadRun {
            workload: workload.into(),
            attempted: 1000.0,
            failed: 0.0,
            end_to_end: bounds()
                .into_iter()
                .map(|b| {
                    let value = if b.name == metric { v } else { 1.0 };
                    BenchResult { name: b.name, value, unit: String::new() }
                })
                .collect(),
        };
        by_workload(values.map(run).into())
    }

    fn line<'a>(lines: &'a [Line], metric: &str) -> &'a Line {
        lines.iter().find(|l| l.metric == metric).expect("gated")
    }

    #[test]
    fn a_thirty_fold_step_at_four_percent_spread_fails_on_its_margin() {
        // A put_b1 throughput of ~388 ops/s becoming ~11 640: the
        // change's quartiles sit 4 % of its median apart, which is 4.8
        // times a quarter of the parent's median.
        let parent = [380.0, 382.0, 385.0, 386.0, 388.0, 388.0, 390.0, 392.0, 395.0, 398.0];
        let change = [
            11_000.0, 11_200.0, 11_400.0, 11_400.0, 11_600.0, 11_680.0, 11_866.0, 11_866.0,
            12_000.0, 12_300.0,
        ];
        let metric = "throughput_ops_s";
        let (lines, problems) =
            gate(runs("put_b1", metric, parent), runs("put_b1", metric, change), &bounds());
        let l = line(&lines, metric);
        assert!(l.worse_by < -25.0 && !l.worse(), "{l:?}");
        assert!((l.margin - 4.8).abs() < 0.05, "{l:?}");
        assert_eq!(problems, ["put_b1: throughput_ops_s spread margin 4.80"]);
        assert_eq!(lines[0].metric, metric, "worst first");
        assert!(render(&lines).lines().nth(1).expect("a row").ends_with("TOO WIDE"));
    }

    #[test]
    fn ingest_b100_quartiles_of_a_recorded_pass_pass_at_0_83() {
        // ingest_b100 throughput 4 004 -> 6 492 ops/s, with the change's
        // IQR 0.83 of a quarter of the parent's median.
        let parent =
            [3900.0, 3950.0, 3980.0, 3990.0, 4000.0, 4008.0, 4020.0, 4030.0, 4060.0, 4100.0];
        let change =
            [6000.0, 6050.0, 6100.0, 6180.0, 6480.0, 6504.0, 6850.0, 6984.0, 7000.0, 7100.0];
        let metric = "throughput_ops_s";
        let (lines, problems) = gate(
            runs("ingest_b100", metric, parent),
            runs("ingest_b100", metric, change),
            &bounds(),
        );
        assert!(problems.is_empty(), "{problems:?}");
        let l = line(&lines, metric);
        assert_eq!((l.parent, l.change), (4004.0, 6492.0));
        assert!((l.margin - 0.83).abs() < 0.005, "{l:?}");
        assert_eq!((l.wins, l.pairs), (10, 10));
        assert!(l.gain_over_iqr > 1.0, "{l:?}");
    }

    #[test]
    fn a_three_percent_wan_bytes_rise_fails_on_its_bound() {
        let metric = "wan_bytes_per_put";
        let (parent, change) = ([268.86; 10], [276.93; 10]);
        let (lines, problems) =
            gate(runs("mix_net", metric, parent), runs("mix_net", metric, change), &bounds());
        let l = line(&lines, metric);
        assert!(l.worse() && !l.too_wide() && l.wins == 0, "{l:?}");
        assert_eq!(problems, ["mix_net: wan_bytes_per_put is 3.0 % worse (bound 2.0 %)"]);
        assert!(render(&lines).contains("WORSE"));
    }

    #[test]
    fn a_new_failure_or_a_missing_workload_fails() {
        let metric = "get_p50_us";
        let parent = runs("read_quiet", metric, [200.0; 10]);
        let mut change = runs("read_quiet", metric, [200.0; 10]);
        change.get_mut("read_quiet").expect("ran")[3].failed = 1.0;
        let (_, problems) = gate(parent.clone(), change, &bounds());
        assert_eq!(problems, ["read_quiet: failed/attempted 0 -> 0.0001"]);
        let (_, problems) = gate(parent.clone(), runs("sim_audit", metric, [200.0; 10]), &bounds());
        assert_eq!(problems, ["sim_audit: no parent runs", "read_quiet: no change runs"]);
    }

    #[test]
    fn quartiles_interpolate_between_runs() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median_iqr(&xs), (5.5, 4.5));
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
    }
}
