//! Prints the deterministic bench figures as one sorted lock file:
//!
//! ```text
//! figures_lock bench-json/BENCH_*.json > FIGURES.lock
//! git diff --exit-code FIGURES.lock
//! ```
//!
//! Each line is `bench/name = value unit`. The simulator benches and
//! the byte- and page-count benches repeat exactly on every run, so a
//! change that must not move a figure is checked by regenerating the
//! lock and diffing it. Values print through `f64`'s `Display`, which
//! round-trips exactly. Artifacts of any other bench (the timed ones)
//! are skipped, so the whole bench output directory can be passed in.

// CI gate CLI: the lock goes to stdout, errors to stderr.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::process::ExitCode;
use wedge_bench::results::{read_artifacts, Artifact};

/// The benches whose every figure repeats exactly from run to run.
const DETERMINISTIC: [&str; 11] = [
    "fig4_batch_size",
    "fig5_clients",
    "fig6_commit_phases",
    "fig7_locations",
    "table1_rtt",
    "detection_latency",
    "compaction_decay",
    "merge_reply_bytes",
    "merge_request_bytes",
    "ablations",
    "dataset_size",
];

/// The lock lines of every deterministic artifact, sorted.
fn lock_lines(artifacts: &[Artifact]) -> Vec<String> {
    let mut lines: Vec<String> = artifacts
        .iter()
        .filter(|a| DETERMINISTIC.contains(&a.bench.as_str()))
        .flat_map(|a| {
            a.results.iter().map(|r| format!("{}/{} = {} {}", a.bench, r.name, r.value, r.unit))
        })
        .collect();
    lines.sort();
    lines
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: figures_lock <BENCH_*.json>...");
        return ExitCode::FAILURE;
    }
    let mut artifacts = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        match text.and_then(|text| read_artifacts(&text)) {
            Ok(read) => artifacts.extend(read),
            Err(e) => {
                eprintln!("FAIL {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for line in lock_lines(&artifacts) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_bench::results::BenchResult;

    fn artifact(bench: &str, results: &[(&str, f64, &str)]) -> Artifact {
        let results = results
            .iter()
            .map(|&(name, value, unit)| BenchResult { name: name.into(), value, unit: unit.into() })
            .collect();
        Artifact { bench: bench.into(), pr: None, label: String::new(), results }
    }

    #[test]
    fn lines_are_sorted_across_artifacts() {
        let lines = lock_lines(&[
            artifact("table1_rtt", &[("b", 2.0, "ms"), ("a", 1.0, "ms")]),
            artifact("ablations", &[("z", 3.0, "B")]),
        ]);
        assert_eq!(lines, ["ablations/z = 3 B", "table1_rtt/a = 1 ms", "table1_rtt/b = 2 ms"]);
    }

    #[test]
    fn timed_artifacts_are_skipped() {
        let timed = artifact("micro_crypto", &[("schnorr_sign_256b", 12_345.0, "ns")]);
        assert!(lock_lines(&[timed]).is_empty());
    }

    #[test]
    fn values_print_exactly() {
        let value = 0.1 + 0.2;
        let lines = lock_lines(&[artifact("fig6_commit_phases", &[("lag", value, "ratio")])]);
        assert_eq!(lines, ["fig6_commit_phases/lag = 0.30000000000000004 ratio"]);
        let printed = lines[0].split(' ').nth(2).unwrap();
        assert_eq!(printed.parse::<f64>().unwrap().to_bits(), value.to_bits());
    }
}
