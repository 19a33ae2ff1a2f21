//! `benchmark compare A.json B.json`: per workload and end-to-end
//! metric, both values, how much worse B is than A, and the bound
//! `BENCHMARK.json` fixes. B fails when any metric is worse than A by
//! more than its bound, when an exact (virtual-time) figure differs at
//! all, or when the two sides' failed ÷ attempted differ.

use crate::json::Json;
use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub ok: bool,
}

fn workloads(doc: &Json) -> Result<&std::collections::BTreeMap<String, Json>, String> {
    doc.get("workloads").and_then(Json::as_obj).ok_or_else(|| "no \"workloads\" object".to_string())
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

fn failed_share(workload: &Json) -> Option<f64> {
    let failed = workload.get("ops_failed")?.as_f64()?;
    let attempted = workload.get("ops_attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares two result documents under `bench` (a parsed
/// `BENCHMARK.json`). Returns the table and every reason B fails.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let gated = bench.get("end_to_end").and_then(Json::as_arr).ok_or("no \"end_to_end\" list")?;
    let (mut rows, mut problems) = (Vec::new(), Vec::new());
    for (name, a_wl) in wa {
        let Some(b_wl) = wb.get(name) else {
            problems.push(format!("{name}: missing from B"));
            continue;
        };
        for metric in gated {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            let metric_name = field("name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) =
                (value(a_wl, "end_to_end", metric_name), value(b_wl, "end_to_end", metric_name))
            else {
                problems.push(format!("{name}: {metric_name} missing on one side"));
                continue;
            };
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse_by = if field("better") == "higher" { -change } else { change };
            let ok = worse_by <= bound;
            if !ok {
                problems.push(format!(
                    "{name}: {metric_name} is {:.1} % worse (bound {:.1} %)",
                    worse_by * 100.0,
                    bound * 100.0
                ));
            }
            rows.push(Row {
                workload: name.clone(),
                metric: metric_name.to_string(),
                a: va,
                b: vb,
                worse_by,
                bound,
                ok,
            });
        }
        if let Some(exact) = a_wl.get("exact").and_then(Json::as_obj) {
            for metric_name in exact.keys() {
                let (va, vb) =
                    (value(a_wl, "exact", metric_name), value(b_wl, "exact", metric_name));
                if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                    problems.push(format!(
                        "{name}: exact figure {metric_name} differs: {va:?} vs {vb:?}"
                    ));
                }
            }
        }
        if failed_share(a_wl) != failed_share(b_wl) {
            problems.push(format!(
                "{name}: failed/attempted differs: {:?} vs {:?}",
                failed_share(a_wl),
                failed_share(b_wl)
            ));
        }
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        problems.push(format!("{name}: missing from A"));
    }
    Ok((rows, problems))
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<18} {:>14.3} {:>14.3} {:>8.1}% {:>6.1}% {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.ok { "" } else { "OUT OF BOUND" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "put_p1_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    fn doc(p1: f64, tput: f64, failed: u64, detect: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"put_b1": {{
                "ops_attempted": 1000, "ops_failed": {failed},
                "end_to_end": {{"put_p1_p50_us": {{"value": {p1}}}, "throughput_ops_s": {{"value": {tput}}}}},
                "exact": {{"detect_ms": {{"value": {detect}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn passes_an_in_bound_pair_and_flags_an_out_of_bound_one() {
        let base = doc(2650.0, 375.0, 0, 860.0);
        // 5 % slower, 5 % less throughput: inside 10 %.
        let (rows, problems) = compare(&base, &doc(2782.5, 356.25, 0, 860.0), &bench()).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(rows.len(), 2);
        assert!((rows[0].worse_by - 0.05).abs() < 1e-9 && (rows[1].worse_by - 0.05).abs() < 1e-9);
        // Much better is never a failure.
        assert!(compare(&base, &doc(1000.0, 900.0, 0, 860.0), &bench()).unwrap().1.is_empty());
        // 20 % slower: out of bound, and said so.
        let (rows, problems) = compare(&base, &doc(3180.0, 375.0, 0, 860.0), &bench()).unwrap();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(!rows[0].ok && rows[1].ok);
        assert!(render(&rows).contains("OUT OF BOUND"));
        // Lower throughput counts as worse for a higher-is-better metric.
        assert_eq!(compare(&base, &doc(2650.0, 300.0, 0, 860.0), &bench()).unwrap().1.len(), 1);
    }

    #[test]
    fn flags_new_failures_exact_drift_and_missing_workloads() {
        let base = doc(2650.0, 375.0, 0, 860.0);
        assert_eq!(compare(&base, &doc(2650.0, 375.0, 3, 860.0), &bench()).unwrap().1.len(), 1);
        assert_eq!(compare(&base, &doc(2650.0, 375.0, 0, 880.0), &bench()).unwrap().1.len(), 1);
        let empty = Json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(compare(&base, &empty, &bench()).unwrap().1, ["put_b1: missing from B"]);
        assert!(compare(&base, &Json::Null, &bench()).is_err());
    }
}
