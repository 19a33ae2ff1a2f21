//! The one bench-result schema: the process-wide result list, its
//! JSON writer, and the reader `shape_check` runs. An artifact is
//!
//! ```json
//! {"bench": "fig4_batch_size", "results": [
//!   {"name": "fig4/batch_100/p1_ms_wc", "value": 14.748, "unit": "ms"}
//! ]}
//! ```
//!
//! and `BENCH_TRAJECTORY.json` is `{"trajectory": [...]}`, a list of
//! artifacts that each also carry the `pr` that committed them and a
//! `label`. Every value is the figure itself in its stated unit. Both
//! sides are hand-rolled (serde is unavailable in the offline build
//! image) for the JSON subset artifacts use: objects, arrays, numbers,
//! `true`, `false`, `null` and strings without escapes.
//!
//! The same reader takes the `benchmark` binary's result files
//! ([`read_benchmark_run`]) and the end-to-end bounds of
//! `BENCHMARK.json` ([`read_end_to_end_bounds`]), which the `gate` bin
//! compares.

use std::sync::Mutex;

/// One recorded result: a named value in a stated unit.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    pub name: String,
    pub value: f64,
    /// `ns`, `ms`, `B`, `pages`, `ratio`, `bool`, ...
    pub unit: String,
}

/// One bench's results; a trajectory entry also names its PR and label.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    pub bench: String,
    /// The PR that committed a trajectory entry; `None` for a fresh run.
    pub pr: Option<u32>,
    /// A trajectory entry's label (`before`, ...); empty for a fresh run.
    pub label: String,
    pub results: Vec<BenchResult>,
}

impl Artifact {
    /// The value recorded under `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.results.iter().find(|r| r.name == name).map(|r| r.value)
    }
}

/// Every result recorded in this process, in run order.
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Records one result. Timed benches record through
/// [`crate::bench_fn`]; this is for everything else — virtual-time
/// latencies, byte and page counts, ratios, flags.
pub fn record(name: &str, value: f64, unit: &str) {
    assert!(value.is_finite(), "{name}: non-finite value {value}");
    assert!(!format!("{name}{unit}").contains(['"', '\\']), "{name}: quote or backslash");
    let result = BenchResult { name: name.to_string(), value, unit: unit.to_string() };
    RESULTS.lock().unwrap().push(result);
}

/// Snapshot of every result recorded so far in this process.
pub fn recorded_results() -> Vec<BenchResult> {
    RESULTS.lock().unwrap().clone()
}

/// Serializes `results` as `bench`'s artifact. `f64`'s `Display`
/// prints the shortest decimal that parses back to the same value, so
/// the reader recovers every value exactly.
pub fn results_json(bench: &str, results: &[BenchResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let (name, value, unit) = (&r.name, r.value, &r.unit);
            format!("    {{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{\n  \"bench\": \"{bench}\",\n  \"results\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Writes the recorded results to `BENCH_<target>.json` in
/// `$BENCH_JSON_DIR` (default: the current directory). Call once at
/// the end of a bench target's `main`.
pub fn write_json(target: &str) {
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("\nfailed to create {dir}: {e}");
        return;
    }
    let path = std::path::Path::new(&dir).join(format!("BENCH_{target}.json"));
    match std::fs::write(&path, results_json(target, &recorded_results())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}

/// Reads one artifact, or every entry of a trajectory.
pub fn read_artifacts(text: &str) -> Result<Vec<Artifact>, String> {
    let doc = parse(text)?;
    match doc.get("trajectory") {
        Some(Json::Arr(entries)) => entries.iter().map(artifact).collect(),
        Some(_) => Err("\"trajectory\" is not an array".into()),
        None => Ok(vec![artifact(&doc)?]),
    }
}

fn artifact(doc: &Json) -> Result<Artifact, String> {
    let bench = doc.str("bench")?.to_string();
    let in_bench = |e: String| format!("{bench}: {e}");
    let pr = doc.get("pr").map(|_| doc.num("pr")).transpose().map_err(in_bench)?;
    let label = doc.get("label").map(|_| doc.str("label")).transpose().map_err(in_bench)?;
    let rows = match doc.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => rows,
        _ => return Err(in_bench("no results".into())),
    };
    let results = rows
        .iter()
        .map(|row| {
            let name = row.str("name")?;
            let fields = row.num("value").and_then(|value| Ok((value, row.str("unit")?)));
            let (value, unit) = fields.map_err(|e| format!("{name}: {e}"))?;
            Ok(BenchResult { name: name.to_string(), value, unit: unit.to_string() })
        })
        .collect::<Result<_, String>>()
        .map_err(in_bench)?;
    let (pr, label) = (pr.map(|n| n as u32), label.unwrap_or_default().to_string());
    Ok(Artifact { bench, pr, label, results })
}

/// One workload of one `benchmark` run: its end-to-end metrics, and
/// how many operations it attempted and how many failed.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRun {
    pub workload: String,
    pub attempted: f64,
    pub failed: f64,
    pub end_to_end: Vec<BenchResult>,
}

/// Reads a `benchmark` result file (`<out>/all.json` or
/// `<out>/<workload>.json`): one [`WorkloadRun`] per workload in it.
pub fn read_benchmark_run(text: &str) -> Result<Vec<WorkloadRun>, String> {
    let doc = parse(text)?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("no \"workloads\" object".into());
    };
    let run = |(workload, doc): &(String, Json)| {
        let in_workload = |e: String| format!("{workload}: {e}");
        let Some(Json::Obj(metrics)) = doc.get("end_to_end") else {
            return Err(in_workload("no \"end_to_end\" object".into()));
        };
        let end_to_end = metrics
            .iter()
            .map(|(name, m)| {
                let fields = m.num("value").and_then(|value| Ok((value, m.str("unit")?)));
                let (value, unit) = fields.map_err(|e| format!("{name}: {e}"))?;
                Ok(BenchResult { name: name.clone(), value, unit: unit.to_string() })
            })
            .collect::<Result<_, String>>()
            .map_err(in_workload)?;
        let attempted = doc.num("ops_attempted").map_err(in_workload)?;
        let failed = doc.num("ops_failed").map_err(in_workload)?;
        Ok(WorkloadRun { workload: workload.clone(), attempted, failed, end_to_end })
    };
    workloads.iter().map(run).collect()
}

/// One gated end-to-end metric of `BENCHMARK.json`: by what share of
/// the parent's value it may worsen, and which way is better.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` list of `BENCHMARK.json`.
pub fn read_end_to_end_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(text)?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("no \"end_to_end\" list".into());
    };
    let bound = |m: &Json| {
        let name = m.str("name")?.to_string();
        let higher_is_better = match m.str("better").map_err(|e| format!("{name}: {e}"))? {
            "higher" => true,
            "lower" => false,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        let bound = m.num("bound").map_err(|e| format!("{name}: {e}"))?;
        Ok(Bound { name, higher_is_better, bound })
    };
    metrics.iter().map(bound).collect()
}

/// Parses one whole document.
fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser(text);
    let doc = p.value()?;
    if !p.0.trim().is_empty() {
        return Err(format!("trailing text: {:.20}", p.0.trim()));
    }
    Ok(doc)
}

/// A parsed JSON value, restricted to what artifacts use.
enum Json {
    /// `null`, `true` or `false`: no reader needs which.
    Word,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(format!("\"{key}\" is not a string")),
            None => Err(format!("no \"{key}\"")),
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            Some(_) => Err(format!("\"{key}\" is not a number")),
            None => Err(format!("no \"{key}\"")),
        }
    }
}

/// Recursive-descent parser over the unread rest of the input.
struct Parser<'a>(&'a str);

impl Parser<'_> {
    /// Consumes `tok`, after any whitespace, if it comes next.
    fn eat(&mut self, tok: char) -> bool {
        self.0 = self.0.trim_start();
        let next = self.0.strip_prefix(tok);
        self.0 = next.unwrap_or(self.0);
        next.is_some()
    }

    fn expect(&mut self, tok: char) -> Result<(), String> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(format!("expected '{tok}' at: {:.20}", self.0))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let end = self.0.find(['"', '\\']).ok_or("unterminated string")?;
        let (s, rest) = self.0.split_at(end);
        self.0 = rest.strip_prefix('"').ok_or("escapes are not supported")?;
        Ok(s.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat('{') {
            let mut fields = Vec::new();
            while !self.eat('}') {
                if !fields.is_empty() {
                    self.expect(',')?;
                }
                let key = self.string()?;
                self.expect(':')?;
                fields.push((key, self.value()?));
            }
            Ok(Json::Obj(fields))
        } else if self.eat('[') {
            let mut items = Vec::new();
            while !self.eat(']') {
                if !items.is_empty() {
                    self.expect(',')?;
                }
                items.push(self.value()?);
            }
            Ok(Json::Arr(items))
        } else if self.0.starts_with('"') {
            self.string().map(Json::Str)
        } else if let Some(rest) =
            ["null", "true", "false"].iter().find_map(|w| self.0.strip_prefix(w))
        {
            self.0 = rest;
            Ok(Json::Word)
        } else {
            let end = self.0.find(|c: char| !"+-.eE0123456789".contains(c));
            let (num, rest) = self.0.split_at(end.unwrap_or(self.0.len()));
            let n = num.parse().ok().filter(|n: &f64| n.is_finite());
            let n = n.ok_or_else(|| format!("expected a value at: {:.20}", self.0))?;
            self.0 = rest;
            Ok(Json::Num(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, value: f64, unit: &str) -> BenchResult {
        BenchResult { name: name.into(), value, unit: unit.into() }
    }

    #[test]
    fn writer_and_reader_round_trip_exactly() {
        // Negative values and fractions below 0.001 are the two cases
        // an integer ×1000 encoding clamped or truncated.
        let results = vec![
            result("fig5/summary/a_wc_gain_pct", -12.5, "%"),
            result("tiny_ratio", 0.000_437_1, "ratio"),
            result("merge_wall_ns_p1", 6_856_325.0, "ns"),
            result("third", 1.0 / 3.0, "ms"),
            result("huge", 1.5e300, "B"),
            result("sha256/64_mb_s", 7.0, "MB/s"),
        ];
        let read = read_artifacts(&results_json("round_trip", &results)).expect("reads back");
        let bench = "round_trip".to_string();
        assert_eq!(read, vec![Artifact { bench, pr: None, label: String::new(), results }]);
    }

    #[test]
    fn trajectory_entries_carry_pr_and_label() {
        let text = r#"{"trajectory": [
            {"pr": 2, "label": "before", "bench": "a", "results": [{"name": "x", "value": 1, "unit": "ns"}]},
            {"pr": 6, "label": "", "bench": "b", "results": [{"name": "y", "value": 2e3, "unit": "pages"}]}
        ]}"#;
        let read = read_artifacts(text).expect("reads");
        assert_eq!(read.len(), 2);
        let first = (read[0].pr, read[0].label.as_str(), read[0].bench.as_str());
        assert_eq!(first, (Some(2), "before", "a"));
        assert_eq!(read[1].value("y"), Some(2000.0));
        assert_eq!(read[1].value("x"), None);
    }

    #[test]
    fn benchmark_runs_and_bounds_read_back() {
        // The shape of a `benchmark` result file, cut down: literals,
        // nested objects and sections the reader skips.
        let text = r#"{"header": {"commit": "unknown", "trace": false, "seed": 1},
            "workloads": {
              "put_b1": {"correct": true, "end_to_end": {"get_p50_us": {"samples": 550, "unit": "us", "value": 254.357},
                "throughput_ops_s": {"samples": 1100, "unit": "ops/s", "value": 1147.4}},
                "exact": {}, "failures": [], "ops_attempted": 1111, "ops_failed": 0, "per_layer": {"x": {"value": null}}},
              "sim_audit": {"end_to_end": {}, "ops_attempted": 10, "ops_failed": 2}}}"#;
        let runs = read_benchmark_run(text).expect("reads");
        let workloads: Vec<_> = runs.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(workloads, ["put_b1", "sim_audit"]);
        assert_eq!(runs[0].end_to_end[1], result("throughput_ops_s", 1147.4, "ops/s"));
        assert_eq!((runs[0].attempted, runs[0].failed, runs[1].failed), (1111.0, 0.0, 2.0));
        let err = read_benchmark_run(r#"{"workloads": {"a": {"ops_attempted": 1}}}"#);
        assert_eq!(err, Err("a: no \"end_to_end\" object".into()));

        let bounds = read_end_to_end_bounds(
            r#"{"paths": ["benchmark"], "end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]}"#,
        )
        .expect("reads");
        assert_eq!((bounds[0].higher_is_better, bounds[1].higher_is_better), (false, true));
        assert_eq!(bounds[1].bound, 0.25);
        let err = read_end_to_end_bounds(
            r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#,
        );
        assert_eq!(err, Err("x: better is \"up\"".into()));
    }

    #[test]
    fn reader_rejects_malformed_artifacts() {
        let row =
            |fields: &str| format!(r#"{{"bench": "b", "results": [{{"name": "x"{fields}}}]}}"#);
        let cases = [
            (r#"{"results": [{"name": "x", "value": 1, "unit": "ns"}]}"#.into(), "no \"bench\""),
            (row(r#", "value": "12", "unit": "ns""#), "x: \"value\" is not a number"),
            (row(r#", "value": NaN, "unit": "ns""#), "expected a value"),
            (row(r#", "value": 1"#), "x: no \"unit\""),
            (row(r#", "value": 1, "unit": "n"s""#), "expected ','"),
            (row(r#", "value": 1, "unit": "n\\s""#), "escapes are not supported"),
            (r#"{"bench": "b", "results": []}"#.into(), "no results"),
            (row(r#", "value": 1, "unit": "ns""#) + "x", "trailing text"),
        ];
        for (text, why) in cases {
            let err = read_artifacts(&text).expect_err(&text);
            assert!(err.contains(why), "{text}: {err}");
        }
    }
}
