//! The repo's one benchmark: six named workloads, nine gated
//! end-to-end metrics, a span-traced per-layer budget. See README.md
//! in this directory and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```

#![forbid(unsafe_code)]
// The benchmark prints its table to stdout by design; diagnostics go
// to stderr.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod catalog;
mod cluster;
mod compare;
mod inline;
mod json;
mod ops;
mod primitives;
mod sim_audit;
mod spans;
mod stats;

use cluster::{Outcome, RuntimeKind};
use json::Json;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 1;

/// Shares of the measured seconds a traced run gives the real cluster
/// and each of the two inline replays (spans on, spans off).
const TRACED_CLUSTER_SHARE: f64 = 0.4;
const TRACED_REPLAY_SHARE: f64 = 0.25;
/// A replay covers at least this many ops per second of its share,
/// so a low-rate workload's medians still rest on a thousand ops.
const MIN_REPLAY_RATE: f64 = 400.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload {}|all] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]\n       \
         benchmark compare A.json B.json [--bounds BENCHMARK.json]",
        catalog::WORKLOADS.join("|")
    )
}

fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("benchmark")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: default_out(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => args.out = value("--out")?.into(),
            // Bare `--trace` turns tracing on; `--trace 0|1` is the
            // driver's spelling.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !catalog::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// First line of `program args…`'s stdout, or "unknown".
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The run header written into every output.
fn header(args: &Args) -> Json {
    Json::obj([
        ("commit", Json::Str(probe("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(probe("rustc", &["-V"]))),
        ("host_parallelism", Json::Num(stats::host_parallelism() as f64)),
        ("pool_threads", Json::Num(wedge_pool::threads_from_env() as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
}

/// Runs the real workload for `seconds`.
fn run_workload(name: &str, seed: u64, seconds: f64, setup_repeats: usize) -> Outcome {
    match cluster::spec(name) {
        Some(spec) => cluster::run(&spec, seed, seconds, setup_repeats),
        None => sim_audit::run(seed, seconds, sim_audit::PUTS_PER_ROUND),
    }
}

/// The traced half of a `--trace` run: the workload's op stream
/// replayed inline with spans on and off, then the primitives.
fn trace_layers(name: &str, args: &Args, real: &Outcome) -> (Vec<Metric>, Vec<spans::Span>, u64) {
    let seconds = args.seconds * TRACED_REPLAY_SHARE;
    let spec = cluster::spec(name);
    let count = |per_second: f64, floor: f64| (per_second.max(floor) * seconds).ceil() as u64;
    let (batch_size, preload, ops_rate, readback_rate) = match &spec {
        Some(s) => (s.batch_size, s.preload, s.ops_per_second, s.readback_per_second),
        // `sim_audit` is not a cluster spec: batch 1, a put and its get.
        None => (1, 0, 2.0 * sim_audit::ROUNDS_PER_SECOND * sim_audit::PUTS_PER_ROUND as f64, 0.0),
    };
    let replay = |codec: bool, traced: bool| {
        let plan = inline::ReplayPlan {
            batch_size,
            preload,
            ops: count(ops_rate, MIN_REPLAY_RATE),
            readback: count(readback_rate, 0.0),
            codec,
            traced,
        };
        match &spec {
            Some(s) => {
                inline::replay(ops::OpGen::new(args.seed, 0, s.callers, s.keys, s.mix), &plan)
            }
            None => inline::replay(sim_audit::ops(args.seed), &plan),
        }
    };
    // Spans need every message framed. The runtime's own baseline
    // frames them only if the runtime does: channels and the
    // simulator hand `WireMsg` values over.
    let over_tcp = spec.as_ref().is_some_and(|s| s.runtime == RuntimeKind::Net);
    let (on, baseline) = (replay(true, true), replay(over_tcp, false));

    let mut layer = spans::summarise(&on.spans);
    let bare_p1 = baseline.put_p1.sliced_quantile_us(0.5);
    let bare_get = baseline.get.sliced_quantile_us(0.5);
    // Two replays seconds apart differ by more than tracing costs on a
    // shared host, so the overhead is the spans recorded times the
    // measured cost of recording one, over the time they were
    // recorded in.
    let root_ns: u64 =
        on.spans.iter().filter(|s| spans::is_root(s.name)).map(spans::Span::duration_ns).sum();
    let overhead = on.spans.len() as f64 * spans::span_cost_ns() / root_ns.max(1) as f64;
    // What the workload's runtime (threaded, TCP, or the simulator's
    // event queue) adds to the protocol's own cost: channels,
    // wake-ups, caller rendezvous, sockets.
    let real_p50 = |name: &str| real.e2e.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let us = |name: &str, value: f64, n: u64| Metric::new(name, value, "us", n);
    layer.extend([
        // The traced replay itself: what the spans decompose.
        us("inline.put_p1_p50_us", on.put_p1.sliced_quantile_us(0.5), on.put_p1.count()),
        us("inline.get_p50_us", on.get.sliced_quantile_us(0.5), on.get.count()),
        // The runtime's baseline: what the hop overheads subtract.
        us("inline.bare_put_p1_p50_us", bare_p1, baseline.put_p1.count()),
        us("inline.bare_get_p50_us", bare_get, baseline.get.count()),
        us("runtime.hop_overhead_us", real_p50("put_p1_p50_us") - bare_p1, 1),
        us("runtime.get_hop_overhead_us", real_p50("get_p50_us") - bare_get, 1),
        Metric::new("wire.batch_add_bytes_p50", on.batch_add_bytes_p50, "B", on.put_p1.count()),
        Metric::new("wire.get_response_bytes_p50", on.get_response_bytes_p50, "B", on.get.count()),
        Metric::new("driver.trace_overhead_frac", overhead, "frac", on.spans.len() as u64),
    ]);
    layer.extend(primitives::run());
    let failed = on.failed + baseline.failed;
    (layer, on.spans, failed)
}

fn metrics_json(metrics: &[&Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.name.clone(), m.to_json())))
}

/// The result line the driver reads: every end-to-end metric with
/// tracing off, every per-layer metric with tracing on.
fn contract_line(trace: bool, outcome: &Outcome) -> String {
    let pick = |names: &[String], from: &[Metric]| {
        Json::obj(names.iter().map(|name| {
            // A layer metric that does not apply to this workload reads 0.
            let value = from.iter().find(|m| &m.name == name).map_or(0.0, |m| m.value);
            let unit = Json::Str(catalog::unit_of(name).into());
            (name.clone(), Json::obj([("value", Json::Num(value)), ("unit", unit)]))
        }))
    };
    let metrics = if trace {
        pick(&catalog::per_layer(), &outcome.layer)
    } else {
        let names: Vec<String> = catalog::END_TO_END.iter().map(|s| s.to_string()).collect();
        pick(&names, &outcome.e2e)
    };
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs one workload, prints every metric, writes the result file and
/// ends with the driver's result line.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_str();
    let (seconds, repeats) = if args.trace {
        (args.seconds * TRACED_CLUSTER_SHARE, 1)
    } else {
        (args.seconds, cluster::SETUP_REPEATS)
    };
    let mut outcome = run_workload(name, args.seed, seconds, repeats);
    let mut span_list = Vec::new();
    if args.trace {
        let (layer, spans, replay_failed) = trace_layers(name, args, &outcome);
        outcome.layer.extend(layer);
        if replay_failed > 0 {
            outcome.failed += replay_failed;
            outcome.failures.push("inline replay: an op did not complete verified".into());
        }
        span_list = spans;
    }
    outcome.layer.extend([
        Metric::new("host_parallelism", stats::host_parallelism() as f64, "count", 1),
        Metric::new("pool_threads", wedge_pool::threads_from_env() as f64, "count", 1),
    ]);
    // Last, so it covers everything the run allocated.
    outcome.e2e.push(Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB", 1));
    // A figure the catalogue does not gate is a per-layer figure.
    let (gated, demoted): (Vec<Metric>, Vec<Metric>) =
        outcome.e2e.drain(..).partition(|m| catalog::END_TO_END.contains(&m.name.as_str()));
    outcome.e2e = gated;
    outcome.layer.splice(0..0, demoted);

    for m in outcome.e2e.iter().chain(&outcome.layer) {
        println!("{name} {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        if m.unit != catalog::unit_of(&m.name) {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("{} is reported in {}, not its catalogue unit", m.name, m.unit));
        }
    }
    println!("{name} ops_attempted {} count n=1", outcome.attempted);
    println!("{name} ops_failed {} count n=1", outcome.failed);
    for why in &outcome.failures {
        eprintln!("{name}: FAILED CHECK: {why}");
    }

    // Virtual-time figures repeat exactly for a seed: `compare` holds
    // them to equality, so they get a section of their own.
    let (exact, layer): (Vec<&Metric>, Vec<&Metric>) =
        outcome.layer.iter().partition(|m| m.unit.ends_with("_virtual"));
    let result = Json::obj([
        ("ops_attempted", Json::Num(outcome.attempted as f64)),
        ("ops_failed", Json::Num(outcome.failed as f64)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("failures", Json::Arr(outcome.failures.iter().cloned().map(Json::Str).collect())),
        ("op_counts", Json::obj(outcome.counts.iter().map(|(k, v)| (*k, Json::Num(*v as f64))))),
        ("end_to_end", metrics_json(&outcome.e2e.iter().collect::<Vec<_>>())),
        ("exact", metrics_json(&exact)),
        ("per_layer", metrics_json(&layer)),
    ]);
    let doc = Json::obj([("header", header(args)), ("workloads", Json::obj([(name, result)]))]);
    write_file(&args.out.join(format!("{name}.json")), &(doc.render() + "\n"))?;
    if args.trace {
        write_file(&args.out.join(format!("spans-{name}.jsonl")), &spans::to_jsonl(&span_list))?;
    }
    println!("{}", contract_line(args.trace, &outcome));
    Ok(outcome.failed == 0)
}

/// `--workload all`: re-executes this binary once per workload, so
/// `peak_rss_mb` and `setup_s` are per workload and not cumulative,
/// then merges the result files into `all.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = std::collections::BTreeMap::new();
    let mut all_ok = true;
    for name in catalog::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .map_err(|e| format!("re-exec for {name}: {e}"))?;
        all_ok &= status.success();
        let path = args.out.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(result) = doc.get("workloads").and_then(|w| w.get(name)) {
            merged.insert(name.to_string(), result.clone());
        }
    }
    let doc = Json::obj([("header", header(args)), ("workloads", Json::Obj(merged))]);
    let path = args.out.join("all.json");
    write_file(&path, &(doc.render() + "\n"))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn run_compare(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bounds" => bounds = it.next().ok_or("--bounds needs a path")?.into(),
            path => files.push(PathBuf::from(path)),
        }
    }
    let [a, b] = files.as_slice() else { return Err(usage()) };
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (rows, problems) = compare::compare(&load(a)?, &load(b)?, &load(&bounds)?)?;
    print!("{}", compare::render(&rows));
    for problem in &problems {
        println!("FAIL {problem}");
    }
    println!("{}", if problems.is_empty() { "PASS: B is within every bound of A" } else { "FAIL" });
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        run_compare(&argv[1..])
    } else {
        if cfg!(debug_assertions) {
            eprintln!("refusing to measure a debug build: run with `cargo run --release`");
            return ExitCode::from(2);
        }
        // Pool width is the code's default, not the shell's.
        std::env::remove_var("WEDGE_POOL_THREADS");
        parse_args(&argv).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
