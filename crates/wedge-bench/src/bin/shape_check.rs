//! Shape checker for `BENCH_*.json` regression artifacts and the
//! committed `BENCH_TRAJECTORY.json`:
//!
//! ```text
//! shape_check bench-json/BENCH_compaction_decay.json ... BENCH_TRAJECTORY.json
//! ```
//!
//! Each known bench promises **keys** (every metric it records is
//! present: a renamed or dropped series silently breaks tracking) and
//! **bounds**, the claims it exists to defend, e.g. `delta_reply_bytes`
//! stays ~flat while the target grows 16x, or `partial_pages_on` stays
//! bounded while the off-twin's debris does not shrink. Values are
//! compared in their recorded units. Unknown benches get only the
//! structural check `wedge_bench::results::read_artifacts` makes (a
//! bench name, and names with values and units). A trajectory runs
//! every entry through its bench's check, so the committed snapshots
//! keep their shape too.

// CI gate CLI: verdicts go to stdout/stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::process::ExitCode;
use wedge_bench::results::{read_artifacts, Artifact};

/// One failed expectation, formatted for the CI log.
type Failure = String;

fn require(a: &Artifact, key: &str, failures: &mut Vec<Failure>) -> f64 {
    a.value(key).unwrap_or_else(|| {
        failures.push(format!("missing metric: {key}"));
        0.0
    })
}

fn check_compaction_decay(a: &Artifact, failures: &mut Vec<Failure>) {
    let mut metric = |m: &str| require(a, &format!("compaction_decay/{m}"), failures);
    let mut targets =
        |m: &str| [1_024u64, 4_096, 16_384].map(|t| metric(&format!("target_{t}/{m}")));
    let (hashes, pages) = (targets("interior_hashes_small_merge"), targets("level_pages"));
    let cycles: Vec<[f64; 4]> = (0..24)
        .map(|c| {
            ["partial_pages_on", "partial_pages_off", "total_pages_on", "total_pages_off"]
                .map(|m| metric(&format!("cycle_{c}/{m}")))
        })
        .collect();
    let [summary_max, fold_runs, folded_in, folded_out] =
        ["max_partial_pages_on", "fold_runs", "pages_folded_in", "pages_folded_out"]
            .map(|m| metric(&format!("summary/{m}")));
    // O(delta), not O(level): growing the level 16x may add the
    // log-depth path but nothing like the page count. A rebuild costs
    // ~level_pages interior hashes; demand an order of magnitude under
    // that, and absolute growth bounded by the depth increase.
    if hashes[2] * 8.0 >= pages[2] {
        failures.push(format!(
            "interior hashes scale with level size: {} hashes for a {}-page level",
            hashes[2], pages[2]
        ));
    }
    if hashes[2] - hashes[0] > 16.0 {
        failures.push(format!("interior hashes not ~flat across 16x: {hashes:?}"));
    }
    for (c, [_, _, pages_on, pages_off]) in cycles.iter().enumerate() {
        // Monotone bound: the compacting twin never holds more pages
        // than the identical workload without compaction.
        if pages_on > pages_off {
            failures.push(format!(
                "cycle {c}: compacting store has MORE pages ({pages_on} > {pages_off})"
            ));
        }
    }
    let max_on = cycles.iter().map(|c| c[0]).fold(0.0, f64::max);
    if summary_max != max_on {
        failures
            .push(format!("summary max_partial_pages_on {summary_max} != per-cycle max {max_on}"));
    }
    if fold_runs <= 0.0 {
        failures.push("compactor never folded anything".into());
    }
    if folded_in <= folded_out {
        failures.push(format!("folds did not shrink: {folded_in} pages -> {folded_out}"));
    }
    // Bounded decay: once the hot range has moved on, the compacting
    // twin must end at or below the frozen-debris twin.
    let [last_on, last_off, _, _] = cycles[23];
    if last_on > last_off {
        failures.push(format!("final partial pages: compaction on {last_on} > off {last_off}"));
    }
}

/// The full and delta merge `kind` (`reply` or `request`) at each
/// target size: the delta is smaller, and it scales with the changed
/// pages plus 5 B per reference, so a 16x target may grow it by the
/// references, not by 16x. Returns `[full, delta, pages_reused]` per
/// target.
fn check_full_vs_delta(a: &Artifact, kind: &str, failures: &mut Vec<Failure>) -> Vec<[f64; 3]> {
    let mut rows = Vec::new();
    for t in [2_048u64, 8_192, 32_768] {
        let mut metric =
            |m: &str| require(a, &format!("merge_{kind}_bytes/target_{t}/{m}"), failures);
        let full = metric(&format!("full_{kind}_bytes"));
        let delta = metric(&format!("delta_{kind}_bytes"));
        let reused = metric("pages_reused");
        metric("pages_shipped");
        if delta >= full {
            failures.push(format!(
                "target {t}: delta {kind} ({delta} B) not smaller than full ({full} B)"
            ));
        }
        rows.push([full, delta, reused]);
    }
    let deltas: Vec<f64> = rows.iter().map(|r| r[1]).collect();
    if deltas[2] > deltas[0] * 4.0 {
        failures.push(format!("delta_{kind}_bytes not ~flat across 16x: {deltas:?}"));
    }
    rows
}

fn check_merge_reply_bytes(a: &Artifact, failures: &mut Vec<Failure>) {
    check_full_vs_delta(a, "reply", failures);
}

fn check_merge_request_bytes(a: &Artifact, failures: &mut Vec<Failure>) {
    let rows = check_full_vs_delta(a, "request", failures);
    // References must track the retained level: 16x the target pages
    // means 16x the reused references, not a constant.
    let reused: Vec<f64> = rows.iter().map(|r| r[2]).collect();
    if reused[2] < reused[0] * 8.0 {
        failures.push(format!("pages_reused does not scale with the retained level: {reused:?}"));
    }
    // Headline claim (PR 7 acceptance): at the largest target the full
    // request is at least 10x the delta.
    let [full, delta, _] = rows[2];
    let ratio = if delta > 0.0 { full / delta } else { 0.0 };
    if ratio < 10.0 {
        failures
            .push(format!("full/delta ratio at largest target is {ratio:.2}x, below the 10x bar"));
    }
}

fn check_merge_cpu_parallel(a: &Artifact, failures: &mut Vec<Failure>) {
    for w in [1u64, 2, 4, 8] {
        require(a, &format!("merge_wall_ns_p{w}"), failures);
        require(a, &format!("merge_cpu_ns_p{w}"), failures);
    }
    // Determinism is non-negotiable: the wire-encoded MergeResult must
    // be byte-identical at every pool width.
    if require(a, "roots_match", failures) != 1.0 {
        failures.push("merge results are NOT byte-identical across pool widths".into());
    }
    // The caller-thread CPU speedup is scheduler-independent (condvar
    // waits accrue no thread CPU), so it must show the fan-out on any
    // host, single-core CI runners included.
    let cpu_speedup = require(a, "speedup_cpu_p4", failures);
    if cpu_speedup < 2.0 {
        failures.push(format!(
            "caller-thread CPU speedup at width 4 is {cpu_speedup:.2}x, below the 2x bar"
        ));
    }
    // Wall clock can only improve where the cores exist.
    let wall_speedup = require(a, "speedup_wall_p4", failures);
    if require(a, "host_parallelism", failures) >= 4.0 && wall_speedup < 2.0 {
        failures.push(format!(
            "wall-clock speedup at width 4 is {wall_speedup:.2}x on a >=4-core host, below the 2x bar"
        ));
    }
}

/// Fetch the {wc, co, eb} triple for one sweep point.
fn triple(a: &Artifact, prefix: &str, metric: &str, failures: &mut Vec<Failure>) -> [f64; 3] {
    ["wc", "co", "eb"].map(|sys| require(a, &format!("{prefix}/{metric}_{sys}"), failures))
}

fn check_fig4_batch_size(a: &Artifact, failures: &mut Vec<Failure>) {
    for batch in [100u64, 500, 1000, 1500, 2000] {
        let prefix = format!("fig4/batch_{batch}");
        let [wc, co, eb] = triple(a, &prefix, "p1_ms", failures);
        triple(a, &prefix, "kops", failures);
        // The paper's headline ordering at every batch size.
        if !(wc < co && co < eb) {
            failures.push(format!(
                "batch {batch}: latency order violated (WC {wc} < CO {co} < EB {eb} ms expected)"
            ));
        }
    }
    let wc_gain = require(a, "fig4/summary/wc_gain", failures);
    let co_gain = require(a, "fig4/summary/co_gain", failures);
    let eb_gain = require(a, "fig4/summary/eb_gain", failures);
    // Batching pays off roughly an order of magnitude (paper: WC ~15x,
    // CO ~18.5x) and the edge baseline profits least.
    if wc_gain < 8.0 {
        failures.push(format!("WedgeChain batching gain {wc_gain:.2}x < 8x (paper ~15x)"));
    }
    if co_gain < 10.0 {
        failures.push(format!("Cloud-only batching gain {co_gain:.2}x < 10x (paper ~18.5x)"));
    }
    if eb_gain >= wc_gain || eb_gain >= co_gain {
        failures.push(format!(
            "edge baseline should profit least from batching: EB {eb_gain:.2}x vs WC {wc_gain:.2}x / CO {co_gain:.2}x"
        ));
    }
}

fn check_fig5_clients(a: &Artifact, failures: &mut Vec<Failure>) {
    for sweep in ["fig5a", "fig5b", "fig5c"] {
        for c in [1u64, 3, 5, 7, 9] {
            triple(a, &format!("{sweep}/clients_{c}"), "kops", failures);
        }
    }
    // (a): added concurrency helps Cloud-only the most (paper +433%).
    let wc_gain = require(a, "fig5/summary/a_wc_gain_pct", failures);
    let co_gain = require(a, "fig5/summary/a_co_gain_pct", failures);
    if co_gain <= wc_gain {
        failures.push(format!(
            "fig5(a): Cloud-only should gain most from concurrency (CO {co_gain:+.1}% vs WC {wc_gain:+.1}%)"
        ));
    }
    // (b) at 9 clients: WC > EB > CO.
    let [wc, co, eb] = triple(a, "fig5b/clients_9", "kops", failures);
    if !(wc > eb && eb > co) {
        failures.push(format!(
            "fig5(b) @9 clients: expected WC > EB > CO, got WC {wc} / EB {eb} / CO {co} kops"
        ));
    }
    // (c) at 9 clients: Cloud-only reads far behind (less than half WC).
    let [wc, co, _] = triple(a, "fig5c/clients_9", "kops", failures);
    if co * 2.0 >= wc {
        failures
            .push(format!("fig5(c) @9 clients: Cloud-only ({co} kops) not far behind WC ({wc})"));
    }
}

fn check_fig6_commit_phases(a: &Artifact, failures: &mut Vec<Failure>) {
    let lags: Vec<f64> = [100u64, 500, 1000]
        .iter()
        .map(|b| {
            let prefix = format!("fig6/batch_{b}");
            require(a, &format!("{prefix}/p1_done_s"), failures);
            require(a, &format!("{prefix}/p2_done_s"), failures);
            require(a, &format!("{prefix}/p2_lag"), failures)
        })
        .collect();
    // Paper: P2 keeps pace at B=100, lags behind at larger batches, and
    // the lag grows with the batch size.
    if lags[0] > 1.3 {
        failures.push(format!("P2 lag at B=100 is {:.3}x, should be ~1x", lags[0]));
    }
    if !(lags[0] <= lags[1] && lags[1] <= lags[2]) {
        failures.push(format!("P2 lag not monotone in batch size: {lags:?}"));
    }
    if lags[2] < 1.7 {
        failures.push(format!("P2 lag at B=1000 is {:.3}x, paper says >1.7x", lags[2]));
    }
}

fn check_fig7_locations(a: &Artifact, failures: &mut Vec<Failure>) {
    // (a) WedgeChain stays flat while the cloud moves away; the
    // cloud-bound baselines track the distance.
    let co: Vec<f64> = ["O", "V", "I", "M"]
        .iter()
        .map(|cloud| triple(a, &format!("fig7a/cloud_{cloud}"), "p1_ms", failures)[1])
        .collect();
    let spread = require(a, "fig7a/summary/wc_spread_ms", failures);
    if spread > 2.0 {
        failures.push(format!(
            "fig7(a): WedgeChain spread across cloud locations is {spread:.3} ms, paper ~2 ms"
        ));
    }
    if co[3] - co[0] < 50.0 {
        failures.push(format!("fig7(a): Cloud-only should track the cloud distance, got {co:?}"));
    }
    // (b) WedgeChain tracks the client↔edge RTT: monotone in distance.
    let wc: Vec<f64> = ["C", "O", "V", "I", "M"]
        .iter()
        .map(|e| triple(a, &format!("fig7b/edge_{e}"), "p1_ms", failures)[0])
        .collect();
    if !wc.windows(2).all(|w| w[0] < w[1]) {
        failures.push(format!("fig7(b): WedgeChain latency not monotone in edge distance: {wc:?}"));
    }
}

fn check_table1_rtt(a: &Artifact, failures: &mut Vec<Failure>) {
    for region in ["C", "O", "V", "I", "M"] {
        let cfg = require(a, &format!("table1/cfg_rtt_ms_C_{region}"), failures);
        let measured = require(a, &format!("table1/measured_rtt_ms_C_{region}"), failures);
        if region == "C" {
            // Table I lists 0 for C↔C; the model substitutes the local
            // (metro) RTT, which must be small but nonzero.
            if measured <= 0.0 || measured > 20.0 {
                failures.push(format!("C->C->C local RTT {measured} ms out of range"));
            }
        } else if measured < cfg || measured > cfg + 1.0 {
            // The probe pays serialization for its 64 B + overhead on
            // top of the propagation delay — allow under a millisecond.
            failures.push(format!(
                "C->{region}->C measured RTT {measured} ms not within 1 ms of configured {cfg} ms"
            ));
        }
    }
}

fn check_dataset_size(a: &Artifact, failures: &mut Vec<Failure>) {
    let rows: Vec<[f64; 3]> = [100_000u64, 1_000_000, 10_000_000, 100_000_000]
        .iter()
        .map(|keys| triple(a, &format!("dataset_size/keys_{keys}"), "p1_ms", failures))
        .collect();
    for sys in ["wc", "co", "eb"] {
        require(a, &format!("dataset_size/summary/drift_pct_{sys}"), failures);
    }
    // §VI-E: put latency stays flat across 1000x the keys, because
    // communication and verification dwarf the storage probe.
    for (i, name) in ["WedgeChain", "Cloud-only", "Edge-baseline"].iter().enumerate() {
        let first = rows[0][i];
        let worst = rows.iter().map(|r| (r[i] / first - 1.0).abs()).fold(0.0, f64::max);
        if worst > 0.10 {
            failures.push(format!(
                "{name} put latency drifts {:.1}% across the key range, over 10%",
                worst * 100.0
            ));
        }
    }
    for ([wc, co, eb], keys) in rows.iter().zip(["100K", "1M", "10M", "100M"]) {
        if !(wc < co && co < eb) {
            failures.push(format!(
                "{keys} keys: latency order violated (WC {wc} < CO {co} < EB {eb} ms expected)"
            ));
        }
    }
}

fn check_ablations(a: &Artifact, failures: &mut Vec<Failure>) {
    let mut mode = |m: &str| {
        ["cert_bytes", "wan_bytes", "p2_ms", "p1_ms"]
            .map(|metric| require(a, &format!("ablations/{m}/{metric}"), failures))
    };
    let [free_cert, free_wan, _, free_p1] = mode("data_free");
    let [full_cert, full_wan, _, full_p1] = mode("data_full");
    // §IV-B: certification needs only the digest, not the block.
    if free_cert * 100.0 >= full_cert {
        failures.push(format!(
            "data-free certification sends {free_cert} B, not under 1% of data-full's {full_cert} B"
        ));
    }
    if free_wan >= full_wan {
        failures.push(format!("data-free WAN bytes {free_wan} not below data-full's {full_wan}"));
    }
    // Certification is off the Phase-I path, so shipping the block
    // must not move Phase I.
    if (full_p1 / free_p1 - 1.0).abs() > 0.05 {
        failures.push(format!(
            "Phase I moves with the certification mode: {free_p1} ms data-free vs {full_p1} ms data-full"
        ));
    }
    let [lazy, eager] = ["p1_ms_lazy", "p1_ms_eager"]
        .map(|metric| require(a, &format!("ablations/lazy/{metric}"), failures));
    require(a, "ablations/lazy/eager_penalty", failures);
    require(a, "ablations/lazy/p2_ms_lazy", failures);
    if eager < lazy * 2.0 {
        failures.push(format!("lazy Phase I {lazy} ms is not 2x below eager {eager} ms"));
    }
    // §IV-E: no gossip when it is off, and more rounds as the period
    // shrinks.
    let rounds: Vec<f64> =
        ["gossip_off", "gossip_2000ms", "gossip_1000ms", "gossip_500ms", "gossip_250ms"]
            .iter()
            .map(|g| {
                require(a, &format!("ablations/{g}/bytes_per_s"), failures);
                require(a, &format!("ablations/{g}/rounds"), failures)
            })
            .collect();
    if rounds[0] != 0.0 {
        failures.push(format!("{} gossip rounds with gossip off", rounds[0]));
    }
    if !rounds[1..].windows(2).all(|w| w[0] < w[1]) {
        failures.push(format!("gossip rounds do not rise as the period shrinks: {rounds:?}"));
    }
}

fn check_micro_crypto(a: &Artifact, failures: &mut Vec<Failure>) {
    for size in [64u64, 1024, 16 * 1024, 256 * 1024] {
        if require(a, &format!("sha256/{size}_mb_s"), failures) <= 0.0 {
            failures.push(format!("sha256/{size}: zero throughput"));
        }
    }
    let mul = require(a, "mulmod_p", failures);
    let pow = require(a, "modpow_p", failures);
    let sign = require(a, "schnorr_sign_256b", failures);
    let verify = require(a, "schnorr_verify_256b", failures);
    // A 126-bit exponent is ~190 multiplies by square-and-multiply,
    // and the ladder takes longer on a square than on the chain's
    // fixed operand.
    if pow > mul.max(1.0) * 600.0 {
        failures.push(format!("modpow_p {pow} ns is over 600 mulmod_p ({mul} ns)"));
    }
    // The generator's comb is what a signature rests on: 15 multiplies
    // and three hashes must cost well under one plain exponentiation.
    if sign * 2.0 > pow {
        failures.push(format!("schnorr sign {sign} ns is over half a modpow_p ({pow} ns)"));
    }
    // A check is one table walk, one plain exponentiation and a hash.
    if verify > pow * 2.0 {
        failures.push(format!("schnorr verify {verify} ns is over two modpow_p ({pow} ns)"));
    }
    // Through the registry the plain exponentiation's ~190 multiplies
    // become 91 from the key's table: with the generator's 15, by
    // multiply count about 0.52 of a plain check.
    // Snapshots from before the registry had tables lack the row.
    if let Some(registered) = a.value("schnorr_verify_registered_256b") {
        require(a, "registry_table_build", failures);
        if registered > verify * 0.7 {
            failures.push(format!(
                "registered verify {registered} ns is over 0.7 of a plain one ({verify} ns)"
            ));
        }
    }
    // The committed PR-12 snapshot also carries the parent commit's
    // figures as `before/<name>`, taken alternately on the same host.
    // A signature lost five of its six parts, a check one of its two
    // exponentiations: hold them to 5x and 1.3x.
    for (name, speedup) in [("schnorr_sign_256b", 5.0), ("schnorr_verify_256b", 1.3)] {
        if let Some(before) = a.value(&format!("before/{name}")) {
            let after = require(a, name, failures);
            if after * speedup > before {
                failures.push(format!("{name}: {before} ns -> {after} ns is under {speedup}x"));
            }
        }
    }
}

/// Runs `artifact` through its bench's check.
fn check(artifact: &Artifact) -> Vec<Failure> {
    let mut failures = Vec::new();
    let check: fn(&Artifact, &mut Vec<Failure>) = match artifact.bench.as_str() {
        "compaction_decay" => check_compaction_decay,
        "merge_cpu_parallel" => check_merge_cpu_parallel,
        "micro_crypto" => check_micro_crypto,
        "merge_reply_bytes" => check_merge_reply_bytes,
        "merge_request_bytes" => check_merge_request_bytes,
        "fig4_batch_size" => check_fig4_batch_size,
        "fig5_clients" => check_fig5_clients,
        "fig6_commit_phases" => check_fig6_commit_phases,
        "fig7_locations" => check_fig7_locations,
        "table1_rtt" => check_table1_rtt,
        "dataset_size" => check_dataset_size,
        "ablations" => check_ablations,
        // Other benches: the reader's structural check is the whole check.
        _ => |_, _| {},
    };
    check(artifact, &mut failures);
    failures
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: shape_check <BENCH_*.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        let artifacts = text.and_then(|text| read_artifacts(&text)).unwrap_or_else(|e| {
            eprintln!("FAIL {path}: {e}");
            failed = true;
            Vec::new()
        });
        for a in &artifacts {
            let at = a.pr.map(|pr| format!(" [PR {pr} {}]", a.label)).unwrap_or_default();
            let failures = check(a);
            if failures.is_empty() {
                println!("ok   {path}{at}: {} ({} metrics)", a.bench, a.results.len());
            } else {
                failed = true;
                eprintln!("FAIL {path}{at}: {}\n  - {}", a.bench, failures.join("\n  - "));
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
