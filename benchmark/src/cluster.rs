//! The five real-time workloads: a one-edge `ThreadedCluster` or
//! `NetCluster` driven through the public runtime API only
//! (`start`, `put_on`, `get_on`, `shutdown`).
//!
//! Every cluster is one edge partition (three service threads plus the
//! cloud) and one caller (two in `open_r200`), because the benchmark
//! host has two cores: more partitions measure the scheduler.

use crate::ops::{caller_seed, value_for, Keys, Mix, Op, OpGen, Shadow};
use crate::stats::{median, Latencies, Metric};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wedge_core::engine::{CloudStats, EdgeStats, GetOutcome};
use wedge_core::threaded::{EdgeRunReport, PutReply, ThreadedCluster, ThreadedConfig};
use wedge_lsmerkle::{LsmConfig, ProofError};
use wedge_net::{NetCluster, NetConfig};
use wedge_sim::SimRng;

/// How long the collector waits for one Phase II proof before the put
/// counts as failed (the honest path takes milliseconds).
const PHASE2_TIMEOUT: Duration = Duration::from_secs(20);

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// How many put-then-read-back segments a put-only workload runs in.
const READBACK_SEGMENTS: u64 = 5;

/// The "caller index" that seeds read-back key choice: no real caller
/// has it, so the choice is a stream of its own.
const READBACK_STREAM: usize = usize::MAX / 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    Threaded,
    Net,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Each caller issues its next op when the previous one returns.
    Closed,
    /// Op `i` of each caller is due at `start + i / ops_per_second`,
    /// whether or not the cluster kept up; latency is timed from the
    /// due time.
    Open,
}

/// One real-time workload. Everything not stated here is the
/// runtime's `..Default::default()`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub runtime: RuntimeKind,
    pub batch_size: usize,
    pub pipeline_depth: usize,
    pub callers: usize,
    pub arrival: Arrival,
    pub keys: Keys,
    pub mix: Mix,
    /// Keys `0..preload` are written (and their Phase II awaited)
    /// during set-up; their put latencies are the workload's only put
    /// samples, so they are recorded.
    pub preload: u64,
    /// Untimed ops per caller after the preload.
    pub warmup_ops: u64,
    /// Ops each caller issues in the main window per second of
    /// `--seconds`. Op counts are fixed, not windows: the same work
    /// sits on both sides of any comparison, and trees, merges and
    /// bytes repeat exactly. Closed loops are sized so the window
    /// lasts about `--seconds` on the commit that defined the
    /// benchmark; in the open loop this *is* the offered rate.
    pub ops_per_second: f64,
    /// Gets per second of `--seconds` that read written keys back
    /// after the main window. Put-only workloads need them to prove
    /// their writes (the shadow map would otherwise check nothing).
    pub readback_per_second: f64,
}

/// The five real-time workloads by name.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        runtime: RuntimeKind::Threaded,
        batch_size: 1,
        pipeline_depth: 1,
        callers: 1,
        arrival: Arrival::Closed,
        keys: Keys::Uniform(1_000_000),
        mix: Mix::PutOnly,
        preload: 0,
        warmup_ops: 100,
        ops_per_second: 280.0,
        readback_per_second: 0.0,
    };
    Some(match name {
        "put_b1" => Spec { readback_per_second: 200.0, ..base },
        "ingest_b100" => Spec {
            batch_size: 100,
            warmup_ops: 300,
            ops_per_second: 1_000.0,
            readback_per_second: 200.0,
            ..base
        },
        "read_quiet" => Spec {
            batch_size: 10,
            keys: Keys::Zipf(2_000),
            mix: Mix::GetOnly,
            preload: 2_000,
            warmup_ops: 300,
            ops_per_second: 1_300.0,
            ..base
        },
        "mix_net" => Spec {
            runtime: RuntimeKind::Net,
            keys: Keys::Zipf(10_000),
            mix: Mix::Alternate,
            ops_per_second: 350.0,
            ..base
        },
        "open_r200" => Spec {
            pipeline_depth: 2,
            callers: 2,
            arrival: Arrival::Open,
            keys: Keys::ZipfUniform(100_000),
            mix: Mix::FourPutsOneGet,
            ops_per_second: 100.0,
            ..base
        },
        _ => return None,
    })
}

/// A running cluster of either runtime behind the calls both share.
pub enum Cluster {
    Threaded(Arc<ThreadedCluster>),
    Net(Arc<NetCluster>),
}

/// What both runtimes' shutdown reports have in common, for the one
/// edge these workloads run.
pub struct Report {
    pub edge: EdgeRunReport,
    pub cloud: CloudStats,
    pub punished: usize,
    pub shed_cloud_msgs: u64,
    pub deferred_cloud_msgs: u64,
    pub puts_shed: u64,
    pub proof_cache_hits: u64,
    pub proof_cache_misses: u64,
    /// All zero on the threaded runtime.
    pub net: NetCounters,
}

/// What `wedge-net` counts about its sockets.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    pub frames_sent: u64,
    pub frame_writes: u64,
    pub coalesced_frames: u64,
    pub failed_sends: u64,
}

impl Cluster {
    pub fn start(spec: &Spec, seal_times: Option<Vec<u64>>) -> Cluster {
        let seal_times = seal_times.map(|t| vec![t]);
        match spec.runtime {
            RuntimeKind::Threaded => Cluster::Threaded(ThreadedCluster::start(ThreadedConfig {
                lsm: LsmConfig::paper_eval(),
                batch_size: spec.batch_size,
                pipeline_depth: spec.pipeline_depth,
                seal_times,
                ..ThreadedConfig::default()
            })),
            RuntimeKind::Net => Cluster::Net(NetCluster::start(NetConfig {
                lsm: LsmConfig::paper_eval(),
                batch_size: spec.batch_size,
                pipeline_depth: spec.pipeline_depth,
                seal_times,
                ..NetConfig::default()
            })),
        }
    }

    pub fn put_on(&self, key: u64, value: Vec<u8>) -> Option<PutReply> {
        match self {
            Cluster::Threaded(c) => c.put_on(0, key, value),
            Cluster::Net(c) => c.put_on(0, key, value),
        }
    }

    pub fn flush_on(&self) -> Option<PutReply> {
        match self {
            Cluster::Threaded(c) => c.flush_on(0),
            Cluster::Net(c) => c.flush_on(0),
        }
    }

    pub fn get_on(&self, key: u64) -> Result<GetOutcome, ProofError> {
        match self {
            Cluster::Threaded(c) => c.get_on(0, key),
            Cluster::Net(c) => c.get_on(0, key),
        }
    }

    /// Joins every service thread and returns the final state. `None`
    /// when a service thread panicked.
    pub fn shutdown(self) -> Option<Report> {
        match self {
            Cluster::Threaded(c) => {
                let mut r = c.shutdown()?;
                Some(Report {
                    edge: r.edges.pop()?,
                    cloud: r.cloud_stats,
                    punished: r.punished.len(),
                    shed_cloud_msgs: r.shed_cloud_msgs,
                    deferred_cloud_msgs: r.deferred_cloud_msgs,
                    puts_shed: r.puts_shed,
                    proof_cache_hits: r.proof_cache_hits,
                    proof_cache_misses: r.proof_cache_misses,
                    net: NetCounters::default(),
                })
            }
            Cluster::Net(c) => {
                let mut r = c.shutdown()?;
                Some(Report {
                    edge: r.edges.pop()?,
                    cloud: r.cloud_stats,
                    punished: r.punished.len(),
                    shed_cloud_msgs: r.shed_cloud_msgs,
                    deferred_cloud_msgs: r.deferred_cloud_msgs,
                    puts_shed: r.puts_shed,
                    proof_cache_hits: r.proof_cache_hits,
                    proof_cache_misses: r.proof_cache_misses,
                    net: NetCounters {
                        frames_sent: r.frames_sent,
                        frame_writes: r.frame_writes,
                        coalesced_frames: r.coalesced_frames,
                        failed_sends: r.failed_sends,
                    },
                })
            }
        }
    }
}

/// A sealed batch waiting for its Phase II proof.
struct PendingProof {
    /// Start of the submitting `put_on` call (the due time in an open
    /// loop): Phase II is timed from the same instant as Phase I.
    start: Instant,
    reply: PutReply,
    timed: bool,
}

/// What the collector thread saw.
#[derive(Default)]
struct Collected {
    p2: Latencies,
    proofs: u64,
    failed: u64,
}

/// The mostly-blocked Phase II collector: takes each `PutReply` in
/// seal order and waits on `certified` for the cloud's `BlockProof`.
struct Collector {
    tx: Sender<PendingProof>,
    handle: JoinHandle<Collected>,
}

impl Collector {
    fn spawn() -> Collector {
        let (tx, rx): (Sender<PendingProof>, Receiver<PendingProof>) = channel();
        let handle = std::thread::spawn(move || {
            let mut out = Collected::default();
            for pending in rx {
                match pending.reply.certified.recv_timeout(PHASE2_TIMEOUT) {
                    Ok(proof) if proof.digest == pending.reply.receipt.block_digest => {
                        out.proofs += 1;
                        if pending.timed {
                            out.p2.record(pending.start.elapsed());
                        }
                    }
                    // Missing, late or for a different digest: the put
                    // never reached the commitment it was promised.
                    _ => out.failed += 1,
                }
            }
            out
        });
        Collector { tx, handle }
    }

    /// Waits for every submitted batch's proof.
    fn finish(self) -> Collected {
        drop(self.tx);
        self.handle.join().expect("collector thread does not panic")
    }
}

/// What one caller measured over one window.
#[derive(Default)]
struct CallerTally {
    p1: Latencies,
    get: Latencies,
    late: Latencies,
    puts: u64,
    gets: u64,
    failed: u64,
}

impl CallerTally {
    fn absorb(&mut self, other: &CallerTally) {
        self.p1.extend(&other.p1);
        self.get.extend(&other.get);
        self.late.extend(&other.late);
        self.puts += other.puts;
        self.gets += other.gets;
        self.failed += other.failed;
    }
}

/// One caller: its op stream, its shadow map, and the ops it has
/// buffered in a not-yet-submitted batch.
struct Caller {
    gen: OpGen,
    shadow: Shadow,
    batch_size: u64,
    buffered: u64,
}

impl Caller {
    fn new(spec: &Spec, seed: u64, index: usize) -> Caller {
        Caller {
            gen: OpGen::new(seed, index, spec.callers, spec.keys, spec.mix),
            shadow: Shadow::default(),
            batch_size: spec.batch_size as u64,
            buffered: 0,
        }
    }

    /// Issues one put. `start` is when its latency clock started.
    fn put(
        &mut self,
        cluster: &Cluster,
        proofs: &Sender<PendingProof>,
        tally: &mut CallerTally,
        (key, seq): (u64, u64),
        start: Instant,
        timed: bool,
    ) {
        self.shadow.record_put(key, seq);
        self.buffered += 1;
        let reply = cluster.put_on(key, value_for(key, seq));
        tally.puts += 1;
        match reply {
            Some(reply) => {
                self.buffered = 0;
                if timed {
                    tally.p1.record(start.elapsed());
                }
                // A closed channel means the collector died: count it.
                if proofs.send(PendingProof { start, reply, timed }).is_err() {
                    tally.failed += 1;
                }
            }
            // `None` while the batch fills is the API; `None` on the
            // put that fills it means the edge shed or rejected it.
            None if self.buffered >= self.batch_size => {
                tally.failed += self.buffered;
                self.buffered = 0;
            }
            None => {}
        }
    }

    /// Submits a partly filled batch (a preload that is not a whole
    /// number of batches).
    fn flush(&mut self, cluster: &Cluster, proofs: &Sender<PendingProof>, tally: &mut CallerTally) {
        if self.buffered == 0 {
            return;
        }
        let sent = cluster.flush_on().is_some_and(|reply| {
            proofs.send(PendingProof { start: Instant::now(), reply, timed: false }).is_ok()
        });
        if !sent {
            tally.failed += self.buffered;
        }
        self.buffered = 0;
    }

    fn get(&mut self, cluster: &Cluster, tally: &mut CallerTally, key: u64, start: Instant) {
        let outcome = cluster.get_on(key);
        tally.get.record(start.elapsed());
        tally.gets += 1;
        let ok = outcome.is_ok_and(|o| self.shadow.matches(key, o.value.as_deref()));
        if !ok {
            tally.failed += 1;
        }
    }

    fn issue(
        &mut self,
        cluster: &Cluster,
        proofs: &Sender<PendingProof>,
        tally: &mut CallerTally,
        op: Op,
        start: Instant,
        timed: bool,
    ) {
        match op {
            Op::Put { key, seq } => self.put(cluster, proofs, tally, (key, seq), start, timed),
            Op::Get { key } => self.get(cluster, tally, key, start),
        }
    }

    /// Untimed ops straight from the stream, stopping on a batch
    /// boundary so the main window starts with an empty batcher.
    fn warm_up(&mut self, cluster: &Cluster, proofs: &Sender<PendingProof>, ops: u64) -> u64 {
        let mut scratch = CallerTally::default();
        let mut issued = 0;
        while issued < ops || self.buffered > 0 {
            let op = self.gen.next().expect("op streams are unbounded");
            self.issue(cluster, proofs, &mut scratch, op, Instant::now(), false);
            issued += 1;
        }
        scratch.failed
    }

    /// The main window: `ops` ops (a closed loop runs on to the next
    /// batch boundary). Closed loop: back-to-back. Open loop: op `i`
    /// is due at `start + i / rate`; the caller sleeps until then, and
    /// both the latency and the lateness are taken from the due time.
    fn run_window(
        &mut self,
        cluster: &Cluster,
        proofs: &Sender<PendingProof>,
        arrival: Arrival,
        ops: u64,
        rate_per_s: f64,
    ) -> CallerTally {
        let mut tally = CallerTally::default();
        let start = Instant::now();
        // In a closed loop an op is due the moment the previous one
        // returns; what passes until it is issued is the generator.
        let mut due = start;
        let mut i = 0;
        while i < ops || self.buffered > 0 {
            let op = self.gen.next().expect("op streams are unbounded");
            if arrival == Arrival::Open {
                due = start + due_offset(i, rate_per_s);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            let issued = Instant::now();
            tally.late.record(lateness(due, issued));
            let clock = if arrival == Arrival::Open { due } else { issued };
            self.issue(cluster, proofs, &mut tally, op, clock, true);
            due = Instant::now();
            i += 1;
        }
        tally
    }

    /// Reads written keys back (uniformly over the distinct keys) and
    /// checks each against the shadow map.
    fn read_back(&mut self, cluster: &Cluster, seed: u64, gets: u64) -> CallerTally {
        let mut tally = CallerTally::default();
        let mut rng = SimRng::new(caller_seed(seed, READBACK_STREAM));
        for _ in 0..gets {
            let keys = self.shadow.keys();
            if keys.is_empty() {
                break;
            }
            let key = keys[rng.gen_range(keys.len() as u64) as usize];
            self.get(cluster, &mut tally, key, Instant::now());
        }
        tally
    }
}

/// When op `i` of an open-loop caller is due, relative to the start:
/// a function of the schedule alone, never of completions.
pub fn due_offset(i: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// How late the generator issued an op that was due at `due`.
pub fn lateness(due: Instant, issued: Instant) -> Duration {
    issued.saturating_duration_since(due)
}

/// Everything one run of a real-time workload produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why `failed` is not zero, or a report check did not hold.
    pub failures: Vec<String>,
    /// Timed op counts for the run header.
    pub counts: Vec<(&'static str, u64)>,
}

/// Accumulates rounds of one workload.
#[derive(Default)]
struct RunTotals {
    setup_s: Vec<f64>,
    tally: CallerTally,
    p2: Latencies,
    main_ops: u64,
    main_secs: f64,
    all_puts: u64,
    failed: u64,
    failures: Vec<String>,
    wan_bytes: u64,
    cert_bytes: u64,
    last_report: Option<Report>,
}

impl RunTotals {
    fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(why);
        }
    }

    /// The shutdown-report checks every round must pass.
    fn check_report(&mut self, report: &Report, proofs: u64) {
        let stats = &report.edge.edge_stats;
        let checks = [
            (report.punished == 0, "an edge was punished"),
            (!stats.flagged_malicious, "the edge was flagged malicious"),
            (report.edge.verdicts.is_empty(), "a dispute verdict was issued"),
            (report.puts_shed == 0, "puts were shed"),
            (report.net.failed_sends == 0, "the transport failed sends"),
            (proofs == stats.blocks_sealed, "Phase II proofs received != blocks sealed"),
            (
                report.edge.blocks.iter().all(|(_, d, edge, cloud)| {
                    edge.as_ref() == Some(d) && cloud.as_ref() == Some(d)
                }),
                "a block's certified digest differs from its sealed digest",
            ),
        ];
        for (ok, why) in checks {
            if !ok {
                self.fail(1, format!("report check failed: {why}"));
            }
        }
    }
}

/// Runs `spec` sized for `seconds` of measurement: `setup_repeats`
/// set-ups (each on a fresh cluster, each checked at shutdown), the
/// last of which carries the measured ops.
pub fn run(spec: &Spec, seed: u64, seconds: f64, setup_repeats: usize) -> Outcome {
    let mut totals = RunTotals::default();
    let ops = (spec.ops_per_second * seconds).ceil() as u64;
    let readback = (spec.readback_per_second * seconds).ceil() as u64;
    for round in 0..setup_repeats.max(1) {
        let measured = round + 1 == setup_repeats.max(1);
        run_round(spec, seed, measured.then_some((ops, readback)), &mut totals);
    }
    finish(spec, totals)
}

/// One fresh cluster: set-up, then (with `measured`) the main window
/// of that many ops per caller and the read-back of that many gets.
fn run_round(spec: &Spec, seed: u64, measured: Option<(u64, u64)>, t: &mut RunTotals) {
    // --- set-up: start, preload, warm-up, and their Phase II ---
    let setup_start = Instant::now();
    let cluster = Cluster::start(spec, None);
    let mut callers: Vec<Caller> = (0..spec.callers).map(|c| Caller::new(spec, seed, c)).collect();
    let setup = Collector::spawn();
    let mut preload_tally = CallerTally::default();
    for key in 0..spec.preload {
        // Sequence numbers no stream put will ever carry.
        let seq = u64::MAX / 2 + key;
        let start = Instant::now();
        callers[0].put(&cluster, &setup.tx, &mut preload_tally, (key, seq), start, true);
    }
    callers[0].flush(&cluster, &setup.tx, &mut preload_tally);
    let mut warm_failed = 0;
    for caller in &mut callers {
        warm_failed += caller.warm_up(&cluster, &setup.tx, spec.warmup_ops);
    }
    let setup_seen = setup.finish();
    t.setup_s.push(setup_start.elapsed().as_secs_f64());
    t.fail(warm_failed + setup_seen.failed, "set-up ops failed".into());
    t.fail(preload_tally.failed, "preload puts failed".into());
    t.tally.absorb(&preload_tally);
    t.p2.extend(&setup_seen.p2);
    let mut proofs = setup_seen.proofs;

    // --- the measured ops (last round only) ---
    // A workload that reads its writes back does so in segments —
    // puts, their Phase II, gets, and again — so that both kinds of
    // op sample the whole run and the reads stay quiet.
    let (ops, readback) = measured.unwrap_or((0, 0));
    let segments = if readback > 0 { READBACK_SEGMENTS } else { u64::from(measured.is_some()) };
    for segment in 0..segments {
        let main = Collector::spawn();
        let main_start = Instant::now();
        let tallies: Vec<CallerTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .iter_mut()
                .map(|caller| {
                    let (cluster, tx) = (&cluster, main.tx.clone());
                    let (n, rate) = (ops.div_ceil(segments), spec.ops_per_second);
                    scope.spawn(move || caller.run_window(cluster, &tx, spec.arrival, n, rate))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("caller thread does not panic")).collect()
        });
        t.main_secs += main_start.elapsed().as_secs_f64();
        let main_seen = main.finish();
        for tally in &tallies {
            t.main_ops += tally.puts + tally.gets;
            t.fail(tally.failed, "ops failed in the main window".into());
            t.tally.absorb(tally);
        }
        t.fail(main_seen.failed, "Phase II missing or for the wrong digest".into());
        t.p2.extend(&main_seen.p2);
        proofs += main_seen.proofs;

        let tally = callers[0].read_back(&cluster, seed ^ segment, readback.div_ceil(segments));
        t.fail(tally.failed, "read-back returned a value the driver did not write".into());
        t.tally.absorb(&tally);
    }

    // --- shutdown and the report checks ---
    match cluster.shutdown() {
        Some(report) => {
            t.check_report(&report, proofs);
            t.all_puts += report.edge.client_metrics.ops_p1;
            t.wan_bytes += report.edge.edge_stats.wan_bytes_to_cloud;
            t.cert_bytes += report.edge.edge_stats.cert_bytes_to_cloud;
            t.last_report = Some(report);
        }
        None => t.fail(1, "shutdown returned no report (a service thread panicked)".into()),
    }
}

/// The shutdown-state counters of one deployment, whichever runtime
/// ran it.
pub struct Counters<'a> {
    pub edge: &'a EdgeStats,
    pub cloud: &'a CloudStats,
    pub puts: u64,
    pub gets: u64,
    pub proof_cache_hits: u64,
    pub proof_cache_misses: u64,
    pub shed_cloud_msgs: u64,
    pub deferred_cloud_msgs: u64,
    pub puts_shed: u64,
    pub net: NetCounters,
}

/// The per-layer report counters: work done per op, and the ratio of
/// useful outcomes to attempts where a layer can waste work.
pub fn counter_metrics(c: &Counters<'_>) -> Vec<Metric> {
    let ops = c.puts + c.gets;
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count", 1);
    let frac = |name: &str, num: u64, den: u64| Metric::new(name, ratio(num, den), "frac", den);
    let per = |name: &str, num: u64, den: u64, unit| Metric::new(name, ratio(num, den), unit, den);
    vec![
        per("net.frames_per_op", c.net.frames_sent, ops, "1/op"),
        per("net.writes_per_op", c.net.frame_writes, ops, "1/op"),
        frac("net.coalesced_frac", c.net.coalesced_frames, c.net.frames_sent),
        count("net.failed_sends", c.net.failed_sends),
        count("threaded.shed_cloud_msgs", c.shed_cloud_msgs),
        count("threaded.deferred_cloud_msgs", c.deferred_cloud_msgs),
        count("runtime.puts_shed", c.puts_shed),
        frac(
            "lsmerkle.proof_cache_hit_frac",
            c.proof_cache_hits,
            c.proof_cache_hits + c.proof_cache_misses,
        ),
        per("edge.merges_per_kput", 1000 * c.edge.merges_completed, c.puts, "1/kput"),
        per("edge.cert_bytes_per_put", c.edge.cert_bytes_to_cloud, c.puts, "B"),
        frac(
            "cloud.merge_req_pages_reused_frac",
            c.cloud.merge_req_pages_reused,
            c.cloud.merge_req_pages_reused + c.cloud.merge_req_pages_full,
        ),
        frac(
            "cloud.merge_reply_pages_reused_frac",
            c.cloud.merge_reply_pages_reused,
            c.cloud.merge_reply_pages_reused + c.cloud.merge_reply_pages_full,
        ),
        count("cloud.merge_req_nacks", c.cloud.merge_req_nacks),
        count("edge.certs_retried", c.edge.certs_retried),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn finish(spec: &Spec, t: RunTotals) -> Outcome {
    let tally = &t.tally;
    let mut e2e = vec![
        Metric::new("setup_s", median(&t.setup_s), "s", t.setup_s.len() as u64),
        Metric::new(
            "throughput_ops_s",
            if t.main_secs > 0.0 { t.main_ops as f64 / t.main_secs } else { 0.0 },
            "ops/s",
            t.main_ops,
        ),
    ];
    e2e.extend(tally.p1.gated("put_p1"));
    e2e.extend(t.p2.gated("put_p2"));
    e2e.extend(tally.get.gated("get"));
    e2e.push(Metric::new("wan_bytes_per_put", ratio(t.wan_bytes, t.all_puts), "B", t.all_puts));

    let mut layer = Vec::new();
    layer.extend(tally.p1.diagnostics("put_p1"));
    layer.extend(t.p2.diagnostics("put_p2"));
    layer.extend(tally.get.diagnostics("get"));
    layer.push(Metric::new(
        "driver.late_p95_us",
        tally.late.quantile_us(0.95),
        "us",
        tally.late.count(),
    ));
    if let Some(r) = &t.last_report {
        // Counters of the measured round's cluster.
        layer.extend(counter_metrics(&Counters {
            edge: &r.edge.edge_stats,
            cloud: &r.cloud,
            puts: r.edge.client_metrics.ops_p1,
            gets: r.edge.client_metrics.reads_ok,
            proof_cache_hits: r.proof_cache_hits,
            proof_cache_misses: r.proof_cache_misses,
            shed_cloud_msgs: r.shed_cloud_msgs,
            deferred_cloud_msgs: r.deferred_cloud_msgs,
            puts_shed: r.puts_shed,
            net: r.net,
        }));
    }

    Outcome {
        e2e,
        layer,
        attempted: tally.puts + tally.gets,
        failed: t.failed,
        failures: t.failures,
        counts: vec![
            ("timed_puts", tally.puts),
            ("timed_gets", tally.gets),
            ("timed_batches", tally.p1.count()),
            ("preload_keys", spec.preload),
            ("warmup_ops_per_caller", spec.warmup_ops),
        ],
    }
}

/// The block digests a `ThreadedCluster` seals for `ops` when block
/// `i` is sealed at the scripted time `seal_times[i]`. The inline
/// driver's test replays the same ops and must seal the same blocks.
#[cfg(test)]
pub fn threaded_block_digests(
    spec: &Spec,
    ops: &[Op],
    seal_times: Vec<u64>,
) -> Vec<wedge_crypto::Digest> {
    let cluster = Cluster::start(spec, Some(seal_times));
    let mut last = None;
    for op in ops {
        if let Op::Put { key, seq } = *op {
            last = cluster.put_on(key, value_for(key, seq)).or(last);
        }
    }
    last = cluster.flush_on().or(last);
    if let Some(reply) = last {
        reply.certified.recv_timeout(PHASE2_TIMEOUT).expect("last block certifies");
    }
    let report = cluster.shutdown().expect("shutdown report");
    report.edge.blocks.iter().map(|(_, digest, _, _)| *digest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_due_times_ignore_completions_and_lateness_is_from_due() {
        // The schedule is a function of (i, rate) alone.
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(250, 100.0), Duration::from_millis(2500));
        let start = Instant::now();
        let due = start + due_offset(3, 100.0);
        // Issued 7 ms after it was due — say, behind a stalled op.
        assert_eq!(lateness(due, due + Duration::from_millis(7)), Duration::from_millis(7));
        // Issued early (the generator woke before the due time): zero.
        assert_eq!(lateness(due, start), Duration::ZERO);
    }

    /// A slow op delays the *issue* of later ops but not their due
    /// times: the caller charges the stall to the ops it delayed.
    #[test]
    fn open_loop_run_charges_latency_from_due_time() {
        let spec = Spec { callers: 1, warmup_ops: 0, ..spec("open_r200").unwrap() };
        let out = run(&spec, 11, 0.5, 1);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // 100 ops/s for 0.5 s: the schedule's 50 ops, however long
        // each took.
        assert_eq!(out.attempted, 50);
        let late = out.layer.iter().find(|m| m.name == "driver.late_p95_us").unwrap();
        assert_eq!(late.samples, 50);
    }

    #[test]
    fn every_real_time_workload_runs_clean_at_tiny_size() {
        for name in ["put_b1", "ingest_b100", "read_quiet", "mix_net", "open_r200"] {
            let mut spec = spec(name).unwrap();
            spec.preload = spec.preload.min(50);
            spec.warmup_ops = 10;
            if let Keys::Zipf(2_000) = spec.keys {
                spec.keys = Keys::Zipf(50);
            }
            spec.ops_per_second = spec.ops_per_second.min(200.0);
            let out = run(&spec, 5, 0.4, 2);
            assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
            assert!(out.attempted > 0, "{name} did work");
            for metric in &out.e2e {
                assert!(metric.value > 0.0, "{name}: {} must be measured", metric.name);
            }
            let names: Vec<&str> = out.e2e.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "setup_s",
                    "throughput_ops_s",
                    "put_p1_p50_us",
                    "put_p1_p95_us",
                    "put_p2_p50_us",
                    "put_p2_p95_us",
                    "get_p50_us",
                    "get_p95_us",
                    "wan_bytes_per_put"
                ],
                "{name}"
            );
        }
    }

    #[test]
    fn a_wrong_value_is_counted_as_a_failed_op() {
        let spec = spec("put_b1").unwrap();
        let cluster = Cluster::start(&spec, None);
        let mut caller = Caller::new(&spec, 1, 0);
        let mut tally = CallerTally::default();
        let collector = Collector::spawn();
        caller.put(&cluster, &collector.tx, &mut tally, (7, 0), Instant::now(), true);
        // The driver believes it wrote seq 1; the store holds seq 0.
        caller.shadow.record_put(7, 1);
        caller.get(&cluster, &mut tally, 7, Instant::now());
        assert_eq!(tally.failed, 1);
        assert_eq!(collector.finish().proofs, 1);
        cluster.shutdown().expect("report");
    }
}
