//! Open-loop load harness over the two real-time transports (one
//! `Cluster` on threads, one on TCP), plus an allocation audit of
//! the encode path (the load half of ROADMAP's "Phase I at edge speed"
//! direction, which steps the offered rate past the knee).
//!
//! Unlike the closed-loop figure benches, arrivals here follow a
//! schedule: worker `w` issues its `i`-th operation at `start + i /
//! rate`, and latency is measured from the *scheduled* time to
//! completion — queueing delay from an overloaded cluster shows up in
//! the percentiles instead of silently slowing the arrival process.
//! Keys mix a Zipf(0.99) head with a uniform spray over a ~1M-key
//! space; puts outnumber gets 4:1; every partition is driven by two
//! pipelined workers so batches overlap in flight (which is what the
//! wedge-net coalescing counters gate on).
//!
//! Knobs (environment, for CI scale-down):
//! `LOAD_OPS` total operations per runtime, `LOAD_KEYS` key-space
//! size, `LOAD_RATE` aggregate target ops/s, `LOAD_CLIENTS` edge
//! partitions.
//!
//! The process runs under a counting global allocator so the bench
//! can report allocations-per-op for the fresh (`encode_payload`) vs
//! pooled (`encode_payload_into`) encode paths directly.
//!
//! # Unsafety
//!
//! The `GlobalAlloc` impl is the one unsafe surface in this target:
//! it forwards verbatim to [`System`] under the caller's own layout
//! contract, adding only relaxed atomic counter bumps.

#![deny(unsafe_op_in_unsafe_fn)]
// Bench targets print their tables to stdout by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wedge_bench::{banner, record_ns, record_x1000, write_json};
use wedge_core::driver::{Cluster, RuntimeConfig, Transport};
use wedge_core::messages::WireMsg;
use wedge_core::metrics::LatencyStats;
use wedge_core::threaded::Threads;
use wedge_crypto::Identity;
use wedge_log::Entry;
use wedge_net::Tcp;
use wedge_sim::SimRng;
use wedge_workload::{KeyDist, KeySampler};

// --- counting allocator -------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Passes through to the system allocator, counting calls and bytes
/// (alloc + realloc; frees are not an allocation cost).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// (calls, bytes) allocated while running `f`.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - calls0, ALLOC_BYTES.load(Ordering::Relaxed) - bytes0)
}

// --- knobs --------------------------------------------------------------

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

// --- encode-path allocation audit ---------------------------------------

/// Allocs/bytes per op for the fresh vs pooled encode paths, over a
/// representative message (a sealed batch of four 64-byte entries).
fn bench_encode_allocs() {
    let client = Identity::derive("client", 1000);
    let msg = WireMsg::BatchAdd {
        req_id: 7,
        entries: (0..4).map(|s| Entry::new_signed(&client, s, vec![0xAB; 64])).collect(),
    };
    const OPS: u64 = 10_000;

    let (fresh_calls, fresh_bytes) = count_allocs(|| {
        for _ in 0..OPS {
            std::hint::black_box(msg.encode_payload());
        }
    });
    // Pooled: one buffer reused across ops; steady-state is
    // allocation-free (the warmup iteration outside the count pays
    // the one reserve).
    let mut buf = Vec::new();
    msg.encode_payload_into(&mut buf);
    let (pooled_calls, pooled_bytes) = count_allocs(|| {
        for _ in 0..OPS {
            msg.encode_payload_into(&mut buf);
            std::hint::black_box(buf.len());
        }
    });

    let per = |n: u64| n as f64 / OPS as f64;
    println!(
        "encode_payload        {:>8.3} allocs/op  {:>10.1} bytes/op",
        per(fresh_calls),
        per(fresh_bytes)
    );
    println!(
        "encode_payload_into   {:>8.3} allocs/op  {:>10.1} bytes/op  (reused buffer)",
        per(pooled_calls),
        per(pooled_bytes)
    );
    record_x1000("encode_fresh_allocs_per_op_x1000", per(fresh_calls));
    record_x1000("encode_fresh_bytes_per_op_x1000", per(fresh_bytes));
    record_x1000("encode_pooled_allocs_per_op_x1000", per(pooled_calls));
    record_x1000("encode_pooled_bytes_per_op_x1000", per(pooled_bytes));
}

// --- the open-loop harness ----------------------------------------------

/// Latency samples (ns, from scheduled arrival to completion) split
/// by operation type, plus the wall-clock the run took.
struct LoadResult {
    put_ns: LatencyStats,
    get_ns: LatencyStats,
    elapsed: Duration,
}

fn run_load<T: Transport>(
    cluster: &Arc<Cluster<T>>,
    partitions: usize,
    total_ops: u64,
    rate_per_s: u64,
    keys: u64,
) -> LoadResult {
    // Two workers per partition: overlapping batches in flight is the
    // pipelining the wire-path coalescing feeds on.
    let workers = partitions * 2;
    let ops_per_worker = total_ops / workers as u64;
    let interval = Duration::from_secs_f64(workers as f64 / rate_per_s as f64);
    let start = Instant::now();
    let mut results: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cluster = Arc::clone(cluster);
                scope.spawn(move || {
                    let edge = w % partitions;
                    let mut rng = SimRng::new(0x10AD_5EED ^ w as u64);
                    let mut zipf = KeySampler::new(KeyDist::Zipf { alpha: 0.99 }, keys);
                    let mut unif = KeySampler::new(KeyDist::Uniform, keys);
                    let mut put_ns = Vec::with_capacity(ops_per_worker as usize);
                    let mut get_ns = Vec::with_capacity(ops_per_worker as usize / 4);
                    for i in 0..ops_per_worker {
                        // Open loop: op i is *due* at start + i·interval,
                        // whether or not the cluster kept up.
                        let due = start + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        // Half the keys from the Zipf head, half
                        // uniform spray; every 5th op reads.
                        let key =
                            if i % 2 == 0 { zipf.sample(&mut rng) } else { unif.sample(&mut rng) };
                        if i % 5 == 4 {
                            cluster.get_on(edge, key).expect("verified read");
                            get_ns.push(due.elapsed().as_nanos() as u64);
                        } else {
                            // batch_size 1: every put seals and replies.
                            let reply = cluster.put_on(edge, key, vec![(key % 251) as u8; 64]);
                            assert!(reply.is_some(), "batch_size 1 always replies");
                            put_ns.push(due.elapsed().as_nanos() as u64);
                        }
                    }
                    (put_ns, get_ns)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("load worker"));
        }
    });
    let elapsed = start.elapsed();
    let mut put_ns = LatencyStats::new();
    let mut get_ns = LatencyStats::new();
    for (puts, gets) in results {
        puts.into_iter().for_each(|ns| put_ns.record(ns as f64));
        gets.into_iter().for_each(|ns| get_ns.record(ns as f64));
    }
    LoadResult { put_ns, get_ns, elapsed }
}

fn report(rt: &str, r: &mut LoadResult) {
    let ops = (r.put_ns.count() + r.get_ns.count()) as f64;
    let kops = ops / r.elapsed.as_secs_f64() / 1000.0;
    println!("{rt:<9} {:>7} ops in {:>8.2?}  ({kops:.2} K ops/s)", ops as u64, r.elapsed);
    record_x1000(&format!("{rt}_throughput_kops_x1000"), kops);
    for (op, samples) in [("put", &mut r.put_ns), ("get", &mut r.get_ns)] {
        let [p50, p95, p99, p999] = [0.50, 0.95, 0.99, 0.999].map(|q| samples.quantile(q) / 1000.0);
        println!(
            "  {op}: p50 {p50:>9.1}us  p95 {p95:>9.1}us  p99 {p99:>9.1}us  p999 {p999:>9.1}us  \
             (n={})",
            samples.count()
        );
        record_x1000(&format!("{rt}_{op}_p50_us_x1000"), p50);
        record_x1000(&format!("{rt}_{op}_p95_us_x1000"), p95);
        record_x1000(&format!("{rt}_{op}_p99_us_x1000"), p99);
        record_x1000(&format!("{rt}_{op}_p999_us_x1000"), p999);
    }
}

fn main() {
    banner(
        "load_open_loop",
        "open-loop zipf+uniform load: throughput and latency percentiles, threaded vs net",
    );
    // Defaults hold the offered load under the batch_size-1 sealing
    // capacity (~1 000 blocks/s per edge with real crypto: what
    // `benchmark`'s closed-loop `put_b1` reads on two cores), so the
    // percentiles measure the serving path, not saturation queueing.
    // Crank LOAD_RATE past capacity to study overload instead.
    let ops = env_u64("LOAD_OPS", 3_000);
    let keys = env_u64("LOAD_KEYS", 1_000_000);
    let rate = env_u64("LOAD_RATE", 300);
    let clients = env_u64("LOAD_CLIENTS", 4) as usize;
    println!("ops {ops}  keys {keys}  rate {rate}/s  partitions {clients}\n");
    record_ns("load_ops", ops as u128);
    record_ns("load_keys", keys as u128);

    bench_encode_allocs();
    println!();

    let cfg = RuntimeConfig {
        num_edges: clients,
        batch_size: 1,
        pipeline_depth: 4,
        ..RuntimeConfig::default()
    };
    // In-process mpsc runtime.
    let threaded = Cluster::<Threads>::start(cfg.clone());
    report("threaded", &mut run_load(&threaded, clients, ops, rate, keys));
    threaded.shutdown().expect("threaded report");

    // Loopback-TCP runtime: same engines, real sockets, coalesced
    // framed writes.
    let net = Cluster::<Tcp>::start(cfg);
    report("net", &mut run_load(&net, clients, ops, rate, keys));
    let net_report = net.shutdown().expect("net report");
    println!(
        "net wire: {} frames in {} writes ({} coalesced), {} failed",
        net_report.frames_sent,
        net_report.frame_writes,
        net_report.coalesced_frames,
        net_report.failed_sends
    );
    record_ns("net_frames_sent", net_report.frames_sent as u128);
    record_ns("net_frame_writes", net_report.frame_writes as u128);
    record_ns("net_coalesced_frames", net_report.coalesced_frames as u128);
    record_ns("net_failed_sends", net_report.failed_sends as u128);

    write_json("load_open_loop");
}
