//! Shared helpers for the figure/table bench targets.
//!
//! Each bench target regenerates one table or figure of the paper: it
//! sweeps the paper's parameters, runs the three systems on the
//! deterministic simulator, and prints the same rows/series the paper
//! plots. Absolute numbers depend on the calibrated cost model (root
//! README, "Substitutions"); the *shape* — who wins, by what factor,
//! where the crossovers are — is the reproduction target, and the
//! `shape_check` binary asserts it on the JSON artifacts.
//!
//! Every target records its figures through [`record`] as a name, a
//! value and a unit (timed benches through [`bench_fn`], which records
//! the median in `ns`) and ends with [`write_json`]. [`results`] holds
//! that one schema: the writer, and the reader `shape_check` runs on
//! fresh artifacts and on the committed `BENCH_TRAJECTORY.json`.

#![forbid(unsafe_code)]
// Bench reporting prints by design: stdout is the table the paper
// compares against, stderr carries artifact-write diagnostics.
#![allow(clippy::print_stdout, clippy::print_stderr)]

pub mod results;

pub use results::{record, recorded_results, write_json};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wedge_baselines::{run_scenario, RunOutput, SystemKind};
use wedge_core::config::SystemConfig;
use wedge_crypto::{Identity, IdentityId, Signature};
use wedge_log::{Block, BlockId, CertLedger, Entry};
use wedge_lsmerkle::{CloudIndex, KvOp, L0Page, LsmConfig};
use wedge_workload::Scenario;

/// Minimal real-time micro-bench harness (Criterion is not available
/// in the offline build environment): warm up, time `iters`
/// iterations individually, print mean / median / min and record the
/// median in `ns`.
pub fn bench_fn<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..iters.div_ceil(10).min(5) {
        std::hint::black_box(f());
    }
    bench_with_setup(name, iters, || (), |()| f());
}

/// Like [`bench_fn`], but rebuilds untimed input state before every
/// timed iteration (for consuming benchmarks such as merges) and
/// skips the warmup.
pub fn bench_with_setup<S, T>(
    name: &str,
    iters: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters.max(1) {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(f(input));
        samples.push(t0.elapsed());
    }
    samples.sort();
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let median = samples[samples.len() / 2];
    println!(
        "{name:<48} mean {:>11.3?}  median {:>11.3?}  min {:>11.3?}",
        mean, median, samples[0]
    );
    record(name, median.as_nanos() as f64, "ns");
}

/// Prints a figure banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{id} — {caption}");
    println!("================================================================");
}

/// Prints a latency table header for the three systems.
pub fn latency_header(xlabel: &str) {
    println!("{:<14} {:>14} {:>14} {:>16}", xlabel, "WedgeChain", "Cloud-only", "Edge-baseline");
}

/// Runs one scenario on all three systems.
pub fn run_all(cfg: &SystemConfig, scenario: &Scenario) -> [RunOutput; 3] {
    let wc = run_scenario(SystemKind::WedgeChain, cfg.clone(), scenario);
    let co = run_scenario(SystemKind::CloudOnly, cfg.clone(), scenario);
    let eb = run_scenario(SystemKind::EdgeBaseline, cfg.clone(), scenario);
    [wc, co, eb]
}

/// The cloud side of one edge with no edge tree: a [`CloudIndex`]
/// holding the edge, and the [`CertLedger`] its blocks are certified
/// in. The merge-size and merge-CPU benches build their merge requests
/// by hand on top of it.
pub struct LedgerFixture {
    /// The cloud's identity.
    pub cloud: Identity,
    /// Every block [`LedgerFixture::certified_block`] made.
    pub ledger: CertLedger,
    /// Level 1 takes anything, so a merge never cascades.
    pub index: CloudIndex,
    /// The one edge.
    pub edge: IdentityId,
    value_size: usize,
    next_bid: u64,
    next_seq: u64,
}

impl LedgerFixture {
    /// A fresh index of pages of `page_capacity` records whose puts
    /// carry `value_size`-byte values.
    pub fn new(page_capacity: usize, value_size: usize) -> Self {
        let cloud = Identity::derive("cloud", 1);
        let edge = IdentityId(100);
        let mut index =
            CloudIndex::new(LsmConfig { level_thresholds: vec![2, 1_000_000], page_capacity });
        index.init_edge(&cloud, edge, 0);
        let ledger = CertLedger::new();
        LedgerFixture { cloud, ledger, index, edge, value_size, next_bid: 0, next_seq: 0 }
    }

    /// The edge's next block, one put per key, as an L0 page whose
    /// digest the ledger has certified. Entries are unsigned: neither
    /// the cloud's merge checks nor the tree verify entry signatures
    /// (that is the edge's ingest job).
    pub fn certified_block(&mut self, keys: impl Iterator<Item = u64>) -> Arc<L0Page> {
        let entries: Vec<Entry> = keys
            .map(|key| {
                let entry = Entry {
                    client: IdentityId(1000),
                    sequence: self.next_seq,
                    payload: KvOp::put(key, vec![0xAB; self.value_size]).encode(),
                    signature: Signature { e: 0, s: 0 },
                };
                self.next_seq += 1;
                entry
            })
            .collect();
        let block = Block { edge: self.edge, id: BlockId(self.next_bid), entries, sealed_at_ns: 0 };
        self.next_bid += 1;
        let page = Arc::new(L0Page::from_block(block));
        self.ledger.offer(self.edge, page.block().id, page.digest());
        page
    }
}
