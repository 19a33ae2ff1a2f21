//! The inline driver: one `ClientEngine`, one `EdgeEngine`, one
//! `CloudEngine` pumped on a single thread, every message passed
//! through `append_frame_to` → `decode_frame`, every call wrapped in a
//! span.
//!
//! The engines are built exactly as `ThreadedCluster::start` builds
//! them (same derived identities, real crypto, same LSM shape), so
//! this is the protocol's own cost with no channel, no wake-up and no
//! socket: what a runtime reports on top of it is that runtime's hop
//! overhead.

use crate::ops::{value_for, Op, Shadow};
use crate::spans::{Span, Tracer};
use crate::stats::Latencies;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use wedge_core::config::CryptoMode;
use wedge_core::engine::{
    ClientCommand, ClientEffect, ClientEngine, ClientEvent, ClientPlan, CloudCommand, CloudEffect,
    CloudEngine, EdgeCommand, EdgeEffect, EdgeEngine, GetOutcome,
};
use wedge_core::fault::FaultPlan;
use wedge_core::harness::client_workload_seed;
use wedge_core::messages::WireMsg;
use wedge_core::CostModel;
use wedge_crypto::{Digest, Identity, KeyRegistry};
use wedge_log::BlockProof;
use wedge_lsmerkle::{CloudIndex, LsMerkle, LsmConfig};

/// The cloud engine's peer handles: the edge, then its client.
const EDGE_PEER: usize = 0;
const CLIENT_PEER: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dest {
    Client,
    Edge,
    Cloud,
}

/// A message between two engines: framed bytes, or the value itself.
// `WireMsg` dwarfs a `Vec`; values are moved once into the queue, as in
// the runtimes' own inboxes, so boxing would only add an allocation.
#[allow(clippy::large_enum_variant)]
enum InFlight {
    Frame(Vec<u8>),
    Value(WireMsg),
}

/// What the client engine reported while one operation was pumped.
#[derive(Default)]
struct Completion {
    phase1_at: Option<Duration>,
    proof: Option<BlockProof>,
    receipt_digest: Option<Digest>,
    read: Option<GetOutcome>,
}

/// Outcome of one inline put batch.
pub struct InlinePut {
    /// Op start → the client engine emitted `Phase1`.
    pub phase1: Option<Duration>,
    /// True when Phase II arrived with the digest Phase I promised.
    pub certified: bool,
}

pub struct Inline {
    client: ClientEngine,
    edge: EdgeEngine<u8>,
    cloud: CloudEngine<usize>,
    epoch: Instant,
    queue: VecDeque<(Dest, InFlight)>,
    /// Whether messages cross a byte boundary between engines, as
    /// they do over TCP; the threaded runtime and the simulator hand
    /// the `WireMsg` over as a value (pages keep their memoized
    /// digests), so their baseline is the replay without the codec.
    codec: bool,
    tracer: Tracer,
    /// Scripted `sealed_at_ns` per block, as in `ThreadedConfig`.
    seal_times: VecDeque<u64>,
    next_token: u64,
    op_start: Instant,
    done: Completion,
    pub batch_add_bytes: Latencies,
    pub get_response_bytes: Latencies,
}

impl Inline {
    pub fn new(codec: bool, traced: bool, seal_times: Vec<u64>) -> Inline {
        let cloud_ident = Identity::derive("cloud", 1);
        let edge_ident = Identity::derive("edge", 100);
        let client_ident = Identity::derive("client", 1000);
        let mut registry = KeyRegistry::new();
        for ident in [&cloud_ident, &edge_ident, &client_ident] {
            registry.register(ident.id, ident.public()).expect("derived ids are distinct");
        }
        let lsm = LsmConfig::paper_eval();
        let pool_threads = wedge_pool::threads_from_env();
        let mut index = CloudIndex::new(lsm.clone());
        index.set_pool(wedge_pool::Pool::new(pool_threads));
        let init = index.init_edge(&cloud_ident, edge_ident.id, 0);
        let (cloud_id, edge_id) = (cloud_ident.id, edge_ident.id);
        let cost = CostModel::default();

        let cloud = CloudEngine::new(
            cloud_ident,
            registry.clone(),
            cost.clone(),
            index,
            HashMap::from([(EDGE_PEER, edge_id)]),
            None,
        );
        let tree = LsMerkle::new(edge_id, lsm, init);
        let mut edge = EdgeEngine::new(
            edge_ident,
            cloud_id,
            registry.clone(),
            cost.clone(),
            CryptoMode::Real,
            FaultPlan::default(),
            tree,
            vec![0u8],
        );
        edge.set_pool(wedge_pool::Pool::new(pool_threads));
        let seed = client_workload_seed(0, client_ident.id);
        let client = ClientEngine::new(
            client_ident,
            edge_id,
            cloud_id,
            registry,
            cost,
            CryptoMode::Real,
            ClientPlan::idle(),
            None,
            Duration::from_secs(30).as_nanos() as u64,
            seed,
        );

        Inline {
            client,
            edge,
            cloud,
            epoch: Instant::now(),
            queue: VecDeque::new(),
            codec,
            tracer: Tracer::new(traced),
            seal_times: seal_times.into(),
            next_token: 0,
            op_start: Instant::now(),
            done: Completion::default(),
            batch_add_bytes: Latencies::default(),
            get_response_bytes: Latencies::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `wire.encode`: frames `msg` and queues the bytes for `dest`.
    fn send(&mut self, dest: Dest, msg: WireMsg) {
        if !self.codec {
            self.queue.push_back((dest, InFlight::Value(msg)));
            return;
        }
        let span = self.tracer.begin("wire.encode");
        let mut frame = Vec::new();
        msg.append_frame_to(&mut frame).expect("protocol messages fit a frame");
        self.tracer.end(span);
        match msg {
            WireMsg::BatchAdd { .. } => self.batch_add_bytes.record_us(frame.len() as f64),
            WireMsg::GetResponse { .. } => self.get_response_bytes.record_us(frame.len() as f64),
            _ => {}
        }
        self.queue.push_back((dest, InFlight::Frame(frame)));
    }

    /// `wire.decode`: the exact inverse, at the receiving hop.
    fn decode(&mut self, message: InFlight) -> WireMsg {
        let frame = match message {
            InFlight::Frame(frame) => frame,
            InFlight::Value(msg) => return msg,
        };
        let span = self.tracer.begin("wire.decode");
        let msg = WireMsg::decode_frame(&frame).expect("a frame this driver just encoded");
        self.tracer.end(span);
        msg
    }

    fn run_client(&mut self, cmd: ClientCommand) {
        let now_ns = self.now_ns();
        for effect in self.client.handle(cmd, now_ns) {
            match effect {
                ClientEffect::SendEdge { msg, .. } => self.send(Dest::Edge, msg),
                ClientEffect::SendCloud { msg, .. } => self.send(Dest::Cloud, msg),
                ClientEffect::Notify(event) => self.notify(event),
                ClientEffect::UseCpu(_) => {}
            }
        }
    }

    fn notify(&mut self, event: ClientEvent) {
        match event {
            ClientEvent::Phase1 { receipt, .. } => {
                self.done.phase1_at = Some(self.op_start.elapsed());
                self.done.receipt_digest = Some(receipt.block_digest);
            }
            ClientEvent::Phase2 { proof } => self.done.proof = Some(proof),
            ClientEvent::ReadDone { outcome, .. } => self.done.read = Some(outcome),
            ClientEvent::Verdict(_) | ClientEvent::Halted | ClientEvent::BatchFailed { .. } => {}
        }
    }

    /// Delivers one framed message: a hop span covering decode, the
    /// engine call, and the encode of everything it sends.
    fn deliver(&mut self, dest: Dest, message: InFlight) {
        let hop = self.tracer.begin("hop");
        let msg = self.decode(message);
        match dest {
            Dest::Client => {
                self.tracer.rename(
                    hop,
                    match msg {
                        WireMsg::AddResponse { .. } => "client.receipt_verify",
                        WireMsg::BlockProofForward(_) => "client.proof_verify",
                        WireMsg::GetResponse { .. } => "client.get_verify",
                        _ => "client.other",
                    },
                );
                if let Some(cmd) = ClientCommand::from_wire(msg) {
                    self.run_client(cmd);
                }
            }
            Dest::Edge => {
                let is_batch = matches!(msg, WireMsg::BatchAdd { .. });
                self.tracer.rename(
                    hop,
                    match msg {
                        WireMsg::BatchAdd { .. } => "edge.batch_add",
                        WireMsg::BlockProofMsg(_) => "edge.proof_apply",
                        WireMsg::MergeRes(_) | WireMsg::MergeResDelta(_) => "edge.merge_apply",
                        WireMsg::Get { .. } => "edge.get",
                        _ => "edge.other",
                    },
                );
                // Scripted seal times make block digests reproducible.
                let scripted = if is_batch { self.seal_times.pop_front() } else { None };
                let now_ns = scripted.unwrap_or_else(|| self.now_ns());
                if let Some(cmd) = EdgeCommand::from_wire(0u8, msg) {
                    for effect in self.edge.handle(cmd, now_ns) {
                        match effect {
                            EdgeEffect::Send { msg, .. } => self.send(Dest::Client, msg),
                            EdgeEffect::SendCloud { msg, .. } => self.send(Dest::Cloud, msg),
                            EdgeEffect::UseCpu(_) | EdgeEffect::UseCpuBackground(_) => {}
                        }
                    }
                }
            }
            Dest::Cloud => {
                self.tracer.rename(
                    hop,
                    match msg {
                        WireMsg::BlockCertify { .. } => "cloud.certify",
                        WireMsg::MergeReq(_) | WireMsg::MergeReqDelta(_) => "cloud.merge",
                        _ => "cloud.other",
                    },
                );
                let now_ns = self.now_ns();
                if let Some(cmd) = CloudCommand::from_wire(EDGE_PEER, msg) {
                    for effect in self.cloud.handle(cmd, now_ns) {
                        match effect {
                            CloudEffect::Send { to: EDGE_PEER, msg, .. } => {
                                self.send(Dest::Edge, msg)
                            }
                            CloudEffect::Send { to: CLIENT_PEER, msg, .. } => {
                                self.send(Dest::Client, msg)
                            }
                            CloudEffect::Send { .. } | CloudEffect::UseCpu(_) => {}
                        }
                    }
                }
            }
        }
        self.tracer.end(hop);
    }

    /// Runs the queue dry: every message any handler sent, in order.
    fn pump(&mut self) {
        while let Some((dest, message)) = self.queue.pop_front() {
            self.deliver(dest, message);
        }
    }

    /// One put batch from submission through Phase I, Phase II and any
    /// merge it triggered.
    pub fn put_batch(&mut self, ops: Vec<(u64, Vec<u8>)>) -> InlinePut {
        let root = self.tracer.begin_op("op.put");
        self.op_start = Instant::now();
        self.done = Completion::default();
        let token = self.next_token;
        self.next_token += 1;
        let hop = self.tracer.begin("client.put_sign");
        self.run_client(ClientCommand::PutBatch { token, ops });
        self.tracer.end(hop);
        self.pump();
        self.tracer.end(root);
        let done = std::mem::take(&mut self.done);
        InlinePut {
            phase1: done.phase1_at,
            certified: done.proof.is_some_and(|p| Some(p.digest) == done.receipt_digest),
        }
    }

    /// One verified get.
    pub fn get(&mut self, key: u64) -> Option<GetOutcome> {
        let root = self.tracer.begin_op("op.get");
        self.op_start = Instant::now();
        self.done = Completion::default();
        let token = self.next_token;
        self.next_token += 1;
        let hop = self.tracer.begin("client.get_submit");
        self.run_client(ClientCommand::Get { token, key });
        self.tracer.end(hop);
        self.pump();
        self.tracer.end(root);
        self.done.read.take()
    }

    /// Digest of every block the edge sealed, in seal order.
    #[cfg(test)]
    pub fn block_digests(&self) -> Vec<Digest> {
        self.edge.log.iter().map(|sb| sb.block.digest()).collect()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.tracer.into_spans()
    }
}

/// What one replay of a workload's op stream measured.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Inline Phase I: op start → `Phase1`, per batch.
    pub put_p1: Latencies,
    /// Whole `op.put` (through Phase II and merges), per batch.
    pub put_total: Latencies,
    pub get: Latencies,
    pub ops: u64,
    pub failed: u64,
    pub batch_add_bytes_p50: f64,
    pub get_response_bytes_p50: f64,
}

/// How much of a workload one replay covers.
pub struct ReplayPlan {
    pub batch_size: usize,
    /// Keys `0..preload` are put before the stream starts.
    pub preload: u64,
    /// How many ops to draw from the stream (a partly filled batch
    /// runs on to its boundary, like the real callers).
    pub ops: u64,
    /// How many gets read written keys back afterwards, as the real
    /// runs of put-only workloads do.
    pub readback: u64,
    /// Frame every message (`true`: what TCP does) or hand it over as
    /// a value (`false`: what channels and the simulator do).
    pub codec: bool,
    pub traced: bool,
}

/// A replay in progress: the driver, what it has written, and the
/// batch being filled.
struct Replayer {
    driver: Inline,
    shadow: Shadow,
    batch: Vec<(u64, Vec<u8>)>,
    batch_size: usize,
    out: Replay,
}

impl Replayer {
    /// Buffers one put; a full batch is submitted.
    fn put(&mut self, key: u64, seq: u64) {
        self.shadow.record_put(key, seq);
        self.batch.push((key, value_for(key, seq)));
        if self.batch.len() >= self.batch_size {
            self.flush();
        }
    }

    /// Submits whatever the batch holds.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let n = self.batch.len() as u64;
        let start = Instant::now();
        let put = self.driver.put_batch(std::mem::take(&mut self.batch));
        self.out.put_total.record(start.elapsed());
        self.out.ops += n;
        match put.phase1 {
            Some(p1) if put.certified => self.out.put_p1.record(p1),
            _ => self.out.failed += n,
        }
    }

    fn get(&mut self, key: u64) {
        let start = Instant::now();
        let outcome = self.driver.get(key);
        self.out.get.record(start.elapsed());
        self.out.ops += 1;
        let ok = outcome.is_some_and(|o| {
            o.verify_error.is_none() && self.shadow.matches(key, o.value.as_deref())
        });
        if !ok {
            self.out.failed += 1;
        }
    }
}

/// Replays `ops` under `plan`, checking every outcome as the real
/// runs do.
pub fn replay(ops: impl Iterator<Item = Op>, plan: &ReplayPlan) -> Replay {
    let mut r = Replayer {
        driver: Inline::new(plan.codec, plan.traced, Vec::new()),
        shadow: Shadow::default(),
        batch: Vec::with_capacity(plan.batch_size),
        batch_size: plan.batch_size,
        out: Replay {
            spans: Vec::new(),
            put_p1: Latencies::default(),
            put_total: Latencies::default(),
            get: Latencies::default(),
            ops: 0,
            failed: 0,
            batch_add_bytes_p50: 0.0,
            get_response_bytes_p50: 0.0,
        },
    };
    for key in 0..plan.preload {
        r.put(key, u64::MAX / 2 + key);
    }
    r.flush();
    for (i, op) in ops.enumerate() {
        if i as u64 >= plan.ops && r.batch.is_empty() {
            break;
        }
        match op {
            Op::Put { key, seq } => r.put(key, seq),
            Op::Get { key } => r.get(key),
        }
    }
    r.flush();
    let written: Vec<u64> = r.shadow.keys().to_vec();
    for &key in written.iter().cycle().take(plan.readback as usize) {
        r.get(key);
    }
    let Replayer { driver, mut out, .. } = r;
    out.batch_add_bytes_p50 = driver.batch_add_bytes.quantile_us(0.5);
    out.get_response_bytes_p50 = driver.get_response_bytes.quantile_us(0.5);
    out.spans = driver.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{spec, threaded_block_digests, Spec};
    use crate::ops::{Keys, Mix, OpGen};
    use crate::spans::{is_root, self_times_ns};

    /// The whole (finite) stream, no read-back.
    fn plan(batch_size: usize, preload: u64, traced: bool) -> ReplayPlan {
        ReplayPlan { batch_size, preload, ops: u64::MAX, readback: 0, codec: true, traced }
    }

    /// Phase I, Phase II and gets complete with verified outcomes, and
    /// the spans form one tree per operation.
    #[test]
    fn inline_ops_complete_verified_and_every_span_hangs_off_its_operation() {
        let ops = OpGen::new(9, 0, 1, Keys::Zipf(40), Mix::Alternate).take(60);
        let r = replay(ops, &plan(1, 0, true));
        assert_eq!((r.ops, r.failed), (60, 0));
        assert_eq!((r.put_p1.count(), r.get.count()), (30, 30));
        assert!(r.batch_add_bytes_p50 > 100.0 && r.get_response_bytes_p50 > 100.0);
        for span in &r.spans {
            match span.parent {
                None => assert!(is_root(span.name), "{} has no parent", span.name),
                Some(p) => {
                    let parent = &r.spans[p as usize];
                    assert_eq!(parent.op_id, span.op_id, "{} crosses operations", span.name);
                    assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                }
            }
        }
        let names: std::collections::BTreeSet<&str> = r.spans.iter().map(|s| s.name).collect();
        for expected in [
            "op.put",
            "op.get",
            "client.put_sign",
            "edge.batch_add",
            "client.receipt_verify",
            "cloud.certify",
            "edge.proof_apply",
            "client.proof_verify",
            "cloud.merge",
            "edge.merge_apply",
            "client.get_submit",
            "edge.get",
            "client.get_verify",
            "wire.encode",
            "wire.decode",
        ] {
            assert!(names.contains(expected), "no {expected} span in {names:?}");
        }
        assert!(!names.iter().any(|n| n.ends_with(".other") || *n == "hop"), "{names:?}");
        let own = self_times_ns(&r.spans);
        let roots: u64 = r.spans.iter().filter(|s| is_root(s.name)).map(Span::duration_ns).sum();
        assert_eq!(own.iter().sum::<u64>(), roots, "self times partition the roots exactly");
    }

    /// The inline driver is the same protocol as the threaded runtime:
    /// with the same scripted seal times, the same ops seal the same
    /// blocks, digest for digest.
    #[test]
    fn inline_block_digests_equal_a_threaded_run_of_the_same_ops() {
        let spec = Spec { batch_size: 3, ..spec("put_b1").unwrap() };
        let ops: Vec<Op> =
            OpGen::new(4, 0, 1, Keys::Uniform(1_000), Mix::PutOnly).take(36).collect();
        let seal_times: Vec<u64> = (1..=12).map(|i| i * 1_000_000).collect();

        let mut driver = Inline::new(true, false, seal_times.clone());
        for chunk in ops.chunks(3) {
            let batch = chunk
                .iter()
                .map(|op| match *op {
                    Op::Put { key, seq } => (key, value_for(key, seq)),
                    Op::Get { .. } => unreachable!("put-only stream"),
                })
                .collect();
            let put = driver.put_batch(batch);
            assert!(put.phase1.is_some() && put.certified);
        }
        let inline = driver.block_digests();
        assert_eq!(inline.len(), 12);
        assert_eq!(inline, threaded_block_digests(&spec, &ops, seal_times));
    }

    #[test]
    fn untraced_replay_records_no_spans_but_the_same_outcomes() {
        let ops = || OpGen::new(2, 0, 1, Keys::Uniform(100), Mix::PutOnly).take(20);
        let (on, off) = (replay(ops(), &plan(10, 5, true)), replay(ops(), &plan(10, 5, false)));
        assert!(off.spans.is_empty() && !on.spans.is_empty());
        assert_eq!((on.ops, on.failed, off.ops, off.failed), (25, 0, 25, 0));
        assert_eq!(on.put_p1.count(), 3, "a partial preload batch, then two full ones");
        assert_eq!(on.get.count(), 0, "no read-back asked for");

        let back = ReplayPlan { ops: 12, readback: 30, ..plan(10, 5, false) };
        let read = replay(ops(), &back);
        assert_eq!(
            (read.ops, read.failed),
            (5 + 20 + 30, 0),
            "12 ops run on to the batch boundary"
        );
        assert_eq!(read.get.count(), 30, "a put-only stream is read back");
    }
}
