//! The (authenticated) client protocol engine — sans-IO.
//!
//! Clients drive the workload and are the protocol's *verifiers*: they
//! check Phase-I receipts, compare Phase-II proofs against what the
//! edge promised, verify read proofs end-to-end (with the repeat-read
//! [`ReadProofCache`]), track gossip watermarks, and file disputes
//! when the edge fails to deliver in time. All latency metrics the
//! figures report are recorded here.
//!
//! Like [`super::EdgeEngine`] and [`super::CloudEngine`], the client
//! engine owns its clock: dispute timeouts and Phase-I read audits are
//! "earliest deadline" state exposed through
//! [`ClientEngine::next_deadline_ns`], and every runtime drives them
//! identically — deliver messages, call
//! `handle(ClientCommand::Tick, now)` once `now` reaches the deadline.
//! The simulator wraps this engine in [`crate::node::ClientNode`];
//! the threaded runtime runs it on a service thread with
//! `recv_timeout`.

use crate::config::CryptoMode;
use crate::cost::CostModel;
use crate::messages::{AddReceipt, Dispute, DisputeVerdict, Msg, ReadReceipt, WireMsg};
use crate::metrics::ClientMetrics;
use std::collections::HashMap;
use std::sync::Arc;
use wedge_crypto::{Identity, IdentityId, KeyRegistry, Signature};
use wedge_log::{
    Block, BlockId, BlockProof, CommitPhase, Entry, GossipWatermark, WatermarkTracker,
};
use wedge_lsmerkle::{
    verify_read_proof_cached, IndexReadProof, Key, KvOp, ProofError, ReadProofCache,
};
use wedge_sim::{SimDuration, SimRng, SimTime};
use wedge_workload::{KeyDist, KeySampler};

/// A client's workload plan.
#[derive(Clone, Debug)]
pub struct ClientPlan {
    /// Number of write batches to issue.
    pub write_batches: u64,
    /// Number of interactive reads to issue.
    pub reads: u64,
    /// Operations per write batch.
    pub batch_size: usize,
    /// Value bytes per operation.
    pub value_size: usize,
    /// Key distribution.
    pub key_dist: KeyDist,
    /// Key space.
    pub key_space: u64,
    /// Outstanding interactive reads.
    pub read_pipeline: usize,
    /// Interleave reads between batches (the Fig 5b mixed mode);
    /// otherwise writes complete before reads start.
    pub interleave: bool,
    /// Encode operations as KV puts (exercises LSMerkle); `false`
    /// writes raw log entries (the Fig 6 logging workload).
    pub kv: bool,
}

impl ClientPlan {
    /// An idle plan (for harness-driven single operations).
    pub fn idle() -> Self {
        ClientPlan {
            write_batches: 0,
            reads: 0,
            batch_size: 1,
            value_size: 100,
            key_dist: KeyDist::Uniform,
            key_space: 100_000,
            read_pipeline: 1,
            interleave: false,
            kv: true,
        }
    }

    /// A pure batch-writer plan.
    pub fn writer(batches: u64, batch_size: usize, value_size: usize, key_space: u64) -> Self {
        ClientPlan {
            write_batches: batches,
            batch_size,
            value_size,
            key_space,
            ..ClientPlan::idle()
        }
    }

    /// A pure interactive-reader plan.
    pub fn reader(reads: u64, pipeline: usize, key_space: u64) -> Self {
        ClientPlan { reads, read_pipeline: pipeline.max(1), key_space, ..ClientPlan::idle() }
    }
}

/// What a client issues next, as decided by [`PlanProgress::next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// Issue this many write batches.
    Batches(u64),
    /// Issue this many interactive reads.
    Reads(u64),
    /// Nothing to issue until something in flight completes.
    Wait,
    /// Every planned operation was issued and nothing is in flight.
    Finished,
}

/// A client's progress through its [`ClientPlan`], and the one policy
/// that turns the plan into batches and reads. The WedgeChain client
/// and both baseline clients run it, so every figure compares the
/// three systems under the same workload.
///
/// The order: a read burst armed by the last acked batch (under
/// `interleave`) runs first and holds batches back until it has issued
/// its reads or the read budget runs out; then batches fill the free
/// batch slots; once every batch is acked, the remaining reads fill
/// the read pipeline; the plan is finished when nothing is in flight.
#[derive(Clone, Debug, Default)]
pub struct PlanProgress {
    batches_done: u64,
    reads_issued: u64,
    burst_remaining: u64,
}

impl PlanProgress {
    /// Counts one acked batch and, under `interleave`, arms a read
    /// burst of one batch's worth of reads. Returns the batches acked
    /// so far.
    pub fn batch_done(&mut self, plan: &ClientPlan) -> u64 {
        self.batches_done += 1;
        if plan.interleave {
            self.burst_remaining = plan.batch_size as u64;
        }
        self.batches_done
    }

    /// What to issue now, given what is in flight; `batch_slots` is
    /// how many batches may be in flight at once. The reads it hands
    /// out count as issued.
    pub fn next(
        &mut self,
        plan: &ClientPlan,
        batches_in_flight: usize,
        batch_slots: usize,
        reads_in_flight: usize,
    ) -> PlanStep {
        let batches_left = plan.write_batches.saturating_sub(self.batches_done);
        let reads_left = plan.reads.saturating_sub(self.reads_issued);
        let read_room = plan.read_pipeline.saturating_sub(reads_in_flight) as u64;
        if plan.interleave && self.burst_remaining > 0 {
            if reads_left == 0 {
                self.burst_remaining = 0; // read budget exhausted
            }
            let n = read_room.min(self.burst_remaining).min(reads_left);
            if n > 0 {
                self.reads_issued += n;
                self.burst_remaining -= n;
                return PlanStep::Reads(n);
            }
            if reads_in_flight > 0 || self.burst_remaining > 0 {
                return PlanStep::Wait;
            }
        }
        let step = if batches_left > 0 {
            // In-flight batches count as issued.
            let free = batch_slots.saturating_sub(batches_in_flight) as u64;
            PlanStep::Batches(free.min(batches_left.saturating_sub(batches_in_flight as u64)))
        } else if reads_left > 0 {
            let n = read_room.min(reads_left);
            self.reads_issued += n;
            PlanStep::Reads(n)
        } else if batches_in_flight == 0
            && reads_in_flight == 0
            && (plan.write_batches > 0 || plan.reads > 0)
        {
            PlanStep::Finished
        } else {
            PlanStep::Wait
        };
        match step {
            PlanStep::Batches(0) | PlanStep::Reads(0) => PlanStep::Wait,
            step => step,
        }
    }
}

/// Outcome of a harness-driven single put.
#[derive(Clone, Debug)]
pub struct PutOutcome {
    /// The block the put landed in.
    pub bid: BlockId,
    /// Phase-I commit latency.
    pub phase1_latency: SimDuration,
    /// Phase-II commit latency (None until certified).
    pub phase2_latency: Option<SimDuration>,
}

/// Outcome of a harness-driven single get.
#[derive(Clone, Debug)]
pub struct GetOutcome {
    /// The verified value (`None` = absent/deleted).
    pub value: Option<Vec<u8>>,
    /// End-to-end latency including verification.
    pub latency: SimDuration,
    /// Phase of the read (Phase I if any L0 page was uncertified).
    pub phase: CommitPhase,
    /// Set when verification failed (edge caught lying).
    pub verify_error: Option<ProofError>,
}

/// A typed command for the client engine: every input the protocol
/// reacts to, whichever transport delivered it. `token` fields are
/// opaque driver handles echoed back in [`ClientEvent`]s so a runtime
/// can correlate completions with callers (the simulator passes 0).
#[derive(Debug)]
pub enum ClientCommand {
    /// Start the plan-driven workload.
    Start,
    /// Submit one batch of KV puts (harness/driver-initiated).
    PutBatch {
        /// Driver correlation handle, echoed in [`ClientEvent::Phase1`].
        token: u64,
        /// The operations, sealed into a single block by the edge.
        ops: Vec<(Key, Vec<u8>)>,
    },
    /// Issue one verified get (harness/driver-initiated).
    Get {
        /// Driver correlation handle, echoed in
        /// [`ClientEvent::ReadDone`].
        token: u64,
        /// The key.
        key: Key,
    },
    /// Issue a log read by block id (the audit path).
    LogRead {
        /// The block to audit.
        bid: BlockId,
    },
    /// The edge's Phase-I receipt.
    AddResponse(AddReceipt),
    /// A Phase-II proof forwarded by the edge (or re-sent by the cloud
    /// after a dismissed dispute).
    BlockProof(BlockProof),
    /// The edge's reply to a get.
    GetResponse {
        /// Echoed request id.
        req_id: u64,
        /// The proof material.
        proof: Box<IndexReadProof>,
    },
    /// A gossip watermark (direct or forwarded through the edge).
    Gossip(GossipWatermark),
    /// The edge's reply to a log read.
    LogReadResponse {
        /// Signed statement of what was served.
        receipt: ReadReceipt,
        /// The block, if available.
        block: Option<Block>,
        /// The cloud proof, if already certified.
        proof: Option<BlockProof>,
    },
    /// The cloud's ruling on a dispute this client filed.
    Verdict(DisputeVerdict),
    /// Time passed: the runtime observed `now >=`
    /// [`ClientEngine::next_deadline_ns`]. The engine files disputes
    /// for overdue certifications and unaudited Phase-I log reads —
    /// ticking early is a no-op.
    Tick,
}

impl ClientCommand {
    /// Maps a driver-level message (harness control or wire protocol)
    /// to a command. Returns `None` for messages the client does not
    /// handle.
    pub fn from_msg(msg: Msg) -> Option<Self> {
        Some(match msg {
            Msg::Start => ClientCommand::Start,
            Msg::DoPut { ops } => ClientCommand::PutBatch { token: 0, ops },
            Msg::DoGet { key } => ClientCommand::Get { token: 0, key },
            Msg::DoLogRead { bid } => ClientCommand::LogRead { bid },
            Msg::Wire(w) => return Self::from_wire(w),
        })
    }

    /// Maps a protocol message arriving at the client to a command.
    /// Returns `None` for messages the client does not handle.
    pub fn from_wire(msg: WireMsg) -> Option<Self> {
        Some(match msg {
            WireMsg::AddResponse { receipt } => ClientCommand::AddResponse(receipt),
            WireMsg::BlockProofForward(proof) => ClientCommand::BlockProof(proof),
            WireMsg::GetResponse { req_id, proof } => ClientCommand::GetResponse { req_id, proof },
            WireMsg::GossipForward(wm) | WireMsg::Gossip(wm) => ClientCommand::Gossip(wm),
            WireMsg::LogReadResponse { receipt, block, proof } => {
                ClientCommand::LogReadResponse { receipt, block, proof }
            }
            WireMsg::VerdictMsg(verdict) => ClientCommand::Verdict(verdict),
            _ => return None,
        })
    }
}

/// A typed effect emitted by the client engine. Apply in order: CPU
/// effects time-shift the sends that follow them. A client talks to
/// exactly two peers — its partition's edge and the cloud — so the
/// effects name them instead of carrying a generic handle.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // `WireMsg` dwarfs the rest; effects are short-lived
pub enum ClientEffect {
    /// Foreground CPU consumed (verification work).
    UseCpu(SimDuration),
    /// A message to the partition's edge node.
    SendEdge {
        /// The message.
        msg: WireMsg,
        /// Wire size for the bandwidth model.
        wire: u64,
    },
    /// A message to the cloud (disputes).
    SendCloud {
        /// The message.
        msg: WireMsg,
        /// Wire size for the bandwidth model.
        wire: u64,
    },
    /// A protocol milestone for the driver (completion routing in the
    /// threaded runtime; ignorable in the simulator, where harnesses
    /// read engine state directly).
    Notify(ClientEvent),
}

/// Milestones surfaced to drivers via [`ClientEffect::Notify`].
#[derive(Debug)]
pub enum ClientEvent {
    /// A batch Phase-I committed: the signed receipt is in hand.
    Phase1 {
        /// The `token` of the originating [`ClientCommand::PutBatch`].
        token: u64,
        /// The edge's signed promise.
        receipt: AddReceipt,
    },
    /// A pending block Phase-II committed (proof matched the receipt).
    Phase2 {
        /// The cloud's certification.
        proof: BlockProof,
    },
    /// A verified get completed (after any stale retries).
    ReadDone {
        /// The `token` of the originating [`ClientCommand::Get`].
        token: u64,
        /// The verified outcome.
        outcome: GetOutcome,
    },
    /// The cloud ruled on a dispute this client filed.
    Verdict(DisputeVerdict),
    /// The edge was punished; the workload halted.
    Halted,
    /// A submitted batch drew no Phase-I receipt within the dispute
    /// timeout: the edge rejected it or went unresponsive. The batch
    /// slot is free again; the driver should fail the caller rather
    /// than wait forever.
    BatchFailed {
        /// The `token` of the originating [`ClientCommand::PutBatch`].
        token: u64,
    },
}

struct OutstandingBatch {
    req_id: u64,
    sent_ns: u64,
    ops: u64,
    token: u64,
    /// Give-up deadline: an edge that never answers Phase I must not
    /// wedge the put pipeline (it rides the dispute timeout — there is
    /// no receipt to dispute with, only a caller to unblock).
    deadline_ns: u64,
}

struct OutstandingRead {
    key: Key,
    sent_ns: u64,
    retries: u32,
    token: u64,
}

struct PendingAdd {
    receipt: AddReceipt,
    sent_ns: u64,
    ops: u64,
    /// Dispute deadline; `None` once the dispute fired (at most one
    /// dispute per receipt — the cloud's answer settles it).
    deadline_ns: Option<u64>,
}

struct PendingLogRead {
    receipt: ReadReceipt,
    deadline_ns: u64,
}

/// The client protocol state machine (sans-IO).
pub struct ClientEngine {
    identity: Identity,
    edge_identity: IdentityId,
    cloud_identity: IdentityId,
    registry: KeyRegistry,
    cost: CostModel,
    crypto_mode: CryptoMode,
    plan: ClientPlan,
    sampler: KeySampler,
    /// Engine-owned workload randomness: the key stream depends only
    /// on the seed and the plan, never on the driver.
    rng: SimRng,
    freshness_window_ns: Option<u64>,
    dispute_timeout_ns: u64,
    /// Repeat-read fast path for proof verification, and the memo of
    /// every cloud block-proof this client verified (at Phase II, on
    /// reads and on audits), so each proof's signature is checked once.
    /// Behind a shared handle so every client of one process can reuse
    /// one cache ([`ClientEngine::share_proof_cache`]): a page or proof
    /// verified for one client is verified for all of them — the trust
    /// rule is content equality, not who asked. Engines default to a
    /// private cache.
    proof_cache: Arc<ReadProofCache>,
    /// CPU charged so far within the current `handle` call; sends are
    /// stamped at `now + elapsed` so measured latencies start when the
    /// message actually departs (after verification work), exactly as
    /// the simulator's CPU model delivers it.
    elapsed_ns: u64,
    /// How many put batches may be in flight at once (receipts
    /// correlate by `req_id`, so the engine supports any depth; the
    /// default of 1 preserves the strictly-serialized behaviour the
    /// simulator baselines were calibrated against).
    pipeline_depth: usize,
    /// Worker pool a batch's entry signatures fan out over (inline by
    /// default: everything stays on the caller thread).
    pool: wedge_pool::Pool,
    // --- progress ---
    next_req: u64,
    next_seq: u64,
    progress: PlanProgress,
    reads_finished: u64,
    outstanding_batches: HashMap<u64, OutstandingBatch>,
    outstanding_reads: HashMap<u64, OutstandingRead>,
    pending_p2: HashMap<BlockId, PendingAdd>,
    /// Phase-I log reads awaiting audit.
    pending_log_reads: HashMap<BlockId, PendingLogRead>,
    /// Gossip watermark tracker (omission detection).
    pub watermarks: WatermarkTracker,
    /// Everything measured.
    pub metrics: ClientMetrics,
    /// Every dispute verdict the cloud sent this client, in arrival
    /// order.
    pub verdicts: Vec<DisputeVerdict>,
    /// Set once the edge is known punished; workload stops.
    pub halted: bool,
    /// Harness-driven single-op results.
    pub last_put: Option<PutOutcome>,
    last_put_bid: Option<BlockId>,
    /// Harness-driven single-get result.
    pub last_get: Option<GetOutcome>,
}

impl ClientEngine {
    /// Creates a client engine bound to its partition's edge node.
    /// `workload_seed` determines the plan-driven key stream.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        identity: Identity,
        edge_identity: IdentityId,
        cloud_identity: IdentityId,
        registry: KeyRegistry,
        cost: CostModel,
        crypto_mode: CryptoMode,
        plan: ClientPlan,
        freshness_window_ns: Option<u64>,
        dispute_timeout_ns: u64,
        workload_seed: u64,
    ) -> Self {
        let sampler = KeySampler::new(plan.key_dist.clone(), plan.key_space);
        ClientEngine {
            identity,
            edge_identity,
            cloud_identity,
            registry,
            cost,
            crypto_mode,
            plan,
            sampler,
            rng: SimRng::new(workload_seed),
            freshness_window_ns,
            dispute_timeout_ns,
            proof_cache: Arc::new(ReadProofCache::default()),
            elapsed_ns: 0,
            pipeline_depth: 1,
            pool: wedge_pool::Pool::default(),
            next_req: 0,
            next_seq: 0,
            progress: PlanProgress::default(),
            reads_finished: 0,
            outstanding_batches: HashMap::new(),
            outstanding_reads: HashMap::new(),
            pending_p2: HashMap::new(),
            pending_log_reads: HashMap::new(),
            watermarks: WatermarkTracker::new(),
            metrics: ClientMetrics::default(),
            verdicts: Vec::new(),
            halted: false,
            last_put: None,
            last_put_bid: None,
            last_get: None,
        }
    }

    /// This client's identity id.
    pub fn id(&self) -> IdentityId {
        self.identity.id
    }

    /// Earliest absolute time (ns) at which this engine has time-driven
    /// work: the soonest dispute timeout, Phase-I read-audit deadline,
    /// or outstanding-batch give-up. The driver's contract: call
    /// `handle(ClientCommand::Tick, now)` once `now >=
    /// next_deadline_ns()`; never schedule disputes itself.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        let p2 = self.pending_p2.values().filter_map(|p| p.deadline_ns).min();
        let lr = self.pending_log_reads.values().map(|p| p.deadline_ns).min();
        let batch = self.outstanding_batches.values().map(|b| b.deadline_ns).min();
        [p2, lr, batch].into_iter().flatten().min()
    }

    /// Replaces this engine's private proof cache with a shared one.
    /// Runtimes hosting several clients in one process
    /// ([`crate::threaded::ThreadedCluster`], `wedge-net`) hand every
    /// client the same handle, so a witness verified by any client
    /// skips re-derivation for all of them. Call before the workload
    /// starts — swapping drops the private cache's contents.
    pub fn share_proof_cache(&mut self, cache: Arc<ReadProofCache>) {
        self.proof_cache = cache;
    }

    /// The engine's proof-cache handle (shared or private) — for
    /// reading hit/miss counters at report time.
    pub fn proof_cache(&self) -> &Arc<ReadProofCache> {
        &self.proof_cache
    }

    /// Sets how many put batches may be outstanding at once (clamped
    /// to ≥ 1). Receipts correlate by `req_id`, so any depth is safe;
    /// deeper pipelines overlap Phase-I round trips instead of
    /// serializing them.
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.pipeline_depth = depth.max(1);
    }

    /// Installs a worker pool: a batch's entry signatures fan out
    /// across its lanes. Entries are byte-identical for every pool
    /// size — sequence numbers are assigned before signing, and
    /// signature nonces are derived from the key and the message.
    pub fn set_pool(&mut self, pool: wedge_pool::Pool) {
        self.pool = pool;
    }

    /// True while any submitted batch awaits its Phase-I receipt.
    #[cfg(test)]
    fn has_outstanding_batch(&self) -> bool {
        !self.outstanding_batches.is_empty()
    }

    /// True while the engine has a free outstanding-batch slot —
    /// pipelining drivers ([`crate::threaded`], `wedge-net`) hand over
    /// queued batches whenever this holds.
    pub fn can_accept_batch(&self) -> bool {
        self.outstanding_batches.len() < self.pipeline_depth
    }

    /// Charges foreground CPU: emits the effect and advances the
    /// within-handler clock used to stamp subsequent sends.
    fn charge(&mut self, out: &mut Vec<ClientEffect>, d: SimDuration) {
        self.elapsed_ns += d.as_nanos();
        out.push(ClientEffect::UseCpu(d));
    }

    /// `now` plus the CPU this handler has consumed so far — when a
    /// send issued now actually leaves the node.
    fn now_with_cpu(&self, now_ns: u64) -> u64 {
        now_ns + self.elapsed_ns
    }

    /// Processes one command at time `now_ns`, returning the effects
    /// to apply in order.
    pub fn handle(&mut self, cmd: ClientCommand, now_ns: u64) -> Vec<ClientEffect> {
        self.elapsed_ns = 0;
        let mut out = Vec::new();
        match cmd {
            ClientCommand::Start => self.pump(&mut out, now_ns),
            ClientCommand::PutBatch { token, ops } => self.put_batch(&mut out, token, ops, now_ns),
            ClientCommand::Get { token, key } => {
                self.last_get = None;
                self.send_read(&mut out, Some(key), 0, token, now_ns);
            }
            ClientCommand::LogRead { bid } => {
                out.push(ClientEffect::SendEdge { msg: WireMsg::LogRead { bid }, wire: 16 });
            }
            ClientCommand::AddResponse(receipt) => {
                self.handle_add_response(&mut out, receipt, now_ns)
            }
            ClientCommand::BlockProof(proof) => self.handle_block_proof(&mut out, proof, now_ns),
            ClientCommand::GetResponse { req_id, proof } => {
                self.handle_get_response(&mut out, req_id, *proof, now_ns)
            }
            ClientCommand::Gossip(wm) => {
                if wm.verify(self.cloud_identity, &self.registry) {
                    self.watermarks.record(wm);
                }
            }
            ClientCommand::LogReadResponse { receipt, block, proof } => {
                self.handle_log_read_response(&mut out, receipt, block, proof, now_ns)
            }
            ClientCommand::Verdict(verdict) => self.handle_verdict(&mut out, verdict, now_ns),
            ClientCommand::Tick => self.tick(&mut out, now_ns),
        }
        out
    }

    /// Makes `payloads` this client's next entries, in order. The
    /// sequence numbers are reserved up front, so the pool's lanes may
    /// sign in any order; `CryptoMode::Modeled` leaves them unsigned.
    fn make_entries(&mut self, payloads: Vec<Vec<u8>>) -> Vec<Entry> {
        let first = self.next_seq;
        self.next_seq += payloads.len() as u64;
        let client = self.identity.id;
        let mut entries: Vec<Entry> = (first..)
            .zip(payloads)
            .map(|(sequence, payload)| Entry {
                client,
                sequence,
                payload,
                signature: Signature { e: 0, s: 0 },
            })
            .collect();
        if self.crypto_mode == CryptoMode::Real {
            let identity = &self.identity;
            let signatures = self.pool.map(&entries, |e| identity.sign(&e.signing_bytes()));
            for (entry, signature) in entries.iter_mut().zip(signatures) {
                entry.signature = signature;
            }
        }
        entries
    }

    fn put_batch(
        &mut self,
        out: &mut Vec<ClientEffect>,
        token: u64,
        ops: Vec<(Key, Vec<u8>)>,
        now_ns: u64,
    ) {
        // Harness-driven single-op bookkeeping (the DoPut path).
        self.last_put = None;
        self.last_put_bid = None;
        let payloads = ops.into_iter().map(|(key, value)| KvOp::put(key, value).encode()).collect();
        self.send_entries(out, token, payloads, now_ns);
    }

    fn send_batch(&mut self, out: &mut Vec<ClientEffect>, now_ns: u64) {
        let mut payloads = Vec::with_capacity(self.plan.batch_size);
        for _ in 0..self.plan.batch_size {
            let key = self.sampler.sample(&mut self.rng);
            payloads.push(if self.plan.kv {
                KvOp::put(key, vec![0xAB; self.plan.value_size]).encode()
            } else {
                let mut raw = vec![0xCD; self.plan.value_size];
                raw.extend_from_slice(&key.to_be_bytes());
                raw
            });
        }
        self.send_entries(out, 0, payloads, now_ns);
    }

    /// Signs `payloads` as this client's next entries and sends them to
    /// the edge as one `BatchAdd`, outstanding until its receipt.
    fn send_entries(
        &mut self,
        out: &mut Vec<ClientEffect>,
        token: u64,
        payloads: Vec<Vec<u8>>,
        now_ns: u64,
    ) {
        let ops = payloads.len() as u64;
        let entries = self.make_entries(payloads);
        let req_id = self.next_req;
        self.next_req += 1;
        let msg = WireMsg::BatchAdd { req_id, entries };
        let wire = msg.wire_size();
        let sent_ns = self.now_with_cpu(now_ns);
        let deadline_ns = now_ns + self.dispute_timeout_ns;
        let batch = OutstandingBatch { req_id, sent_ns, ops, token, deadline_ns };
        self.outstanding_batches.insert(req_id, batch);
        out.push(ClientEffect::SendEdge { msg, wire });
    }

    fn send_read(
        &mut self,
        out: &mut Vec<ClientEffect>,
        key: Option<Key>,
        retries: u32,
        token: u64,
        now_ns: u64,
    ) {
        let key = key.unwrap_or_else(|| self.sampler.sample(&mut self.rng));
        let req_id = self.next_req;
        self.next_req += 1;
        let sent_ns = self.now_with_cpu(now_ns);
        self.outstanding_reads.insert(req_id, OutstandingRead { key, sent_ns, retries, token });
        out.push(ClientEffect::SendEdge { msg: WireMsg::Get { req_id, key }, wire: 24 });
    }

    /// Advances the workload by one [`PlanProgress`] step, and
    /// records completion.
    fn pump(&mut self, out: &mut Vec<ClientEffect>, now_ns: u64) {
        if self.halted {
            return;
        }
        let step = self.progress.next(
            &self.plan,
            self.outstanding_batches.len(),
            self.pipeline_depth,
            self.outstanding_reads.len(),
        );
        match step {
            PlanStep::Batches(n) => (0..n).for_each(|_| self.send_batch(out, now_ns)),
            PlanStep::Reads(n) => (0..n).for_each(|_| self.send_read(out, None, 0, 0, now_ns)),
            PlanStep::Wait => {}
            PlanStep::Finished => {
                self.metrics.finished_at.get_or_insert(SimTime::from_nanos(now_ns));
            }
        }
    }

    fn handle_add_response(
        &mut self,
        out: &mut Vec<ClientEffect>,
        receipt: AddReceipt,
        now_ns: u64,
    ) {
        if self.crypto_mode == CryptoMode::Real && !receipt.verify(&self.registry) {
            return; // an unverifiable promise is no promise
        }
        self.charge(out, SimDuration::from_nanos(self.cost.verify_ns));
        // Receipts correlate by req_id; an unknown or duplicate
        // receipt matches nothing and is ignored.
        let Some(batch) = self.outstanding_batches.remove(&receipt.req_id) else {
            return;
        };
        // Phase I commit (Definition 1): we hold signed evidence.
        let latency = SimDuration::from_nanos(now_ns.saturating_sub(batch.sent_ns));
        self.metrics.p1_latency.record(latency.as_millis_f64());
        let batches_done = self.progress.batch_done(&self.plan);
        self.metrics.ops_p1 += batch.ops;
        self.metrics.p1_timeline.record(SimTime::from_nanos(now_ns), batches_done);
        if self.last_put_bid.is_none() && self.plan.write_batches == 0 {
            // Harness-driven single put.
            self.last_put_bid = Some(receipt.bid);
            self.last_put = Some(PutOutcome {
                bid: receipt.bid,
                phase1_latency: latency,
                phase2_latency: None,
            });
        }
        out.push(ClientEffect::Notify(ClientEvent::Phase1 {
            token: batch.token,
            receipt: receipt.clone(),
        }));
        self.pending_p2.insert(
            receipt.bid,
            PendingAdd {
                receipt,
                sent_ns: batch.sent_ns,
                ops: batch.ops,
                deadline_ns: Some(now_ns + self.dispute_timeout_ns),
            },
        );
        self.pump(out, now_ns);
    }

    fn handle_block_proof(&mut self, out: &mut Vec<ClientEffect>, proof: BlockProof, now_ns: u64) {
        let Some(pending) = self.pending_p2.remove(&proof.bid) else {
            return;
        };
        self.charge(out, SimDuration::from_nanos(self.cost.verify_ns));
        // A proof of the promised block goes through the proof cache,
        // so the gets that later ship it with the block's L0 page do
        // not check its signature again (§V-B). One of another digest
        // is checked but never admitted.
        let promised = proof.digest == pending.receipt.block_digest;
        let valid = if promised {
            self.proof_cache.check_block_proof(&proof, self.cloud_identity, &self.registry)
        } else {
            proof.verify(self.cloud_identity, &self.registry)
        };
        if !valid {
            // Forged proof: keep waiting (deadline still armed).
            self.pending_p2.insert(proof.bid, pending);
            return;
        }
        if !promised {
            // The cloud certified a different digest than the edge
            // promised us — the edge lied. Dispute with our receipt.
            self.metrics.disputes_filed += 1;
            let msg = WireMsg::DisputeMsg(Box::new(Dispute::MissingCertification {
                receipt: pending.receipt,
            }));
            out.push(ClientEffect::SendCloud { msg, wire: 256 });
            return;
        }
        // Phase II commit (Definition 2).
        let latency = SimDuration::from_nanos(now_ns.saturating_sub(pending.sent_ns));
        self.metrics.p2_latency.record(latency.as_millis_f64());
        self.metrics.ops_p2 += pending.ops;
        self.metrics.p2_timeline.record(
            SimTime::from_nanos(now_ns),
            self.metrics.ops_p2 / self.plan.batch_size.max(1) as u64,
        );
        if self.last_put_bid == Some(proof.bid) {
            if let Some(p) = self.last_put.as_mut() {
                p.phase2_latency = Some(latency);
            }
        }
        out.push(ClientEffect::Notify(ClientEvent::Phase2 { proof }));
    }

    fn handle_get_response(
        &mut self,
        out: &mut Vec<ClientEffect>,
        req_id: u64,
        proof: IndexReadProof,
        now_ns: u64,
    ) {
        let Some(read) = self.outstanding_reads.remove(&req_id) else {
            return;
        };
        self.charge(out, self.cost.verify_read());
        let result = verify_read_proof_cached(
            &proof,
            self.edge_identity,
            self.cloud_identity,
            &self.registry,
            now_ns,
            self.freshness_window_ns,
            &self.proof_cache,
        );
        let latency = SimDuration::from_nanos(now_ns.saturating_sub(read.sent_ns));
        match result {
            Ok(verified) => {
                self.metrics.read_latency.record(latency.as_millis_f64());
                self.metrics.reads_ok += 1;
                self.reads_finished += 1;
                let outcome = GetOutcome {
                    value: verified.value,
                    latency,
                    phase: verified.phase,
                    verify_error: None,
                };
                if self.plan.reads == 0 {
                    self.last_get = Some(outcome.clone());
                }
                out.push(ClientEffect::Notify(ClientEvent::ReadDone {
                    token: read.token,
                    outcome,
                }));
            }
            Err(ProofError::Stale { .. }) if read.retries < 3 => {
                // §V-D: retry a stale read.
                self.metrics.stale_rejected += 1;
                self.send_read(out, Some(read.key), read.retries + 1, read.token, now_ns);
                return;
            }
            Err(e) => {
                self.metrics.reads_rejected += 1;
                self.reads_finished += 1;
                let outcome = GetOutcome {
                    value: None,
                    latency,
                    phase: CommitPhase::Phase1,
                    verify_error: Some(e),
                };
                if self.plan.reads == 0 {
                    self.last_get = Some(outcome.clone());
                }
                out.push(ClientEffect::Notify(ClientEvent::ReadDone {
                    token: read.token,
                    outcome,
                }));
            }
        }
        self.pump(out, now_ns);
    }

    fn handle_log_read_response(
        &mut self,
        out: &mut Vec<ClientEffect>,
        receipt: ReadReceipt,
        block: Option<Block>,
        proof: Option<BlockProof>,
        now_ns: u64,
    ) {
        // Omission detection via watermark (§IV-E).
        if receipt.digest.is_none()
            && self.watermarks.detects_omission(self.edge_identity, receipt.bid.0)
        {
            // `detects_omission` implies a watermark was recorded; if
            // that invariant ever breaks, skip this dispute rather
            // than panic the partition mid-protocol.
            let Some(wm) = self.watermarks.latest(self.edge_identity).cloned() else { return };
            self.metrics.disputes_filed += 1;
            let msg = WireMsg::DisputeMsg(Box::new(Dispute::Omission { receipt, watermark: wm }));
            out.push(ClientEffect::SendCloud { msg, wire: 256 });
            return;
        }
        // Phase-II read: verify proof against block digest.
        if let (Some(block), Some(p)) = (&block, &proof) {
            let ok = p.bid == receipt.bid
                && p.digest == block.digest()
                && self.proof_cache.check_block_proof(p, self.cloud_identity, &self.registry);
            if !ok {
                // Served content contradicts certification.
                self.metrics.disputes_filed += 1;
                let msg = WireMsg::DisputeMsg(Box::new(Dispute::WrongRead { receipt }));
                out.push(ClientEffect::SendCloud { msg, wire: 256 });
            }
        } else if block.is_some() {
            // Phase-I read: hold the receipt; the audit deadline
            // escalates it to a dispute if certification never shows.
            self.pending_log_reads.insert(
                receipt.bid,
                PendingLogRead { receipt, deadline_ns: now_ns + self.dispute_timeout_ns },
            );
        }
    }

    fn handle_verdict(
        &mut self,
        out: &mut Vec<ClientEffect>,
        verdict: DisputeVerdict,
        now_ns: u64,
    ) {
        out.push(ClientEffect::Notify(ClientEvent::Verdict(verdict.clone())));
        if let DisputeVerdict::EdgePunished { .. } = verdict {
            self.metrics.disputes_upheld += 1;
            self.halted = true;
            out.push(ClientEffect::Notify(ClientEvent::Halted));
            self.metrics.finished_at.get_or_insert(SimTime::from_nanos(now_ns));
        }
        self.verdicts.push(verdict);
    }

    /// Acts on every expired deadline: gives up on a batch the edge
    /// never Phase-I-answered ([`ClientEvent::BatchFailed`]), files
    /// [`Dispute::MissingCertification`] for Phase-II commits that
    /// never arrived, and [`Dispute::WrongRead`] for Phase-I log reads
    /// whose audit window closed.
    fn tick(&mut self, out: &mut Vec<ClientEffect>, now_ns: u64) {
        let mut dead: Vec<u64> = self
            .outstanding_batches
            .values()
            .filter(|b| b.deadline_ns <= now_ns)
            .map(|b| b.req_id)
            .collect();
        dead.sort_unstable(); // deterministic failure order
        let any_dead = !dead.is_empty();
        for req_id in dead {
            // No receipt means no dispute evidence — all the engine
            // can do is free the slot so the workload (and a pipelining
            // driver) is not wedged behind a dead batch forever.
            let Some(batch) = self.outstanding_batches.remove(&req_id) else { continue };
            out.push(ClientEffect::Notify(ClientEvent::BatchFailed { token: batch.token }));
        }
        if any_dead {
            self.pump(out, now_ns);
        }
        let mut due: Vec<BlockId> = self
            .pending_p2
            .iter()
            .filter(|(_, p)| p.deadline_ns.is_some_and(|d| d <= now_ns))
            .map(|(bid, _)| *bid)
            .collect();
        due.sort_unstable(); // deterministic dispute order
        for bid in due {
            let Some(pending) = self.pending_p2.get_mut(&bid) else { continue };
            // Keep the receipt: if the verdict is Dismissed the cloud
            // re-sends the proof and Phase II can still complete (the
            // edge was lazy, not lying). The deadline is disarmed, so
            // no second dispute is possible.
            pending.deadline_ns = None;
            self.metrics.disputes_filed += 1;
            let msg = WireMsg::DisputeMsg(Box::new(Dispute::MissingCertification {
                receipt: pending.receipt.clone(),
            }));
            out.push(ClientEffect::SendCloud { msg, wire: 256 });
        }
        let mut due: Vec<BlockId> = self
            .pending_log_reads
            .iter()
            .filter(|(_, p)| p.deadline_ns <= now_ns)
            .map(|(bid, _)| *bid)
            .collect();
        due.sort_unstable();
        for bid in due {
            let Some(pending) = self.pending_log_reads.remove(&bid) else { continue };
            self.metrics.disputes_filed += 1;
            let msg =
                WireMsg::DisputeMsg(Box::new(Dispute::WrongRead { receipt: pending.receipt }));
            out.push(ClientEffect::SendCloud { msg, wire: 256 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ClientEngine {
        let cloud = Identity::derive("cloud", 1);
        let edge = Identity::derive("edge", 100);
        let client = Identity::derive("client", 1000);
        let mut registry = KeyRegistry::new();
        registry.register(cloud.id, cloud.public()).unwrap();
        registry.register(edge.id, edge.public()).unwrap();
        registry.register(client.id, client.public()).unwrap();
        ClientEngine::new(
            client,
            edge.id,
            cloud.id,
            registry,
            CostModel::default(),
            CryptoMode::Real,
            ClientPlan::idle(),
            None,
            1_000, // dispute timeout (ns) — drives every client deadline
            7,
        )
    }

    /// An edge-side tree holding one certified block for key 7, and
    /// the cloud's proof of that block.
    fn certified_tree() -> (wedge_lsmerkle::LsMerkle, BlockProof) {
        use wedge_lsmerkle::{kv_entry, CloudIndex, LsMerkle, LsmConfig};
        let cloud = Identity::derive("cloud", 1);
        let edge = Identity::derive("edge", 100);
        let client = Identity::derive("client", 1000);
        let mut index = CloudIndex::new(LsmConfig::exposition());
        let init = index.init_edge(&cloud, edge.id, 0);
        let mut tree = LsMerkle::new(edge.id, LsmConfig::exposition(), init);
        let entries = vec![kv_entry(&client, 0, &KvOp::put(7, b"v".to_vec()))];
        let block = Block { edge: edge.id, id: BlockId(0), entries, sealed_at_ns: 0 };
        let proof = BlockProof::issue(&cloud, edge.id, BlockId(0), block.digest());
        tree.apply_block(block);
        tree.attach_block_proof(proof.clone());
        (tree, proof)
    }

    /// Puts one batch and hands the engine the edge's receipt promising
    /// block 0 with `digest`: Phase I done, Phase II pending.
    fn await_phase2(eng: &mut ClientEngine, digest: wedge_crypto::Digest) {
        let edge = Identity::derive("edge", 100);
        eng.handle(ClientCommand::PutBatch { token: 0, ops: vec![(7, b"v".to_vec())] }, 100);
        let receipt = AddReceipt::issue(
            &edge,
            eng.id(),
            0,
            wedge_crypto::sha256(b"entries"),
            BlockId(0),
            digest,
        );
        eng.handle(ClientCommand::AddResponse(receipt), 200);
    }

    fn phase2_done(effects: &[ClientEffect]) -> bool {
        effects.iter().any(|e| matches!(e, ClientEffect::Notify(ClientEvent::Phase2 { .. })))
    }

    /// A genuine proof of a digest other than the promised one files
    /// the dispute and leaves the proof cache empty.
    #[test]
    fn verified_proof_of_another_digest_disputes_and_is_not_admitted() {
        let mut eng = engine();
        let (_, proof) = certified_tree();
        await_phase2(&mut eng, wedge_crypto::sha256(b"the promised block"));
        let effects = eng.handle(ClientCommand::BlockProof(proof), 300);
        assert!(
            effects.iter().any(|e| matches!(e, ClientEffect::SendCloud { .. })),
            "dispute filed: {effects:?}"
        );
        assert!(eng.proof_cache().is_empty(), "the proof was admitted");
    }

    /// Nothing negative is cached: after a forged proof, the genuine
    /// one is verified, completes Phase II and is admitted.
    #[test]
    fn genuine_proof_after_a_forged_one_is_verified_and_admitted() {
        let mut eng = engine();
        let (_, proof) = certified_tree();
        await_phase2(&mut eng, proof.digest);
        let mut forged = proof.clone();
        forged.signature.s ^= 1;
        assert!(!phase2_done(&eng.handle(ClientCommand::BlockProof(forged), 300)));
        assert!(eng.proof_cache().is_empty(), "the forged proof was admitted");
        assert!(phase2_done(&eng.handle(ClientCommand::BlockProof(proof), 400)));
        assert_eq!(eng.proof_cache().signature_checks(), 2, "genuine proof not verified");
        assert_eq!(eng.proof_cache().len(), 1, "genuine proof not admitted");
    }

    /// Phase II then a get of the same block: the get's L0 witness
    /// ships the proof the client already verified, and checks no
    /// signature for it.
    #[test]
    fn get_after_phase2_checks_no_block_proof_signature() {
        let mut eng = engine();
        let (tree, proof) = certified_tree();
        await_phase2(&mut eng, proof.digest);
        assert!(phase2_done(&eng.handle(ClientCommand::BlockProof(proof), 300)));
        let checks = eng.proof_cache().signature_checks();
        eng.handle(ClientCommand::Get { token: 0, key: 7 }, 400);
        let req_id = eng.next_req - 1;
        let proof = Box::new(wedge_lsmerkle::build_read_proof(&tree, 7));
        eng.handle(ClientCommand::GetResponse { req_id, proof }, 500);
        let get = eng.last_get.as_ref().expect("read completed");
        assert_eq!(get.verify_error, None);
        assert_eq!(get.phase, CommitPhase::Phase2);
        assert_eq!(eng.proof_cache().signature_checks(), checks, "the get re-verified the proof");
    }

    /// Pipelining: with depth N, N submitted batches all dispatch
    /// immediately (overlapping their Phase-I round trips instead of
    /// serializing), and receipts complete them by `req_id` in any
    /// arrival order.
    #[test]
    fn pipelined_batches_overlap_and_correlate_by_req_id() {
        let mut eng = engine();
        eng.set_pipeline_depth(3);
        let edge = Identity::derive("edge", 100);
        let mut sent = Vec::new();
        for token in 0..3u64 {
            let effects = eng.handle(
                ClientCommand::PutBatch { token, ops: vec![(token, vec![token as u8])] },
                100,
            );
            // Every batch goes on the wire at once: nothing waits for
            // an earlier receipt.
            let dispatched: Vec<u64> = effects
                .iter()
                .filter_map(|e| match e {
                    ClientEffect::SendEdge { msg: WireMsg::BatchAdd { req_id, .. }, .. } => {
                        Some(*req_id)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(dispatched, vec![token], "batch {token} dispatched immediately");
            sent.push(token);
        }
        assert!(eng.has_outstanding_batch());
        assert!(!eng.can_accept_batch(), "pipeline full at depth 3");

        // Receipts arrive out of order: 2, 0, 1. Each completes its
        // own batch (token == req_id here) — no head-of-line coupling.
        for (i, req_id) in [2u64, 0, 1].into_iter().enumerate() {
            let receipt = AddReceipt::issue(
                &edge,
                eng.id(),
                req_id,
                wedge_crypto::sha256(b"entries"),
                wedge_log::BlockId(req_id),
                wedge_crypto::sha256(&[req_id as u8]),
            );
            let effects = eng.handle(ClientCommand::AddResponse(receipt), 200 + i as u64);
            let done: Vec<u64> = effects
                .iter()
                .filter_map(|e| match e {
                    ClientEffect::Notify(ClientEvent::Phase1 { token, .. }) => Some(*token),
                    _ => None,
                })
                .collect();
            assert_eq!(done, vec![req_id], "receipt {req_id} completed its own batch");
        }
        assert!(!eng.has_outstanding_batch(), "all three completed");
        assert!(eng.can_accept_batch());
        assert_eq!(eng.metrics.ops_p1, 3);
    }

    /// The `BatchAdd`s a client on `pool` sends for two 100-op batches.
    fn two_batches(pool: wedge_pool::Pool) -> Vec<WireMsg> {
        let mut eng = engine();
        eng.set_pool(pool);
        eng.set_pipeline_depth(2);
        (0..2u64)
            .flat_map(|token| {
                let ops = (0..100).map(|k| (token * 100 + k, vec![k as u8; 16])).collect();
                eng.handle(ClientCommand::PutBatch { token, ops }, 100)
            })
            .filter_map(|e| match e {
                ClientEffect::SendEdge { msg: msg @ WireMsg::BatchAdd { .. }, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Pooled signing sends the bytes inline signing sends, each entry
    /// is the one `Entry::new_signed` makes, and the sequence numbers
    /// run on across batches.
    #[test]
    fn pooled_batch_signing_is_byte_identical_and_sequential() {
        let frames = |msgs: &[WireMsg]| msgs.iter().map(WireMsg::encode_frame).collect::<Vec<_>>();
        let pooled = two_batches(wedge_pool::Pool::new(4));
        assert_eq!(frames(&pooled), frames(&two_batches(wedge_pool::Pool::default())));
        let client = Identity::derive("client", 1000);
        let entries: Vec<&Entry> = pooled
            .iter()
            .flat_map(|m| match m {
                WireMsg::BatchAdd { entries, .. } => entries.iter(),
                _ => unreachable!("only batches were kept"),
            })
            .collect();
        for e in &entries {
            assert_eq!(**e, Entry::new_signed(&client, e.sequence, e.payload.clone()));
        }
        let sequences: Vec<u64> = entries.iter().map(|e| e.sequence).collect();
        assert_eq!(sequences, (0..200).collect::<Vec<u64>>());
    }

    /// `CryptoMode::Modeled` computes no signatures, pooled or not.
    #[test]
    fn modeled_batches_carry_no_signatures() {
        let mut eng = engine();
        eng.crypto_mode = CryptoMode::Modeled;
        eng.set_pool(wedge_pool::Pool::new(4));
        let ops = (0..100).map(|k| (k, vec![1])).collect();
        let effects = eng.handle(ClientCommand::PutBatch { token: 0, ops }, 100);
        let entries = effects
            .iter()
            .find_map(|e| match e {
                ClientEffect::SendEdge { msg: WireMsg::BatchAdd { entries, .. }, .. } => {
                    Some(entries)
                }
                _ => None,
            })
            .expect("batch dispatched");
        assert_eq!(entries.len(), 100);
        assert!(entries.iter().all(|e| e.signature == Signature { e: 0, s: 0 }));
    }

    /// Depth 1 (the default) preserves strict serialization: the
    /// engine accepts further batches only as receipts free the slot,
    /// which is what the sim-calibrated baselines assume.
    #[test]
    fn default_depth_keeps_single_slot() {
        let mut eng = engine();
        eng.handle(ClientCommand::PutBatch { token: 0, ops: vec![(1, b"v".to_vec())] }, 100);
        assert!(!eng.can_accept_batch(), "depth 1: slot taken");
    }

    /// An edge that never Phase-I-answers must not wedge the client:
    /// the outstanding-batch slot rides the dispute timeout, and its
    /// expiry surfaces as a `BatchFailed` event (there is no receipt,
    /// so no dispute is possible — only the caller to unblock).
    #[test]
    fn unanswered_batch_times_out_and_frees_the_slot() {
        let mut eng = engine();
        let effects =
            eng.handle(ClientCommand::PutBatch { token: 9, ops: vec![(1, b"v".to_vec())] }, 100);
        assert!(
            effects.iter().any(|e| matches!(e, ClientEffect::SendEdge { .. })),
            "batch dispatched"
        );
        assert!(eng.has_outstanding_batch());
        assert_eq!(eng.next_deadline_ns(), Some(1_100), "give-up deadline armed");

        // Early tick: nothing happens.
        assert!(eng.handle(ClientCommand::Tick, 500).is_empty());
        assert!(eng.has_outstanding_batch());

        // At the deadline: the slot frees and the driver is told.
        let effects = eng.handle(ClientCommand::Tick, 1_100);
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, ClientEffect::Notify(ClientEvent::BatchFailed { token: 9 }))),
            "driver notified of the dead batch: {effects:?}"
        );
        assert!(!eng.has_outstanding_batch(), "slot freed for the next batch");
        assert_eq!(eng.next_deadline_ns(), None);
        assert_eq!(eng.metrics.disputes_filed, 0, "no receipt, no dispute");
    }

    /// Satellite: one process-wide proof cache. The first client to
    /// verify a witness pays the full derivation; a second client
    /// handed the same proof answers its witness check from the shared
    /// cache — N clients reading the same hot keys verify once.
    #[test]
    fn shared_proof_cache_hits_across_clients() {
        use wedge_lsmerkle::build_read_proof;
        let (tree, _) = certified_tree();
        let cache = Arc::new(ReadProofCache::default());
        let run_get = |cache: &Arc<ReadProofCache>| {
            let mut eng = engine();
            eng.share_proof_cache(Arc::clone(cache));
            let effects = eng.handle(ClientCommand::Get { token: 0, key: 7 }, 100);
            let req_id = effects
                .iter()
                .find_map(|e| match e {
                    ClientEffect::SendEdge { msg: WireMsg::Get { req_id, .. }, .. } => {
                        Some(*req_id)
                    }
                    _ => None,
                })
                .expect("read dispatched");
            let proof = Box::new(build_read_proof(&tree, 7));
            let effects = eng.handle(ClientCommand::GetResponse { req_id, proof }, 200);
            let outcome = effects
                .iter()
                .find_map(|e| match e {
                    ClientEffect::Notify(ClientEvent::ReadDone { outcome, .. }) => Some(outcome),
                    _ => None,
                })
                .expect("read completed");
            assert_eq!(outcome.verify_error, None);
            assert_eq!(outcome.value.as_deref(), Some(b"v".as_ref()));
        };

        run_get(&cache);
        assert_eq!(cache.hits(), 0, "first verification derives everything");
        assert!(cache.misses() >= 1, "the miss populated the shared cache");
        run_get(&cache);
        assert!(cache.hits() >= 1, "second client answered its witness check from the cache");
    }

    // The plan policy: `next(plan, batches in flight, batch slots,
    // reads in flight)` stepped as a client would, answering work in
    // flight as each case dictates.

    #[test]
    fn plan_writes_then_fills_the_read_pipeline() {
        let plan =
            ClientPlan { write_batches: 2, reads: 4, read_pipeline: 3, ..ClientPlan::idle() };
        let mut p = PlanProgress::default();
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Batches(1));
        assert_eq!(p.next(&plan, 1, 1, 0), PlanStep::Wait, "the one slot is taken");
        assert_eq!(p.batch_done(&plan), 1);
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Batches(1));
        assert_eq!(p.batch_done(&plan), 2);
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Reads(3), "reads wait for every batch");
        assert_eq!(p.next(&plan, 0, 1, 3), PlanStep::Wait);
        assert_eq!(p.next(&plan, 0, 1, 2), PlanStep::Reads(1), "only one read is left");
        assert_eq!(p.next(&plan, 0, 1, 3), PlanStep::Wait);
        assert_eq!(p.next(&plan, 0, 1, 1), PlanStep::Wait, "a read is still in flight");
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Finished);
    }

    #[test]
    fn plan_interleaves_read_bursts_until_the_budget_runs_out() {
        let plan = ClientPlan {
            write_batches: 3,
            reads: 3,
            batch_size: 2,
            interleave: true,
            ..ClientPlan::idle()
        };
        let mut p = PlanProgress::default();
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Batches(1));
        p.batch_done(&plan);
        // The ack armed a burst of two reads; the pipeline holds one.
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Reads(1));
        assert_eq!(p.next(&plan, 0, 1, 1), PlanStep::Wait, "the burst holds batches back");
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Reads(1));
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Batches(1), "the burst is spent");
        p.batch_done(&plan);
        // The third read exhausts the budget in the middle of this
        // burst: the burst is dropped once its read is answered.
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Reads(1));
        assert_eq!(p.next(&plan, 0, 1, 1), PlanStep::Wait);
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Batches(1));
        p.batch_done(&plan);
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Finished);
    }

    #[test]
    fn plan_fills_free_batch_slots_counting_batches_in_flight() {
        let plan = ClientPlan { write_batches: 5, ..ClientPlan::idle() };
        let mut p = PlanProgress::default();
        assert_eq!(p.next(&plan, 0, 3, 0), PlanStep::Batches(3));
        assert_eq!(p.next(&plan, 3, 3, 0), PlanStep::Wait);
        p.batch_done(&plan);
        assert_eq!(p.next(&plan, 2, 3, 0), PlanStep::Batches(1), "one slot is free");
        p.batch_done(&plan);
        p.batch_done(&plan);
        // Two batches left, one of them in flight: two slots are free
        // but only one batch is left to issue.
        assert_eq!(p.next(&plan, 1, 3, 0), PlanStep::Batches(1));
        assert_eq!(p.next(&plan, 2, 3, 0), PlanStep::Wait);
        p.batch_done(&plan);
        p.batch_done(&plan);
        assert_eq!(p.next(&plan, 0, 3, 0), PlanStep::Finished);
    }

    #[test]
    fn idle_plan_never_finishes() {
        let plan = ClientPlan::idle();
        let mut p = PlanProgress::default();
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Wait);
        // Harness-driven puts are acked through the same counter.
        assert_eq!(p.batch_done(&plan), 1);
        assert_eq!(p.next(&plan, 0, 1, 0), PlanStep::Wait);
    }
}
