//! The (untrusted) edge node protocol engine — sans-IO.
//!
//! Honest behaviour implements §IV (logging) and §V (LSMerkle):
//! batch → seal block → signed Phase-I receipt to the client →
//! asynchronous data-free certification at the cloud → forward the
//! Phase-II proof. A [`FaultPlan`] lets tests script every lie the
//! paper's threat model considers; detection is the cloud's and the
//! clients' job, never the edge's goodwill.
//!
//! The engine is generic over the peer handle type `C` (the simulator
//! instantiates `C = ActorId`, the threaded runtime a request token),
//! takes virtual/real time as an explicit `now_ns` argument, and
//! expresses all I/O and CPU-accounting intent as [`EdgeEffect`]s.

use crate::config::CryptoMode;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::messages::{certify_signing_bytes, AddReceipt, ReadReceipt, WireMsg};
use std::collections::HashMap;
use std::hash::Hash;
use wedge_crypto::{sha256_concat, Identity, IdentityId, KeyRegistry};
use wedge_log::{BlockBuffer, BlockId, BlockProof, Entry, GossipWatermark, LogStore};
use wedge_lsmerkle::{
    build_read_proof, DeltaMergeRequest, DeltaMergeResult, GlobalRootCert, Key, KvOp, LsMerkle,
    MergeRequest, RetainedLevel,
};
use wedge_sim::SimDuration;

/// Counters exposed for benches and ablations.
#[derive(Clone, Debug, Default)]
pub struct EdgeStats {
    /// Blocks sealed.
    pub blocks_sealed: u64,
    /// Certification requests sent.
    pub certs_sent: u64,
    /// Certifications acknowledged by the cloud.
    pub certs_acked: u64,
    /// Merges completed.
    pub merges_completed: u64,
    /// Bytes sent to the cloud (the data-free ablation's metric).
    pub wan_bytes_to_cloud: u64,
    /// Bytes sent to the cloud for certification alone (excludes
    /// merge traffic) — the data-free vs data-full comparison.
    pub cert_bytes_to_cloud: u64,
    /// Get requests served.
    pub gets_served: u64,
    /// Log reads served.
    pub log_reads_served: u64,
    /// Certification requests re-sent after a retry deadline expired.
    pub certs_retried: u64,
    /// Merge requests re-sent after a retry deadline expired.
    pub merges_retried: u64,
    /// Background compaction requests dispatched by the compaction
    /// clock (empty-source merges that fold fragmented pages).
    pub compactions_requested: u64,
    /// Merge replies dropped without applying: a delta that failed to
    /// resolve against the in-flight request (stale fingerprint,
    /// hostile reuse index), or a resolved reply whose pages failed
    /// validation against the signed roots. The retry clock stays
    /// armed either way.
    pub merge_deltas_unresolved: u64,
    /// Full-request resends after the cloud nacked a delta-encoded
    /// merge request it could not resolve (restart or retention
    /// eviction). Each is one extra round trip, never a wedge.
    pub merge_req_resends: u64,
    /// Set when the cloud rejected one of our certifications.
    pub flagged_malicious: bool,
}

/// A typed command for the edge engine: every input the protocol
/// reacts to, whichever transport delivered it.
#[derive(Debug)]
pub enum EdgeCommand<C> {
    /// A client batch of signed entries to append (one block's worth).
    BatchAdd {
        /// The requesting client.
        from: C,
        /// Client request id (echoed in the receipt).
        req_id: u64,
        /// The signed entries.
        entries: Vec<Entry>,
    },
    /// A client log read by block id.
    LogRead {
        /// The requesting client.
        from: C,
        /// The block asked for.
        bid: BlockId,
    },
    /// A client key-value get.
    Get {
        /// The requesting client.
        from: C,
        /// Client request id (echoed in the response).
        req_id: u64,
        /// The key.
        key: Key,
    },
    /// The cloud certified one of our blocks.
    BlockProof(BlockProof),
    /// The cloud answered a merge request delta-encoded against it;
    /// the engine resolves references via its in-flight request.
    MergeResultDelta(Box<DeltaMergeResult>),
    /// The cloud could not resolve our delta-encoded merge request
    /// (restart or retention eviction): resend it in full.
    MergeReqResend {
        /// The edge the nack addresses (must be us).
        edge: IdentityId,
        /// Source level of the unresolvable request.
        source_level: u32,
        /// Epoch of the unresolvable request.
        epoch: u64,
    },
    /// The cloud refused a certification (equivocation detected).
    CertRejected {
        /// The offending block id.
        bid: BlockId,
    },
    /// A re-signed global root with a fresh timestamp (§V-D).
    GlobalRefresh(GlobalRootCert),
    /// A cloud gossip watermark to fan out to the partition's clients.
    Gossip(GossipWatermark),
    /// Time passed: the runtime observed `now >=`
    /// [`EdgeEngine::next_deadline_ns`]. The engine re-sends overdue
    /// certification requests — ticking early is a no-op.
    Tick,
}

impl<C> EdgeCommand<C> {
    /// Maps a protocol message arriving at the edge to a command.
    /// `from` identifies the sender for client requests (it is unused
    /// for cloud-originated messages). Returns `None` for messages the
    /// edge does not handle.
    pub fn from_wire(from: C, msg: WireMsg) -> Option<Self> {
        Some(match msg {
            WireMsg::BatchAdd { req_id, entries } => {
                EdgeCommand::BatchAdd { from, req_id, entries }
            }
            WireMsg::LogRead { bid } => EdgeCommand::LogRead { from, bid },
            WireMsg::Get { req_id, key } => EdgeCommand::Get { from, req_id, key },
            WireMsg::BlockProofMsg(proof) => EdgeCommand::BlockProof(proof),
            WireMsg::MergeResDelta(delta) => EdgeCommand::MergeResultDelta(delta),
            WireMsg::MergeReqResend { edge, source_level, epoch } => {
                EdgeCommand::MergeReqResend { edge, source_level, epoch }
            }
            WireMsg::CertRejected { bid } => EdgeCommand::CertRejected { bid },
            WireMsg::GlobalRefresh(cert) => EdgeCommand::GlobalRefresh(cert),
            WireMsg::Gossip(wm) => EdgeCommand::Gossip(wm),
            _ => return None,
        })
    }
}

/// A typed effect emitted by the edge engine. Effects must be applied
/// in emission order: CPU effects time-shift the sends that follow
/// them (exactly as `Context::use_cpu` does in the simulator). Drivers
/// without a CPU model simply ignore the CPU effects.
#[derive(Debug)]
pub enum EdgeEffect<C> {
    /// Foreground CPU consumed (delays this handler's later sends and
    /// the node's availability).
    UseCpu(SimDuration),
    /// Background-lane CPU consumed (off the request path).
    UseCpuBackground(SimDuration),
    /// A message to a client peer.
    Send {
        /// The destination peer.
        to: C,
        /// The message.
        msg: WireMsg,
        /// Wire size for the bandwidth model.
        wire: u64,
    },
    /// A message to the cloud. `dispatch` is background-lane CPU to
    /// charge before transmission (lazy certification dispatch);
    /// `None` sends from the foreground lane.
    SendCloud {
        /// The message.
        msg: WireMsg,
        /// Wire size for the bandwidth model.
        wire: u64,
        /// Background dispatch cost, if the send is asynchronous.
        dispatch: Option<SimDuration>,
    },
}

/// The edge node protocol state machine (sans-IO).
pub struct EdgeEngine<C> {
    identity: Identity,
    cloud_identity: IdentityId,
    registry: KeyRegistry,
    cost: CostModel,
    crypto_mode: CryptoMode,
    fault: FaultPlan,
    /// Data-free certification toggle (ablation).
    pub data_free: bool,
    /// The append-only block log (§IV).
    pub log: LogStore,
    /// The LSMerkle index (§V).
    pub tree: LsMerkle,
    /// Seals batches into blocks and enforces the replay window.
    buffer: BlockBuffer,
    /// Clients to notify when a block's proof arrives.
    block_clients: HashMap<BlockId, Vec<C>>,
    /// All clients of this partition (gossip fan-out).
    clients: Vec<C>,
    merge_in_flight: Option<MergeRequest>,
    /// Re-send the in-flight merge request this long after sending it
    /// without a merge reply; `None` disables retries. Without this, a
    /// lost merge reply wedges compaction until the next block proof
    /// happens to re-trigger `maybe_start_merge` — and if no more
    /// blocks arrive, forever. (The cloud answers a byte-identical
    /// retry idempotently from its replay cache.)
    merge_retry_ns: Option<u64>,
    /// Absolute deadline for the in-flight merge's retry, if armed.
    merge_deadline_ns: Option<u64>,
    /// Re-send a certification this long after sending it without an
    /// acknowledgement; `None` disables retries (trust the transport).
    cert_retry_ns: Option<u64>,
    /// Period of the background compaction clock; `None` disables it.
    /// Each sweep checks the tree for a fragmented level and, when no
    /// merge is in flight and no organic merge is due, dispatches an
    /// empty-source merge request that folds it (see
    /// [`wedge_lsmerkle::tree::LsMerkle::build_compaction_request`]).
    compaction_period_ns: Option<u64>,
    /// Absolute time of the next compaction sweep, if armed.
    next_compaction_at_ns: Option<u64>,
    /// What the last *applied* merge reply proves the cloud retains
    /// per Merkle level — the runs merge requests may delta-encode
    /// against. Updated in lockstep with `apply_merge_result` (the
    /// target level's new run; an empty run for a drained source), and
    /// dropped entirely when the cloud nacks a delta, so the recovery
    /// resend is always full.
    cloud_retained: HashMap<u32, RetainedLevel>,
    /// Certifications awaiting the cloud's proof: the digest we
    /// certified (honest or tampered — a retry must repeat the same
    /// claim) and the absolute retry deadline.
    pending_certs: HashMap<BlockId, PendingCert>,
    /// Worker pool for batched Schnorr verification (inline by
    /// default: everything stays on the caller thread).
    pool: wedge_pool::Pool,
    /// Counters.
    pub stats: EdgeStats,
}

/// An unacknowledged certification request.
struct PendingCert {
    digest: wedge_crypto::Digest,
    wire: u64,
    deadline_ns: u64,
}

impl<C: Copy + Eq + Hash> EdgeEngine<C> {
    /// Creates an edge engine.
    ///
    /// `registry` must contain the cloud's and all clients' keys;
    /// `tree` comes initialized from the cloud's
    /// [`wedge_lsmerkle::InitBundle`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        identity: Identity,
        cloud_identity: IdentityId,
        registry: KeyRegistry,
        cost: CostModel,
        crypto_mode: CryptoMode,
        fault: FaultPlan,
        tree: LsMerkle,
        clients: Vec<C>,
    ) -> Self {
        let buffer = BlockBuffer::new(identity.id);
        EdgeEngine {
            identity,
            cloud_identity,
            registry,
            cost,
            crypto_mode,
            fault,
            data_free: true,
            log: LogStore::new(),
            tree,
            buffer,
            block_clients: HashMap::new(),
            clients,
            merge_in_flight: None,
            merge_retry_ns: None,
            merge_deadline_ns: None,
            cert_retry_ns: None,
            compaction_period_ns: None,
            next_compaction_at_ns: None,
            cloud_retained: HashMap::new(),
            pending_certs: HashMap::new(),
            pool: wedge_pool::Pool::default(),
            stats: EdgeStats::default(),
        }
    }

    /// This edge's identity id.
    pub fn id(&self) -> IdentityId {
        self.identity.id
    }

    /// Installs a worker pool: batched client-signature checks in
    /// `batch_add` fan out across its lanes. Verdicts are identical
    /// for every pool size. Merge replies are applied on the caller.
    pub fn set_pool(&mut self, pool: wedge_pool::Pool) {
        self.pool = pool;
    }

    /// Enables certification retries: an unacknowledged block-certify
    /// is re-sent every `retry_ns` until the cloud answers.
    pub fn set_cert_retry_ns(&mut self, retry_ns: Option<u64>) {
        self.cert_retry_ns = retry_ns;
    }

    /// Enables merge retries: an unanswered merge request is re-sent
    /// every `retry_ns` until the merge reply arrives, making
    /// compaction self-healing under a lossy transport.
    pub fn set_merge_retry_ns(&mut self, retry_ns: Option<u64>) {
        self.merge_retry_ns = retry_ns;
    }

    /// Enables the background compaction clock: every `period_ns` the
    /// engine sweeps its tree for fragmented levels and dispatches a
    /// fold (an empty-source merge) when one is found and the merge
    /// lane is idle. Like every engine clock, it surfaces through
    /// [`EdgeEngine::next_deadline_ns`] and fires on `Tick` — all
    /// runtimes get it for free.
    pub fn set_compaction_period_ns(&mut self, period_ns: Option<u64>) {
        self.compaction_period_ns = period_ns;
        self.next_compaction_at_ns = period_ns;
    }

    /// Earliest absolute time (ns) at which this engine has time-driven
    /// work (the soonest certification-/merge-retry or compaction
    /// deadline). The driver's contract: call
    /// `handle(EdgeCommand::Tick, now)` once `now >=
    /// next_deadline_ns()`; never schedule retries itself.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        let certs = self.pending_certs.values().map(|p| p.deadline_ns).min();
        [certs, self.merge_deadline_ns, self.next_compaction_at_ns].into_iter().flatten().min()
    }

    /// Aligns the block-id counter with externally injected state
    /// (used by the harness's preload path, which appends blocks to
    /// the log directly).
    pub fn sync_next_bid(&mut self) {
        if let Some(last) = self.log.iter().last() {
            self.buffer.align_next_id(last.block.id.next());
        }
    }

    /// Processes one command at time `now_ns`, returning the effects
    /// to apply in order.
    pub fn handle(&mut self, cmd: EdgeCommand<C>, now_ns: u64) -> Vec<EdgeEffect<C>> {
        let mut out = Vec::new();
        match cmd {
            EdgeCommand::BatchAdd { from, req_id, entries } => {
                self.batch_add(&mut out, from, req_id, entries, now_ns)
            }
            EdgeCommand::LogRead { from, bid } => self.log_read(&mut out, from, bid),
            EdgeCommand::Get { from, req_id, key } => self.get(&mut out, from, req_id, key),
            EdgeCommand::BlockProof(proof) => self.block_proof(&mut out, proof, now_ns),
            EdgeCommand::MergeResultDelta(delta) => {
                self.merge_result_delta(&mut out, &delta, now_ns)
            }
            EdgeCommand::MergeReqResend { edge, source_level, epoch } => {
                self.merge_req_resend(&mut out, edge, source_level, epoch, now_ns)
            }
            EdgeCommand::CertRejected { bid } => {
                self.stats.flagged_malicious = true;
                self.pending_certs.remove(&bid); // retrying cannot help
            }
            EdgeCommand::Tick => self.tick(&mut out, now_ns),
            EdgeCommand::GlobalRefresh(cert) => {
                if let Some(freeze) = self.fault.freeze_after_epoch {
                    if self.tree.epoch() >= freeze {
                        return out; // stale-serving: ignore refreshes too
                    }
                }
                // The tree itself rejects wrong-edge/epoch/stale certs.
                let _accepted = self.tree.refresh_global(cert);
            }
            EdgeCommand::Gossip(wm) => {
                // Fan the cloud's watermark out to the partition's
                // clients (the paper's "through the edge node" path).
                for &c in &self.clients {
                    out.push(EdgeEffect::Send {
                        to: c,
                        msg: WireMsg::GossipForward(wm.clone()),
                        wire: 56,
                    });
                }
            }
        }
        out
    }

    fn batch_add(
        &mut self,
        out: &mut Vec<EdgeEffect<C>>,
        from: C,
        req_id: u64,
        entries: Vec<Entry>,
        now_ns: u64,
    ) {
        let ops = entries.len() as u64;
        let bytes: u64 = entries.iter().map(|e| e.wire_size()).sum();
        out.push(EdgeEffect::UseCpu(self.cost.seal_block(ops, bytes)));
        if self.crypto_mode == CryptoMode::Real {
            // Reject batches containing invalid client signatures.
            // Each Schnorr check is independent, so the pool fans the
            // batch across its lanes; the verdict (all-or-nothing) is
            // order-insensitive, hence the same at every width.
            let registry = &self.registry;
            if !self.pool.map(&entries, |e| e.verify(registry)).into_iter().all(|ok| ok) {
                return;
            }
        }
        let client_ident = entries.first().map(|e| e.client).unwrap_or(IdentityId(0));
        // The replay window (§IV-E idempotence) silently drops
        // duplicate (client, sequence) pairs; the block seals over the
        // accepted entries.
        for e in entries {
            let _ = self.buffer.push(e);
        }
        let Some(block) = self.buffer.seal(now_ns) else {
            return; // empty or fully-replayed batch: nothing to commit
        };
        // Digest over the accepted entries, for the receipt.
        let parts: Vec<Vec<u8>> = block.entries.iter().map(|e| e.signing_bytes()).collect();
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let entries_digest = sha256_concat(&refs);

        let bid = block.id;
        let digest = block.digest();
        let block_wire_size = block.wire_size();
        self.stats.blocks_sealed += 1;

        // Phase-I receipt back to the client (signed — this is the
        // client's dispute evidence).
        let receipt =
            AddReceipt::issue(&self.identity, client_ident, req_id, entries_digest, bid, digest);
        let resp = WireMsg::AddResponse { receipt };
        let wire = resp.wire_size();
        out.push(EdgeEffect::Send { to: from, msg: resp, wire });

        // Store locally: log + index (KV blocks only). The digest
        // computed for the receipt seeds the page's memo, so the block
        // is hashed exactly once on the seal path.
        let is_kv = block.entries.first().is_some_and(|e| KvOp::decode(&e.payload).is_some());
        self.log.append(block.clone());
        if is_kv {
            self.tree.apply_block_with_digest(block, digest);
        }
        self.block_clients.entry(bid).or_default().push(from);

        // Asynchronous, data-free certification (§IV-B). The dispatch
        // runs on the edge's background core: it never delays Phase I,
        // but the background lane is serial — when per-batch dispatch
        // cost exceeds the batch arrival interval, Phase II lags
        // behind Phase I exactly as Fig 6 shows.
        if self.fault.drop_cert(bid) {
            return; // withholding attack: silently never certify
        }
        let cert_digest = if self.fault.tamper_cert(bid) {
            // Equivocation: certify a digest for *different* content
            // than promised to the client.
            sha256_concat(&[b"tampered", digest.as_bytes()])
        } else {
            digest
        };
        let signature =
            self.identity.sign(&certify_signing_bytes(self.identity.id, bid, &cert_digest));
        let msg = WireMsg::BlockCertify { bid, digest: cert_digest, signature };
        // Data-free: only the digest crosses the WAN. The ablation
        // ships the full block's bytes instead (same message, larger
        // wire size), quantifying what §IV-B saves.
        let wire = if self.data_free { msg.wire_size() } else { block_wire_size };
        self.stats.certs_sent += 1;
        self.stats.wan_bytes_to_cloud += wire;
        self.stats.cert_bytes_to_cloud += wire;
        out.push(EdgeEffect::SendCloud {
            msg,
            wire,
            dispatch: Some(self.cost.certify_dispatch(ops)),
        });
        if let Some(retry) = self.cert_retry_ns {
            self.pending_certs.insert(
                bid,
                PendingCert { digest: cert_digest, wire, deadline_ns: now_ns + retry },
            );
        }
    }

    /// Re-sends every certification whose retry deadline expired, and
    /// the in-flight merge request if its deadline expired. A retried
    /// certification repeats the *original* claim (including a
    /// tampered digest — equivocation does not become honesty on
    /// retry); a retried merge repeats the byte-identical request (the
    /// cloud's replay cache answers idempotently if the original was
    /// processed and only the reply was lost). Both re-arm.
    fn tick(&mut self, out: &mut Vec<EdgeEffect<C>>, now_ns: u64) {
        self.tick_merge(out, now_ns);
        self.tick_compaction(out, now_ns);
        let Some(retry) = self.cert_retry_ns else { return };
        let mut due: Vec<BlockId> = self
            .pending_certs
            .iter()
            .filter(|(_, p)| p.deadline_ns <= now_ns)
            .map(|(bid, _)| *bid)
            .collect();
        due.sort_unstable(); // deterministic resend order
        for bid in due {
            let Some(pending) = self.pending_certs.get_mut(&bid) else { continue };
            pending.deadline_ns = now_ns + retry;
            let digest = pending.digest;
            let wire = pending.wire;
            let signature =
                self.identity.sign(&certify_signing_bytes(self.identity.id, bid, &digest));
            self.stats.certs_retried += 1;
            self.stats.wan_bytes_to_cloud += wire;
            self.stats.cert_bytes_to_cloud += wire;
            out.push(EdgeEffect::SendCloud {
                msg: WireMsg::BlockCertify { bid, digest, signature },
                wire,
                dispatch: Some(self.cost.certify_dispatch(1)),
            });
        }
    }

    /// One sweep of the compaction clock: if the period elapsed, the
    /// merge lane is idle, and no organic merge is due (overflow work
    /// outranks housekeeping on the single merge lane), dispatch an
    /// empty-source merge for the shallowest fragmented level. The
    /// sweep always re-arms — fragmentation accrues between sweeps,
    /// not during them.
    fn tick_compaction(&mut self, out: &mut Vec<EdgeEffect<C>>, now_ns: u64) {
        let Some(period) = self.compaction_period_ns else { return };
        if self.next_compaction_at_ns.is_none_or(|d| d > now_ns) {
            return;
        }
        self.next_compaction_at_ns = Some(now_ns + period);
        if self.merge_in_flight.is_some() || self.tree.overflowing_level().is_some() {
            return;
        }
        if let Some(freeze) = self.fault.freeze_after_epoch {
            if self.tree.epoch() >= freeze {
                return; // stale-serving attack: stop compacting
            }
        }
        let Some(req) = self.tree.build_compaction_request() else { return };
        self.stats.compactions_requested += 1;
        self.send_merge_request(out, &req);
        self.merge_in_flight = Some(req);
        self.merge_deadline_ns = self.merge_retry_ns.map(|r| now_ns + r);
    }

    /// Encodes and dispatches a merge request on the background lane,
    /// delta-encoding against the runs the last applied reply proves
    /// the cloud retains. A request with at least one resolvable
    /// reference ships as [`WireMsg::MergeReqDelta`]; otherwise (cold
    /// start, empty target, post-nack) the full [`WireMsg::MergeReq`]
    /// goes out. Retries re-encode from the same state and are
    /// therefore byte-identical until a reply or nack changes it.
    fn send_merge_request(&mut self, out: &mut Vec<EdgeEffect<C>>, req: &MergeRequest) {
        let delta = DeltaMergeRequest::delta_against(req, &self.cloud_retained);
        let msg = if delta.reused_pages() > 0 {
            WireMsg::MergeReqDelta(Box::new(delta))
        } else {
            WireMsg::MergeReq(Box::new(req.clone()))
        };
        let wire = msg.wire_size();
        self.stats.wan_bytes_to_cloud += wire;
        // Merging "does not interfere with the normal operation of the
        // LSMerkle tree" (§V-B): background lane.
        out.push(EdgeEffect::SendCloud {
            msg,
            wire,
            dispatch: Some(SimDuration::from_micros(100)),
        });
    }

    /// The cloud nacked our delta-encoded merge request: its retention
    /// no longer covers the references (restart, eviction). Our view
    /// of what it retains is void — drop it and resend the in-flight
    /// request in full immediately, re-arming the retry clock. One
    /// round trip, no wedge; a stray or stale nack is ignored.
    fn merge_req_resend(
        &mut self,
        out: &mut Vec<EdgeEffect<C>>,
        edge: IdentityId,
        source_level: u32,
        epoch: u64,
        now_ns: u64,
    ) {
        if edge != self.identity.id {
            return;
        }
        let Some(req) = self.merge_in_flight.clone() else { return };
        if req.source_level != source_level || req.epoch != epoch {
            return;
        }
        self.cloud_retained.clear();
        self.stats.merge_req_resends += 1;
        self.send_merge_request(out, &req);
        self.merge_deadline_ns = self.merge_retry_ns.map(|r| now_ns + r);
    }

    /// Re-sends the in-flight merge request if its retry deadline
    /// expired.
    fn tick_merge(&mut self, out: &mut Vec<EdgeEffect<C>>, now_ns: u64) {
        let Some(retry) = self.merge_retry_ns else { return };
        if self.merge_deadline_ns.is_none_or(|d| d > now_ns) {
            return;
        }
        let Some(req) = self.merge_in_flight.clone() else {
            self.merge_deadline_ns = None;
            return;
        };
        self.merge_deadline_ns = Some(now_ns + retry);
        self.stats.merges_retried += 1;
        self.send_merge_request(out, &req);
    }

    fn log_read(&mut self, out: &mut Vec<EdgeEffect<C>>, from: C, bid: BlockId) {
        out.push(EdgeEffect::UseCpu(SimDuration::from_nanos(self.cost.read_base_ns)));
        self.stats.log_reads_served += 1;
        let client_ident = IdentityId(0); // receipts bind the requester loosely in sim
        if self.fault.deny_read(bid) || self.log.get(bid).is_none() {
            let receipt = ReadReceipt::issue(&self.identity, client_ident, bid, None);
            let msg = WireMsg::LogReadResponse { receipt, block: None, proof: None };
            let wire = msg.wire_size();
            out.push(EdgeEffect::Send { to: from, msg, wire });
            return;
        }
        // Wrong-read fault: serve another block's content under this id.
        let serve_bid = match self.fault.wrong_read.get(&bid.0) {
            Some(other) if self.log.get(BlockId(*other)).is_some() => BlockId(*other),
            _ => bid,
        };
        // Both arms above verified `serve_bid` is present; degrade to
        // the deny-read path if that somehow stops holding.
        let Some(stored) = self.log.get(serve_bid) else {
            let receipt = ReadReceipt::issue(&self.identity, client_ident, bid, None);
            let msg = WireMsg::LogReadResponse { receipt, block: None, proof: None };
            let wire = msg.wire_size();
            out.push(EdgeEffect::Send { to: from, msg, wire });
            return;
        };
        let served_block = stored.block.clone();
        let digest = served_block.digest();
        let receipt = ReadReceipt::issue(&self.identity, client_ident, bid, Some(digest));
        // A proof can only accompany an honest serve; the certified
        // digest for `bid` will not match a wrong block.
        let proof = if serve_bid == bid { stored.proof.clone() } else { None };
        let msg = WireMsg::LogReadResponse { receipt, block: Some(served_block), proof };
        let wire = msg.wire_size();
        out.push(EdgeEffect::Send { to: from, msg, wire });
    }

    fn get(&mut self, out: &mut Vec<EdgeEffect<C>>, from: C, req_id: u64, key: Key) {
        let pages_touched = (self.tree.l0_pages().len() + self.tree.levels().len()) as u64;
        out.push(EdgeEffect::UseCpu(self.cost.build_read_proof(pages_touched)));
        self.stats.gets_served += 1;
        let proof = build_read_proof(&self.tree, key);
        let msg = WireMsg::GetResponse { req_id, proof: Box::new(proof) };
        let wire = msg.wire_size();
        out.push(EdgeEffect::Send { to: from, msg, wire });
    }

    fn block_proof(&mut self, out: &mut Vec<EdgeEffect<C>>, proof: BlockProof, now_ns: u64) {
        if self.crypto_mode == CryptoMode::Real
            && !proof.verify(self.cloud_identity, &self.registry)
        {
            return;
        }
        out.push(EdgeEffect::UseCpu(SimDuration::from_nanos(self.cost.verify_ns)));
        let bid = proof.bid;
        self.pending_certs.remove(&bid);
        self.stats.certs_acked += 1;
        self.log.attach_proof(proof.clone());
        self.tree.attach_block_proof(proof.clone());
        if !self.fault.suppress_proof_forwards {
            if let Some(clients) = self.block_clients.remove(&bid) {
                for c in clients {
                    let msg = WireMsg::BlockProofForward(proof.clone());
                    let wire = msg.wire_size();
                    out.push(EdgeEffect::Send { to: c, msg, wire });
                }
            }
        }
        self.maybe_start_merge(out, now_ns);
    }

    /// Resolves a delta-encoded merge reply — the only merge reply the
    /// cloud sends — against the in-flight request (the fingerprint the
    /// cloud delta-encoded against is, by construction, the one the
    /// retry clock re-sends) and applies it. A reply that does not
    /// resolve — stale fingerprint, out-of-range reference — is dropped
    /// and counted; the in-flight request stays armed, so the retry
    /// deadline keeps compaction live.
    fn merge_result_delta(
        &mut self,
        out: &mut Vec<EdgeEffect<C>>,
        delta: &DeltaMergeResult,
        now_ns: u64,
    ) {
        let Some(req) = self.merge_in_flight.as_ref() else {
            return; // duplicate of an already-applied reply: drop
        };
        if delta.new_epoch <= self.tree.epoch() {
            // A late duplicate of a reply we already applied (its
            // replayed copy, say) while the *next* merge is in flight:
            // legal under retries, dropped silently — it must not
            // count as unresolved.
            return;
        }
        let Ok(result) = delta.resolve(req) else {
            self.stats.merge_deltas_unresolved += 1;
            return;
        };
        let records: u64 = result.new_target_pages.iter().map(|p| p.records().len() as u64).sum();
        let source_level = req.source_level;
        let new_target_run = result.new_target_pages.clone();
        // A reply that reaches here but does not *apply* (pages not
        // hashing to the signed root, epoch gap — transport corruption
        // or version skew, never honest cloud behaviour) is dropped
        // and counted, leaving the request armed for the retry clock:
        // a bad reply must never panic the edge mid-protocol.
        if self.tree.apply_merge_result(req, result).is_err() {
            self.stats.merge_deltas_unresolved += 1;
            return;
        }
        // The applied reply proves what the cloud now retains: the
        // target level's new run, and an empty run for a drained
        // source. Future merge requests delta-encode against this.
        let target_level = source_level + 1;
        let me = self.identity.id;
        self.cloud_retained
            .insert(target_level, RetainedLevel::over(me, target_level, &new_target_run));
        if source_level >= 1 {
            self.cloud_retained.insert(source_level, RetainedLevel::over(me, source_level, &[]));
        }
        self.merge_in_flight = None;
        self.merge_deadline_ns = None;
        out.push(EdgeEffect::UseCpuBackground(SimDuration::from_nanos(
            records * self.cost.merge_per_record_ns,
        )));
        self.stats.merges_completed += 1;
        self.maybe_start_merge(out, now_ns);
    }

    fn maybe_start_merge(&mut self, out: &mut Vec<EdgeEffect<C>>, now_ns: u64) {
        if self.merge_in_flight.is_some() {
            return;
        }
        if let Some(freeze) = self.fault.freeze_after_epoch {
            if self.tree.epoch() >= freeze {
                return; // stale-serving attack: stop compacting
            }
        }
        let Some(level) = self.tree.overflowing_level() else {
            return;
        };
        let req = self.tree.build_merge_request(level);
        if level == 0 && req.source_l0.is_empty() {
            return; // nothing certified yet; retry on next proof
        }
        self.send_merge_request(out, &req);
        self.merge_in_flight = Some(req);
        self.merge_deadline_ns = self.merge_retry_ns.map(|r| now_ns + r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_lsmerkle::{CloudIndex, LsmConfig, MergeResult};

    fn engine(retry_ns: Option<u64>, fault: FaultPlan) -> (EdgeEngine<u8>, Identity) {
        let cloud = Identity::derive("cloud", 1);
        let edge = Identity::derive("edge", 100);
        let mut registry = KeyRegistry::new();
        registry.register(cloud.id, cloud.public()).unwrap();
        registry.register(edge.id, edge.public()).unwrap();
        let mut index = CloudIndex::new(LsmConfig::exposition());
        let init = index.init_edge(&cloud, edge.id, 0);
        let tree = LsMerkle::new(edge.id, LsmConfig::exposition(), init);
        let mut engine = EdgeEngine::new(
            edge,
            cloud.id,
            registry,
            CostModel::default(),
            CryptoMode::Modeled,
            fault,
            tree,
            vec![0u8],
        );
        engine.set_cert_retry_ns(retry_ns);
        (engine, cloud)
    }

    /// The cloud's reply `res` to `req`, delta-encoded as the cloud
    /// sends it.
    fn merge_reply(res: &MergeResult, req: &MergeRequest) -> EdgeCommand<u8> {
        EdgeCommand::MergeResultDelta(Box::new(DeltaMergeResult::delta_against(res, req)))
    }

    fn entry(seq: u64) -> Entry {
        use wedge_crypto::Signature;
        Entry {
            client: IdentityId(1000),
            sequence: seq,
            payload: wedge_lsmerkle::KvOp::put(seq, b"v".to_vec()).encode(),
            signature: Signature { e: 0, s: 0 },
        }
    }

    fn certify_digests(effects: &[EdgeEffect<u8>]) -> Vec<wedge_crypto::Digest> {
        effects
            .iter()
            .filter_map(|e| match e {
                EdgeEffect::SendCloud { msg: WireMsg::BlockCertify { digest, .. }, .. } => {
                    Some(*digest)
                }
                _ => None,
            })
            .collect()
    }

    /// The engine-owned retry clock: an unacknowledged certification
    /// re-sends the same claim at each deadline; the acknowledgement
    /// clears the deadline. No driver schedules anything.
    #[test]
    fn cert_retry_is_engine_owned() {
        let (mut engine, cloud) = engine(Some(1_000), FaultPlan::honest());
        let effects = engine
            .handle(EdgeCommand::BatchAdd { from: 0, req_id: 0, entries: vec![entry(0)] }, 100);
        let sent = certify_digests(&effects);
        assert_eq!(sent.len(), 1, "certification dispatched");
        assert_eq!(engine.next_deadline_ns(), Some(1_100), "retry deadline armed");

        // Ticking early is a no-op.
        assert!(certify_digests(&engine.handle(EdgeCommand::Tick, 500)).is_empty());
        assert_eq!(engine.stats.certs_retried, 0);

        // At the deadline: the same digest goes out again, re-armed.
        let effects = engine.handle(EdgeCommand::Tick, 1_100);
        assert_eq!(certify_digests(&effects), sent, "retry repeats the original claim");
        assert_eq!(engine.stats.certs_retried, 1);
        assert_eq!(engine.next_deadline_ns(), Some(2_100));

        // The cloud's proof clears the deadline.
        let bid = engine.log.iter().last().unwrap().block.id;
        let proof = wedge_log::BlockProof::issue(&cloud, engine.id(), bid, sent[0]);
        engine.handle(EdgeCommand::BlockProof(proof), 1_200);
        assert_eq!(engine.next_deadline_ns(), None, "acknowledged: nothing left to retry");
        assert!(certify_digests(&engine.handle(EdgeCommand::Tick, 10_000)).is_empty());
    }

    /// A lying edge's retry repeats the lie: equivocation does not
    /// become honesty on resend, so the cloud's ledger still convicts.
    #[test]
    fn cert_retry_repeats_the_tampered_digest() {
        let (mut engine, _cloud) = engine(Some(1_000), FaultPlan::equivocate_on(0));
        let effects =
            engine.handle(EdgeCommand::BatchAdd { from: 0, req_id: 0, entries: vec![entry(0)] }, 0);
        let sent = certify_digests(&effects);
        let honest = engine.log.iter().last().unwrap().block.digest();
        assert_ne!(sent[0], honest, "equivocating edge certifies a tampered digest");
        let retried = certify_digests(&engine.handle(EdgeCommand::Tick, 1_000));
        assert_eq!(retried, sent, "retry repeats the tampered digest verbatim");
    }

    /// Phase I checks every client signature at every pool width: a
    /// batch with one forged entry sends nothing and leaves the log
    /// unchanged, and the same batch signed honestly seals.
    #[test]
    fn forged_signature_rejects_the_batch_at_every_width() {
        let client = Identity::derive("client", 7);
        let mallory = Identity::derive("mallory", 8);
        let batch = |forged: Option<u64>| -> Vec<Entry> {
            (0..8u64)
                .map(|seq| {
                    let payload = wedge_lsmerkle::KvOp::put(seq, b"v".to_vec()).encode();
                    let mut e = Entry::new_signed(&client, seq, payload);
                    if forged == Some(seq) {
                        e.signature = mallory.sign(&e.signing_bytes());
                    }
                    e
                })
                .collect()
        };
        for threads in [1, 4] {
            let (mut engine, _cloud) = engine(None, FaultPlan::honest());
            engine.crypto_mode = CryptoMode::Real;
            engine.registry.register(client.id, client.public()).unwrap();
            engine.set_pool(wedge_pool::Pool::new(threads));

            let forged = EdgeCommand::BatchAdd { from: 0, req_id: 0, entries: batch(Some(5)) };
            let effects = engine.handle(forged, 0);
            assert!(
                !effects
                    .iter()
                    .any(|e| matches!(e, EdgeEffect::Send { .. } | EdgeEffect::SendCloud { .. })),
                "a forged signature sends nothing at width {threads}"
            );
            assert!(engine.log.is_empty(), "a forged batch seals nothing at width {threads}");

            let honest = EdgeCommand::BatchAdd { from: 0, req_id: 1, entries: batch(None) };
            let effects = engine.handle(honest, 10);
            assert_eq!(certify_digests(&effects).len(), 1, "honest batch seals at width {threads}");
            assert_eq!(engine.log.len(), 1);
        }
    }

    /// The lossy-transport story, end-to-end at the engine level: a
    /// merge request whose reply is lost no longer wedges
    /// compaction — the engine-owned merge deadline re-sends the
    /// byte-identical request, the cloud's replay cache answers it
    /// idempotently, and the merge completes.
    #[test]
    fn merge_retry_survives_lost_reply() {
        use wedge_lsmerkle::{CloudIndex, LsmConfig};
        let (mut engine, cloud) = engine(None, FaultPlan::honest());
        engine.set_merge_retry_ns(Some(1_000));
        let mut ledger = wedge_log::CertLedger::new();
        let mut index = CloudIndex::new(LsmConfig::exposition());
        index.init_edge(&cloud, engine.id(), 0);

        // Seal + certify blocks until the L0 threshold trips and the
        // engine dispatches a merge request.
        let mut merge_reqs: Vec<MergeRequest> = Vec::new();
        for i in 0..4u64 {
            let effects = engine.handle(
                EdgeCommand::BatchAdd { from: 0, req_id: i, entries: vec![entry(i)] },
                i * 10,
            );
            let digest = certify_digests(&effects)[0];
            let bid = engine.log.iter().last().unwrap().block.id;
            ledger.offer(engine.id(), bid, digest);
            let proof = wedge_log::BlockProof::issue(&cloud, engine.id(), bid, digest);
            for e in engine.handle(EdgeCommand::BlockProof(proof), i * 10 + 5) {
                if let EdgeEffect::SendCloud { msg: WireMsg::MergeReq(req), .. } = e {
                    merge_reqs.push(*req);
                }
            }
        }
        assert_eq!(merge_reqs.len(), 1, "one merge in flight");
        let deadline = engine.next_deadline_ns().expect("merge retry armed");

        // The cloud processes the request, but the reply is LOST.
        let _lost = index.process_merge(&cloud, &ledger, &merge_reqs[0], 50).unwrap();

        // Early tick: nothing; at the deadline: the identical request
        // goes out again and the deadline re-arms.
        assert!(engine.handle(EdgeCommand::Tick, deadline - 1).is_empty());
        let retried: Vec<MergeRequest> = engine
            .handle(EdgeCommand::Tick, deadline)
            .into_iter()
            .filter_map(|e| match e {
                EdgeEffect::SendCloud { msg: WireMsg::MergeReq(req), .. } => Some(*req),
                _ => None,
            })
            .collect();
        assert_eq!(retried, merge_reqs, "retry repeats the byte-identical request");
        assert_eq!(engine.stats.merges_retried, 1);
        assert!(engine.next_deadline_ns().is_some(), "re-armed until answered");

        // The cloud replays its cached result for the retry; applying
        // it completes the merge and disarms the clock.
        let replayed = index.replay_for(&retried[0]).expect("byte-identical retry replays");
        engine.handle(merge_reply(&replayed, &retried[0]), deadline + 10);
        assert_eq!(engine.stats.merges_completed, 1);
        assert_eq!(engine.next_deadline_ns(), None, "merge settled: nothing to retry");
        assert!(
            certify_digests(&engine.handle(EdgeCommand::Tick, u64::MAX / 2)).is_empty(),
            "no ghost retries"
        );
    }

    /// A duplicate merge reply (original + replayed copy both arriving)
    /// is dropped gracefully instead of panicking the engine.
    #[test]
    fn duplicate_merge_result_is_ignored() {
        use wedge_lsmerkle::{CloudIndex, LsmConfig};
        let (mut engine, cloud) = engine(None, FaultPlan::honest());
        engine.set_merge_retry_ns(Some(1_000));
        let mut ledger = wedge_log::CertLedger::new();
        let mut index = CloudIndex::new(LsmConfig::exposition());
        index.init_edge(&cloud, engine.id(), 0);
        let mut req = None;
        for i in 0..4u64 {
            let effects = engine.handle(
                EdgeCommand::BatchAdd { from: 0, req_id: i, entries: vec![entry(i)] },
                i * 10,
            );
            let digest = certify_digests(&effects)[0];
            let bid = engine.log.iter().last().unwrap().block.id;
            ledger.offer(engine.id(), bid, digest);
            let proof = wedge_log::BlockProof::issue(&cloud, engine.id(), bid, digest);
            for e in engine.handle(EdgeCommand::BlockProof(proof), i * 10 + 5) {
                if let EdgeEffect::SendCloud { msg: WireMsg::MergeReq(r), .. } = e {
                    req = Some(*r);
                }
            }
        }
        let req = req.expect("merge dispatched");
        let res = index.process_merge(&cloud, &ledger, &req, 50).unwrap();
        engine.handle(merge_reply(&res, &req), 60);
        assert_eq!(engine.stats.merges_completed, 1);
        // The duplicate finds no in-flight request and is dropped.
        engine.handle(merge_reply(&res, &req), 70);
        assert_eq!(engine.stats.merges_completed, 1);
        // The full reply's wire tag is not an edge command.
        assert!(EdgeCommand::from_wire(0u8, WireMsg::MergeRes(Box::new(res))).is_none());
    }

    fn kv(op: wedge_lsmerkle::KvOp, seq: u64) -> Entry {
        use wedge_crypto::Signature;
        Entry {
            client: IdentityId(1000),
            sequence: seq,
            payload: op.encode(),
            signature: Signature { e: 0, s: 0 },
        }
    }

    /// Extracts every merge request an effect batch dispatched,
    /// resolving delta-encoded ones through the given cloud index
    /// exactly as the cloud engine would.
    fn sent_merge_reqs(
        index: &wedge_lsmerkle::CloudIndex,
        effects: Vec<EdgeEffect<u8>>,
    ) -> Vec<MergeRequest> {
        effects
            .into_iter()
            .filter_map(|e| match e {
                EdgeEffect::SendCloud { msg: WireMsg::MergeReq(req), .. } => Some(*req),
                EdgeEffect::SendCloud { msg: WireMsg::MergeReqDelta(d), .. } => {
                    Some(index.resolve_delta_request(&d).expect("delta request resolves"))
                }
                _ => None,
            })
            .collect()
    }

    /// Seals one block through the engine, certifies it, and relays
    /// every merge request the engine dispatches (including cascades,
    /// full or delta-encoded) to the given cloud index until the merge
    /// lane is idle.
    fn pump(
        engine: &mut EdgeEngine<u8>,
        cloud: &Identity,
        ledger: &mut wedge_log::CertLedger,
        index: &mut wedge_lsmerkle::CloudIndex,
        entries: Vec<Entry>,
        req_id: u64,
        now_ns: u64,
    ) {
        let effects = engine.handle(EdgeCommand::BatchAdd { from: 0, req_id, entries }, now_ns);
        let digest = certify_digests(&effects)[0];
        let bid = engine.log.iter().last().unwrap().block.id;
        ledger.offer(engine.id(), bid, digest);
        let proof = wedge_log::BlockProof::issue(cloud, engine.id(), bid, digest);
        let mut pending = engine.handle(EdgeCommand::BlockProof(proof), now_ns);
        loop {
            let reqs = sent_merge_reqs(index, pending);
            if reqs.is_empty() {
                break;
            }
            pending = Vec::new();
            for req in reqs {
                let res = index.process_merge(cloud, ledger, &req, now_ns).unwrap();
                pending.extend(engine.handle(merge_reply(&res, &req), now_ns));
            }
        }
    }

    /// The engine-owned compaction clock: a due sweep on a healthy
    /// tree re-arms silently; once incremental merges fragment a
    /// level, the sweep dispatches an empty-source merge request, the
    /// cloud folds and re-signs, and edge and cloud agree on the
    /// post-compaction roots — no driver schedules anything.
    #[test]
    fn compaction_clock_is_engine_owned() {
        use wedge_lsmerkle::{CloudIndex, KvOp, LsmConfig};
        let (mut engine, cloud) = engine(None, FaultPlan::honest());
        let mut ledger = wedge_log::CertLedger::new();
        let mut index = CloudIndex::new(LsmConfig::exposition());
        index.init_edge(&cloud, engine.id(), 0);
        engine.set_compaction_period_ns(Some(1_000_000));
        assert_eq!(engine.next_deadline_ns(), Some(1_000_000), "compaction deadline armed");

        // Sparse wide fill, then narrow insert/delete bands: region
        // re-chunking leaves partial boundary pages behind.
        let mut seq = 0u64;
        let mut req_id = 0u64;
        let mut now = 0u64;
        let mut send = |engine: &mut EdgeEngine<u8>,
                        ledger: &mut wedge_log::CertLedger,
                        index: &mut CloudIndex,
                        ops: Vec<KvOp>| {
            let entries = ops
                .into_iter()
                .map(|op| {
                    let e = kv(op, seq);
                    seq += 1;
                    e
                })
                .collect();
            req_id += 1;
            now += 10;
            pump(engine, &cloud, ledger, index, entries, req_id, now);
        };
        for chunk in (0..64u64).collect::<Vec<_>>().chunks(4) {
            let ops = chunk.iter().map(|k| KvOp::put(k * 8, vec![*k as u8])).collect();
            send(&mut engine, &mut ledger, &mut index, ops);
        }

        // A due sweep on a healthy tree: re-arms, dispatches nothing.
        assert_eq!(engine.tree.fragmented_level(), None, "wide fill stays whole-paged");
        let effects = engine.handle(EdgeCommand::Tick, 1_000_000);
        assert!(effects.is_empty(), "nothing to compact yet");
        assert_eq!(engine.stats.compactions_requested, 0);
        assert_eq!(engine.next_deadline_ns(), Some(2_000_000), "sweep re-armed");

        let mut round = 0u64;
        while engine.tree.fragmented_level().is_none() {
            assert!(round < 400, "narrow workload failed to fragment any level");
            let base = (round * 37) % 500;
            let ops = (0..3)
                .map(|i| {
                    if (round + i).is_multiple_of(5) {
                        KvOp::delete(base + i)
                    } else {
                        KvOp::put(base + i, vec![round as u8])
                    }
                })
                .collect();
            send(&mut engine, &mut ledger, &mut index, ops);
            round += 1;
        }

        // The next sweep dispatches an empty-source merge request.
        let effects = engine.handle(EdgeCommand::Tick, 2_000_000);
        let reqs = sent_merge_reqs(&index, effects);
        assert_eq!(reqs.len(), 1, "compaction dispatched");
        assert!(reqs[0].source_l0.is_empty() && reqs[0].source_pages.is_empty());
        assert_eq!(engine.stats.compactions_requested, 1);

        // The cloud folds + re-signs; the edge applies the result.
        let before = index.compaction_stats();
        let res = index.process_merge(&cloud, &ledger, &reqs[0], 2_000_000).unwrap();
        engine.handle(merge_reply(&res, &reqs[0]), 2_000_100);
        let stats = index.compaction_stats();
        assert!(stats.fold_runs > before.fold_runs, "the compaction folded a run");
        assert_eq!(
            engine.tree.level_roots(),
            index.state(engine.id()).unwrap().level_roots,
            "edge and cloud agree on post-compaction roots"
        );
        assert!(engine.next_deadline_ns().is_some(), "clock stays armed");
    }

    /// The eviction story end-to-end at the engine level: once
    /// retention is established the engine ships merge requests
    /// delta-encoded; a cloud that lost its retention cache nacks the
    /// delta, the edge answers with exactly one full-request resend,
    /// the merge converges, and the next merge is delta-encoded again.
    #[test]
    fn evicted_cloud_triggers_one_full_resend_and_converges() {
        use wedge_lsmerkle::{CloudIndex, LsmConfig};
        let cloud = Identity::derive("cloud", 1);
        let edge_ident = Identity::derive("edge", 100);
        let mut registry = KeyRegistry::new();
        registry.register(cloud.id, cloud.public()).unwrap();
        registry.register(edge_ident.id, edge_ident.public()).unwrap();
        // L1 threshold high enough that nothing cascades: every merge
        // is L0 → L1 and the L1 run is the retained target.
        let cfg = LsmConfig { level_thresholds: vec![2, 1_000], page_capacity: 4 };
        let mut index = CloudIndex::new(cfg.clone());
        let init = index.init_edge(&cloud, edge_ident.id, 0);
        let tree = LsMerkle::new(edge_ident.id, cfg, init);
        let mut engine = EdgeEngine::new(
            edge_ident,
            cloud.id,
            registry,
            CostModel::default(),
            CryptoMode::Modeled,
            FaultPlan::honest(),
            tree,
            vec![0u8],
        );
        engine.set_merge_retry_ns(Some(1_000));
        let mut ledger = wedge_log::CertLedger::new();

        // Seals one single-entry block and returns the block-proof
        // effects (where merge dispatches surface).
        let seal = |engine: &mut EdgeEngine<u8>,
                    ledger: &mut wedge_log::CertLedger,
                    k: u64,
                    now: u64|
         -> Vec<EdgeEffect<u8>> {
            let effects = engine
                .handle(EdgeCommand::BatchAdd { from: 0, req_id: k, entries: vec![entry(k)] }, now);
            let digest = certify_digests(&effects)[0];
            let bid = engine.log.iter().last().unwrap().block.id;
            ledger.offer(engine.id(), bid, digest);
            let proof = wedge_log::BlockProof::issue(&cloud, engine.id(), bid, digest);
            engine.handle(EdgeCommand::BlockProof(proof), now + 1)
        };
        let full_reqs = |effects: &[EdgeEffect<u8>]| {
            effects
                .iter()
                .filter(|e| matches!(e, EdgeEffect::SendCloud { msg: WireMsg::MergeReq(_), .. }))
                .count()
        };

        // Merge 1 (cold start): the third certified block overflows
        // the L0 threshold of 2; the request is dispatched in full.
        seal(&mut engine, &mut ledger, 0, 10);
        seal(&mut engine, &mut ledger, 1, 20);
        let effects = seal(&mut engine, &mut ledger, 2, 25);
        assert_eq!(full_reqs(&effects), 1, "cold-start merge ships in full");
        let req1 = sent_merge_reqs(&index, effects).remove(0);
        let res1 = index.process_merge(&cloud, &ledger, &req1, 30).unwrap();
        engine.handle(merge_reply(&res1, &req1), 40);
        assert_eq!(engine.stats.merges_completed, 1);

        // Merge 2: the target level is now retained on both sides, so
        // the request ships delta-encoded.
        seal(&mut engine, &mut ledger, 3, 50);
        seal(&mut engine, &mut ledger, 4, 55);
        let effects = seal(&mut engine, &mut ledger, 5, 60);
        let delta = effects
            .iter()
            .find_map(|e| match e {
                EdgeEffect::SendCloud { msg: WireMsg::MergeReqDelta(d), .. } => Some(d.clone()),
                _ => None,
            })
            .expect("warm merge ships as a delta");
        assert_eq!(full_reqs(&effects), 0, "no full request alongside the delta");
        assert!(delta.reused_pages() > 0, "the delta actually references retained pages");

        // The cloud lost its retention cache: the delta no longer
        // resolves, and the engine-level nack round-trips recovery.
        index.evict_retained(engine.id());
        assert!(index.resolve_delta_request(&delta).is_err(), "evicted cache: typed error");
        // While the delta is in flight, a nack addressed to another
        // edge and one for a later epoch are both ignored.
        let stray = IdentityId(engine.id().0 + 1);
        for (edge, epoch) in [(stray, delta.epoch), (engine.id(), delta.epoch + 1)] {
            let nack =
                EdgeCommand::MergeReqResend { edge, source_level: delta.source_level, epoch };
            assert!(engine.handle(nack, 65).is_empty(), "nack ({edge:?}, {epoch}) ignored");
            assert_eq!(engine.stats.merge_req_resends, 0, "nack ({edge:?}, {epoch}) ignored");
        }
        let effects = engine.handle(
            EdgeCommand::MergeReqResend {
                edge: engine.id(),
                source_level: delta.source_level,
                epoch: delta.epoch,
            },
            70,
        );
        assert_eq!(engine.stats.merge_req_resends, 1);
        assert_eq!(full_reqs(&effects), 1, "exactly one full-request resend");
        let req2 = sent_merge_reqs(&index, effects).remove(0);
        let res2 = index.process_merge(&cloud, &ledger, &req2, 80).unwrap();
        engine.handle(merge_reply(&res2, &req2), 90);
        assert_eq!(engine.stats.merges_completed, 2, "converged after one resend");
        assert_eq!(engine.next_deadline_ns(), None, "merge settled: nothing to retry");
        assert_eq!(
            engine.tree.level_roots(),
            index.state(engine.id()).unwrap().level_roots,
            "edge and cloud agree after recovery"
        );

        // A stray duplicate nack after completion is ignored.
        let effects = engine.handle(
            EdgeCommand::MergeReqResend { edge: engine.id(), source_level: 0, epoch: 0 },
            100,
        );
        assert!(effects.is_empty());
        assert_eq!(engine.stats.merge_req_resends, 1);

        // Retention re-established by the full-path reply: the next
        // merge is delta-encoded again.
        seal(&mut engine, &mut ledger, 6, 110);
        seal(&mut engine, &mut ledger, 7, 115);
        let effects = seal(&mut engine, &mut ledger, 8, 120);
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, EdgeEffect::SendCloud { msg: WireMsg::MergeReqDelta(_), .. })),
            "back to delta encoding after recovery"
        );
        let req3 = sent_merge_reqs(&index, effects).remove(0);
        let res3 = index.process_merge(&cloud, &ledger, &req3, 130).unwrap();
        engine.handle(merge_reply(&res3, &req3), 140);
        assert_eq!(engine.stats.merges_completed, 3);
    }

    /// Withheld certifications never arm a retry — the attack stays an
    /// attack, and the client's dispute deadline is what catches it.
    #[test]
    fn withheld_certs_do_not_retry() {
        let (mut engine, _cloud) = engine(Some(1_000), FaultPlan::withhold_on(0));
        let effects =
            engine.handle(EdgeCommand::BatchAdd { from: 0, req_id: 0, entries: vec![entry(0)] }, 0);
        assert!(certify_digests(&effects).is_empty(), "withheld: nothing dispatched");
        assert_eq!(engine.next_deadline_ns(), None, "no deadline for a withheld cert");
    }
}
