//! The trusted cloud protocol engine — sans-IO.
//!
//! The cloud never sits on the write path (that is the whole point of
//! lazy certification): it certifies digests asynchronously, performs
//! merges, gossips watermarks, rules on disputes, and punishes — it is
//! the detection-and-punishment half of the "commit now, verify
//! eventually" bargain.
//!
//! The engine is generic over the peer handle type `P` (the simulator
//! instantiates `P = ActorId`, the threaded runtime a fixed peer
//! index). The engine also owns its *clock*: the gossip cadence is
//! engine state exposed through [`CloudEngine::next_deadline_ns`], and
//! every runtime drives it the same way — deliver messages, and call
//! `handle(CloudCommand::Tick, now)` once `now` reaches the deadline.
//! No driver decides *when* to gossip; it only supplies time.

use crate::cost::CostModel;
use crate::messages::{certify_signing_bytes, Dispute, DisputeVerdict, WireMsg};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use wedge_crypto::{Digest, Identity, IdentityId, KeyRegistry, RevocationReason, Signature};
use wedge_log::{BlockId, BlockProof, CertLedger, CertOutcome, GossipWatermark};
use wedge_lsmerkle::{CloudIndex, DeltaMergeRequest, DeltaMergeResult, MergeRequest, MergeResult};
use wedge_sim::SimDuration;

/// Counters exposed for benches and assertions.
#[derive(Clone, Debug, Default)]
pub struct CloudStats {
    /// Block proofs issued.
    pub certs_issued: u64,
    /// Equivocations detected at certify time.
    pub equivocations_detected: u64,
    /// Merges processed successfully.
    pub merges_processed: u64,
    /// Byte-identical merge retries answered from the replay cache
    /// (the original result was lost in transit; nothing re-applied).
    pub merges_replayed: u64,
    /// Merge requests rejected (forged/stale inputs).
    pub merges_rejected: u64,
    /// Disputes received.
    pub disputes_received: u64,
    /// Disputes upheld (punishments).
    pub disputes_upheld: u64,
    /// Gossip rounds emitted.
    pub gossip_rounds: u64,
    /// Bytes received from edges (data-free ablation metric).
    pub wan_bytes_from_edges: u64,
    /// Target pages shipped in full inside merge replies.
    pub merge_reply_pages_full: u64,
    /// Target pages shipped as references (already held by the edge)
    /// inside delta-encoded merge replies — the reply-size dedup.
    pub merge_reply_pages_reused: u64,
    /// Bytes of merge-reply dedup: full-encoding size minus the delta
    /// actually sent, summed over all merge replies.
    pub merge_reply_bytes_saved: u64,
    /// Pages that arrived shipped in full inside merge requests
    /// (either a full `MergeReq` or the full slots of a delta).
    pub merge_req_pages_full: u64,
    /// Pages that arrived as 5-byte references inside delta-encoded
    /// merge requests and were rehydrated from the retention cache —
    /// the request-size dedup.
    pub merge_req_pages_reused: u64,
    /// Bytes of merge-request dedup: what the resolved request would
    /// have cost in full minus the delta actually received, summed
    /// over all delta merge requests.
    pub merge_req_bytes_saved: u64,
    /// Delta merge requests that failed to resolve (stale or evicted
    /// retention) and were answered with a full-request nack.
    pub merge_req_nacks: u64,
}

/// A typed command for the cloud engine.
#[derive(Debug)]
pub enum CloudCommand<P> {
    /// An edge's data-free certification request.
    Certify {
        /// The submitting peer.
        from: P,
        /// The block id.
        bid: BlockId,
        /// The digest to certify.
        digest: Digest,
        /// Edge signature over `(edge, bid, digest)`.
        signature: Signature,
    },
    /// An edge's merge request.
    Merge {
        /// The submitting peer.
        from: P,
        /// The request (ships pages).
        req: Box<MergeRequest>,
    },
    /// An edge's delta-encoded merge request: pages the cloud proved
    /// it retains travel as 5-byte references.
    MergeDelta {
        /// The submitting peer.
        from: P,
        /// The delta request (resolved against the retention cache).
        req: Box<DeltaMergeRequest>,
    },
    /// A client dispute with evidence.
    Dispute {
        /// The filing peer.
        from: P,
        /// The dispute.
        dispute: Box<Dispute>,
    },
    /// Time passed: the runtime observed `now >=`
    /// [`CloudEngine::next_deadline_ns`]. The engine decides what is
    /// due (currently: a gossip round) — ticking early is a no-op.
    Tick,
}

impl<P> CloudCommand<P> {
    /// Maps a protocol message arriving at the cloud to a command.
    /// Returns `None` for messages the cloud does not handle.
    pub fn from_wire(from: P, msg: WireMsg) -> Option<Self> {
        Some(match msg {
            WireMsg::BlockCertify { bid, digest, signature } => {
                CloudCommand::Certify { from, bid, digest, signature }
            }
            WireMsg::MergeReq(req) => CloudCommand::Merge { from, req },
            WireMsg::MergeReqDelta(req) => CloudCommand::MergeDelta { from, req },
            WireMsg::DisputeMsg(dispute) => CloudCommand::Dispute { from, dispute },
            _ => return None,
        })
    }
}

/// A typed effect emitted by the cloud engine. Apply in order: CPU
/// effects time-shift the sends that follow them.
#[derive(Debug)]
// `WireMsg` dwarfs the CPU variant; effects are short-lived values moved
// straight into the runtime's queues, so boxing would only add an
// allocation per message.
#[allow(clippy::large_enum_variant)]
pub enum CloudEffect<P> {
    /// Foreground CPU consumed.
    UseCpu(SimDuration),
    /// A message to a peer (edge or dispute-filing client).
    Send {
        /// The destination peer.
        to: P,
        /// The message.
        msg: WireMsg,
        /// Wire size for the bandwidth model.
        wire: u64,
    },
}

/// The cloud node protocol state machine (sans-IO).
pub struct CloudEngine<P> {
    identity: Identity,
    /// The trusted key registry (revocations = punishments live here).
    pub registry: KeyRegistry,
    cost: CostModel,
    /// Certified digests (the agreement anchor).
    pub ledger: CertLedger,
    /// Authoritative LSMerkle roots per edge.
    pub index: CloudIndex,
    /// Edge peer ↔ identity mapping.
    edges: HashMap<P, IdentityId>,
    /// Punished edges (also revoked in `registry`).
    pub punished: HashSet<IdentityId>,
    /// Gossip cadence (ns); `None` disables gossip.
    gossip_period_ns: Option<u64>,
    /// Absolute time of the next gossip round.
    next_gossip_at_ns: Option<u64>,
    /// Counters.
    pub stats: CloudStats,
}

impl<P: Copy + Eq + Hash> CloudEngine<P> {
    /// Creates the cloud engine. `gossip_period_ns` arms the first
    /// gossip round one period after the epoch (time zero); `None`
    /// disables gossip entirely.
    pub fn new(
        identity: Identity,
        registry: KeyRegistry,
        cost: CostModel,
        index: CloudIndex,
        edges: HashMap<P, IdentityId>,
        gossip_period_ns: Option<u64>,
    ) -> Self {
        CloudEngine {
            identity,
            registry,
            cost,
            ledger: CertLedger::new(),
            index,
            edges,
            punished: HashSet::new(),
            gossip_period_ns,
            next_gossip_at_ns: gossip_period_ns,
            stats: CloudStats::default(),
        }
    }

    /// The cloud's identity id.
    pub fn id(&self) -> IdentityId {
        self.identity.id
    }

    /// Earliest absolute time (ns) at which this engine has time-driven
    /// work. The driver's contract: call `handle(CloudCommand::Tick,
    /// now)` once `now >= next_deadline_ns()`; never schedule protocol
    /// work itself.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.next_gossip_at_ns
    }

    /// Processes one command at time `now_ns`, returning the effects
    /// to apply in order.
    pub fn handle(&mut self, cmd: CloudCommand<P>, now_ns: u64) -> Vec<CloudEffect<P>> {
        let mut out = Vec::new();
        match cmd {
            CloudCommand::Certify { from, bid, digest, signature } => {
                self.certify(&mut out, from, bid, digest, signature)
            }
            CloudCommand::Merge { from, req } => self.merge(&mut out, from, *req, now_ns),
            CloudCommand::MergeDelta { from, req } => {
                self.merge_delta(&mut out, from, *req, now_ns)
            }
            CloudCommand::Dispute { from, dispute } => self.dispute(&mut out, from, *dispute),
            CloudCommand::Tick => self.tick(&mut out, now_ns),
        }
        out
    }

    fn tick(&mut self, out: &mut Vec<CloudEffect<P>>, now_ns: u64) {
        let (Some(period), Some(at)) = (self.gossip_period_ns, self.next_gossip_at_ns) else {
            return;
        };
        if now_ns < at {
            return; // early tick: nothing due yet
        }
        self.gossip_round(out, now_ns);
        // Re-arm from the observed tick time (not the scheduled time):
        // a late tick shifts the cadence rather than bunching rounds.
        self.next_gossip_at_ns = Some(now_ns + period);
    }

    fn punish(&mut self, edge: IdentityId, reason: RevocationReason) {
        if self.punished.insert(edge) {
            self.registry.revoke(edge, reason);
        }
    }

    fn edge_identity(&self, peer: P) -> Option<IdentityId> {
        self.edges.get(&peer).copied()
    }

    fn certify(
        &mut self,
        out: &mut Vec<CloudEffect<P>>,
        from: P,
        bid: BlockId,
        digest: Digest,
        signature: Signature,
    ) {
        let Some(edge) = self.edge_identity(from) else { return };
        if self.punished.contains(&edge) {
            return; // punished edges are ignored entirely
        }
        out.push(CloudEffect::UseCpu(self.cost.cloud_certify()));
        self.stats.wan_bytes_from_edges += 72;
        // The certify request is signed: the signature is what turns a
        // later contradiction into *proof* of equivocation.
        if !self.registry.verify(edge, &certify_signing_bytes(edge, bid, &digest), &signature) {
            return;
        }
        match self.ledger.offer(edge, bid, digest) {
            CertOutcome::Certified | CertOutcome::AlreadyCertified => {
                let proof = BlockProof::issue(&self.identity, edge, bid, digest);
                self.stats.certs_issued += 1;
                out.push(CloudEffect::Send {
                    to: from,
                    msg: WireMsg::BlockProofMsg(proof),
                    wire: BlockProof::WIRE_SIZE,
                });
            }
            CertOutcome::Equivocation(_) => {
                // Second digest for the same block id: malicious.
                self.stats.equivocations_detected += 1;
                self.punish(edge, RevocationReason::Equivocation);
                out.push(CloudEffect::Send {
                    to: from,
                    msg: WireMsg::CertRejected { bid },
                    wire: 16,
                });
            }
        }
    }

    fn merge(&mut self, out: &mut Vec<CloudEffect<P>>, from: P, req: MergeRequest, now_ns: u64) {
        let Some(edge) = self.edge_identity(from) else { return };
        if self.punished.contains(&edge) || req.edge != edge {
            return;
        }
        self.stats.wan_bytes_from_edges += req.wire_size();
        self.stats.merge_req_pages_full += req.source_l0.len() as u64
            + req.source_pages.len() as u64
            + req.target_pages.len() as u64;
        self.merge_resolved(out, from, req, now_ns);
    }

    /// The delta-request entry point: rehydrate references from the
    /// retention cache, then run the exact same merge path as a full
    /// request — including the replay cache, which is keyed by the
    /// *resolved* request's fingerprint, so an idempotent retry hits
    /// whether it arrives full or delta-encoded. A delta that no
    /// longer resolves (retention evicted, cloud restarted, or a
    /// hostile fabrication) is answered with a `MergeReqResend` nack:
    /// the edge falls back to one full request and the merge proceeds
    /// — a one-round-trip blip, never a wedge.
    fn merge_delta(
        &mut self,
        out: &mut Vec<CloudEffect<P>>,
        from: P,
        dreq: DeltaMergeRequest,
        now_ns: u64,
    ) {
        let Some(edge) = self.edge_identity(from) else { return };
        if self.punished.contains(&edge) || dreq.edge != edge {
            return;
        }
        self.stats.wan_bytes_from_edges += dreq.wire_size();
        match self.index.resolve_delta_request(&dreq) {
            Ok(req) => {
                self.stats.merge_req_pages_full += dreq.full_pages();
                self.stats.merge_req_pages_reused += dreq.reused_pages();
                self.stats.merge_req_bytes_saved +=
                    req.wire_size().saturating_sub(dreq.wire_size());
                self.merge_resolved(out, from, req, now_ns);
            }
            Err(_) => {
                self.stats.merge_req_nacks += 1;
                let msg = WireMsg::MergeReqResend {
                    edge,
                    source_level: dreq.source_level,
                    epoch: dreq.epoch,
                };
                let wire = msg.wire_size();
                out.push(CloudEffect::Send { to: from, msg, wire });
            }
        }
    }

    fn merge_resolved(
        &mut self,
        out: &mut Vec<CloudEffect<P>>,
        from: P,
        req: MergeRequest,
        now_ns: u64,
    ) {
        let edge = req.edge;
        // Charged over *everything shipped*, although the rebuild
        // itself is now incremental (dirty regions only): the cloud
        // must still verify every page it receives against the signed
        // roots, and pages decoded off the wire carry no memoized
        // digests — verification is O(request), and it dominates.
        out.push(CloudEffect::UseCpu(self.cost.merge(req.records())));
        // A byte-identical retry of the last merge (its reply was
        // lost) is answered idempotently — it re-applies nothing and
        // is counted separately from processed merges. The cached
        // result is delta-encoded against the *retried* request: its
        // fingerprint matched the cache, so it carries the same pages
        // and every reference the edge resolves lands on its own
        // `Arc`s.
        if let Some(cached) = self.index.replay_for(&req) {
            self.stats.merges_replayed += 1;
            self.send_merge_reply(out, from, &cached, &req);
            return;
        }
        match self.index.process_merge(&self.identity, &self.ledger, &req, now_ns) {
            Ok(result) => {
                self.stats.merges_processed += 1;
                self.send_merge_reply(out, from, &result, &req);
            }
            Err(err) => {
                self.stats.merges_rejected += 1;
                use wedge_lsmerkle::MergeError::*;
                match err {
                    UncertifiedBlock(_)
                    | BlockDigestMismatch(_)
                    | L0RecordsMismatch(_)
                    | SourceRootMismatch
                    | TargetRootMismatch => {
                        // Forged merge inputs are malicious, not racy.
                        self.punish(edge, RevocationReason::DisputeUpheld);
                    }
                    EpochMismatch { .. } | UnknownEdge(_) | BadLevel(_) => {}
                }
            }
        }
    }

    /// Ships a merge result delta-encoded against the request it
    /// answers: pages the edge already holds (reused `Arc`s from the
    /// request) travel as references, so the largest cloud→edge
    /// message scales with the changed pages, not the target level.
    fn send_merge_reply(
        &mut self,
        out: &mut Vec<CloudEffect<P>>,
        to: P,
        result: &MergeResult,
        req: &MergeRequest,
    ) {
        let delta = DeltaMergeResult::delta_against(result, req);
        self.stats.merge_reply_pages_full += delta.full_pages();
        self.stats.merge_reply_pages_reused += delta.reused_pages();
        self.stats.merge_reply_bytes_saved += result.wire_size().saturating_sub(delta.wire_size());
        let msg = WireMsg::MergeResDelta(Box::new(delta));
        let wire = msg.wire_size();
        out.push(CloudEffect::Send { to, msg, wire });
    }

    fn dispute(&mut self, out: &mut Vec<CloudEffect<P>>, from: P, dispute: Dispute) {
        out.push(CloudEffect::UseCpu(SimDuration::from_nanos(self.cost.verify_ns * 2)));
        self.stats.disputes_received += 1;
        let verdict = match dispute {
            Dispute::MissingCertification { receipt } => {
                if !receipt.verify(&self.registry) && !self.punished.contains(&receipt.edge) {
                    // Unverifiable evidence (and not merely because we
                    // already revoked the signer): dismiss.
                    DisputeVerdict::Dismissed
                } else {
                    match self.ledger.lookup(receipt.edge, receipt.bid) {
                        Some(d) if *d == receipt.block_digest => {
                            // Certification exists and matches: resend
                            // the proof; the edge was slow, not lying.
                            let proof =
                                BlockProof::issue(&self.identity, receipt.edge, receipt.bid, *d);
                            out.push(CloudEffect::Send {
                                to: from,
                                msg: WireMsg::BlockProofForward(proof),
                                wire: BlockProof::WIRE_SIZE,
                            });
                            DisputeVerdict::Dismissed
                        }
                        Some(_) => {
                            // The edge signed one digest to the client
                            // and certified another: equivocation.
                            self.punish(receipt.edge, RevocationReason::Equivocation);
                            DisputeVerdict::EdgePunished {
                                edge: receipt.edge,
                                grounds: "certified digest contradicts signed receipt".into(),
                            }
                        }
                        None => {
                            // Never certified despite the client's
                            // timeout: withholding.
                            self.punish(receipt.edge, RevocationReason::DisputeUpheld);
                            DisputeVerdict::EdgePunished {
                                edge: receipt.edge,
                                grounds: "block never certified after timeout".into(),
                            }
                        }
                    }
                }
            }
            Dispute::WrongRead { receipt } => {
                let valid = receipt.verify(&self.registry) || self.punished.contains(&receipt.edge);
                match (valid, receipt.digest, self.ledger.lookup(receipt.edge, receipt.bid)) {
                    (true, Some(served), Some(certified)) if served != *certified => {
                        self.punish(receipt.edge, RevocationReason::DisputeUpheld);
                        DisputeVerdict::EdgePunished {
                            edge: receipt.edge,
                            grounds: "served block contradicts certified digest".into(),
                        }
                    }
                    _ => DisputeVerdict::Dismissed,
                }
            }
            Dispute::Omission { receipt, watermark } => {
                let wm_ok = watermark.verify(self.identity.id, &self.registry);
                let rc_ok = receipt.verify(&self.registry) || self.punished.contains(&receipt.edge);
                if wm_ok
                    && rc_ok
                    && receipt.digest.is_none()
                    && watermark.edge == receipt.edge
                    && watermark.proves_existence(receipt.bid.0)
                {
                    self.punish(receipt.edge, RevocationReason::Omission);
                    DisputeVerdict::EdgePunished {
                        edge: receipt.edge,
                        grounds: "denied a block the gossip watermark proves exists".into(),
                    }
                } else {
                    DisputeVerdict::Dismissed
                }
            }
        };
        if matches!(verdict, DisputeVerdict::EdgePunished { .. }) {
            self.stats.disputes_upheld += 1;
        }
        out.push(CloudEffect::Send { to: from, msg: WireMsg::VerdictMsg(verdict), wire: 64 });
    }

    fn gossip_round(&mut self, out: &mut Vec<CloudEffect<P>>, now_ns: u64) {
        self.stats.gossip_rounds += 1;
        // Deterministic order regardless of HashMap seeding: sort by
        // edge identity.
        let mut edges: Vec<(P, IdentityId)> = self.edges.iter().map(|(p, i)| (*p, *i)).collect();
        edges.sort_by_key(|(_, ident)| ident.0);
        for (peer, edge) in edges {
            if self.punished.contains(&edge) {
                continue;
            }
            let len = self.ledger.contiguous_len(edge);
            let wm = GossipWatermark::issue(&self.identity, edge, now_ns, len);
            out.push(CloudEffect::Send {
                to: peer,
                msg: WireMsg::Gossip(wm),
                wire: GossipWatermark::WIRE_SIZE,
            });
            // Freshness refresh rides the gossip cadence (§V-D).
            if let Some(cert) = self.index.refresh_global(&self.identity, edge, now_ns) {
                out.push(CloudEffect::Send {
                    to: peer,
                    msg: WireMsg::GlobalRefresh(cert),
                    wire: 96,
                });
            }
        }
    }
}
