//! The Edge-baseline (§II-C): writes are certified at the cloud
//! *synchronously*, then the regenerated (Merkle-covered) state is
//! shipped to the edge, which serves proof-carrying reads.
//!
//! This is "mLSM used with no changes in an edge-cloud environment"
//! (§VII): every put pays client→cloud data transfer, cloud Merkle
//! regeneration, cloud→edge state transfer, and an edge ack before
//! the client hears back. Index updates apply in order, so the cloud
//! keeps at most one install outstanding per edge — the serialization
//! that caps its scalability in Fig 5a. The commit path is the
//! triangle client → cloud → edge → client; the edge's install ack
//! returns to the cloud off the client's critical path.
//!
//! This module holds the two servers; the clients are
//! [`BaselineClient`](crate::client::BaselineClient)s on
//! [`Route::Edge`](crate::client::Route::Edge).

use crate::msg::BMsg;
use std::collections::VecDeque;
use wedge_core::cost::CostModel;
use wedge_crypto::{Identity, IdentityId};
use wedge_log::{Block, BlockId, BlockProof, CertLedger, Entry, LogStore};
use wedge_lsmerkle::{
    build_read_proof, CloudIndex, LsMerkle, LsmConfig, MergeRequest, MergeResult,
};
use wedge_sim::{Actor, ActorId, Context};

/// A sealed, certified block and the merges it triggered, in
/// application order: what the edge replica installs.
pub type Install = (Block, BlockProof, Vec<(MergeRequest, MergeResult)>);

/// The Edge-baseline cloud: the system of record. It seals blocks,
/// maintains its own authoritative LSMerkle, and pushes every update
/// to the edge before acking the client.
pub struct EbCloud {
    identity: Identity,
    edge: ActorId,
    cost: CostModel,
    ledger: CertLedger,
    index: CloudIndex,
    /// The cloud's authoritative copy of the tree.
    pub tree: LsMerkle,
    next_bid: BlockId,
    next_seq: u64,
    /// One install outstanding at a time; the rest queue here.
    queue: VecDeque<(ActorId, u64, Vec<Entry>)>,
    in_flight: Option<(ActorId, u64)>,
    /// Batches committed end-to-end.
    pub batches_committed: u64,
    /// Bytes shipped to the edge (bandwidth-stress metric).
    pub wan_bytes_to_edge: u64,
}

impl EbCloud {
    /// Creates the Edge-baseline cloud.
    pub fn new(
        identity: Identity,
        edge: ActorId,
        edge_identity: IdentityId,
        cost: CostModel,
        lsm: LsmConfig,
    ) -> Self {
        let mut index = CloudIndex::new(lsm.clone());
        let init = index.init_edge(&identity, edge_identity, 0);
        let tree = LsMerkle::new(edge_identity, lsm, init);
        EbCloud {
            identity,
            edge,
            cost,
            ledger: CertLedger::new(),
            index,
            tree,
            next_bid: BlockId(0),
            next_seq: 0,
            queue: VecDeque::new(),
            in_flight: None,
            batches_committed: 0,
            wan_bytes_to_edge: 0,
        }
    }

    /// Seals `entries` into the next block, certifies it, applies it
    /// to the cloud's tree and runs every merge it triggers (the cloud
    /// trusts itself). Returns what the edge replica must install.
    pub fn seal(&mut self, entries: Vec<Entry>, now_ns: u64) -> Install {
        let bid = self.next_bid;
        self.next_bid = self.next_bid.next();
        let block = Block { edge: self.tree.edge(), id: bid, entries, sealed_at_ns: now_ns };
        let digest = block.digest();
        self.ledger.offer(self.tree.edge(), bid, digest);
        let proof = BlockProof::issue(&self.identity, self.tree.edge(), bid, digest);
        self.tree.apply_block_with_digest(block.clone(), digest);
        self.tree.attach_block_proof(proof.clone());
        let mut merges = Vec::new();
        while let Some(level) = self.tree.overflowing_level() {
            let req = self.tree.build_merge_request(level);
            if level == 0 && req.source_l0.is_empty() {
                break;
            }
            let res = self
                .index
                .process_merge(&self.identity, &self.ledger, &req, now_ns)
                .expect("cloud's own merge must verify");
            self.tree.apply_merge_result(&req, res.clone()).expect("cloud applies own merge");
            merges.push((req, res));
        }
        (block, proof, merges)
    }

    /// Processes one queued batch: seal, certify, merge, ship to edge.
    fn process_next(&mut self, ctx: &mut Context<'_, BMsg>) {
        if self.in_flight.is_some() {
            return;
        }
        let Some((client, req_id, entries)) = self.queue.pop_front() else {
            return;
        };
        // Synchronous certification + Merkle regeneration (the §II-C
        // drawback: the cloud is on the write path).
        ctx.use_cpu(self.cost.eb_cloud_process(entries.len() as u64));
        let (block, proof, merges) = self.seal(entries, ctx.now().as_nanos());
        for (req, _) in &merges {
            ctx.use_cpu(self.cost.merge(req.records()));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = BMsg::EbInstall { seq, client, req_id, block, proof, merges };
        let sz = msg.wire_size();
        self.wan_bytes_to_edge += sz;
        self.in_flight = Some((client, req_id));
        ctx.send(self.edge, msg, sz);
    }
}

impl Actor<BMsg> for EbCloud {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ActorId, msg: BMsg) {
        match msg {
            BMsg::EbBatch { req_id, entries } => {
                self.queue.push_back((from, req_id, entries));
                self.process_next(ctx);
            }
            BMsg::EbInstallAck { .. } => {
                // The edge already acked the client; this just releases
                // the next install.
                if self.in_flight.take().is_some() {
                    self.batches_committed += 1;
                }
                self.process_next(ctx);
            }
            _ => {}
        }
    }
}

/// The Edge-baseline edge: a passive, certified replica that serves
/// proof-carrying reads.
pub struct EbEdge {
    cloud: ActorId,
    cost: CostModel,
    /// The replica tree (every page certified on arrival).
    pub tree: LsMerkle,
    /// The replica log.
    pub log: LogStore,
    /// Gets served.
    pub gets_served: u64,
}

impl EbEdge {
    /// Creates the edge replica.
    pub fn new(cloud: ActorId, cost: CostModel, tree: LsMerkle) -> Self {
        EbEdge { cloud, cost, tree, log: LogStore::new(), gets_served: 0 }
    }

    /// Installs a certified block and replays the cloud's merges.
    pub fn install(&mut self, (block, proof, merges): Install) {
        self.log.append(block.clone());
        self.log.attach_proof(proof.clone());
        self.tree.apply_block_with_digest(block, proof.digest);
        self.tree.attach_block_proof(proof);
        for (req, res) in merges {
            self.tree.apply_merge_result(&req, res).expect("replica replays merge");
        }
    }
}

impl Actor<BMsg> for EbEdge {
    fn on_message(&mut self, ctx: &mut Context<'_, BMsg>, from: ActorId, msg: BMsg) {
        match msg {
            BMsg::EbInstall { seq, client, req_id, block, proof, merges } => {
                ctx.use_cpu(self.cost.eb_edge_apply());
                self.install((block, proof, merges));
                // Ack the nearby client directly; release the cloud's
                // install slot in parallel.
                ctx.send(client, BMsg::BatchAck { req_id }, 8);
                ctx.send(self.cloud, BMsg::EbInstallAck { seq }, 16);
            }
            BMsg::Get { req_id, key } => {
                let pages = (self.tree.l0_pages().len() + self.tree.levels().len()) as u64;
                ctx.use_cpu(self.cost.build_read_proof(pages));
                self.gets_served += 1;
                let proof = build_read_proof(&self.tree, key);
                let resp = BMsg::EbGetResp { req_id, proof: Box::new(proof) };
                let sz = resp.wire_size();
                ctx.send(from, resp, sz);
            }
            _ => {}
        }
    }
}
