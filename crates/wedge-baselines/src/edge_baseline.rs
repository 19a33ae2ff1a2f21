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
//! The cloud seals, then runs the shared merge loop: each block is
//! certified by [`certify_block`] and settled by
//! [`CloudIndex::merge_until_settled`], the same in-process steps the
//! WedgeChain preload uses. The edge replays the returned pairs.
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
    build_read_proof, certify_block, CloudIndex, LsMerkle, LsmConfig, MergeRequest, MergeResult,
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
        let id = self.next_bid;
        self.next_bid = id.next();
        let block = Block { edge: self.tree.edge(), id, entries, sealed_at_ns: now_ns };
        let proof = certify_block(&self.identity, &mut self.ledger, &mut self.tree, block.clone());
        let merges =
            self.index.merge_until_settled(&self.identity, &self.ledger, &mut self.tree, now_ns);
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

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_core::deployment::Identities;
    use wedge_core::harness::preload_batches;
    use wedge_log::CommitPhase::Phase2;
    use wedge_lsmerkle::verify_read_proof;

    /// `EbEdge::install` replays the cloud's merges into a replica that
    /// converges on the cloud's tree: after a preload that cascades
    /// L0 → L1 → L2, the level roots and the global root match, and
    /// the replica's read proof for every key verifies under the cloud
    /// as Phase II.
    #[test]
    fn replica_converges_on_the_cloud_tree() {
        let ids = Identities::derive(1, 1);
        let (cloud_ident, edge_ident) = (&ids.cloud, ids.edges[0].id);
        let lsm = LsmConfig::exposition();
        let cost = CostModel::default();
        let mut cloud = EbCloud::new(
            cloud_ident.clone(),
            ActorId::from_index(1),
            edge_ident,
            cost.clone(),
            lsm.clone(),
        );
        let init = CloudIndex::new(lsm.clone()).init_edge(cloud_ident, edge_ident, 0);
        let mut edge =
            EbEdge::new(ActorId::from_index(0), cost, LsMerkle::new(edge_ident, lsm, init));
        let n = 50; // 13 blocks: the last stays in L0
        let mut sources = Vec::new();
        for entries in preload_batches(n, 4, 8, ids.clients[0][0].id) {
            let install = cloud.seal(entries, 0);
            sources.extend(install.2.iter().map(|(req, _)| req.source_level));
            edge.install(install);
        }
        assert!(sources.contains(&1), "the preload must cascade into L2: {sources:?}");
        assert_eq!(edge.tree.level_roots(), cloud.tree.level_roots());
        assert_eq!(edge.tree.global().root, cloud.tree.global().root);
        for key in 0..n {
            let proof = build_read_proof(&edge.tree, key);
            let read =
                verify_read_proof(&proof, edge_ident, cloud_ident.id, &ids.registry, 0, None)
                    .unwrap_or_else(|e| panic!("key {key}: {e:?}"));
            assert_eq!((read.value, read.phase), (Some(vec![0xEE; 8]), Phase2), "key {key}");
        }
    }
}
