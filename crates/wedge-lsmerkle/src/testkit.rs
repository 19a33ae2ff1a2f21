//! The unit tests' in-process deployment: one cloud certifying and
//! merging one edge tree (exposition config) through the shared
//! [`certify_block`] and [`CloudIndex::merge_until_settled`], and one
//! client signing the entries.

use crate::config::LsmConfig;
use crate::kv::{kv_entry, KvOp};
use crate::merge::{certify_block, CloudIndex, MergeRequest, MergeResult};
use crate::tree::LsMerkle;
use wedge_crypto::{Identity, IdentityId, KeyRegistry};
use wedge_log::{Block, BlockId, CertLedger};

pub(crate) struct Fixture {
    pub cloud: Identity,
    pub ledger: CertLedger,
    pub index: CloudIndex,
    pub tree: LsMerkle,
    pub edge: IdentityId,
    pub client: Identity,
    /// The cloud's and the client's public keys.
    pub registry: KeyRegistry,
    pub next_bid: u64,
    pub next_seq: u64,
}

impl Fixture {
    pub fn new() -> Self {
        let cloud = Identity::derive("cloud", 0);
        let client = Identity::derive("client", 1);
        let edge = IdentityId(9);
        let mut registry = KeyRegistry::new();
        registry.register(cloud.id, cloud.public()).unwrap();
        registry.register(client.id, client.public()).unwrap();
        let mut index = CloudIndex::new(LsmConfig::exposition());
        let init = index.init_edge(&cloud, edge, 0);
        let tree = LsMerkle::new(edge, LsmConfig::exposition(), init);
        let ledger = CertLedger::new();
        Fixture { cloud, ledger, index, tree, edge, client, registry, next_bid: 0, next_seq: 0 }
    }

    /// Seals a block of puts, certifies it, feeds it to the tree.
    pub fn ingest(&mut self, kvs: &[(u64, &[u8])]) {
        let ops: Vec<KvOp> = kvs.iter().map(|(k, v)| KvOp::put(*k, v.to_vec())).collect();
        self.ingest_ops(&ops);
    }

    /// Seals a block of `ops`, certifies it, feeds it to the tree.
    pub fn ingest_ops(&mut self, ops: &[KvOp]) {
        let entries = ops
            .iter()
            .map(|op| {
                let e = kv_entry(&self.client, self.next_seq, op);
                self.next_seq += 1;
                e
            })
            .collect();
        let id = BlockId(self.next_bid);
        let block = Block { edge: self.edge, id, entries, sealed_at_ns: self.next_bid };
        self.next_bid += 1;
        certify_block(&self.cloud, &mut self.ledger, &mut self.tree, block);
    }

    /// Appends a block of one put that the cloud never certifies.
    pub fn ingest_uncertified(&mut self, key: u64) {
        let entries = vec![kv_entry(&self.client, 900 + key, &KvOp::put(key, b"u".to_vec()))];
        let id = BlockId(self.next_bid);
        self.next_bid += 1;
        self.tree.apply_block(Block { edge: self.edge, id, entries, sealed_at_ns: 0 });
    }

    /// Runs merges until nothing overflows: the shared loop.
    pub fn drain_merges(&mut self) -> Vec<(MergeRequest, MergeResult)> {
        self.index.merge_until_settled(&self.cloud, &self.ledger, &mut self.tree, 1_000)
    }
}
