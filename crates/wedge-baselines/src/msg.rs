//! Message set shared by the two baseline systems (§II-C, §VI).

use wedge_log::{Block, BlockProof, Entry};
use wedge_lsmerkle::{IndexReadProof, Key, KvOp, MergeRequest, MergeResult};

/// Baseline protocol messages.
#[derive(Clone, Debug)]
pub enum BMsg {
    /// Kick a client's workload.
    Start,
    /// Server → client: the batch is committed, and final (the cloud
    /// acks in Cloud-only; in Edge-baseline the nearby edge acks once
    /// it installed the certified block).
    BatchAck {
        /// Echoed request id.
        req_id: u64,
    },
    /// Client → server: interactive get (the cloud serves it in
    /// Cloud-only, the edge with Merkle proofs in Edge-baseline).
    Get {
        /// Request id.
        req_id: u64,
        /// The key.
        key: Key,
    },
    // ---- Cloud-only ----
    /// Client → cloud: a batch of raw KV ops (full data over the WAN).
    CoBatch {
        /// Request id.
        req_id: u64,
        /// The operations.
        ops: Vec<KvOp>,
    },
    /// Cloud → client: the value (trusted, no proof needed).
    CoGetResp {
        /// Echoed request id.
        req_id: u64,
        /// The value.
        value: Option<Vec<u8>>,
    },
    // ---- Edge-baseline ----
    /// Client → cloud: a signed batch (§II-C: writes go to the cloud
    /// first).
    EbBatch {
        /// Request id.
        req_id: u64,
        /// The signed entries.
        entries: Vec<Entry>,
    },
    /// Cloud → edge: install a certified block plus any merge deltas
    /// (the full data + regenerated tree cross the WAN — the paper's
    /// bandwidth-stress point).
    EbInstall {
        /// Install sequence number (applied in order).
        seq: u64,
        /// The client to ack once applied (the edge is near the
        /// client, so it acks directly — the paper's commit path).
        client: wedge_sim::ActorId,
        /// The client's request id.
        req_id: u64,
        /// The certified block.
        block: Block,
        /// Its certification.
        proof: BlockProof,
        /// Merges triggered by this block, in application order.
        merges: Vec<(MergeRequest, MergeResult)>,
    },
    /// Edge → cloud: install applied.
    EbInstallAck {
        /// Echoed install sequence.
        seq: u64,
    },
    /// Edge → client: proof-carrying response.
    EbGetResp {
        /// Echoed request id.
        req_id: u64,
        /// The proof material.
        proof: Box<IndexReadProof>,
    },
}

impl BMsg {
    /// Approximate wire size for the bandwidth model.
    pub fn wire_size(&self) -> u64 {
        match self {
            BMsg::Start | BMsg::BatchAck { .. } => 8,
            BMsg::CoBatch { ops, .. } => {
                16 + ops
                    .iter()
                    .map(|o| 9 + o.value.as_ref().map_or(0, |v| v.len() as u64))
                    .sum::<u64>()
            }
            BMsg::Get { .. } => 24,
            BMsg::CoGetResp { value, .. } => 16 + value.as_ref().map_or(0, |v| v.len() as u64),
            BMsg::EbBatch { entries, .. } => {
                16 + entries.iter().map(|e| e.wire_size()).sum::<u64>()
            }
            BMsg::EbInstall { block, merges, .. } => {
                let merge_bytes: u64 =
                    merges.iter().map(|(rq, rs)| rq.wire_size() + rs.wire_size()).sum();
                block.wire_size() + BlockProof::WIRE_SIZE + merge_bytes + 16
            }
            BMsg::EbInstallAck { .. } => 16,
            BMsg::EbGetResp { proof, .. } => 8 + proof.wire_size(),
        }
    }
}
