//! The edge node's entry buffer.
//!
//! The edge pushes a batch's entries here and seals them into one
//! block (§IV-B); the buffer numbers the blocks. Replay protection
//! lives here too: a duplicate `(client, sequence)` pair is rejected
//! (§IV-E idempotence).

use crate::block::{Block, BlockId};
use crate::entry::Entry;
use std::collections::HashMap;
use wedge_crypto::IdentityId;

/// Accumulates entries until the edge seals them into a block.
#[derive(Debug)]
pub struct BlockBuffer {
    pending: Vec<Entry>,
    /// Highest sequence seen per client (replay window). The paper
    /// permits idempotent application; we reject outright duplicates.
    last_seq: HashMap<IdentityId, u64>,
    next_id: BlockId,
    edge: IdentityId,
}

impl BlockBuffer {
    /// Creates an empty buffer for `edge`; its first block is id 0.
    pub fn new(edge: IdentityId) -> Self {
        BlockBuffer { pending: Vec::new(), last_seq: HashMap::new(), next_id: BlockId(0), edge }
    }

    /// The id the next sealed block will get.
    pub fn next_block_id(&self) -> BlockId {
        self.next_id
    }

    /// Offers an entry. `false` rejects a replay: a `(client,
    /// sequence)` pair at or below the client's high-water mark.
    pub fn push(&mut self, entry: Entry) -> bool {
        if self.last_seq.get(&entry.client).is_some_and(|&hi| entry.sequence <= hi) {
            return false;
        }
        self.last_seq.insert(entry.client, entry.sequence);
        self.pending.push(entry);
        true
    }

    /// Advances the next block id to `next` if it is ahead — used when
    /// blocks were appended to the log out-of-band (e.g. the harness
    /// preload path) so sealing resumes after them.
    pub fn align_next_id(&mut self, next: BlockId) {
        if next > self.next_id {
            self.next_id = next;
        }
    }

    /// Seals the pending entries into the next block. Returns `None`
    /// when nothing is pending.
    pub fn seal(&mut self, now_ns: u64) -> Option<Block> {
        if self.pending.is_empty() {
            return None;
        }
        let entries = std::mem::take(&mut self.pending);
        let block = Block { edge: self.edge, id: self.next_id, entries, sealed_at_ns: now_ns };
        self.next_id = self.next_id.next();
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::Identity;

    fn entry(client: &Identity, seq: u64) -> Entry {
        Entry::new_signed(client, seq, vec![0; 8])
    }

    #[test]
    fn fills_and_seals() {
        let c = Identity::derive("client", 1);
        let mut buf = BlockBuffer::new(IdentityId(9));
        for seq in 0..3 {
            assert!(buf.push(entry(&c, seq)));
        }
        let b = buf.seal(100).unwrap();
        assert_eq!(b.id, BlockId(0));
        assert_eq!(b.len(), 3);
        assert_eq!(b.sealed_at_ns, 100);
        assert!(buf.seal(200).is_none(), "the seal took every pending entry");
        assert_eq!(buf.next_block_id(), BlockId(1));
    }

    #[test]
    fn replay_rejected() {
        let c = Identity::derive("client", 1);
        let mut buf = BlockBuffer::new(IdentityId(9));
        assert!(buf.push(entry(&c, 5)));
        assert!(!buf.push(entry(&c, 5)));
        assert!(!buf.push(entry(&c, 3)));
        assert!(buf.push(entry(&c, 6)));
        assert_eq!(buf.seal(0).unwrap().len(), 2);
    }

    #[test]
    fn replay_window_survives_seal() {
        let c = Identity::derive("client", 1);
        let mut buf = BlockBuffer::new(IdentityId(9));
        assert!(buf.push(entry(&c, 0)));
        buf.seal(0).unwrap();
        assert!(!buf.push(entry(&c, 0)));
    }

    #[test]
    fn different_clients_do_not_collide() {
        let c1 = Identity::derive("client", 1);
        let c2 = Identity::derive("client", 2);
        let mut buf = BlockBuffer::new(IdentityId(9));
        assert!(buf.push(entry(&c1, 0)));
        assert!(buf.push(entry(&c2, 0)));
    }

    #[test]
    fn empty_seal_is_none() {
        let mut buf = BlockBuffer::new(IdentityId(9));
        assert!(buf.seal(0).is_none());
    }

    #[test]
    fn block_ids_are_monotonic() {
        let c = Identity::derive("client", 1);
        let mut buf = BlockBuffer::new(IdentityId(9));
        for i in 0..5 {
            buf.push(entry(&c, i));
            let b = buf.seal(0).unwrap();
            assert_eq!(b.id, BlockId(i));
        }
    }
}
