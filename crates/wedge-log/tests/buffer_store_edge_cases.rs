//! Edge-case integration tests for `BlockBuffer` (seal/push) and
//! `LogStore::uncertified_ids` ordering.

use wedge_crypto::{Identity, IdentityId};
use wedge_log::{Block, BlockBuffer, BlockId, BlockProof, Entry, LogStore};

fn entry(client: &Identity, seq: u64) -> Entry {
    Entry::new_signed(client, seq, vec![seq as u8; 4])
}

fn block(id: u64) -> Block {
    let c = Identity::derive("client", 1);
    Block { edge: IdentityId(9), id: BlockId(id), entries: vec![entry(&c, id)], sealed_at_ns: id }
}

// ---- BlockBuffer::seal / push edge cases ----

#[test]
fn sealing_an_empty_buffer_yields_nothing_and_burns_no_id() {
    let c = Identity::derive("client", 1);
    let mut buf = BlockBuffer::new(IdentityId(9));
    assert!(buf.seal(100).is_none());
    assert!(buf.seal(200).is_none(), "repeated empty seals stay None");
    assert_eq!(buf.next_block_id(), BlockId(0), "empty seals do not consume block ids");
    // The first real block still gets id 0.
    buf.push(entry(&c, 0));
    assert_eq!(buf.seal(300).unwrap().id, BlockId(0));
}

#[test]
fn exact_boundary_seal_then_refill_continues_ids_and_replay_window() {
    let c = Identity::derive("client", 1);
    let mut buf = BlockBuffer::new(IdentityId(9));
    assert!(buf.push(entry(&c, 0)));
    assert!(buf.push(entry(&c, 1)));
    let b0 = buf.seal(10).unwrap();
    assert_eq!((b0.id, b0.len()), (BlockId(0), 2));
    // Replay of a sealed sequence is still rejected after the seal.
    assert!(!buf.push(entry(&c, 1)));
    assert!(buf.push(entry(&c, 2)));
    assert!(buf.push(entry(&c, 3)));
    let b1 = buf.seal(20).unwrap();
    assert_eq!((b1.id, b1.len()), (BlockId(1), 2));
    assert_eq!(b1.sealed_at_ns, 20);
}

#[test]
fn align_next_id_only_moves_forward() {
    let c = Identity::derive("client", 1);
    let mut buf = BlockBuffer::new(IdentityId(9));
    buf.align_next_id(BlockId(5));
    assert_eq!(buf.next_block_id(), BlockId(5), "aligns forward past preloaded blocks");
    buf.align_next_id(BlockId(2));
    assert_eq!(buf.next_block_id(), BlockId(5), "never rewinds");
    buf.push(entry(&c, 0));
    assert_eq!(buf.seal(0).unwrap().id, BlockId(5));
    assert_eq!(buf.next_block_id(), BlockId(6));
}

// ---- LogStore::uncertified_ids ordering ----

#[test]
fn uncertified_ids_are_in_ascending_id_order_despite_insertion_order() {
    let mut log = LogStore::new();
    // Append out of id order (the store orders by id internally).
    for id in [4u64, 0, 3, 1, 2] {
        log.append(block(id));
    }
    assert_eq!(
        log.uncertified_ids(),
        vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(4)],
        "ascending id order, not insertion order"
    );
}

#[test]
fn uncertified_ids_shrink_as_proofs_attach_preserving_order() {
    let cloud = Identity::derive("cloud", 0);
    let mut log = LogStore::new();
    for id in 0..5u64 {
        log.append(block(id));
    }
    // Certify the middle, then the ends, in scrambled order.
    for id in [2u64, 4, 0] {
        let digest = log.get(BlockId(id)).unwrap().block.digest();
        assert!(log.attach_proof(BlockProof::issue(&cloud, IdentityId(9), BlockId(id), digest)));
    }
    assert_eq!(log.uncertified_ids(), vec![BlockId(1), BlockId(3)]);
    assert_eq!(log.certified_count(), 3);
    // Attaching the rest empties the list.
    for id in [3u64, 1] {
        let digest = log.get(BlockId(id)).unwrap().block.digest();
        log.attach_proof(BlockProof::issue(&cloud, IdentityId(9), BlockId(id), digest));
    }
    assert!(log.uncertified_ids().is_empty());
}

#[test]
fn reattaching_a_proof_is_idempotent_for_uncertified_tracking() {
    let cloud = Identity::derive("cloud", 0);
    let mut log = LogStore::new();
    log.append(block(0));
    log.append(block(1));
    let digest = log.get(BlockId(0)).unwrap().block.digest();
    let proof = BlockProof::issue(&cloud, IdentityId(9), BlockId(0), digest);
    assert!(log.attach_proof(proof.clone()));
    assert!(log.attach_proof(proof), "re-attach succeeds");
    assert_eq!(log.uncertified_ids(), vec![BlockId(1)]);
    assert_eq!(log.certified_count(), 1);
}
