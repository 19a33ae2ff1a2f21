//! The pooled encode path allocates nothing: `encode_payload_into` on
//! a reused buffer keeps its capacity, so a steady stream of frames
//! costs no allocator calls.
//!
//! The test binary runs under a counting global allocator that counts
//! per thread, so the test harness's own threads cannot disturb the
//! figure. This file holds one test on purpose.
//!
//! # Unsafety
//!
//! The `GlobalAlloc` impl is the one unsafe surface here: it forwards
//! verbatim to [`System`] under the caller's own layout contract,
//! adding only a thread-local counter bump.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wedge_core::messages::WireMsg;
use wedge_crypto::Identity;
use wedge_log::Entry;

thread_local! {
    /// Allocator calls (alloc + realloc) made by this thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged, so `System`'s
// guarantees are this allocator's; `count` allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

#[test]
fn pooled_encode_allocates_nothing() {
    const OPS: u64 = 10_000;
    let client = Identity::derive("client", 1000);
    let msg = WireMsg::BatchAdd {
        req_id: 7,
        entries: (0..4).map(|s| Entry::new_signed(&client, s, vec![0xAB; 64])).collect(),
    };
    // The counter works: the fresh path allocates its buffer each time.
    let fresh = allocs_during(|| {
        for _ in 0..OPS {
            std::hint::black_box(msg.encode_payload());
        }
    });
    assert!(fresh >= OPS, "fresh encode made {fresh} allocations for {OPS} calls");
    // The first call pays the one reserve; every later call reuses it.
    let mut buf = Vec::new();
    msg.encode_payload_into(&mut buf);
    let pooled = allocs_during(|| {
        for _ in 0..OPS {
            msg.encode_payload_into(&mut buf);
            std::hint::black_box(buf.len());
        }
    });
    assert_eq!(pooled, 0, "{OPS} pooled encodes on a reused buffer allocated");
    assert_eq!(buf, msg.encode_payload(), "the pooled bytes are the fresh bytes");
}
