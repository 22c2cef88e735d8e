//! Allocation budget of the uncontended 2PL transaction.
//!
//! A counting global allocator watches a warmed single-client engine
//! run eight-operation transactions. Two claims: the count per
//! transaction does not depend on how many items the engine stores
//! (finding an item allocates nothing, whatever the table size), and
//! it stays within the budget measured when the item index landed.
//!
//! One test only: the counter is process-wide, and a second test
//! running on a sibling thread would be counted too.

use mcv_engine::{Engine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TXNS: u64 = 1_000;

/// Four reads and four writes over eight distinct items, the items
/// drawn from the first 1 000 whatever the table size, so the measured
/// transactions are the same at every size.
fn run_txns(engine: &Engine, keys: &[String], from: u64, n: u64) {
    for t in from..from + n {
        let mut txn = engine.begin();
        for j in 0..8u64 {
            let key = &keys[((t * 8 + j) * 7 % 1_000) as usize];
            if j % 2 == 0 {
                txn.read(key).expect("uncontended read");
            } else {
                txn.write(key, (t * 8 + j) as i64).expect("uncontended write");
            }
        }
        txn.commit().expect("commit");
    }
}

/// Allocations per transaction (rounded down, which drops the few
/// doublings of the log buffer that fall inside the window) of a warmed
/// engine holding `items` items.
fn allocations_per_txn(items: usize) -> u64 {
    let engine =
        Engine::new(EngineConfig { group_commit: false, sample_every: 0, ..Default::default() });
    let keys: Vec<String> = (0..items).map(|i| format!("item{i:06}")).collect();
    for chunk in keys.chunks(256) {
        let mut t = engine.begin();
        for key in chunk {
            t.write(key, 1).expect("preload write");
        }
        t.commit().expect("preload commit");
    }
    run_txns(&engine, &keys, 0, 200);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run_txns(&engine, &keys, 200, TXNS);
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / TXNS
}

#[test]
fn allocations_per_transaction_are_few_and_independent_of_table_size() {
    let small = allocations_per_txn(1_000);
    let large = allocations_per_txn(100_000);
    assert_eq!(small, large, "allocations per transaction grew with the table");
    // Measured when the item index landed: 14 — eight lock-table keys,
    // four undo keys, the undo list, the shard set (its parent made 18:
    // four B-tree nodes of sharers more). The bound is that plus 10 %.
    assert!(large <= 15, "{large} allocations per transaction, over budget");
}
