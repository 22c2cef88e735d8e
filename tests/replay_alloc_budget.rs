//! Allocation budget of one Chapter 5 replay.
//!
//! A counting global allocator watches `run_chapter5_scripts`: parse
//! every spec, take every colimit, translate, and run the three `prove`
//! statements. Two claims: the count is the same on every replay (the
//! pipeline is deterministic, so a drifting count means a cache or a
//! leak), and it stays within the budget measured when the logic layer
//! stopped deep-copying literals and formulas: 29 846 allocations per
//! replay in both the debug (`./ci quick`) and the release build, down
//! from 53 603 before literal argument lists and property formulas were
//! shared.
//!
//! One test only: the counter is process-wide, and a second test
//! running on a sibling thread would be counted too.

use mcv::blocks::script_runner::run_chapter5_scripts;
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

/// Allocations per replay when the budget was set (debug and release).
const BUDGET: u64 = 29_846;

/// Allocations made by one replay.
fn replay_allocations() -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let runs = run_chapter5_scripts().expect("chapter 5 scripts run");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(runs);
    after - before
}

#[test]
fn a_replay_allocates_a_fixed_count_within_budget() {
    // The warm-up replay fills the symbol interner.
    replay_allocations();
    let first = replay_allocations();
    let second = replay_allocations();
    println!("allocations per replay: {first}");
    assert_eq!(first, second, "allocations differ between two identical replays");
    assert!(first <= BUDGET, "{first} allocations per replay, over the budget of {BUDGET}");
}
