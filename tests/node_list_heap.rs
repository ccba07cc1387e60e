//! A job's node list costs at most two heap bytes per id, both in the
//! simulator's job records and in the parsed job log.
//!
//! A counting global allocator tracks the bytes live on each thread.
//! Taking every list out of a finished study and dropping them frees
//! exactly the heap they held, wherever it was allocated, so the bound
//! is checked on the lists the engine and the parser really built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use titan_gpu_reliability::conlog::{JobRecord, NodeSet};
use titan_gpu_reliability::{Study, StudyConfig};

thread_local! {
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize, sign: i64) {
    let bytes = i64::try_from(bytes).unwrap_or(i64::MAX);
    let _ = LIVE.try_with(|c| c.set(c.get() + sign * bytes));
}

struct Counting;

// SAFETY: every call defers to `System`; the bookkeeping is plain `Cell`
// arithmetic on a thread-local (`try_with` skips it during TLS teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(layout.size(), -1);
            count(new_size, 1);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The heap bytes `jobs`' node lists hold, and how many ids they list.
fn node_list_heap(jobs: &mut [JobRecord]) -> (i64, usize) {
    let ids = jobs.iter().map(|j| j.nodes.len()).sum();
    let lists: Vec<NodeSet> = jobs.iter_mut().map(|j| std::mem::take(&mut j.nodes)).collect();
    let held = live();
    let headers = i64::try_from(lists.capacity() * std::mem::size_of::<NodeSet>()).unwrap();
    drop(lists);
    (held - live() - headers, ids)
}

#[test]
fn node_lists_hold_at_most_two_bytes_per_id() {
    let mut study = Study::new(StudyConfig::quick(20, 7)).run();
    for (side, jobs) in [("engine", &mut study.sim.jobs), ("parsed", &mut study.data.jobs)] {
        let (heap, ids) = node_list_heap(jobs);
        assert!(ids > 100_000, "{side}: only {ids} ids");
        let bound = 2 * i64::try_from(ids).unwrap();
        assert!(heap <= bound, "{side}: {heap} heap bytes for {ids} ids");
        // Every byte counted is a list's own: no spare capacity hides.
        assert_eq!(heap, bound, "{side}");
    }
}
