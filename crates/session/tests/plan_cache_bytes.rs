//! The plan cache's footprint: a stored plan is a slice of the physical
//! DAG, not the DAG. A counting global allocator (hence this binary of
//! its own, with one test) measures the live bytes a Q11 + Q15 batch
//! leaves behind on the submit that stores its plan (about 10 KB). A
//! clone of the whole physical DAG in its place keeps about 32 KB
//! alive, twice the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mqo_exec::generate_database;
use mqo_logical::Batch;
use mqo_session::{MqoSession, SessionOptions};
use mqo_workloads::Tpcd;

/// The most a stored 4-query plan may keep alive.
const BOUND_BYTES: isize = 16 << 10;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live bytes the submit of `batch` leaves behind, its result dropped.
fn retained(session: &mut MqoSession, batch: &Batch) -> (isize, bool) {
    let before = LIVE.load(Ordering::Relaxed);
    let reused = session.submit(batch).expect("Q11 + Q15 runs").plan_reused();
    (LIVE.load(Ordering::Relaxed) - before, reused)
}

#[test]
fn a_stored_plan_is_a_slice_not_the_dag() {
    let w = Tpcd::new(0.002);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let batch = Batch::of(w.q11().queries.into_iter().chain(w.q15().queries).collect());
    let mut session = MqoSession::new(w.catalog, db, SessionOptions::new());
    // Cold: builds and admits the shared temps; remembers the key.
    session.submit(&batch).expect("cold submit");
    // Warm, second sighting: reads only warm temps, stores the plan.
    let (stored, reused) = retained(&mut session, &batch);
    assert!(!reused);
    // Third sighting: runs the stored plan and keeps nothing new.
    let (steady, reused) = retained(&mut session, &batch);
    assert!(reused, "the stored plan is used");
    eprintln!("stored plan: {stored} B live; a reuse: {steady} B");
    assert!(
        stored <= BOUND_BYTES,
        "storing the plan kept {stored} B alive, over the {BOUND_BYTES} B bound"
    );
    assert!(stored > 0, "the second submit stored nothing");
    assert!(steady.abs() <= 1 << 10, "a reuse keeps {steady} B alive");
}
