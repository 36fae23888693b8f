//! The disabled path must be a true no-op: a counting global allocator
//! proves that spans, counter adds, gauge sets and journal events
//! neither allocate nor record anything while the collector is off.
//!
//! This lives in its own integration-test binary so the allocator and
//! the global collector's state are not shared with other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
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
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_path_allocates_and_records_nothing() {
    // Force the lazy global collector (and this thread's tid slot) to
    // initialize before measuring.
    let collector = mist_telemetry::global();
    assert!(!collector.is_enabled());
    // The journal shares the zero-cost contract: force its lazy global
    // too, then prove emission is allocation-free while disabled.
    let journal = mist_telemetry::global_journal();
    assert!(!journal.is_enabled());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1_000u64 {
        let _span = mist_telemetry::span!("disabled.span", i = i, label = "unused");
        mist_telemetry::counter_add("disabled.counter", i);
        mist_telemetry::gauge_set("disabled.gauge", i as f64);
        mist_telemetry::gauge_max("disabled.gauge_max", i as f64);
        mist_telemetry::journal_event(|| mist_telemetry::JournalEvent::FrontierSummary {
            mesh_nodes: 1,
            mesh_gpus: 4,
            role: format!("role-{i}"), // closure body must not run while disabled
            inflight: 1,
            grad_accum: 2,
            max_layers: 8,
            enumerated: 10,
            oom: 1,
            nonfinite: 0,
            feasible: 9,
            survived: 4,
            dominated: 5,
            sizes: vec![1, 2, 1],
        });
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled telemetry path allocated");

    assert!(collector.spans().is_empty());
    assert!(collector.snapshot().is_empty());
    assert!(journal.is_empty());
    assert_eq!(journal.dropped(), 0);
}
