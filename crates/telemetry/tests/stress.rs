//! Concurrent span/counter stress: many threads hammer the global
//! collector; no increment or span may be lost.

use std::sync::atomic::{AtomicBool, Ordering};

const THREADS: usize = 8;
const ITERS: u64 = 2_000;

#[test]
fn concurrent_spans_and_counters_lose_nothing() {
    let collector = mist_telemetry::global();
    collector.enable();

    let shared = collector.counter("stress.shared");
    let go = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = shared.clone();
            let go = &go;
            scope.spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..ITERS {
                    let _span = mist_telemetry::span!("stress.iter", thread = t, i = i);
                    shared.inc();
                    mist_telemetry::counter_add("stress.registry", 1);
                    mist_telemetry::gauge_max("stress.high_water", (t as f64) * 1e4 + i as f64);
                }
            });
        }
        go.store(true, Ordering::Release);
    });

    let expected = (THREADS as u64) * ITERS;
    assert_eq!(shared.value(), expected);

    let snap = collector.snapshot();
    assert_eq!(snap.counter("stress.shared"), expected);
    assert_eq!(snap.counter("stress.registry"), expected);
    assert_eq!(
        snap.gauge("stress.high_water"),
        (THREADS as f64 - 1.0) * 1e4 + (ITERS as f64 - 1.0)
    );

    let spans = collector.take_spans();
    assert_eq!(spans.len(), (THREADS * ITERS as usize));
    // Every spawned thread got its own tid track.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), THREADS);
}
