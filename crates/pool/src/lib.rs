//! Deterministic ordered fan-out for the Mist tuner.
//!
//! The crate exposes one primitive, [`ThreadPool::map_ordered`]: it maps
//! a closure over a vector and returns the results in input order, so
//! the output is byte-identical at any thread count.
//!
//! Each call runs inside `std::thread::scope`. The caller and its
//! helpers claim item indices from one atomic counter and write each
//! result into that item's own slot. A helper is a scoped thread,
//! started only while one of the pool's `threads − 1` permits is free
//! and more than one item is still unclaimed; it runs items of this call
//! alone and hands its permit back when none are left. A caller that
//! runs out of items waits for its helpers and never runs another call's
//! items, so a span open on a thread always encloses only work of the
//! item that thread runs. A nested call is just a thread running an item:
//! it takes helpers from the same permits, so at most `threads` items of
//! one call tree are in flight. The scope joins every helper before it
//! returns, which is what lets items borrow the caller's stack in safe
//! code.
//!
//! Each permit carries a telemetry span lane that the pool reserves up
//! front ([`mist_telemetry::lane_scope`]): a helper records its spans on
//! its permit's lane, so a tune draws at most `threads` lanes (the
//! caller's own plus one per permit) however many helpers it starts.
//!
//! The process-global pool ([`global`]) defaults to
//! `std::thread::available_parallelism` threads and is reconfigured by
//! [`set_global_threads`] (the CLI's `--threads N`).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Scope;

use parking_lot::{Mutex, RwLock};

/// The largest thread count a pool accepts; [`ThreadPool::new`] clamps
/// to it and the CLI rejects larger `--threads` values.
pub const MAX_THREADS: usize = 1024;

/// A thread budget for [`ThreadPool::map_ordered`]. Holds no threads:
/// helpers are started per call and joined before it returns.
pub struct ThreadPool {
    threads: usize,
    /// Free helper permits, each a span lane reserved for helpers.
    lanes: Mutex<Vec<u64>>,
}

impl ThreadPool {
    /// Creates a pool of `threads` total parallelism, clamped to
    /// `1..=MAX_THREADS`: the caller of a `map_ordered` plus up to
    /// `threads − 1` helpers. `threads == 1` runs every item inline on
    /// the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let lanes = (1..threads).map(|_| mist_telemetry::reserve_lane());
        ThreadPool {
            threads,
            lanes: Mutex::new(lanes.collect()),
        }
    }

    /// Total parallelism (helper permits + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` and returns `[f(items[0]), f(items[1]), …]`
    /// whatever order the items ran in. If any call of `f` panics, every
    /// other item still runs, then the first payload is re-thrown here.
    pub fn map_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let job = Job {
            pool: self,
            f,
            results: items.iter().map(|_| Mutex::new(None)).collect(),
            items: items.into_iter().map(Some).map(Mutex::new).collect(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            parent_span: mist_telemetry::current_span_id(),
        };
        std::thread::scope(|s| job.run(s));
        if let Some(payload) = job.panic.into_inner() {
            resume_unwind(payload);
        }
        job.results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every item ran"))
            .collect()
    }
}

/// One `map_ordered` call: its items, their result slots and the index
/// of the next unclaimed item.
struct Job<'p, T, R, F> {
    pool: &'p ThreadPool,
    f: F,
    items: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<R>>>,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller's current span, installed on every helper so spans in
    /// items parent the same on whichever thread runs them.
    parent_span: u64,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> Job<'_, T, R, F> {
    /// Claims and runs items until none is left, starting a helper
    /// before each claim while a permit is free and more than one item
    /// is unclaimed.
    fn run<'s>(&'s self, s: &'s Scope<'s, '_>) {
        loop {
            let claimed = self.next.load(Ordering::Relaxed);
            if self.items.len().saturating_sub(claimed) > 1 {
                self.start_helper(s);
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i).and_then(|slot| slot.lock().take()) else {
                return;
            };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(result) => *self.results[i].lock() = Some(result),
                Err(payload) => {
                    self.panic.lock().get_or_insert(payload);
                }
            }
        }
    }

    /// Takes a free permit and runs [`Job::run`] on a scoped helper
    /// thread that records spans on the permit's lane. A failed spawn
    /// hands the permit back and leaves the work to the running threads.
    fn start_helper<'s>(&'s self, s: &'s Scope<'s, '_>) {
        let Some(lane) = self.pool.lanes.lock().pop() else {
            return;
        };
        let helper = move || {
            let _lane = mist_telemetry::lane_scope(lane);
            let _parent = mist_telemetry::parent_scope(self.parent_span);
            self.run(s);
            self.pool.lanes.lock().push(lane);
        };
        let spawned = std::thread::Builder::new()
            .name("mist-pool".into())
            .spawn_scoped(s, helper);
        if spawned.is_err() {
            self.pool.lanes.lock().push(lane);
        }
    }
}

fn global_cell() -> &'static RwLock<Arc<ThreadPool>> {
    static CELL: OnceLock<RwLock<Arc<ThreadPool>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Arc::new(ThreadPool::new(default_threads()))))
}

/// The number of threads the global pool uses when not configured:
/// `std::thread::available_parallelism`, or 1 when unavailable.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-global pool. Cheap to call (one `RwLock` read + `Arc`
/// clone); hold the returned `Arc` across a whole phase rather than
/// re-fetching per call.
pub fn global() -> Arc<ThreadPool> {
    global_cell().read().clone()
}

/// Replaces the global pool with a fresh one of `threads` total threads
/// (the CLI's `--threads N`). Calls already running on the previous
/// pool finish on its permits.
pub fn set_global_threads(threads: usize) {
    let mut cell = global_cell().write();
    if cell.threads() != threads.clamp(1, MAX_THREADS) {
        *cell = Arc::new(ThreadPool::new(threads));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn map_ordered_preserves_submission_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..200).collect();
            let out = pool.map_ordered(items.clone(), |x| x * x);
            let want: Vec<u64> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, want, "threads={threads}");
        }
    }

    #[test]
    fn map_ordered_borrows_environment() {
        let pool = ThreadPool::new(4);
        let base = [10u64, 20, 30];
        let out = pool.map_ordered(vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = ThreadPool::new(3);
        let total = AtomicU32::new(0);
        let outer: Vec<u32> = pool.map_ordered((0..8u32).collect(), |i| {
            let inner = pool.map_ordered((0..8u32).collect(), |j| i * 8 + j);
            total.fetch_add(1, Ordering::Relaxed);
            inner.iter().sum()
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
        let want: Vec<u32> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(outer, want);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let main_id = std::thread::current().id();
        let out = pool.map_ordered(vec![(); 4], |()| std::thread::current().id());
        assert!(out.iter().all(|&id| id == main_id));
    }

    /// Counts items in flight and remembers the most seen at once.
    #[derive(Default)]
    struct InFlight {
        now: AtomicUsize,
        max: AtomicUsize,
    }

    impl InFlight {
        fn run<R>(&self, f: impl FnOnce() -> R) -> R {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(now, Ordering::SeqCst);
            let r = f();
            self.now.fetch_sub(1, Ordering::SeqCst);
            r
        }
    }

    #[test]
    fn at_most_threads_items_are_in_flight() {
        let pool = ThreadPool::new(3);
        let pause = || std::thread::sleep(Duration::from_micros(300));
        let flat = InFlight::default();
        pool.map_ordered((0..48).collect(), |_: u32| flat.run(pause));
        assert!(flat.max.load(Ordering::SeqCst) <= 3);

        let (outer, inner) = (InFlight::default(), InFlight::default());
        pool.map_ordered((0..8).collect(), |_: u32| {
            outer.run(|| pool.map_ordered((0..8).collect(), |_: u32| inner.run(pause)))
        });
        assert!(outer.max.load(Ordering::SeqCst) <= 3);
        assert!(inner.max.load(Ordering::SeqCst) <= 3);
        // Every permit is back once the calls returned.
        assert_eq!(pool.lanes.lock().len(), 2);
    }

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let pool = ThreadPool::new(4);
        let completed = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_ordered((0..16).collect(), |i: u32| {
                if i == 3 {
                    panic!("task {i} exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = result.expect_err("panic must propagate out of map_ordered");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "task 3 exploded");
        assert_eq!(completed.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // A float-reduction whose result depends on merge order: ordered
        // joins must make it identical for every thread count.
        let items: Vec<f64> = (1..400).map(|i| 1.0 / i as f64).collect();
        let reference: Vec<u64> =
            ThreadPool::new(1).map_ordered(items.clone(), |x| (x.sin() * 1e9) as u64);
        for threads in [2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_ordered(items.clone(), |x| (x.sin() * 1e9) as u64);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn global_pool_is_reconfigurable() {
        set_global_threads(3);
        assert_eq!(global().threads(), 3);
        let held = global();
        set_global_threads(2);
        assert_eq!(global().threads(), 2);
        // The held handle keeps working against the old pool.
        let out = held.map_ordered(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn spawned_tasks_inherit_the_spawners_span() {
        let c = mist_telemetry::Collector::new();
        c.enable();
        let pool = ThreadPool::new(4);
        let root = c.span("root", Vec::new);
        let root_id = mist_telemetry::current_span_id();
        assert_ne!(root_id, 0);
        pool.map_ordered((0..32).collect(), |_: u32| {
            let _child = c.span("child", Vec::new);
            std::thread::sleep(Duration::from_micros(200));
        });
        drop(root);
        let spans = c.spans();
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 32);
        // Every child parents under the calling span, whether the caller
        // or a helper ran it, and helpers stay on the pool's 3 lanes.
        for ch in &children {
            assert_eq!(ch.parent, root_id);
        }
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(lanes.len() <= 4, "{} lanes", lanes.len());
    }
}
