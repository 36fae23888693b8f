//! A small work-stealing thread pool with deterministic ordered joins.
//!
//! The tuner's hot loop — the intra-stage frontier sweep — decomposes
//! into coarse independent tasks. This crate runs them on `std::thread`
//! workers with per-worker deques and a global injector, exposing one
//! primitive, [`ThreadPool::map_ordered`], the deterministic join: each
//! item carries its submission index and results are merged back in
//! submission order, so the output is byte-identical regardless of
//! thread count or steal interleaving.
//!
//! Internally each join is a structured-concurrency scope in the style
//! of `std::thread::scope`: tasks may borrow from the caller's stack,
//! and the scope does not return until every spawned task finished.
//! The scope owner *helps* execute tasks while waiting, so nested joins
//! (a pool task fanning out its own items) cannot deadlock and a
//! 1-thread pool degenerates to plain sequential execution.
//!
//! Scheduling: a task spawned from a worker goes to that worker's own
//! deque (popped LIFO for locality); tasks from outside go to the global
//! injector (FIFO). Idle workers drain the injector, then steal the
//! oldest task from a sibling's deque. Steals and executions are counted
//! through `mist-telemetry` (`pool.tasks_stolen`, `pool.tasks_executed`,
//! `pool.workers`) when the global collector is enabled.
//!
//! The process-global pool ([`global`]) defaults to
//! `std::thread::available_parallelism` threads and is reconfigured by
//! [`set_global_threads`] (the CLI's `--threads N`).

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

/// A lifetime-erased unit of work. Only constructed by [`Scope::spawn`],
/// whose scope guarantees the erased borrows outlive execution.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool id, worker index)` of the worker owning this thread.
    static WORKER: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

fn next_pool_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

struct Shared {
    id: u64,
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; any thread may steal from the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued (not yet popped) tasks — a cheap "is there work"
    /// hint for sleepers.
    queued: AtomicUsize,
    sleep: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    tasks_stolen: AtomicU64,
    tasks_executed: AtomicU64,
}

impl Shared {
    fn push(&self, task: Task) {
        let worker = WORKER.with(|w| w.get());
        match worker {
            Some((pool, idx)) if pool == self.id => self.deques[idx].lock().push_back(task),
            _ => self.injector.lock().push_back(task),
        }
        self.queued.fetch_add(1, Ordering::Release);
        self.work_cv.notify_one();
    }

    /// Finds a task: own deque first (LIFO), then the injector (FIFO),
    /// then steals the oldest task from a sibling deque.
    fn find_task(&self) -> Option<Task> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let me = WORKER.with(|w| w.get()).and_then(
            |(pool, idx)| {
                if pool == self.id {
                    Some(idx)
                } else {
                    None
                }
            },
        );
        if let Some(idx) = me {
            if let Some(t) = self.deques[idx].lock().pop_back() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
        for (i, deque) in self.deques.iter().enumerate() {
            if Some(i) == me {
                continue;
            }
            if let Some(t) = deque.lock().pop_front() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                mist_telemetry::counter_add("pool.tasks_stolen", 1);
                return Some(t);
            }
        }
        None
    }

    fn execute(&self, task: Task) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
        task();
    }

    fn worker_loop(&self) {
        loop {
            if let Some(task) = self.find_task() {
                self.execute(task);
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let guard = self.sleep.lock();
            // Re-check under the lock: a push between our failed find and
            // this lock would otherwise be missed. The timeout is a
            // belt-and-braces bound on any remaining race.
            if self.queued.load(Ordering::Acquire) == 0 && !self.shutdown.load(Ordering::Acquire) {
                let _ = self.work_cv.wait_timeout(guard, Duration::from_millis(2));
            }
        }
    }
}

/// Completion state of one [`Scope`]. `'static` so erased tasks can hold
/// it; the scope keeps it alive until every task finished.
struct ScopeState {
    pending: AtomicUsize,
    done: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done.lock();
            self.done_cv.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]. Mirrors
/// `std::thread::Scope`: spawned tasks may borrow anything that outlives
/// the scope.
pub(crate) struct Scope<'scope, 'env: 'scope> {
    pool: &'env ThreadPool,
    state: Arc<ScopeState>,
    /// Invariance over 'scope, exactly as in `std::thread::Scope`.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submits `f` to the pool. The task starts at the scheduler's
    /// discretion and is guaranteed to finish before `scope` returns.
    pub(crate) fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        // Capture the spawner's telemetry span context so spans opened
        // inside the task parent under the spawning span instead of
        // showing up as orphaned lanes — regardless of which thread
        // (a worker, or a sibling caller helping in `wait_scope`)
        // eventually executes the task.
        let parent_span = mist_telemetry::current_span_id();
        let wrapped = move || {
            let _span_ctx = mist_telemetry::parent_scope(parent_span);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.finish_one();
        };
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(wrapped);
        // SAFETY: `scope` (the only constructor of `Scope`) does not
        // return until `state.pending` hits zero, i.e. until this task
        // has run to completion, so every borrow captured in `task`
        // outlives its execution. Same argument as `std::thread::scope`.
        let task: Task = unsafe { std::mem::transmute(task) };
        self.pool.shared.push(task);
    }
}

/// The work-stealing pool. See the crate docs for the scheduling model.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` total parallelism: `threads − 1`
    /// background workers are spawned, and the thread joining a scope
    /// always participates as the remaining executor. `threads == 1`
    /// therefore spawns nothing and runs every task inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let num_workers = threads - 1;
        let shared = Arc::new(Shared {
            id: next_pool_id(),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..num_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks_stolen: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
        });
        let workers = (0..num_workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mist-pool-{idx}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((shared.id, idx))));
                        shared.worker_loop();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        mist_telemetry::gauge_set("pool.workers", num_workers as f64);
        ThreadPool { shared, workers }
    }

    /// Total parallelism (background workers + the joining caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Tasks taken from a sibling worker's deque so far.
    pub fn tasks_stolen(&self) -> u64 {
        self.shared.tasks_stolen.load(Ordering::Relaxed)
    }

    /// Tasks executed so far (all queues).
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks_executed.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`Scope`] on which tasks can be spawned, then
    /// blocks — executing queued tasks itself while waiting — until every
    /// spawned task completed. Panics from tasks are captured and
    /// re-thrown here (the first one wins); the scope still waits for all
    /// remaining tasks first.
    pub(crate) fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::new()),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&scope.state);
        if let Some(payload) = scope.state.panic.lock().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Maps `f` over `items` on the pool and returns the results in
    /// submission order — the deterministic join. The closure sees items
    /// in arbitrary temporal order, but the output vector is always
    /// `[f(items[0]), f(items[1]), …]` byte-for-byte, independent of
    /// thread count and steal interleaving.
    pub fn map_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        if self.workers.is_empty() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (slot, item) in slots.iter().zip(items) {
                let f = &f;
                s.spawn(move || {
                    let computed = f(item);
                    let previous = slot.lock().replace(computed);
                    debug_assert!(previous.is_none(), "each slot is written exactly once");
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("scope ran every task"))
            .collect()
    }

    /// Executes tasks until `state.pending` reaches zero.
    fn wait_scope(&self, state: &ScopeState) {
        while state.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = self.shared.find_task() {
                self.shared.execute(task);
                continue;
            }
            // Nothing runnable here: some of our tasks are executing on
            // workers. Sleep until one finishes (timeout covers the
            // notify-vs-wait race and foreign-scope wakeups).
            let guard = state.done.lock();
            if state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            if self.shared.queued.load(Ordering::Acquire) != 0 {
                continue; // New work appeared while taking the lock.
            }
            let _ = state
                .done_cv
                .wait_timeout(guard, Duration::from_micros(500));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep.lock();
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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
/// re-fetching per task.
pub fn global() -> Arc<ThreadPool> {
    global_cell().read().clone()
}

/// Replaces the global pool with a fresh one of `threads` total threads
/// (the CLI's `--threads N`). Scopes already running on the previous
/// pool finish undisturbed on its workers; the old pool shuts down when
/// its last `Arc` drops.
pub fn set_global_threads(threads: usize) {
    let mut cell = global_cell().write();
    if cell.threads() != threads.max(1) {
        *cell = Arc::new(ThreadPool::new(threads));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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
    fn scope_runs_every_task() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
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

    #[test]
    fn panics_propagate_after_all_tasks_finish() {
        let pool = ThreadPool::new(4);
        let completed = Arc::new(AtomicU32::new(0));
        let completed2 = completed.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let completed = completed2.clone();
                    s.spawn(move || {
                        if i == 3 {
                            panic!("task {i} exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate out of scope");
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
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    let _child = c.span("child", Vec::new);
                    std::thread::sleep(Duration::from_micros(200));
                });
            }
        });
        drop(root);
        let spans = c.spans();
        let children: Vec<_> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 32);
        // Every child parents under the spawning span, no matter which
        // worker (or the helping caller) executed it.
        for ch in &children {
            assert_eq!(ch.parent, root_id);
        }
    }

    #[test]
    fn steal_counter_counts_cross_worker_traffic() {
        let pool = ThreadPool::new(4);
        // Tasks that spawn subtasks from worker threads exercise the
        // per-worker deques and therefore stealing.
        pool.scope(|s| {
            for _ in 0..32 {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_micros(200));
                });
            }
        });
        assert!(pool.tasks_executed() >= 32);
    }
}
