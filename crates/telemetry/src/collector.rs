//! The [`Collector`]: span recording plus a named-metric registry.
//!
//! One process-global collector (see [`global`]) backs the `span!` macro
//! and the flag-gated free functions; independent [`Collector`] instances
//! exist for tests. The collector starts disabled, and every disabled
//! entry point returns after a single relaxed atomic-flag load — no
//! locks, no allocation, no clock reads.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, MetricsSnapshot};

/// A span argument value, converted from common scalar types by the
/// `span!` macro.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Signed integer argument.
    I64(i64),
    /// Float argument.
    F64(f64),
    /// String argument.
    Str(String),
}

macro_rules! impl_arg_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::U64(v as u64)
            }
        }
    )*};
}
impl_arg_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_arg_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::I64(v as i64)
            }
        }
    )*};
}
impl_arg_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One completed span, recorded when its guard drops.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id (ids start at 1; 0 is reserved for "no
    /// span").
    pub id: u64,
    /// Id of the span that was current when this one opened — the
    /// enclosing span on this thread, or the parent installed by
    /// [`parent_scope`] for work shipped to another thread. 0 = root.
    pub parent: u64,
    /// Span name (static: span names are code locations, not data).
    pub name: &'static str,
    /// Span lane: one per OS thread, or the lane installed by
    /// [`lane_scope`] (pool helpers share the pool's few lanes).
    pub tid: u64,
    /// Start offset from the collector's epoch, in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Named arguments captured at span entry.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct ActiveSpan<'c> {
    collector: &'c Collector,
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u64,
    start: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard returned by [`Collector::span`]; records the span into the
/// collector when dropped. Holds nothing when the collector is disabled.
#[must_use = "a span guard records its span when dropped; binding it to `_` ends it immediately"]
pub struct SpanGuard<'c> {
    active: Option<ActiveSpan<'c>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let c = active.collector;
        // Spans are RAII guards, so they close LIFO per thread: the
        // span that was current before this one opened becomes current
        // again.
        CURRENT_SPAN.with(|cur| cur.set(active.parent));
        let start_us = active.start.duration_since(c.epoch).as_secs_f64() * 1e6;
        let dur_us = active.start.elapsed().as_secs_f64() * 1e6;
        c.spans.lock().push(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            tid: active.tid,
            start_us,
            dur_us,
            args: active.args,
        });
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's span lane; `u64::MAX` until its first span.
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn current_tid() -> u64 {
    LANE.with(|lane| {
        if lane.get() == u64::MAX {
            lane.set(reserve_lane());
        }
        lane.get()
    })
}

/// A fresh span lane: a [`SpanRecord::tid`] that no thread records on
/// until it is handed to [`lane_scope`].
pub fn reserve_lane() -> u64 {
    NEXT_LANE.fetch_add(1, Ordering::Relaxed)
}

/// RAII guard from [`lane_scope`]; restores the thread's previous lane
/// when dropped.
pub struct LaneGuard {
    prev: u64,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|lane| lane.set(self.prev));
    }
}

/// Records this thread's spans on `lane` until the returned guard
/// drops. A thread pool whose helper threads are short-lived hands each
/// helper one of a few lanes it reserved ([`reserve_lane`]), so a trace
/// shows one lane per unit of parallelism rather than one per OS
/// thread. The caller must not let two threads hold one lane at once.
pub fn lane_scope(lane: u64) -> LaneGuard {
    LaneGuard {
        prev: LANE.with(|cur| cur.replace(lane)),
    }
}

// Span ids are process-global (not per collector) so that parent links
// installed across threads stay unambiguous even when test collectors
// coexist with the global one. Id 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Id of the innermost open span on this thread (or the parent
/// installed by [`parent_scope`]); 0 when none. Cheap: one
/// thread-local read, no allocation.
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|cur| cur.get())
}

/// RAII guard from [`parent_scope`]; restores the previous current span
/// when dropped.
pub struct ParentGuard {
    prev: u64,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        CURRENT_SPAN.with(|cur| cur.set(self.prev));
    }
}

/// Installs `parent` as this thread's current span until the returned
/// guard drops. Thread pools use this to re-parent spans opened inside
/// a task under the span that was current where the task was spawned,
/// so cross-thread traces nest instead of showing orphaned lanes.
///
/// Allocation-free and independent of the enabled flag (installing span
/// id 0 is a valid "no parent" context).
pub fn parent_scope(parent: u64) -> ParentGuard {
    ParentGuard {
        prev: CURRENT_SPAN.with(|cur| cur.replace(parent)),
    }
}

/// Span recorder plus named counter/gauge registry.
pub struct Collector {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
}

impl Collector {
    /// Creates a disabled collector whose epoch is "now".
    pub fn new() -> Self {
        Collector {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (already-registered handles keep working).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts a span. When the collector is disabled this returns an
    /// empty guard without calling `args` — the cost is one atomic load.
    pub fn span(
        &self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { active: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|cur| cur.replace(id));
        SpanGuard {
            active: Some(ActiveSpan {
                collector: self,
                id,
                parent,
                name,
                tid: current_tid(),
                start: Instant::now(),
                args: args(),
            }),
        }
    }

    /// Registers (or fetches) a counter handle by name. Registration is
    /// independent of the enabled flag: explicit handles are for metrics
    /// that must always count (e.g. the tuner's `TuneStats` sources).
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Registers (or fetches) a gauge handle by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Adds `n` to the named counter; no-op (flag check only) when
    /// disabled.
    pub fn counter_add(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.counter(name).add(n);
        }
    }

    /// Sets the named gauge; no-op (flag check only) when disabled.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.gauge(name).set(v);
        }
    }

    /// Raises the named gauge to `v` if larger; no-op (flag check only)
    /// when disabled.
    pub fn gauge_max(&self, name: &str, v: f64) {
        if self.is_enabled() {
            self.gauge(name).set_max(v);
        }
    }

    /// Copies all completed spans (records appear when guards drop).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().clone()
    }

    /// Removes and returns all completed spans.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock())
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), c.value()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, g)| (k.clone(), g.value()))
                .collect(),
        }
    }

    /// Snapshot relative to `baseline`: counters subtract the baseline;
    /// gauges keep their current value (they are not cumulative).
    pub fn snapshot_delta(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        for (name, v) in &mut snap.counters {
            *v = v.saturating_sub(baseline.counter(name));
        }
        snap
    }

    /// Clears spans and zeroes every registered metric (handles held by
    /// callers stay valid and keep updating the same cells).
    pub fn reset(&self) {
        self.spans.lock().clear();
        for c in self.counters.lock().values() {
            c.reset();
        }
        for g in self.gauges.lock().values() {
            g.reset();
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-global collector used by `span!` and the free functions.
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

/// Adds to a named counter on the global collector (no-op when disabled).
pub fn counter_add(name: &str, n: u64) {
    global().counter_add(name, n);
}

/// Sets a named gauge on the global collector (no-op when disabled).
pub fn gauge_set(name: &str, v: f64) {
    global().gauge_set(name, v);
}

/// Raises a named gauge high-water mark on the global collector (no-op
/// when disabled).
pub fn gauge_max(name: &str, v: f64) {
    global().gauge_max(name, v);
}

/// Opens a RAII span on the global collector.
///
/// ```
/// let _span = mist_telemetry::span!("intra.frontier", stage = 3u32);
/// ```
///
/// Arguments are `key = value` pairs evaluated *only when the collector
/// is enabled*; values may be any type with `Into<ArgValue>` (integers,
/// floats, strings). The span ends when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::global().span($name, || {
            ::std::vec![$((stringify!($key), $crate::ArgValue::from($val))),+]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new();
        {
            let _g = c.span("x", || vec![("a", ArgValue::U64(1))]);
        }
        c.counter_add("n", 5);
        c.gauge_set("g", 1.0);
        assert!(c.spans().is_empty());
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn enabled_collector_records_spans_and_metrics() {
        let c = Collector::new();
        c.enable();
        {
            let _outer = c.span("outer", Vec::new);
            let _inner = c.span("inner", || vec![("i", ArgValue::U64(7))]);
        }
        c.counter_add("n", 2);
        c.counter_add("n", 3);
        c.gauge_max("g", 2.0);
        c.gauge_max("g", 1.0);

        let spans = c.spans();
        assert_eq!(spans.len(), 2);
        // Guards drop inner-first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert!(spans[0].start_us >= spans[1].start_us);
        assert!(spans[0].dur_us <= spans[1].dur_us);
        assert_eq!(spans[0].args, vec![("i", ArgValue::U64(7))]);

        let snap = c.snapshot();
        assert_eq!(snap.counter("n"), 5);
        assert_eq!(snap.gauge("g"), 2.0);
    }

    #[test]
    fn reset_preserves_registered_handles() {
        let c = Collector::new();
        let n = c.counter("n");
        n.add(4);
        c.reset();
        assert_eq!(c.snapshot().counter("n"), 0);
        n.add(1);
        assert_eq!(c.snapshot().counter("n"), 1);
    }

    #[test]
    fn snapshot_delta_subtracts_counters() {
        let c = Collector::new();
        c.enable();
        c.counter_add("n", 10);
        let base = c.snapshot();
        c.counter_add("n", 7);
        let delta = c.snapshot_delta(&base);
        assert_eq!(delta.counter("n"), 7);
    }

    #[test]
    fn snapshot_delta_counters_subtract_but_gauges_keep_current_value() {
        // Regression test for the documented contract: counters are
        // cumulative so deltas subtract the baseline, while gauges are
        // instantaneous so a delta reports the *current* value — never
        // a baseline-relative difference.
        let c = Collector::new();
        c.enable();
        c.counter_add("work", 10);
        c.gauge_set("level", 5.0);
        let base = c.snapshot();

        c.counter_add("work", 4);
        c.gauge_set("level", 3.0); // drops below the baseline value
        let delta = c.snapshot_delta(&base);
        assert_eq!(delta.counter("work"), 4);
        assert_eq!(delta.gauge("level"), 3.0, "gauge must not subtract");

        // A gauge untouched since the baseline still reports its
        // current (unchanged) value rather than zero.
        let base1 = c.snapshot();
        let again = c.snapshot_delta(&base1);
        assert_eq!(again.gauge("level"), 3.0);
        assert_eq!(again.counter("work"), 0);
    }

    #[test]
    fn spans_record_ids_and_parents() {
        let c = Collector::new();
        c.enable();
        assert_eq!(current_span_id(), 0);
        let (outer_id, inner_id);
        {
            let outer = c.span("outer", Vec::new);
            outer_id = outer.active.as_ref().unwrap().id;
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = c.span("inner", Vec::new);
                inner_id = inner.active.as_ref().unwrap().id;
                assert_eq!(current_span_id(), inner_id);
            }
            assert_eq!(current_span_id(), outer_id);
        }
        assert_eq!(current_span_id(), 0);

        let spans = c.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.id != 0 && inner.id != 0 && outer.id != inner.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
    }

    #[test]
    fn parent_scope_reparents_and_restores() {
        let c = Collector::new();
        c.enable();
        let root = c.span("root", Vec::new);
        let root_id = root.active.as_ref().unwrap().id;
        {
            let _ctx = parent_scope(777);
            assert_eq!(current_span_id(), 777);
            let child = c.span("child", Vec::new);
            assert_eq!(child.active.as_ref().unwrap().parent, 777);
            drop(child);
            assert_eq!(current_span_id(), 777);
        }
        assert_eq!(current_span_id(), root_id);
        drop(root);
        let spans = c.spans();
        assert_eq!(
            spans.iter().find(|s| s.name == "child").unwrap().parent,
            777
        );
    }

    #[test]
    fn disabled_spans_leave_current_span_untouched() {
        let c = Collector::new();
        {
            let _g = c.span("x", Vec::new);
            assert_eq!(current_span_id(), 0);
        }
        assert_eq!(current_span_id(), 0);
    }
}
