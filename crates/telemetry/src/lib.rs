//! Span tracing, a metrics registry, and Chrome Trace Event export for
//! the Mist tuner and pipeline simulator.
//!
//! The crate has four pieces:
//!
//! - A process-global [`Collector`] (see [`global`]) with RAII span
//!   guards via the [`span!`] macro, monotonic-clock timestamps, and
//!   named counter/gauge registration. The collector starts
//!   **disabled**; every disabled entry point costs a single relaxed
//!   atomic-flag load — no locks, no allocation, no clock reads — so
//!   instrumentation can live in library hot paths.
//! - Detached metric handles ([`Counter`], [`Gauge`])
//!   for code that must count unconditionally (the tuner's `TuneStats`
//!   sources), plus a serializable [`MetricsSnapshot`].
//! - [`TraceBuilder`], which lowers spans and externally produced
//!   timelines (the simulator's per-stage Gantt) into Chrome Trace
//!   Event Format JSON, loadable in Perfetto or `chrome://tracing`.
//! - The decision [`journal`]: an append-only bounded ring of typed
//!   provenance events (candidate rejections, frontier snapshots, DP
//!   solve summaries), each stamped with the
//!   enclosing span id. Disabled by default with the same
//!   one-atomic-load cost model as `span!`; see [`journal_event`].
//!
//! ```
//! let collector = mist_telemetry::global();
//! collector.enable();
//! {
//!     let _span = mist_telemetry::span!("intra.frontier", stage = 2u32);
//!     mist_telemetry::counter_add("configs", 128);
//! }
//! let mut trace = mist_telemetry::TraceBuilder::new();
//! trace.process_name(0, "mist-tuner");
//! trace.add_spans(0, &collector.take_spans());
//! let json = trace.to_json();
//! assert!(json.starts_with("{\"traceEvents\":"));
//! ```

mod chrome;
mod collector;
pub mod journal;
mod metrics;

pub use chrome::TraceBuilder;
pub use collector::{
    counter_add, current_span_id, gauge_max, gauge_set, global, lane_scope, parent_scope,
    reserve_lane, ArgValue, Collector, LaneGuard, ParentGuard, SpanGuard, SpanRecord,
};
pub use journal::{
    global_journal, journal_event, Journal, JournalEvent, JournalRecord, OuterOutcome,
};
pub use metrics::{Counter, Gauge, MetricsSnapshot};
