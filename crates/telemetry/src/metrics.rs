//! Counter / gauge handles and the serializable snapshot.
//!
//! Handles are cheap `Arc`-backed clones: the collector hands out one
//! handle per registered name, and every clone updates the same cell.
//! Both are lock-free atomics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Monotonically increasing `u64` metric.
///
/// Clones share the underlying cell. Increments are relaxed atomics:
/// there is no ordering requirement between metric updates, only that
/// no increment is lost.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not registered with any collector).
    pub fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero (existing handles keep working).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Last-write-wins `f64` metric, stored as bit-cast atomics.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a detached gauge initialized to 0.0.
    pub fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Overwrites the gauge value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets the gauge to 0.0.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// True when no metric of any kind is present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Renders an aligned plain-text table (one metric per line), for
    /// `mist-cli tune --metrics` output.
    pub fn text_table(&self) -> String {
        let mut width = 0usize;
        for name in self.counters.keys().chain(self.gauges.keys()) {
            width = width.max(name.len());
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<width$}  {v:.6}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(3);
        c2.inc();
        assert_eq!(c.value(), 4);
        c.reset();
        assert_eq!(c2.value(), 0);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let g = Gauge::new();
        g.set_max(2.0);
        g.set_max(1.0);
        assert_eq!(g.value(), 2.0);
        g.set(0.5);
        assert_eq!(g.value(), 0.5);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a".into(), 7);
        snap.gauges.insert("b".into(), 1.5);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
