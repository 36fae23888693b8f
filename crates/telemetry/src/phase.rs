//! Contiguous phase accounting for hot loops.
//!
//! A span per loop iteration is far too expensive for a sweep that runs
//! tens of thousands of small steps, yet "where did the time go?" needs
//! a split below the enclosing span. A [`PhaseClock`] answers it with
//! *laps*: each [`PhaseClock::lap`] charges the wall time since the
//! previous lap to one phase, so the phases tile the clock's lifetime
//! without gaps. A shared [`PhaseTotals`] sums finished clocks across
//! threads.
//!
//! The clock is gated by the global collector's flag, read once when
//! the clock starts: a disabled clock never reads the time, never
//! allocates, and adds nothing to any total.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-task lap timer over `N` phases (see the [module docs](self)).
#[derive(Debug)]
pub struct PhaseClock<const N: usize> {
    last: Option<Instant>,
    nanos: [u64; N],
}

impl<const N: usize> PhaseClock<N> {
    /// Starts a clock: running when the global collector is enabled,
    /// inert otherwise.
    #[inline]
    pub fn start() -> Self {
        Self::start_if(crate::global().is_enabled())
    }

    #[inline]
    fn start_if(running: bool) -> Self {
        PhaseClock {
            last: running.then(Instant::now),
            nanos: [0; N],
        }
    }

    /// Charges the time since the previous lap (or the start) to
    /// `phase`. A no-op on an inert clock.
    #[inline]
    pub fn lap(&mut self, phase: usize) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            self.nanos[phase] += now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }

    /// Whether the clock is measuring (the collector was enabled when it
    /// started).
    pub fn is_running(&self) -> bool {
        self.last.is_some()
    }
}

/// Thread-safe sum of finished [`PhaseClock`]s.
#[derive(Debug)]
pub struct PhaseTotals<const N: usize> {
    nanos: [AtomicU64; N],
}

impl<const N: usize> Default for PhaseTotals<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> PhaseTotals<N> {
    /// All-zero totals.
    pub fn new() -> Self {
        PhaseTotals {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds a clock's laps. Inert clocks add nothing.
    pub fn add(&self, clock: &PhaseClock<N>) {
        if !clock.is_running() {
            return;
        }
        for (total, &n) in self.nanos.iter().zip(&clock.nanos) {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Accumulated seconds per phase.
    pub fn secs(&self) -> [f64; N] {
        std::array::from_fn(|i| self.nanos[i].load(Ordering::Relaxed) as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_tile_the_clock_and_sum_across_clocks() {
        let totals: PhaseTotals<2> = PhaseTotals::new();
        for _ in 0..2 {
            let start = Instant::now();
            let mut clock = PhaseClock::<2>::start_if(true);
            assert!(clock.is_running());
            std::thread::sleep(std::time::Duration::from_millis(2));
            clock.lap(0);
            std::thread::sleep(std::time::Duration::from_millis(1));
            clock.lap(1);
            let wall = start.elapsed().as_nanos() as u64;
            assert!(clock.nanos.iter().sum::<u64>() <= wall);
            totals.add(&clock);
        }
        let secs = totals.secs();
        assert!(secs[0] >= 4e-3, "{secs:?}");
        assert!(secs[1] >= 2e-3, "{secs:?}");
    }

    #[test]
    fn inert_clocks_add_nothing() {
        let totals: PhaseTotals<2> = PhaseTotals::new();
        let mut clock = PhaseClock::<2>::start_if(false);
        clock.lap(0);
        assert!(!clock.is_running());
        totals.add(&clock);
        assert_eq!(totals.secs(), [0.0; 2]);
    }
}
