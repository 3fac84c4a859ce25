//! Statistics primitives shared by every unit simulator, and the
//! per-run simulated-cycle tally.
//!
//! # The cycle tally
//!
//! A run's *simulated cycles* are the cycle-level cycles it attributes
//! to itself (SpMU replays, throughput drivers, traces, the cycle-level
//! memory drain). Analytic model totals (`capstan_core::perf::simulate`'s
//! breakdown) are deliberately excluded — they would double-count the
//! embedded replays and change units whenever the model changes.
//! Drivers call [`record_simulated_cycles`] once per measurement, so the
//! per-cycle hot loops stay untouched.
//!
//! The count goes to the tally [`count_simulated_cycles`] installed on
//! the calling thread, and nowhere when none is installed. Helper
//! threads join their caller's tally through [`current_tally`] and
//! [`CycleTally::enter`] (`capstan_par` does this for every worker), so
//! two runs in one process — e.g. two served jobs — never see each
//! other's cycles. The experiment harness counts each experiment this
//! way to report *simulated cycles per wall second* in
//! `BENCH_core.json`.
//!
//! The count is of replay cycles *attributed to a run*, not of ticks
//! executed: `capstan_core::perf::simulate` memoizes SpMU replays per
//! workload, and a memo hit records the cached replay's cycles again,
//! so a run's count does not depend on which calls came before it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    static TALLY: RefCell<CycleTally> = const { RefCell::new(CycleTally(None)) };
}

/// A handle on the simulated-cycle tally a thread adds to (or on no
/// tally). Cloning shares the tally.
#[derive(Debug, Clone, Default)]
pub struct CycleTally(Option<Arc<AtomicU64>>);

impl CycleTally {
    /// Runs `f` with this tally installed on the calling thread, then
    /// restores the thread's previous tally (also when `f` panics).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(CycleTally);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = std::mem::take(&mut self.0);
                TALLY.with(|t| *t.borrow_mut() = previous);
            }
        }
        let _restore = Restore(TALLY.with(|t| t.replace(self.clone())));
        f()
    }
}

/// The tally installed on the calling thread, for handing to the
/// threads that work on its behalf.
pub fn current_tally() -> CycleTally {
    TALLY.with(|t| t.borrow().clone())
}

/// Adds `n` simulated cycles to the calling thread's tally (a no-op
/// when none is installed).
pub fn record_simulated_cycles(n: u64) {
    TALLY.with(|t| {
        if let Some(count) = &t.borrow().0 {
            count.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Runs `f` under a fresh tally and returns its result with the
/// simulated cycles it recorded. Nested counts also add to the
/// enclosing tally.
pub fn count_simulated_cycles<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let count = Arc::new(AtomicU64::new(0));
    let result = CycleTally(Some(Arc::clone(&count))).enter(f);
    let cycles = count.load(Ordering::Relaxed);
    record_simulated_cycles(cycles);
    (result, cycles)
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.count += 1;
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.count
    }
}

/// Tracks utilization: the ratio of useful events to total opportunities —
/// e.g. "the percentage of banks active per cycle" (paper Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utilization {
    busy: u64,
    total: u64,
}

impl Utilization {
    /// A zeroed tracker.
    pub fn new() -> Self {
        Utilization::default()
    }

    /// Records `busy` useful slots out of `total` opportunities.
    pub fn record(&mut self, busy: u64, total: u64) {
        debug_assert!(busy <= total, "busy {busy} > total {total}");
        self.busy += busy;
        self.total += total;
    }

    /// Busy events so far.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Total opportunities so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Utilization as a fraction in `[0, 1]` (0 if nothing recorded).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.busy as f64 / self.total as f64
        }
    }

    /// Utilization as a percentage.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

/// A fixed-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Upper bound (inclusive) of each bucket; the last bucket is open.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    n: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive bucket upper bounds
    /// (an open overflow bucket is added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            n: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let bucket = self.bounds.partition_point(|&b| b < sample);
        self.counts[bucket] += 1;
        self.sum += sample;
        self.n += 1;
        self.max = self.max.max(sample);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Maximum sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket counts (the final entry is the overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_go_to_the_innermost_tally_and_nowhere_without_one() {
        record_simulated_cycles(5);
        let ((), outer) = count_simulated_cycles(|| {
            record_simulated_cycles(3);
            let ((), inner) = count_simulated_cycles(|| record_simulated_cycles(7));
            assert_eq!(inner, 7);
        });
        assert_eq!(outer, 10, "the nested count adds to the enclosing one");
        let ((), none) = count_simulated_cycles(|| ());
        assert_eq!(none, 0);
    }

    #[test]
    fn tallies_on_other_threads_are_separate_unless_entered() {
        let ((), counted) = count_simulated_cycles(|| {
            let tally = current_tally();
            std::thread::scope(|scope| {
                scope.spawn(|| record_simulated_cycles(100));
                scope.spawn(|| tally.enter(|| record_simulated_cycles(11)));
            });
        });
        assert_eq!(counted, 11);
    }

    #[test]
    fn a_panic_restores_the_previous_tally() {
        let ((), outer) = count_simulated_cycles(|| {
            let caught = std::panic::catch_unwind(|| {
                count_simulated_cycles(|| {
                    record_simulated_cycles(4);
                    panic!("boom");
                })
            });
            assert!(caught.is_err());
            record_simulated_cycles(2);
        });
        assert_eq!(outer, 2);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::new();
        assert_eq!(u.fraction(), 0.0);
        u.record(8, 16);
        u.record(8, 16);
        assert_eq!(u.percent(), 50.0);
        assert_eq!(u.busy(), 16);
        assert_eq!(u.total(), 32);
    }

    #[test]
    fn histogram_buckets_samples() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for s in [0, 1, 2, 4, 5, 100] {
            h.record(s);
        }
        assert_eq!(h.buckets(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 112.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        let _ = Histogram::new(&[3, 3]);
    }
}
