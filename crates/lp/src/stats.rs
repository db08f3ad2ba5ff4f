//! Process-wide and per-thread solver work counters.
//!
//! Wall-clock timings are noisy in CI, so the benchmarks assert on *work*
//! instead: pivot counts, refactorizations and row-append (constraint
//! generation) activity.  Two views exist over the same recordings:
//!
//! * **Process-wide** ([`SolverStats::snapshot`]) — relaxed atomics shared
//!   by every engine in the process.  Callers take a snapshot before a
//!   solve and diff it with [`SolverStats::since`] afterwards; the delta is
//!   only meaningful when no other solves run concurrently in between.
//! * **Per-thread** ([`SolverStats::thread_snapshot`]) — thread-local
//!   counters incremented alongside the globals.  A delta over these is
//!   exact for the work done *by the calling thread*, no matter what other
//!   threads solve in the meantime — this is what a concurrent query
//!   service uses to report pivots-per-request while its neighbours plan.
//!   The caveat is the inverse one: work a solve fans out to *other*
//!   threads (e.g. a parallel [`crate::SolverKind`] batch) is attributed to
//!   those threads, so per-request accounting wants solves kept on the
//!   requesting thread, or each worker's delta handed back and credited
//!   to the requester with [`SolverStats::credit_to_thread`] (what
//!   `lpb-core`'s parallel batch estimator does).
//!   [`SolverStats::on_thread`] wraps the snapshot/diff pair around a
//!   closure.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PRIMAL_PIVOTS: AtomicU64 = AtomicU64::new(0);
static DUAL_PIVOTS: AtomicU64 = AtomicU64::new(0);
static REFACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static APPEND_BATCHES: AtomicU64 = AtomicU64::new(0);
static ROWS_APPENDED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_PRIMAL_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static TL_DUAL_PIVOTS: Cell<u64> = const { Cell::new(0) };
    static TL_REFACTORIZATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_APPEND_BATCHES: Cell<u64> = const { Cell::new(0) };
    static TL_ROWS_APPENDED: Cell<u64> = const { Cell::new(0) };
}

fn bump(global: &AtomicU64, local: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    global.fetch_add(by, Ordering::Relaxed);
    local.with(|c| c.set(c.get() + by));
}

pub(crate) fn record_primal_pivot() {
    bump(&PRIMAL_PIVOTS, &TL_PRIMAL_PIVOTS, 1);
}

pub(crate) fn record_dual_pivot() {
    bump(&DUAL_PIVOTS, &TL_DUAL_PIVOTS, 1);
}

pub(crate) fn record_refactorization() {
    bump(&REFACTORIZATIONS, &TL_REFACTORIZATIONS, 1);
}

pub(crate) fn record_append(rows: usize) {
    bump(&APPEND_BATCHES, &TL_APPEND_BATCHES, 1);
    bump(&ROWS_APPENDED, &TL_ROWS_APPENDED, rows as u64);
}

pub(crate) fn refactorization_count() -> u64 {
    REFACTORIZATIONS.load(Ordering::Relaxed)
}

/// A snapshot of the solver work counters (process-wide or per-thread,
/// depending on the constructor).
///
/// The same struct doubles as a *delta*: `after.since(&before)` subtracts
/// field-wise, giving the work done between the two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Primal simplex pivots (phase 1 + phase 2, any pricing rule).
    pub primal_pivots: u64,
    /// Dual simplex pivots (warm-start repairs, row-append repairs).
    pub dual_pivots: u64,
    /// Eta-file refactorizations (cap hits and row appends both count).
    pub refactorizations: u64,
    /// Row-append batches — one per constraint-generation round or grown
    /// warm-start resolution.
    pub append_batches: u64,
    /// Total rows added across all append batches.
    pub rows_appended: u64,
}

impl SolverStats {
    /// Read the current **process-wide** counter values.
    pub fn snapshot() -> SolverStats {
        SolverStats {
            primal_pivots: PRIMAL_PIVOTS.load(Ordering::Relaxed),
            dual_pivots: DUAL_PIVOTS.load(Ordering::Relaxed),
            refactorizations: REFACTORIZATIONS.load(Ordering::Relaxed),
            append_batches: APPEND_BATCHES.load(Ordering::Relaxed),
            rows_appended: ROWS_APPENDED.load(Ordering::Relaxed),
        }
    }

    /// Read the counter values for work done **by the calling thread**
    /// only.  Deltas over these are exact under concurrency: other
    /// threads' solves never show up, so a query service can report
    /// pivots-per-request while its neighbours plan.
    pub fn thread_snapshot() -> SolverStats {
        SolverStats {
            primal_pivots: TL_PRIMAL_PIVOTS.with(Cell::get),
            dual_pivots: TL_DUAL_PIVOTS.with(Cell::get),
            refactorizations: TL_REFACTORIZATIONS.with(Cell::get),
            append_batches: TL_APPEND_BATCHES.with(Cell::get),
            rows_appended: TL_ROWS_APPENDED.with(Cell::get),
        }
    }

    /// Run `f` and return its result together with the solver work the
    /// **calling thread** performed inside it.  Exact under concurrency
    /// (see [`thread_snapshot`](Self::thread_snapshot)); work `f` hands to
    /// other threads is not included.
    pub fn on_thread<R>(f: impl FnOnce() -> R) -> (R, SolverStats) {
        let before = Self::thread_snapshot();
        let out = f();
        (out, Self::thread_snapshot().since(&before))
    }

    /// Add this delta to the **calling thread's** counters only — the
    /// process-wide counters already saw the work.  A caller that fans
    /// solves out to worker threads credits each worker's
    /// [`on_thread`](Self::on_thread) delta back exactly once, so its own
    /// thread-local delta covers the whole fan-out.  Work that ran on the
    /// calling thread is already counted and must not be credited again.
    pub fn credit_to_thread(&self) {
        for (local, by) in [
            (&TL_PRIMAL_PIVOTS, self.primal_pivots),
            (&TL_DUAL_PIVOTS, self.dual_pivots),
            (&TL_REFACTORIZATIONS, self.refactorizations),
            (&TL_APPEND_BATCHES, self.append_batches),
            (&TL_ROWS_APPENDED, self.rows_appended),
        ] {
            local.with(|c| c.set(c.get() + by));
        }
    }

    /// Field-wise difference `self - earlier` (saturating, so a stale
    /// `earlier` never underflows).
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            primal_pivots: self.primal_pivots.saturating_sub(earlier.primal_pivots),
            dual_pivots: self.dual_pivots.saturating_sub(earlier.dual_pivots),
            refactorizations: self
                .refactorizations
                .saturating_sub(earlier.refactorizations),
            append_batches: self.append_batches.saturating_sub(earlier.append_batches),
            rows_appended: self.rows_appended.saturating_sub(earlier.rows_appended),
        }
    }

    /// Primal plus dual pivots.
    pub fn total_pivots(&self) -> u64 {
        self.primal_pivots + self.dual_pivots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_saturates() {
        let a = SolverStats {
            primal_pivots: 10,
            dual_pivots: 4,
            refactorizations: 2,
            append_batches: 1,
            rows_appended: 7,
        };
        let b = SolverStats {
            primal_pivots: 13,
            dual_pivots: 4,
            refactorizations: 3,
            append_batches: 2,
            rows_appended: 30,
        };
        let d = b.since(&a);
        assert_eq!(d.primal_pivots, 3);
        assert_eq!(d.dual_pivots, 0);
        assert_eq!(d.total_pivots(), 3);
        assert_eq!(d.rows_appended, 23);
        // Reversed order saturates instead of wrapping.
        assert_eq!(a.since(&b).primal_pivots, 0);
    }

    /// A worker's delta credited to the calling thread shows up in the
    /// caller's thread-local view.
    #[test]
    fn credited_worker_work_lands_in_the_callers_delta() {
        let global_before = SolverStats::snapshot();
        let ((), mine) = SolverStats::on_thread(|| {
            let (_, worker) = std::thread::spawn(|| {
                SolverStats::on_thread(|| {
                    record_primal_pivot();
                    record_append(3);
                })
            })
            .join()
            .unwrap();
            worker.credit_to_thread();
        });
        assert_eq!(mine.primal_pivots, 1);
        assert_eq!(mine.append_batches, 1);
        assert_eq!(mine.rows_appended, 3);
        let global = SolverStats::snapshot().since(&global_before);
        assert!(global.primal_pivots >= 1);
    }

    /// Per-thread snapshots see only the calling thread's work even while
    /// another thread records concurrently; the process-wide view sees both.
    #[test]
    fn thread_snapshots_isolate_concurrent_recordings() {
        use std::sync::mpsc;

        let global_before = SolverStats::snapshot();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let other = std::thread::spawn(move || {
            let before = SolverStats::thread_snapshot();
            for _ in 0..7 {
                record_dual_pivot();
            }
            ready_tx.send(()).unwrap();
            // Hold the thread alive while the main thread records, so the
            // two threads' recordings genuinely interleave in time.
            go_rx.recv().unwrap();
            SolverStats::thread_snapshot().since(&before)
        });
        ready_rx.recv().unwrap();

        let ((), mine) = SolverStats::on_thread(|| {
            for _ in 0..3 {
                record_primal_pivot();
            }
            record_append(5);
        });
        go_tx.send(()).unwrap();
        let theirs = other.join().unwrap();

        // Each thread-local delta holds exactly its own work...
        assert_eq!(mine.primal_pivots, 3);
        assert_eq!(mine.dual_pivots, 0);
        assert_eq!(mine.append_batches, 1);
        assert_eq!(mine.rows_appended, 5);
        assert_eq!(theirs.dual_pivots, 7);
        assert_eq!(theirs.primal_pivots, 0);
        // ...while the process-wide delta is at least the sum (other tests
        // may record concurrently, so "at least").
        let global = SolverStats::snapshot().since(&global_before);
        assert!(global.primal_pivots >= 3);
        assert!(global.dual_pivots >= 7);
        assert!(global.rows_appended >= 5);
    }
}
