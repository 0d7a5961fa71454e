//! Deterministic parallel search primitives for the bounded engines.
//!
//! The race and equivalence engines spend their time in two places: a loop
//! over test trees and an O(n²) loop over item pairs.  Both searches want
//! the *first* witness in a canonical order (lowest index / lexicographically
//! lowest pair) — that is what keeps verdicts, and therefore the façade's
//! cached-identical-witness guarantee, bit-for-bit reproducible whether the
//! search runs on one thread or many.
//!
//! The helpers here fan work out over contiguous index chunks (one per
//! worker the `rayon` shim is willing to give us), let every worker abandon
//! indices that can no longer win (a lower-index witness already exists:
//! early-exit, first-witness-wins), and reduce by *minimum index* — never by
//! completion order.  On a single-core host the shim hands out no worker
//! tokens and both helpers degrade to the plain sequential loop, byte-
//! identical to the pre-parallel code.
//!
//! Both searches are additionally *cancellable*: they take a cooperative
//! cancel flag and abandon the scan as soon as it is raised.  The façade
//! raises the flag when a query's deadline expires or its dispatch is
//! aborted, so a cancelled engine run costs at most one more loop
//! iteration instead of the full enumeration.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A cancel flag that is never raised — the flag sequential entry points
/// thread through the cancellable search helpers.
pub(crate) static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

/// Outcome of a cancellable search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Search<R> {
    /// The lowest-index witness (exactly the one the sequential loop would
    /// return).
    Hit(usize, R),
    /// Every index was evaluated and none produced a witness.
    Exhausted,
    /// The cancel flag was observed before the scan finished; no verdict
    /// may be derived from the partial scan.
    Cancelled,
}

impl<R> Search<R> {
    /// The witness, when the search hit.
    pub(crate) fn into_hit(self) -> Option<(usize, R)> {
        match self {
            Search::Hit(i, r) => Some((i, r)),
            Search::Exhausted | Search::Cancelled => None,
        }
    }
}

/// Evaluates `f(0..n)` and returns `Search::Hit(i, r)` for the lowest `i`
/// where `f(i)` is `Some(r)`, searching index chunks in parallel and
/// abandoning the scan when `cancel` is raised.
///
/// `f` must be pure modulo interior-mutability caches: the helper may skip
/// calling it for indices that provably cannot win.
pub(crate) fn first_hit<R, F>(n: usize, cancel: &AtomicBool, f: F) -> Search<R>
where
    R: Send,
    F: Fn(usize) -> Option<R> + Sync,
{
    let workers = rayon::current_num_threads().min(n);
    if workers <= 1 {
        for i in 0..n {
            if cancel.load(Ordering::Relaxed) {
                return Search::Cancelled;
            }
            if let Some(r) = f(i) {
                return Search::Hit(i, r);
            }
        }
        return Search::Exhausted;
    }
    let best = AtomicUsize::new(usize::MAX);
    let cancelled = AtomicBool::new(false);
    let found: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let chunk = n.div_ceil(workers);
    rayon::scope(|s| {
        for start in (0..n).step_by(chunk) {
            let (best, cancelled, found, f) = (&best, &cancelled, &found, &f);
            s.spawn(move |_| {
                for i in start..(start + chunk).min(n) {
                    if cancel.load(Ordering::Relaxed) {
                        cancelled.store(true, Ordering::Relaxed);
                        break;
                    }
                    // A strictly lower index already produced a witness;
                    // this chunk scans ascending, so nothing here can win.
                    if best.load(Ordering::Relaxed) < i {
                        break;
                    }
                    if let Some(r) = f(i) {
                        best.fetch_min(i, Ordering::Relaxed);
                        found.lock().expect("first_hit poisoned").push((i, r));
                        break;
                    }
                }
            });
        }
    });
    let mut results = found.into_inner().expect("first_hit poisoned");
    results.sort_by_key(|(i, _)| *i);
    // A cancelled partial scan proves nothing: a worker that abandoned its
    // chunk may have skipped an index *below* a witness another worker
    // recorded, so neither "exhausted" nor "this hit is lowest" holds.
    if cancelled.load(Ordering::Relaxed) {
        return Search::Cancelled;
    }
    match results.into_iter().next() {
        Some((i, r)) => Search::Hit(i, r),
        None => Search::Exhausted,
    }
}

/// Parallel scan that both *counts* and *searches*: every index yields a
/// `usize` tally plus an optional witness.  Returns the summed tally of the
/// evaluated indices and the search outcome.
///
/// Indices are only skipped when a strictly lower index already found a
/// witness or `cancel` was raised, so: a returned witness is exactly the
/// one the sequential loop would return, and on `Search::Exhausted` every
/// index was evaluated and the tally is complete (a `Search::Cancelled`
/// tally is partial and must be discarded).
pub(crate) fn tally_until_hit<R, F>(n: usize, cancel: &AtomicBool, f: F) -> (usize, Search<R>)
where
    R: Send,
    F: Fn(usize) -> (usize, Option<R>) + Sync,
{
    let workers = rayon::current_num_threads().min(n);
    if workers <= 1 {
        let mut tally = 0usize;
        for i in 0..n {
            if cancel.load(Ordering::Relaxed) {
                return (tally, Search::Cancelled);
            }
            let (count, witness) = f(i);
            tally += count;
            if let Some(r) = witness {
                return (tally, Search::Hit(i, r));
            }
        }
        return (tally, Search::Exhausted);
    }
    let best = AtomicUsize::new(usize::MAX);
    let cancelled = AtomicBool::new(false);
    let tally = AtomicUsize::new(0);
    let found: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let chunk = n.div_ceil(workers);
    rayon::scope(|s| {
        for start in (0..n).step_by(chunk) {
            let (best, cancelled, tally, found, f) = (&best, &cancelled, &tally, &found, &f);
            s.spawn(move |_| {
                for i in start..(start + chunk).min(n) {
                    if cancel.load(Ordering::Relaxed) {
                        cancelled.store(true, Ordering::Relaxed);
                        break;
                    }
                    if best.load(Ordering::Relaxed) < i {
                        break;
                    }
                    let (count, witness) = f(i);
                    tally.fetch_add(count, Ordering::Relaxed);
                    if let Some(r) = witness {
                        best.fetch_min(i, Ordering::Relaxed);
                        found.lock().expect("tally_until_hit poisoned").push((i, r));
                        break;
                    }
                }
            });
        }
    });
    let mut results = found.into_inner().expect("tally_until_hit poisoned");
    results.sort_by_key(|(i, _)| *i);
    // See first_hit: a scan that observed cancellation proves nothing.
    let outcome = if cancelled.load(Ordering::Relaxed) {
        Search::Cancelled
    } else {
        match results.into_iter().next() {
            Some((i, r)) => Search::Hit(i, r),
            None => Search::Exhausted,
        }
    };
    (tally.load(Ordering::Relaxed), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_hit_returns_the_lowest_index() {
        let hit = first_hit(100, &NEVER_CANCELLED, |i| (i % 7 == 3).then_some(i * 10));
        assert_eq!(hit, Search::Hit(3, 30));
        assert_eq!(first_hit(10, &NEVER_CANCELLED, |_| None::<()>), {
            Search::Exhausted
        });
        assert_eq!(first_hit(0, &NEVER_CANCELLED, |_| Some(())), {
            Search::Exhausted
        });
    }

    #[test]
    fn tally_is_complete_when_nothing_hits() {
        let (tally, hit) = tally_until_hit(10, &NEVER_CANCELLED, |i| (i, None::<()>));
        assert_eq!(tally, 45);
        assert_eq!(hit, Search::Exhausted);
    }

    #[test]
    fn tally_hit_matches_sequential_witness() {
        let (_, hit) = tally_until_hit(50, &NEVER_CANCELLED, |i| (1, (i >= 20).then_some(i)));
        assert_eq!(hit, Search::Hit(20, 20));
    }

    #[test]
    fn pre_raised_cancel_flag_stops_the_scan_immediately() {
        let cancel = AtomicBool::new(true);
        let evaluated = AtomicUsize::new(0);
        let result = first_hit(1000, &cancel, |_| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            None::<()>
        });
        assert_eq!(result, Search::Cancelled);
        assert_eq!(evaluated.load(Ordering::Relaxed), 0);
        let (tally, outcome) = tally_until_hit(1000, &cancel, |_| (1, None::<()>));
        assert_eq!(outcome, Search::Cancelled);
        assert_eq!(tally, 0);
    }

    #[test]
    fn mid_scan_cancellation_abandons_the_remaining_indices() {
        // The closure itself raises the flag at index 5: the scan must stop
        // within one iteration instead of evaluating all 10_000 indices.
        let cancel = AtomicBool::new(false);
        let evaluated = AtomicUsize::new(0);
        let result = first_hit(10_000, &cancel, |i| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if i == 5 {
                cancel.store(true, Ordering::Relaxed);
            }
            None::<()>
        });
        assert_eq!(result, Search::Cancelled);
        assert!(evaluated.load(Ordering::Relaxed) < 10_000);
    }

    #[test]
    fn a_hit_racing_the_cancel_flag_never_yields_a_wrong_witness() {
        let cancel = AtomicBool::new(false);
        let result = first_hit(100, &cancel, |i| {
            if i == 2 {
                cancel.store(true, Ordering::Relaxed);
            }
            (i == 2).then_some(i)
        });
        // Sequential scan (single worker): the hit at index 2 is returned
        // before the next iteration's flag check and is genuinely lowest.
        // Parallel scan: a worker may observe the flag and abandon indices
        // below another worker's hit, so the scan conservatively reports
        // Cancelled.  Either answer is sound; Hit(≠2) never is.
        assert!(
            matches!(result, Search::Hit(2, 2) | Search::Cancelled),
            "got {result:?}"
        );
    }
}
