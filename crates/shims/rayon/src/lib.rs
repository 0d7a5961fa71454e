//! Offline, in-tree substitute for the subset of [rayon] this workspace
//! uses: [`join`], [`scope`] and [`current_num_threads`].
//!
//! The container this reproduction builds in has no registry access, so the
//! real rayon cannot be vendored.  This shim provides the same semantics
//! (fork–join parallelism over OS threads) with a much simpler scheduler: a
//! global token counter bounds the number of live worker threads to the
//! machine's parallelism, and once the tokens are exhausted every further
//! `join` or scope spawn degrades gracefully to sequential execution in the
//! calling thread.  That is exactly the behaviour the traversal schedules
//! and the verifier's batch fan-out rely on (correctness never depends on
//! real concurrency, only speed does).
//!
//! [rayon]: https://crates.io/crates/rayon

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of threads the shim is willing to keep busy (the machine's
/// available parallelism).
///
/// Cached after the first call: `std::thread::available_parallelism` reads
/// procfs/cgroupfs on Linux (tens of microseconds), and this function sits
/// on the `join` / scope-spawn hot path.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Tries to reserve one worker token; returns whether the reservation
/// succeeded.  Tokens bound the total number of extra OS threads alive at
/// any moment, across nested joins and scopes.
fn try_reserve_worker() -> bool {
    let limit = current_num_threads();
    let mut current = ACTIVE_WORKERS.load(Ordering::Relaxed);
    loop {
        if current + 1 >= limit {
            return false;
        }
        match ACTIVE_WORKERS.compare_exchange_weak(
            current,
            current + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

/// Releases its worker token when dropped — including on unwind, so a
/// panicking task cannot leak the token and silently degrade the whole
/// process toward sequential execution.
struct WorkerToken;

impl Drop for WorkerToken {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs the two closures, potentially in parallel, and returns both results.
///
/// Mirrors `rayon::join`: `b` is offloaded to another thread when a worker
/// token is available, otherwise both closures run sequentially in the
/// calling thread.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if try_reserve_worker() {
        std::thread::scope(|s| {
            let handle = s.spawn(move || {
                let _token = WorkerToken;
                b()
            });
            let ra = a();
            let rb = handle.join().expect("rayon-shim: joined task panicked");
            (ra, rb)
        })
    } else {
        (a(), b())
    }
}

/// A fork–join scope: tasks spawned on it may run in parallel and are all
/// joined before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task onto the scope.  Falls back to running the task
    /// immediately in the calling thread when no worker token is available.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        if try_reserve_worker() {
            let inner = self.inner;
            inner.spawn(move || {
                let _token = WorkerToken;
                f(&Scope { inner });
            });
        } else {
            f(self);
        }
    }
}

/// Creates a fork–join scope, mirroring `rayon::scope`: every task spawned
/// inside has completed by the time `scope` returns.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that takes worker tokens or reads
    /// `ACTIVE_WORKERS`: the counter is process-global, so a sibling test
    /// running concurrently would otherwise hold tokens while another
    /// asserts that none are held.
    static TOKENS: Mutex<()> = Mutex::new(());

    fn exclusive_tokens() -> MutexGuard<'static, ()> {
        // A failed sibling test must not cascade into every later one.
        TOKENS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn join_returns_both_results() {
        let _tokens = exclusive_tokens();
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_joins_do_not_deadlock_or_leak_tokens() {
        let _tokens = exclusive_tokens();
        fn sum(depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            let (l, r) = join(|| sum(depth - 1), || sum(depth - 1));
            l + r
        }
        assert_eq!(sum(10), 1024);
        assert_eq!(ACTIVE_WORKERS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let _tokens = exclusive_tokens();
        let counter = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(ACTIVE_WORKERS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
