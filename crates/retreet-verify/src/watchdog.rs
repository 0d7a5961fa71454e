//! The deadline watchdog: one process-wide timer thread that raises
//! cooperative-cancel flags when per-query budgets expire.
//!
//! Every deadline-carrying dispatch registers `(expiry, Weak<AtomicBool>)`
//! here.  The watchdog thread sleeps until the earliest expiry, raises the
//! flag (the dispatch's `AtomicBool`, which every engine polls in its
//! enumeration loops), and moves on.  Queries that
//! finish in time simply drop their `Arc`; the weak reference then upgrades
//! to nothing and the expiry is a no-op — no deregistration bookkeeping on
//! the fast path.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Instant;

struct Entry {
    when: Instant,
    flag: Weak<AtomicBool>,
}

// `BinaryHeap` is a max-heap; order entries by *reversed* time so the
// earliest expiry surfaces first.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.when.cmp(&self.when)
    }
}

struct Watchdog {
    heap: Mutex<BinaryHeap<Entry>>,
    wake: Condvar,
}

static WATCHDOG: OnceLock<Arc<Watchdog>> = OnceLock::new();

fn watchdog() -> &'static Arc<Watchdog> {
    WATCHDOG.get_or_init(|| {
        let state = Arc::new(Watchdog {
            heap: Mutex::new(BinaryHeap::new()),
            wake: Condvar::new(),
        });
        let thread_state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("retreet-deadline-watchdog".into())
            .spawn(move || run(thread_state))
            .expect("spawn deadline watchdog");
        state
    })
}

fn run(state: Arc<Watchdog>) {
    let mut heap = state.heap.lock().expect("watchdog heap poisoned");
    loop {
        let now = Instant::now();
        match heap.peek() {
            None => {
                heap = state.wake.wait(heap).expect("watchdog heap poisoned");
            }
            Some(entry) if entry.when <= now => {
                let entry = heap.pop().expect("peeked entry present");
                if let Some(flag) = entry.flag.upgrade() {
                    flag.store(true, Ordering::Relaxed);
                }
            }
            Some(entry) => {
                let timeout = entry.when.duration_since(now);
                heap = state
                    .wake
                    .wait_timeout(heap, timeout)
                    .expect("watchdog heap poisoned")
                    .0;
            }
        }
    }
}

/// Arrange for `flag` to be raised at `when` (unless every strong `Arc` to
/// it is dropped first — i.e. the query finished inside its budget).
pub(crate) fn watch(when: Instant, flag: &Arc<AtomicBool>) {
    let state = watchdog();
    {
        let mut heap = state.heap.lock().expect("watchdog heap poisoned");
        heap.push(Entry {
            when,
            flag: Arc::downgrade(flag),
        });
    }
    state.wake.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn expired_deadline_raises_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        watch(Instant::now() + Duration::from_millis(20), &flag);
        assert!(!flag.load(Ordering::Relaxed), "not raised early");
        for _ in 0..500 {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("watchdog never raised the flag");
    }

    #[test]
    fn finished_queries_are_not_tracked_after_drop() {
        let flag = Arc::new(AtomicBool::new(false));
        let observer = Arc::downgrade(&flag);
        watch(Instant::now() + Duration::from_millis(30), &flag);
        drop(flag); // query finished: the only strong ref is gone
        std::thread::sleep(Duration::from_millis(80));
        assert!(observer.upgrade().is_none(), "watchdog kept the flag alive");
    }

    #[test]
    fn multiple_deadlines_fire_in_order_without_blocking_each_other() {
        let early = Arc::new(AtomicBool::new(false));
        let late = Arc::new(AtomicBool::new(false));
        // Register the late one first: the watchdog must still fire the
        // earlier expiry on time.
        watch(Instant::now() + Duration::from_millis(200), &late);
        watch(Instant::now() + Duration::from_millis(20), &early);
        for _ in 0..500 {
            if early.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(early.load(Ordering::Relaxed), "early deadline fired");
        for _ in 0..500 {
            if late.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("late deadline never fired");
    }
}
