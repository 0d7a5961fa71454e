//! The verdict cache: program-hash-keyed memoization of verdicts.
//!
//! In the ROADMAP's serving scenario the same legality questions are asked
//! over and over (every user fusing the same two library traversals asks
//! the same `Conflict⟦P, P′⟧` query).  Queries are keyed by a fixed-size
//! structural hash of their subjects plus the option set ([`CacheKey`],
//! computed once per query — no per-lookup re-canonicalization of program
//! text), so a repeated query is O(hashing the AST) instead of O(model
//! enumeration) — and the cached verdict carries the *same witness* the
//! original run produced.
//!
//! # Sharding
//!
//! The store is *lock-striped*: entries are spread over up to
//! [`SHARD_COUNT`] independent shards (selected by the key's own hash
//! bits), each behind its own mutex with its own FIFO eviction queue.
//! Concurrent serving threads with different queries therefore contend on
//! different locks instead of one global one; the hit/miss/collision
//! counters are lock-free atomics aggregated across shards by
//! [`VerdictCache::stats`].
//!
//! # Shared subjects
//!
//! Each entry owns its query's subjects for the collision guard, and the
//! same program recurs across entries: a race query, the equivalence
//! queries that take it as original and the transformed programs' own race
//! queries.  A table of the resident programs, keyed by structural hash and
//! confirmed by `==`, lets every entry over an equal program hold the same
//! `Arc`.  A cache miss takes its owned copy from the table when it can, an
//! insert swaps in the resident copy of any program that became resident
//! after the miss, and a program leaves the table with the last entry that
//! holds it, so the table never outlives what the entries keep.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use retreet_lang::ast::Program;

use crate::persist::VerdictStore;
use crate::query::{OwnedQuery, Query, QueryKind};
use crate::verdict::Verdict;

/// Upper bound on the number of lock stripes; small capacities use fewer
/// shards so that every shard can hold at least one entry.
const SHARD_COUNT: usize = 16;

/// A verdict-cache key: the query kind plus a 128-bit structural hash of
/// the query subjects and the verifier's option set (see
/// [`crate::Query::cache_key`]).  Fixed-size and `Copy`, so lookups hash a
/// few machine words instead of the canonical program text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) kind: QueryKind,
    pub(crate) h1: u64,
    pub(crate) h2: u64,
}

/// Cache hit/miss counters (monotonic over the verifier's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run the portfolio.
    pub misses: u64,
    /// Key collisions detected: an insert found a resident entry under the
    /// same 128-bit key whose subjects differ.  The resident entry is kept
    /// and the colliding verdict is simply not cached, so two colliding
    /// queries never evict each other.  Every lookup counts as exactly one
    /// hit or miss (`hits + misses == lookups` always); `collisions` is a
    /// separate diagnostic counter on top, astronomically unlikely to be
    /// non-zero and worth alerting on when it is.
    pub collisions: u64,
    /// Entries currently stored (aggregated across shards).
    pub entries: usize,
}

/// A bounded, lock-striped FIFO-evicting verdict store, safe to share
/// across threads.
pub(crate) struct VerdictCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    /// The programs the resident entries hold, shared across shards.  Lock
    /// order: a shard's lock, then this one.
    programs: Mutex<ProgramTable>,
    /// Disk write-through layer, when persistence is enabled.  Attached
    /// *after* warm-loading the persisted entries, so the load itself does
    /// not re-append every verdict to the log it just came from.
    store: Option<Arc<VerdictStore>>,
}

struct Shard {
    capacity: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<CacheKey, (Arc<OwnedQuery>, Verdict)>,
    insertion_order: VecDeque<CacheKey>,
}

/// The distinct programs held by resident entries, each with the number of
/// entry slots (an equivalence holds two) referring to it.
#[derive(Default)]
struct ProgramTable {
    slots: HashMap<u64, (Arc<Program>, usize)>,
}

fn program_hash(program: &Program) -> u64 {
    let mut hasher = DefaultHasher::new();
    program.hash(&mut hasher);
    hasher.finish()
}

impl ProgramTable {
    /// The resident copy of a program equal to `program`, if any.
    fn find(&self, program: &Program) -> Option<Arc<Program>> {
        self.slots
            .get(&program_hash(program))
            .filter(|(resident, _)| **resident == *program)
            .map(|(resident, _)| Arc::clone(resident))
    }

    /// Counts one more reference to `program` and returns the copy the
    /// entry should hold: the resident one when an equal program is
    /// resident.  On a 64-bit hash collision between unequal programs the
    /// newcomer simply keeps its own, unshared copy.
    fn hold(&mut self, program: &Arc<Program>) -> Arc<Program> {
        match self.slots.entry(program_hash(program)) {
            Entry::Occupied(mut slot) => {
                let (resident, refs) = slot.get_mut();
                if Arc::ptr_eq(resident, program) || **resident == **program {
                    *refs += 1;
                    Arc::clone(resident)
                } else {
                    Arc::clone(program)
                }
            }
            Entry::Vacant(slot) => {
                slot.insert((Arc::clone(program), 1));
                Arc::clone(program)
            }
        }
    }

    /// Counts one reference to `program` fewer, dropping its slot with the
    /// last one.  A copy the table never held (see [`Self::hold`]) is
    /// ignored.
    fn release(&mut self, program: &Arc<Program>) {
        if let Entry::Occupied(mut slot) = self.slots.entry(program_hash(program)) {
            let (resident, refs) = slot.get_mut();
            if Arc::ptr_eq(resident, program) {
                *refs -= 1;
                if *refs == 0 {
                    slot.remove();
                }
            }
        }
    }

    /// Holds every program of an entry's subjects, returning the subjects
    /// the entry should store: `subjects` itself, or a copy pointing at the
    /// resident programs when an equal one became resident after the miss
    /// that built `subjects`.
    fn hold_subjects(&mut self, subjects: Arc<OwnedQuery>) -> Arc<OwnedQuery> {
        let held: Vec<Arc<Program>> = subjects
            .programs()
            .map(|program| self.hold(program))
            .collect();
        if held
            .iter()
            .zip(subjects.programs())
            .all(|(held, program)| Arc::ptr_eq(held, program))
        {
            return subjects;
        }
        let mut held = held.into_iter();
        Arc::new(
            subjects
                .as_query()
                .to_owned_query_with(|_| held.next().expect("one held copy per program")),
        )
    }

    fn release_subjects(&mut self, subjects: &OwnedQuery) {
        for program in subjects.programs() {
            self.release(program);
        }
    }
}

impl VerdictCache {
    /// Creates a cache holding at most `capacity` verdicts (0 disables
    /// caching entirely).  The store is striped over up to [`SHARD_COUNT`]
    /// shards, but only when every shard can hold at least a few entries:
    /// a small cache sliced into one-entry shards would let two hot keys
    /// that stripe together evict each other forever (where a single FIFO
    /// map keeps both resident), so capacities below `4 × SHARD_COUNT`
    /// use proportionally fewer shards — down to one global-FIFO shard.
    pub(crate) fn new(capacity: usize) -> Self {
        let shard_count = if capacity == 0 {
            0
        } else {
            (capacity / 4).clamp(1, SHARD_COUNT)
        };
        let shards = (0..shard_count)
            .map(|i| Shard {
                // Distribute the capacity as evenly as possible; the first
                // `capacity % shard_count` shards hold one extra entry.
                capacity: capacity / shard_count + usize::from(i < capacity % shard_count),
                state: Mutex::new(CacheState::default()),
            })
            .collect();
        VerdictCache {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            programs: Mutex::new(ProgramTable::default()),
            store: None,
        }
    }

    fn programs(&self) -> std::sync::MutexGuard<'_, ProgramTable> {
        self.programs.lock().expect("program table poisoned")
    }

    /// An owned copy of `query`'s subjects for a cache miss, sharing every
    /// program a resident entry already holds instead of cloning it.
    pub(crate) fn owned_query(&self, query: &Query<'_>) -> OwnedQuery {
        query.to_owned_query_with(|program| {
            let resident = self.programs().find(program);
            resident.unwrap_or_else(|| Arc::new(program.clone()))
        })
    }

    /// Attaches the persistent write-through layer (called once at build,
    /// after the warm-load).
    pub(crate) fn set_store(&mut self, store: Arc<VerdictStore>) {
        self.store = Some(store);
    }

    /// True when the cache can store anything at all; a disabled cache lets
    /// the verifier skip key construction entirely.
    pub(crate) fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        // h2 carries an independently seeded hash of the subjects, so the
        // stripe index is uncorrelated with the HashMap's use of the key.
        &self.shards[(key.h2 as usize) % self.shards.len()]
    }

    /// Looks up a verdict; counts exactly one hit or miss.  A key hit is
    /// only trusted after the stored subjects compare equal to `query` (the
    /// 128-bit hash key makes collisions astronomically unlikely, but a
    /// verifier must not return another query's verdict even then); a
    /// mismatch counts as a plain miss and the resident entry is left in
    /// place — the collision is counted once, at the blocked [`Self::insert`]
    /// that follows.  The returned clone is marked `cached` but keeps the
    /// original engine, soundness, witness and timing.
    pub(crate) fn get(&self, key: &CacheKey, query: &Query<'_>) -> Option<Verdict> {
        if !self.enabled() {
            return None;
        }
        let state = self
            .shard(key)
            .state
            .lock()
            .expect("verdict cache poisoned");
        match state.map.get(key) {
            Some((subjects, verdict)) if subjects.matches(query) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut verdict = verdict.clone();
                verdict.cached = true;
                Some(verdict)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`Self::get`] but without touching the hit/miss/collision
    /// counters — the single-flight leader's double-check after winning
    /// leadership, which must not distort the per-query accounting.
    pub(crate) fn peek(&self, key: &CacheKey, query: &Query<'_>) -> Option<Verdict> {
        if !self.enabled() {
            return None;
        }
        let state = self
            .shard(key)
            .state
            .lock()
            .expect("verdict cache poisoned");
        match state.map.get(key) {
            Some((subjects, verdict)) if subjects.matches(query) => {
                let mut verdict = verdict.clone();
                verdict.cached = true;
                Some(verdict)
            }
            _ => None,
        }
    }

    /// Stores a verdict with its owning subjects, evicting the shard's
    /// oldest entry when the shard is full.  A new entry holds the resident
    /// copy of each of its programs (see the module docs); an evicted one
    /// releases its programs.
    ///
    /// A resident entry under the same key is only refreshed when its
    /// subjects equal the new entry's *and* the incoming verdict's soundness
    /// [`covers`](crate::verdict::Soundness::covers) the resident one's (the
    /// entry keeps its subjects and takes the new verdict): an unbounded
    /// answer upgrades a bounded entry in place, but a bounded re-run never
    /// downgrades a resident unbounded
    /// (or wider-bounded) verdict.  When the subjects *differ* — a 128-bit
    /// key collision — the resident entry is kept and the event is counted
    /// in [`CacheStats::collisions`]: replacing it would make the two
    /// colliding queries evict each other forever and silently re-run their
    /// engines on every call.
    /// When persistence is enabled, an accepted insert is also written
    /// through to the disk store (outside the shard lock, so a slow disk
    /// never serializes the shard); collision- and downgrade-blocked
    /// inserts are not persisted, mirroring the in-memory decision.
    pub(crate) fn insert(&self, key: CacheKey, subjects: Arc<OwnedQuery>, verdict: Verdict) {
        if !self.enabled() {
            return;
        }
        let shard = self.shard(&key);
        {
            let mut guard = shard.state.lock().expect("verdict cache poisoned");
            let state = &mut *guard;
            match state.map.get_mut(&key) {
                Some((resident, _)) if !resident.matches(&subjects.as_query()) => {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some((_, resident)) if !verdict.soundness.covers(&resident.soundness) => {
                    // The resident verdict is strictly stronger; keep it.
                    return;
                }
                Some((_, resident)) => *resident = verdict.clone(),
                None => {
                    let evicted = if state.map.len() >= shard.capacity {
                        state
                            .insertion_order
                            .pop_front()
                            .and_then(|oldest| state.map.remove(&oldest))
                    } else {
                        None
                    };
                    state.insertion_order.push_back(key);
                    let mut programs = self.programs();
                    if let Some((evicted, _)) = evicted {
                        programs.release_subjects(&evicted);
                    }
                    let held = programs.hold_subjects(Arc::clone(&subjects));
                    state.map.insert(key, (held, verdict.clone()));
                }
            }
        }
        if let Some(store) = &self.store {
            store.write_through(&key, &subjects, &verdict);
        }
    }

    /// The subjects a resident entry holds.
    #[cfg(test)]
    pub(crate) fn resident_subjects(&self, key: &CacheKey) -> Option<Arc<OwnedQuery>> {
        let state = self
            .shard(key)
            .state
            .lock()
            .expect("verdict cache poisoned");
        state.map.get(key).map(|(subjects, _)| Arc::clone(subjects))
    }

    /// Current hit/miss/collision/entry counters, aggregated over shards.
    pub(crate) fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .state
                    .lock()
                    .expect("verdict cache poisoned")
                    .map
                    .len()
            })
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Drops every stored verdict (counters are preserved).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.lock().expect("verdict cache poisoned");
            let mut programs = self.programs();
            for (subjects, _) in state.map.values() {
                programs.release_subjects(subjects);
            }
            state.map.clear();
            state.insertion_order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::verdict::{Outcome, Soundness};
    use retreet_lang::corpus;
    use retreet_mso::formula::Formula;
    use std::time::Duration;

    fn verdict(n: usize) -> Verdict {
        Verdict {
            outcome: Outcome::Valid { trees_checked: n },
            engine: Engine::Automata,
            soundness: Soundness::Unbounded,
            elapsed: Duration::from_millis(1),
            cached: false,
            coalesced: false,
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            kind: QueryKind::Validity,
            h1: n,
            h2: n,
        }
    }

    fn subjects() -> Arc<OwnedQuery> {
        Arc::new(OwnedQuery::Validity(Formula::True))
    }

    const QUERY_FORMULA: Formula = Formula::True;

    fn query() -> Query<'static> {
        Query::Validity(&QUERY_FORMULA)
    }

    #[test]
    fn hit_returns_clone_marked_cached() {
        let cache = VerdictCache::new(8);
        cache.insert(key(0), subjects(), verdict(7));
        let got = cache.get(&key(0), &query()).expect("hit");
        assert!(got.cached);
        assert_eq!(got.trees_checked(), 7);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
    }

    #[test]
    fn eviction_is_fifo_and_capacity_bounded() {
        // A capacity this small uses one global-FIFO shard (striping it
        // into one-entry shards would let two hot keys evict each other).
        let cache = VerdictCache::new(2);
        cache.insert(key(1), subjects(), verdict(1));
        cache.insert(key(2), subjects(), verdict(2));
        cache.insert(key(3), subjects(), verdict(3));
        assert!(
            cache.get(&key(1), &query()).is_none(),
            "oldest entry evicted"
        );
        assert!(cache.get(&key(2), &query()).is_some());
        assert!(cache.get(&key(3), &query()).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn small_capacities_hold_their_full_hot_set_without_thrashing() {
        // Regression: with per-shard FIFO over one-entry shards, two hot
        // keys striping to the same shard would evict each other on every
        // insert and miss forever.  A small cache must behave like the
        // single global FIFO it replaces.
        let cache = VerdictCache::new(2);
        for round in 0..10 {
            cache.insert(key(0), subjects(), verdict(0));
            cache.insert(key(2), subjects(), verdict(2));
            assert!(
                cache.get(&key(0), &query()).is_some() && cache.get(&key(2), &query()).is_some(),
                "round {round}: both hot entries must stay resident"
            );
        }
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = VerdictCache::new(0);
        cache.insert(key(0), subjects(), verdict(1));
        assert!(!cache.enabled());
        assert!(cache.get(&key(0), &query()).is_none());
    }

    #[test]
    fn reinserting_an_existing_key_updates_in_place() {
        let cache = VerdictCache::new(2);
        cache.insert(key(1), subjects(), verdict(1));
        cache.insert(key(1), subjects(), verdict(9));
        assert_eq!(cache.get(&key(1), &query()).unwrap().trees_checked(), 9);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().collisions, 0);
    }

    fn bounded_verdict(n: usize, max_nodes: usize) -> Verdict {
        Verdict {
            soundness: Soundness::BoundedUpTo { max_nodes },
            ..verdict(n)
        }
    }

    #[test]
    fn bounded_entry_is_upgraded_to_unbounded_in_place() {
        let cache = VerdictCache::new(8);
        cache.insert(key(1), subjects(), bounded_verdict(5, 4));
        cache.insert(key(1), subjects(), verdict(0));
        let got = cache.get(&key(1), &query()).expect("hit");
        assert_eq!(got.soundness, Soundness::Unbounded, "entry upgraded");
        assert_eq!(got.trees_checked(), 0, "upgraded verdict replaces payload");
        assert_eq!(cache.stats().entries, 1, "upgrade is in place, not a copy");
        assert_eq!(cache.stats().collisions, 0);
    }

    #[test]
    fn unbounded_entry_is_never_downgraded() {
        let cache = VerdictCache::new(8);
        cache.insert(key(1), subjects(), verdict(0));
        cache.insert(key(1), subjects(), bounded_verdict(9, 4));
        let got = cache.get(&key(1), &query()).expect("hit");
        assert_eq!(got.soundness, Soundness::Unbounded, "resident kept");
        assert_eq!(got.trees_checked(), 0, "bounded payload not stored");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn narrower_bounded_verdicts_do_not_replace_wider_ones() {
        let cache = VerdictCache::new(8);
        cache.insert(key(1), subjects(), bounded_verdict(9, 6));
        cache.insert(key(1), subjects(), bounded_verdict(3, 4));
        let got = cache.get(&key(1), &query()).expect("hit");
        assert_eq!(got.soundness, Soundness::BoundedUpTo { max_nodes: 6 });
        assert_eq!(got.trees_checked(), 9);
        // An equal-or-wider bound is a refresh and does replace.
        cache.insert(key(1), subjects(), bounded_verdict(11, 6));
        assert_eq!(cache.get(&key(1), &query()).unwrap().trees_checked(), 11);
    }

    #[test]
    fn hits_plus_misses_equals_lookups_under_concurrent_upgrade() {
        // Many threads race gets against bounded inserts and unbounded
        // upgrades of the same keys.  The accounting invariant must hold
        // exactly: every lookup is one hit or one miss, never both or
        // neither, even while entries are being upgraded under it.
        let cache = Arc::new(VerdictCache::new(8));
        let threads = 8;
        let lookups_per_thread = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..lookups_per_thread {
                        let k = key((i % 4) as u64);
                        if t % 2 == 0 {
                            cache.insert(k, subjects(), bounded_verdict(i, 4));
                        } else {
                            cache.insert(k, subjects(), verdict(0));
                        }
                        let _ = cache.get(&k, &query());
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            (threads * lookups_per_thread) as u64,
            "hits + misses must equal lookups exactly"
        );
        assert_eq!(stats.collisions, 0);
        // Every surviving entry is at the top of the upgrade lattice: once
        // an unbounded verdict lands, no bounded racer can undo it.
        for n in 0..4 {
            let got = cache.get(&key(n), &query()).expect("entry resident");
            assert_eq!(got.soundness, Soundness::Unbounded, "key {n} upgraded");
        }
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = VerdictCache::new(2);
        cache.insert(key(1), subjects(), verdict(1));
        let _ = cache.get(&key(1), &query());
        cache.clear();
        assert!(cache.get(&key(1), &query()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn key_collision_with_different_subjects_is_a_miss() {
        let cache = VerdictCache::new(2);
        cache.insert(
            key(1),
            Arc::new(OwnedQuery::Validity(Formula::False)),
            verdict(1),
        );
        // Same key, different stored subjects: the equality guard must
        // refuse to serve another query's verdict.  The lookup is a plain
        // miss (every lookup is exactly one hit or miss); the collision is
        // counted at the blocked insert, not here.
        assert!(cache.get(&key(1), &query()).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().collisions, 0);
    }

    #[test]
    fn key_collision_on_insert_keeps_the_resident_entry() {
        // Regression: two queries whose subjects differ but whose 128-bit
        // keys collide must not evict each other forever.  The resident
        // entry survives, its verdict is still served, and the event is
        // counted in `collisions` instead of silently thrashing.
        let cache = VerdictCache::new(8);
        cache.insert(key(1), subjects(), verdict(7));
        cache.insert(
            key(1),
            Arc::new(OwnedQuery::Validity(Formula::False)),
            verdict(2),
        );
        let resident = cache.get(&key(1), &query()).expect("resident entry kept");
        assert_eq!(resident.trees_checked(), 7, "resident verdict unchanged");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().collisions, 1);
    }

    #[test]
    fn peek_does_not_touch_the_counters() {
        let cache = VerdictCache::new(8);
        cache.insert(key(1), subjects(), verdict(3));
        assert!(cache.peek(&key(1), &query()).is_some());
        assert!(cache.peek(&key(2), &query()).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (0, 0, 0));
    }

    #[test]
    fn shards_hold_the_full_capacity_in_aggregate() {
        let cache = VerdictCache::new(64);
        for n in 0..64 {
            cache.insert(key(n), subjects(), verdict(n as usize));
        }
        assert_eq!(cache.stats().entries, 64);
        for n in 0..64 {
            assert!(cache.get(&key(n), &query()).is_some(), "key {n} resident");
        }
    }

    /// The programs of a resident entry, in subject order.
    fn resident_programs(cache: &VerdictCache, key: &CacheKey) -> Vec<Arc<Program>> {
        let subjects = cache.resident_subjects(key).expect("entry resident");
        subjects.programs().cloned().collect()
    }

    fn table_refs(cache: &VerdictCache, program: &Program) -> Option<usize> {
        let programs = cache.programs();
        let (_, refs) = programs.slots.get(&program_hash(program))?;
        Some(*refs)
    }

    #[test]
    fn entries_over_equal_programs_share_one_allocation() {
        let cache = VerdictCache::new(64);
        let program = corpus::size_counting_parallel();
        let fused = corpus::size_counting_fused();
        let race = cache.owned_query(&Query::DataRace(&program));
        cache.insert(key(1), Arc::new(race), verdict(1));
        // A miss over an equal (separately allocated) program takes the
        // resident copy instead of cloning its own.
        let copy = program.clone();
        let equivalence = cache.owned_query(&Query::Equivalence(&copy, &fused));
        let resident = resident_programs(&cache, &key(1));
        assert!(Arc::ptr_eq(
            equivalence.programs().next().unwrap(),
            &resident[0]
        ));
        cache.insert(key(2), Arc::new(equivalence), verdict(2));
        // Subjects built without the table (a replayed store entry, or an
        // equal program that became resident after the miss) are swapped
        // for the resident copy on insert.
        let late = OwnedQuery::Equivalence(Arc::new(fused.clone()), Arc::new(program.clone()));
        cache.insert(key(3), Arc::new(late), verdict(3));

        let race = resident_programs(&cache, &key(1));
        let equivalence = resident_programs(&cache, &key(2));
        let late = resident_programs(&cache, &key(3));
        assert!(Arc::ptr_eq(&race[0], &equivalence[0]));
        assert!(Arc::ptr_eq(&race[0], &late[1]));
        assert!(Arc::ptr_eq(&equivalence[1], &late[0]));
        assert_eq!(table_refs(&cache, &program), Some(3));
        assert_eq!(table_refs(&cache, &fused), Some(2));
        assert_eq!(cache.programs().slots.len(), 2);
        // The swapped-in subjects still answer their own query.
        assert!(cache
            .get(&key(3), &Query::Equivalence(&fused, &program))
            .is_some());
    }

    #[test]
    fn unequal_programs_never_share() {
        let cache = VerdictCache::new(64);
        let program = corpus::size_counting_parallel();
        let fused = corpus::size_counting_fused();
        cache.insert(
            key(1),
            Arc::new(cache.owned_query(&Query::DataRace(&program))),
            verdict(1),
        );
        let other = cache.owned_query(&Query::DataRace(&fused));
        let resident = resident_programs(&cache, &key(1));
        assert!(!Arc::ptr_eq(&resident[0], other.programs().next().unwrap()));
        cache.insert(key(2), Arc::new(other), verdict(2));
        let (first, second) = (
            resident_programs(&cache, &key(1)),
            resident_programs(&cache, &key(2)),
        );
        assert!(!Arc::ptr_eq(&first[0], &second[0]));
        assert_eq!(*first[0], program);
        assert_eq!(*second[0], fused);
        assert_eq!(table_refs(&cache, &program), Some(1));
        assert_eq!(table_refs(&cache, &fused), Some(1));
    }

    #[test]
    fn evicting_the_last_holder_frees_the_slot() {
        // One global-FIFO shard of two entries.
        let cache = VerdictCache::new(2);
        let program = corpus::size_counting_parallel();
        let fused = corpus::size_counting_fused();
        cache.insert(
            key(1),
            Arc::new(cache.owned_query(&Query::DataRace(&program))),
            verdict(1),
        );
        cache.insert(
            key(2),
            Arc::new(cache.owned_query(&Query::Equivalence(&program, &fused))),
            verdict(2),
        );
        let shared = Arc::clone(&resident_programs(&cache, &key(1))[0]);
        assert_eq!(table_refs(&cache, &program), Some(2));
        // Evicting the race entry leaves the equivalence holding the program.
        cache.insert(key(3), subjects(), verdict(3));
        assert_eq!(table_refs(&cache, &program), Some(1));
        assert_eq!(table_refs(&cache, &fused), Some(1));
        // Evicting the last holder drops both slots: nothing but this test
        // keeps the program alive, and a new miss clones afresh.
        cache.insert(key(4), subjects(), verdict(4));
        assert!(cache.programs().slots.is_empty());
        assert_eq!(Arc::strong_count(&shared), 1);
        let fresh = cache.owned_query(&Query::DataRace(&program));
        assert!(!Arc::ptr_eq(fresh.programs().next().unwrap(), &shared));
        // Clearing releases every entry's programs too.
        cache.insert(key(5), Arc::new(fresh), verdict(5));
        assert_eq!(table_refs(&cache, &program), Some(1));
        cache.clear();
        assert!(cache.programs().slots.is_empty());
    }
}
