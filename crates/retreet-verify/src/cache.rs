//! The verdict cache: memoization of verdicts keyed on canonical program
//! text.
//!
//! In the ROADMAP's serving scenario the same legality questions are asked
//! over and over (every user fusing the same two library traversals asks
//! the same `Conflict⟦P, P′⟧` query).  A query is identified by its
//! subjects in canonical form — every program as printed by
//! `print_program`, a formula as it is — and keyed by a fixed-size hash of
//! that form plus the option set ([`CacheKey`]).  A repeated query costs
//! printing its programs (a library caller's [`Query`](crate::Query)) or
//! only hashing its request text (a serving tier's
//! [`SourceQuery`](crate::SourceQuery), answered without parsing) instead
//! of O(model enumeration) — and the cached verdict carries the *same
//! witness* the original run produced.  Each entry holds its programs as
//! text, a few kilobytes with no tree behind it.
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

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use crate::persist::VerdictStore;
use crate::query::{OwnedQuery, QueryKind, SourceQuery};
use crate::verdict::Verdict;

/// Upper bound on the number of lock stripes; small capacities use fewer
/// shards so that every shard can hold at least one entry.
const SHARD_COUNT: usize = 16;

/// A verdict-cache key: the query kind plus a 128-bit hash of the query's
/// canonical subjects and the verifier's option set.  Fixed-size and
/// `Copy`, so the maps hash a few machine words instead of program text.
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
    /// queries never evict each other.  Every query counts as exactly one
    /// hit or miss (`hits + misses == lookups` always: a text lookup that
    /// misses counts nothing, and the parsed query's lookup after it
    /// counts); `collisions` is a separate diagnostic counter on top,
    /// astronomically unlikely to be non-zero and worth alerting on when it
    /// is.
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
            store: None,
        }
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

    /// The verdict resident under `key`, marked `cached` (it keeps the
    /// original engine, soundness, witness and timing), when its subjects
    /// pass `matches`.  A key hit is only trusted after that compare: the
    /// 128-bit key makes collisions astronomically unlikely, but a verifier
    /// must not return another query's verdict even then.  Moves no
    /// counter.
    fn find(&self, key: &CacheKey, matches: impl FnOnce(&OwnedQuery) -> bool) -> Option<Verdict> {
        if !self.enabled() {
            return None;
        }
        let state = self
            .shard(key)
            .state
            .lock()
            .expect("verdict cache poisoned");
        let (subjects, verdict) = state.map.get(key)?;
        if !matches(subjects) {
            return None;
        }
        let mut verdict = verdict.clone();
        verdict.cached = true;
        Some(verdict)
    }

    /// Looks up a verdict; counts exactly one hit or miss.  A mismatch
    /// under the key counts as a plain miss and the resident entry is left
    /// in place — the collision is counted once, at the blocked
    /// [`Self::insert`] that follows.
    pub(crate) fn get(&self, key: &CacheKey, subjects: &OwnedQuery) -> Option<Verdict> {
        if !self.enabled() {
            return None;
        }
        let found = self.find(key, |resident| resident == subjects);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Like [`Self::get`] but without touching the hit/miss/collision
    /// counters — the single-flight leader's double-check after winning
    /// leadership and the serving tier's probe, which must not distort the
    /// per-query accounting.
    pub(crate) fn peek(&self, key: &CacheKey, subjects: &OwnedQuery) -> Option<Verdict> {
        self.find(key, |resident| resident == subjects)
    }

    /// Looks up a verdict by program text, byte-compared against the
    /// resident programs.  A hit counts one hit; a miss counts nothing,
    /// because the caller then parses the text and looks the query up
    /// again, and that lookup counts it.
    pub(crate) fn get_source(&self, key: &CacheKey, source: &SourceQuery<'_>) -> Option<Verdict> {
        let found = self.find(key, |resident| resident.matches_source(source));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a verdict with its subjects, evicting the shard's oldest
    /// entry when the shard is full.
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
                Some((resident, _)) if **resident != *subjects => {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some((_, resident)) if !verdict.soundness.covers(&resident.soundness) => {
                    // The resident verdict is strictly stronger; keep it.
                    return;
                }
                Some((_, resident)) => *resident = verdict.clone(),
                None => {
                    if state.map.len() >= shard.capacity {
                        if let Some(oldest) = state.insertion_order.pop_front() {
                            state.map.remove(&oldest);
                        }
                    }
                    state.insertion_order.push_back(key);
                    state
                        .map
                        .insert(key, (Arc::clone(&subjects), verdict.clone()));
                }
            }
        }
        if let Some(store) = &self.store {
            store.write_through(&key, &subjects, &verdict);
        }
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
        Arc::new(query())
    }

    fn query() -> OwnedQuery {
        OwnedQuery::Validity(Formula::True)
    }

    /// Race subjects over a program text.
    fn race(program: &str) -> Arc<OwnedQuery> {
        Arc::new(OwnedQuery::DataRace(program.into()))
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
        // Many threads race lookups against bounded inserts and unbounded
        // upgrades of the same text-keyed entries.  Each lookup is served
        // the way the serving tier does it: a text lookup first, and only
        // when that misses the canonical-subjects lookup.  The accounting
        // invariant must hold exactly: every lookup is one hit or one
        // miss, never both or neither, even while entries are being
        // upgraded under it.
        let cache = Arc::new(VerdictCache::new(8));
        let config = crate::VerifierBuilder::default().config;
        let programs: Vec<String> = (0..4)
            .map(|i| format!("fn Main(n) {{ return {i}; }}"))
            .collect();
        let threads = 8;
        let lookups_per_thread = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let programs = programs.clone();
                let config = config.clone();
                std::thread::spawn(move || {
                    for i in 0..lookups_per_thread {
                        let program = &programs[i % 4];
                        let source = SourceQuery::DataRace(program);
                        let key = source.cache_key(&config);
                        if t % 2 == 0 {
                            cache.insert(key, race(program), bounded_verdict(i, 4));
                        } else {
                            cache.insert(key, race(program), verdict(0));
                        }
                        if cache.get_source(&key, &source).is_none() {
                            let _ = cache.get(&key, &race(program));
                        }
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
        for program in &programs {
            let source = SourceQuery::DataRace(program);
            let got = cache
                .get_source(&source.cache_key(&config), &source)
                .expect("entry resident");
            assert_eq!(got.soundness, Soundness::Unbounded, "{program} upgraded");
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
        cache.insert(key(1), race("fn Main(n) { return 1; }"), verdict(1));
        // Same key, different stored text: the byte compare must refuse to
        // serve another query's verdict.  The lookup is a plain miss (every
        // lookup is exactly one hit or miss); the collision is counted at
        // the blocked insert, not here.  A text lookup refuses it too, and
        // counts nothing.
        let other = "fn Main(n) { return 2; }";
        assert!(cache.get(&key(1), &race(other)).is_none());
        assert!(cache
            .get_source(&key(1), &SourceQuery::DataRace(other))
            .is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().collisions, 0);
    }

    #[test]
    fn key_collision_on_insert_keeps_the_resident_entry() {
        // Regression: two queries whose texts differ but whose 128-bit keys
        // collide must not evict each other forever.  The resident entry
        // survives, its verdict is still served, and the event is counted
        // in `collisions` instead of silently thrashing.
        let cache = VerdictCache::new(8);
        let resident = "fn Main(n) { return 1; }";
        cache.insert(key(1), race(resident), verdict(7));
        cache.insert(key(1), race("fn Main(n) { return 2; }"), verdict(2));
        let got = cache
            .get_source(&key(1), &SourceQuery::DataRace(resident))
            .expect("resident entry kept");
        assert_eq!(got.trees_checked(), 7, "resident verdict unchanged");
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().collisions, 1);
    }

    #[test]
    fn text_lookups_need_byte_identical_programs_in_order() {
        let cache = VerdictCache::new(8);
        let config = crate::VerifierBuilder::default().config;
        let (original, fused) = ("fn Main(n) { return 1; }", "fn Main(n) { return 2; }");
        let owned = Arc::new(OwnedQuery::Equivalence(original.into(), fused.into()));
        let key = owned.cache_key(&config);
        assert_eq!(
            key,
            SourceQuery::Equivalence(original, fused).cache_key(&config)
        );
        cache.insert(key, owned, verdict(3));
        let lookup =
            |source: SourceQuery<'_>| cache.get_source(&source.cache_key(&config), &source);
        assert!(lookup(SourceQuery::Equivalence(original, fused)).is_some());
        assert!(lookup(SourceQuery::Equivalence(fused, original)).is_none());
        assert!(lookup(SourceQuery::Equivalence(original, "fn Main(n) {return 2;}")).is_none());
        assert!(lookup(SourceQuery::DataRace(original)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
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
}
