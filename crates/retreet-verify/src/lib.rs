//! # retreet-verify — the unified verification façade
//!
//! The paper answers three kinds of dependence queries — data race
//! (Theorem 2), transformation conflict/equivalence (Theorem 3), and the
//! MSO validity questions both reduce to — through one MONA-backed
//! pipeline.  Earlier revisions of this reproduction exposed them as three
//! disconnected per-crate entry points, each with its own options struct and
//! verdict shape.  This crate is the single coherent entry point that
//! replaces them:
//!
//! * [`Verifier`] — built once via [`Verifier::builder`], holds the analysis
//!   budget, the engine portfolio and the verdict cache;
//! * [`Query`] — the typed query surface: [`Query::DataRace`],
//!   [`Query::Equivalence`], [`Query::Validity`];
//! * [`Verdict`] — the unified answer: a structured [`Outcome`] (with the
//!   concrete [`retreet_analysis::race::RaceWitness`] /
//!   [`retreet_analysis::equiv::EquivCounterExample`] / falsifying-tree
//!   witnesses), engine provenance, a [`Soundness`] caveat for bounded-only
//!   answers, and timing;
//! * [`VerifyError`] — the typed error hierarchy replacing the ad-hoc
//!   `String` errors of the old entry points.
//!
//! # The portfolio
//!
//! Each query kind is answered by every applicable engine in the portfolio
//! (see [`Engine`]): tree automata (unbounded, where the fragment allows)
//! for all three kinds, configurations and traces for races, traces for
//! equivalence, and bounded enumeration for validity.  For races and
//! equivalence the automata engine only proves the positive answer; a race
//! witness comes from the configuration engine and a counterexample from
//! the trace engine, each the one owner of its bounded search.
//!
//! The applicable engines run one after the other in dispatch order, which
//! is also the *authority* order (unbounded engines first): the first
//! engine that answers produces the verdict, so outcome **and witness** are
//! the same on every run.
//!
//! # The serving tier
//!
//! A [`Verifier`] is `Sync` and built to be shared across serving threads
//! (the `retreet-serve` crate wraps one in a long-running NDJSON service):
//!
//! * the verdict cache is *lock-striped* over independent shards, so
//!   concurrent distinct queries contend on different locks, and it
//!   identifies a program by its printed text, so
//!   [`Verifier::cached`] answers a repeated race or equivalence request
//!   from its program text ([`SourceQuery`]) without parsing it;
//! * identical concurrent queries are *single-flighted*: one of them runs
//!   the portfolio, the rest block on that in-flight run and receive the
//!   same witness (marked [`Verdict::coalesced`]) instead of racing the
//!   engines N times;
//! * [`Verifier::verify_batch`] fans a batch out over worker threads and
//!   returns results in input order;
//! * [`Verifier::cache_stats`] / [`Verifier::serving_stats`] expose the
//!   hit/miss/collision and run/cancel/coalesce counters the service and
//!   `bench_service` report.
//!
//! # Robustness
//!
//! The serving tier is hardened for long-running multi-tenant use:
//!
//! * **Deadlines** — [`VerifierBuilder::default_deadline`] (or a per-query
//!   [`Verifier::verify_within`]) bounds every dispatch.  A process-wide
//!   watchdog thread raises the dispatch's cooperative-cancel flag, which
//!   every engine polls in its enumeration loops.  The answer is
//!   *fail-closed*: a cancelled dispatch resolves to the typed
//!   [`VerifyError::DeadlineExceeded`] — never a truncated or wrong
//!   verdict, and nothing is cached.
//! * **Crash-safe persistence** — [`VerifierBuilder::persist`] backs the
//!   verdict cache with an append-only, checksummed record log
//!   (`retreet-store`).  Every accepted cache insert is written through;
//!   on restart every verdict ever computed is recovered (torn tails are
//!   truncated, corrupt records skipped or refused per
//!   [`CorruptionPolicy`]), and the [`Soundness`] upgrade lattice is
//!   enforced on disk exactly as in memory.
//! * **Fault isolation** — every engine run executes under `catch_unwind`:
//!   a panicking engine forfeits its turn (and is reported as a skip with
//!   its panic message) and the next engine in dispatch order runs;
//!   [`VerifyError::PortfolioFailed`] is returned only when *no* engine
//!   survives.  A deterministic [`FaultPlan`] can inject panics, stalls,
//!   and store failures for chaos testing.
//! * **Probing and draining** — [`Verifier::probe`] classifies a query's
//!   [`Warmth`] (cache hit / in-flight / cold) without running anything, so
//!   a server can lane-split admission; [`Verifier::abort_inflight`] raises
//!   every active dispatch's cancel flag for fast shutdown, and
//!   [`Verifier::flush_store`] durably syncs the log.
//!
//! # Example
//!
//! ```
//! use retreet_verify::{Query, Verifier};
//! use retreet_lang::corpus;
//!
//! let verifier = Verifier::builder().max_nodes(3).valuations(1).build();
//!
//! // Theorem 2: Odd(n) ‖ Even(n) is data-race-free.
//! let verdict = verifier
//!     .verify(Query::DataRace(&corpus::size_counting_parallel()))
//!     .unwrap();
//! assert!(verdict.is_race_free());
//!
//! // Theorem 3: the Fig. 6a fusion is correct.
//! let verdict = verifier
//!     .verify(Query::Equivalence(
//!         &corpus::size_counting_sequential(),
//!         &corpus::size_counting_fused(),
//!     ))
//!     .unwrap();
//! assert!(verdict.is_equivalent());
//!
//! // Repeated queries are served from the verdict cache.
//! let again = verifier
//!     .verify(Query::DataRace(&corpus::size_counting_parallel()))
//!     .unwrap();
//! assert!(again.cached);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod error;
mod persist;
mod query;
mod verdict;
mod watchdog;

pub use cache::CacheStats;
pub use engine::{Engine, EngineConfig};
pub use error::{EngineSkip, ProgramRole, VerifyError};
pub use persist::StoreStats;
pub use query::{Query, QueryKind, SourceQuery};
pub use verdict::{Outcome, Soundness, Verdict};

// The fault-injection vocabulary and the store's corruption policy are
// re-exported so serving-tier callers configure chaos runs and persistence
// through one crate.
pub use retreet_store::fault::{
    FaultCounts, FaultPlan, FaultPlanBuilder, FaultSite, InjectedFault,
};
pub use retreet_store::CorruptionPolicy;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use retreet_lang::ast::Program;
use retreet_lang::validate::validate;
use retreet_mso::formula::Formula;

use cache::{CacheKey, VerdictCache};
use engine::{run_engine, EngineAnswer, NEVER_CANCELLED};
use persist::VerdictStore;
use query::OwnedQuery;

/// Builder for [`Verifier`]; obtain one with [`Verifier::builder`].
///
/// ```
/// use retreet_verify::{Engine, Verifier};
///
/// let verifier = Verifier::builder()
///     .max_nodes(4)
///     .valuations(2)
///     .engines([Engine::Configuration, Engine::Trace])
///     .cache_capacity(1024)
///     .build();
/// assert_eq!(verifier.engines().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct VerifierBuilder {
    config: EngineConfig,
    engines: Vec<Engine>,
    cache_capacity: usize,
    default_deadline: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    persist: Option<(PathBuf, CorruptionPolicy)>,
}

impl Default for VerifierBuilder {
    fn default() -> Self {
        VerifierBuilder {
            config: EngineConfig {
                race_nodes: 4,
                equiv_nodes: 5,
                validity_nodes: 5,
                valuations: 2,
            },
            engines: Engine::ALL.to_vec(),
            cache_capacity: 4096,
            default_deadline: None,
            faults: None,
            persist: None,
        }
    }
}

impl VerifierBuilder {
    /// Sets one tree-size bound for *all* query kinds (race, equivalence
    /// and bounded validity).  Use [`Self::race_nodes`] /
    /// [`Self::equiv_nodes`] / [`Self::validity_nodes`] for per-kind bounds.
    pub fn max_nodes(mut self, nodes: usize) -> Self {
        self.config.race_nodes = nodes;
        self.config.equiv_nodes = nodes;
        self.config.validity_nodes = nodes;
        self
    }

    /// Largest tree (in nodes) enumerated for data-race queries.
    pub fn race_nodes(mut self, nodes: usize) -> Self {
        self.config.race_nodes = nodes;
        self
    }

    /// Largest tree (in nodes) enumerated for equivalence queries.
    pub fn equiv_nodes(mut self, nodes: usize) -> Self {
        self.config.equiv_nodes = nodes;
        self
    }

    /// Largest tree (in nodes) enumerated for bounded validity queries.
    pub fn validity_nodes(mut self, nodes: usize) -> Self {
        self.config.validity_nodes = nodes;
        self
    }

    /// Deterministic field valuations per tree shape.
    pub fn valuations(mut self, valuations: usize) -> Self {
        self.config.valuations = valuations;
        self
    }

    /// Restricts the portfolio to the given engines, in dispatch order (the
    /// order doubles as the *authority* order: engines run one after the
    /// other and the earliest answering engine's verdict wins).  Duplicates
    /// are dropped; an empty list restores the default full portfolio.
    pub fn engines(mut self, engines: impl IntoIterator<Item = Engine>) -> Self {
        let mut chosen: Vec<Engine> = Vec::new();
        for engine in engines {
            if !chosen.contains(&engine) {
                chosen.push(engine);
            }
        }
        self.engines = if chosen.is_empty() {
            Engine::ALL.to_vec()
        } else {
            chosen
        };
        self
    }

    /// Maximum number of cached verdicts (0 disables the cache *and*
    /// single-flight coalescing).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Default per-query wall-clock budget.  When it expires the dispatch's
    /// cooperative-cancel flag is raised by the watchdog thread; engines
    /// abandon their enumerations at the next poll and the query resolves
    /// fail-closed to [`VerifyError::DeadlineExceeded`].  Unset by default:
    /// queries run to completion.
    pub fn default_deadline(mut self, budget: Duration) -> Self {
        self.default_deadline = Some(budget);
        self
    }

    /// Installs a deterministic fault-injection plan: engine panics and
    /// stalls, and (when persistence is enabled) store write errors, torn
    /// writes and corruption.  Testing hook — never set in production.  The
    /// plan is deliberately *not* part of [`EngineConfig`], which is hashed
    /// into cache keys: injecting faults must not change what a query is.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Like [`Self::fault_plan`] with a plan that is already shared: the
    /// serving tier hands the same `Arc` to the verifier (engine and store
    /// sites) and keeps a clone for its own connection-write site, so one
    /// seed drives the whole stack's chaos run.
    pub fn shared_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Backs the verdict cache with a crash-safe append-only log at `path`
    /// (created if absent).  Every verdict the cache accepts is written
    /// through; on [`Self::try_build`] every decodable persisted verdict is
    /// loaded back into the cache, so a restarted process serves its entire
    /// prior corpus as cache hits.  Corrupt records are skipped and counted
    /// ([`CorruptionPolicy::SkipAndLog`]); use
    /// [`Self::persist_with_policy`] to refuse a corrupt store instead.
    /// Persistence rides on the cache: with `cache_capacity(0)` nothing is
    /// ever accepted, hence nothing persisted.
    pub fn persist(self, path: impl Into<PathBuf>) -> Self {
        self.persist_with_policy(path, CorruptionPolicy::SkipAndLog)
    }

    /// Like [`Self::persist`] with an explicit corruption policy.
    pub fn persist_with_policy(
        mut self,
        path: impl Into<PathBuf>,
        policy: CorruptionPolicy,
    ) -> Self {
        self.persist = Some((path.into(), policy));
        self
    }

    /// Finalizes the verifier, reporting store failures as
    /// [`VerifyError::StoreFailed`] instead of panicking.  Only the
    /// persistent store can fail to open; without [`Self::persist`] this
    /// never errors.
    pub fn try_build(self) -> Result<Verifier, VerifyError> {
        let mut cache = VerdictCache::new(self.cache_capacity);
        let mut store = None;
        if let Some((path, policy)) = &self.persist {
            let (opened, loaded) = VerdictStore::open(path.clone(), *policy, self.faults.clone())
                .map_err(|error| VerifyError::StoreFailed {
                message: error.to_string(),
            })?;
            // Warm the cache *before* attaching the store: the load must
            // not write every recovered verdict back to the log it just
            // came from.
            for (key, subjects, verdict) in loaded {
                cache.insert(key, subjects, verdict);
            }
            let opened = Arc::new(opened);
            cache.set_store(Arc::clone(&opened));
            store = Some(opened);
        }
        Ok(Verifier {
            cache,
            config: self.config,
            engines: self.engines,
            default_deadline: self.default_deadline,
            faults: self.faults,
            store,
            inflight: Mutex::new(HashMap::new()),
            active: Mutex::new(Vec::new()),
            counters: Counters::default(),
        })
    }

    /// Finalizes the verifier; panics if the persistent store cannot be
    /// opened (use [`Self::try_build`] to handle that as a typed error).
    pub fn build(self) -> Verifier {
        match self.try_build() {
            Ok(verifier) => verifier,
            Err(error) => panic!("verifier build failed: {error}"),
        }
    }
}

/// Portfolio-side counters of a verifier (monotonic over its lifetime);
/// see [`Verifier::serving_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Individual engine executions started (including cancelled ones).
    pub engine_runs: u64,
    /// Engine runs that observed the cooperative cancel flag — raised by
    /// the deadline watchdog or [`Verifier::abort_inflight`] — and exited
    /// early.  A dispatch stops at its first cancelled run.
    pub cancelled_runs: u64,
    /// Queries that were *coalesced*: they arrived while an identical query
    /// was in flight and waited on that single run instead of racing the
    /// portfolio again.
    pub coalesced: u64,
    /// Engine runs that panicked and were confined to their own turn by
    /// `catch_unwind` (injected or genuine).
    pub panicked_runs: u64,
    /// Queries whose deadline expired (or that were aborted) before an
    /// engine answered — resolved as [`VerifyError::DeadlineExceeded`].
    pub deadline_hits: u64,
}

#[derive(Default)]
struct Counters {
    engine_runs: AtomicU64,
    cancelled_runs: AtomicU64,
    coalesced: AtomicU64,
    panicked_runs: AtomicU64,
    deadline_hits: AtomicU64,
}

/// One in-flight engine run that concurrent identical queries wait on.
struct Flight {
    subjects: Arc<OwnedQuery>,
    result: Mutex<Option<Result<Verdict, VerifyError>>>,
    ready: Condvar,
}

impl Flight {
    fn new(subjects: Arc<OwnedQuery>) -> Self {
        Flight {
            subjects,
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Verdict, VerifyError>) {
        let mut slot = self.result.lock().expect("flight slot poisoned");
        if slot.is_none() {
            *slot = Some(result);
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Verdict, VerifyError> {
        let mut slot = self.result.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.ready.wait(slot).expect("flight slot poisoned");
        }
    }
}

/// Leadership guard: guarantees the flight is published and deregistered
/// even if the leader's engine run panics (waiters would otherwise block
/// forever).
struct FlightLead<'a> {
    verifier: &'a Verifier,
    key: CacheKey,
    flight: &'a Arc<Flight>,
    query_kind: QueryKind,
    finished: bool,
}

impl FlightLead<'_> {
    fn finish(mut self, result: Result<Verdict, VerifyError>) {
        self.flight.publish(result);
        self.deregister();
        self.finished = true;
    }

    fn deregister(&self) {
        self.verifier
            .inflight
            .lock()
            .expect("in-flight table poisoned")
            .remove(&self.key);
    }
}

impl Drop for FlightLead<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.flight.publish(Err(VerifyError::PortfolioFailed {
                query: self.query_kind,
            }));
            self.deregister();
        }
    }
}

/// The unified verification façade: one `verify` call for all three query
/// kinds, backed by an engine portfolio, a sharded verdict cache and
/// single-flight coalescing of identical concurrent queries.  See the
/// crate docs for the full story.
pub struct Verifier {
    config: EngineConfig,
    engines: Vec<Engine>,
    cache: VerdictCache,
    default_deadline: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    store: Option<Arc<VerdictStore>>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    /// Cancel flags of every dispatch currently running, held weakly so a
    /// finished query costs nothing; [`Verifier::abort_inflight`] raises
    /// whatever is still alive.
    active: Mutex<Vec<Weak<AtomicBool>>>,
    counters: Counters,
}

/// How warm a query is, as classified by [`Verifier::probe`]: the serving
/// tier routes [`Warmth::Hit`] and [`Warmth::InFlight`] queries down its
/// fast lane (a cached or coalesced answer never queues behind cold
/// verifications) and subjects only [`Warmth::Cold`] queries to admission
/// control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Warmth {
    /// A matching verdict is resident in the cache.
    Hit,
    /// An identical query is in flight right now; a new arrival coalesces.
    InFlight,
    /// Answering requires a fresh portfolio dispatch.
    Cold,
}

impl Verifier {
    /// Starts building a verifier.
    pub fn builder() -> VerifierBuilder {
        VerifierBuilder::default()
    }

    /// A verifier with the default budget, full portfolio and cache.
    pub fn with_defaults() -> Self {
        VerifierBuilder::default().build()
    }

    /// The engines in this verifier's portfolio, in dispatch order.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// The resolved option set engine runs receive.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Hit/miss/collision/entry counters of the verdict cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Engine-run / cancellation / coalescing / panic / deadline counters
    /// of the portfolio.
    pub fn serving_stats(&self) -> ServingStats {
        ServingStats {
            engine_runs: self.counters.engine_runs.load(Ordering::Relaxed),
            cancelled_runs: self.counters.cancelled_runs.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            panicked_runs: self.counters.panicked_runs.load(Ordering::Relaxed),
            deadline_hits: self.counters.deadline_hits.load(Ordering::Relaxed),
        }
    }

    /// The default per-query budget, when one was configured.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    /// Per-kind counts of injected faults, when a [`FaultPlan`] is
    /// installed.
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.faults.as_ref().map(|plan| plan.counts())
    }

    /// The installed fault-injection plan, when one was configured — so
    /// layers above the verifier (the serving tier's connection writer) can
    /// roll against the same seeded stream.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.clone()
    }

    /// Counters of the persistent verdict store, when one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|store| store.stats())
    }

    /// Durably syncs the persistent store (no-op without one).  The serving
    /// tier calls this on graceful shutdown, after draining.
    pub fn flush_store(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// Classifies a query without running anything: resident in the cache,
    /// identical to an in-flight dispatch, or cold.  Subjects are compared
    /// by their printed text (not just by hash), exactly as the cache
    /// itself does; no counters move.
    pub fn probe(&self, query: &Query<'_>) -> Warmth {
        if !self.cache.enabled() {
            return Warmth::Cold;
        }
        let subjects = OwnedQuery::printed(query);
        let key = subjects.cache_key(&self.config);
        if self.cache.peek(&key, &subjects).is_some() {
            return Warmth::Hit;
        }
        let inflight = self.inflight.lock().expect("in-flight table poisoned");
        match inflight.get(&key) {
            Some(flight) if *flight.subjects == subjects => Warmth::InFlight,
            _ => Warmth::Cold,
        }
    }

    /// Answers a race or equivalence query from the verdict cache by its
    /// program text alone, without parsing, validating or printing: a hit
    /// needs a resident entry whose printed programs are byte-identical to
    /// `query`'s texts.  Only validated programs are ever resident, and the
    /// printer is the parser's inverse, so identical text is the same
    /// program.
    ///
    /// A hit counts one cache hit.  A miss counts nothing and answers
    /// `None`: the caller parses the text and [`Self::verify`]s it, and that
    /// lookup counts the query's hit or miss (so a source that differs from
    /// the printed form only in layout still hits there).
    pub fn cached(&self, query: SourceQuery<'_>) -> Option<Verdict> {
        if !self.cache.enabled() {
            return None;
        }
        self.cache
            .get_source(&query.cache_key(&self.config), &query)
    }

    /// Raises the cooperative-cancel flag of every dispatch currently
    /// running (engines abandon their enumerations at the next poll and
    /// those queries resolve as [`VerifyError::DeadlineExceeded`]); returns
    /// how many flags were raised.  The serving tier's hard-abort path on
    /// shutdown.
    pub fn abort_inflight(&self) -> usize {
        let mut active = self.active.lock().expect("active flag list poisoned");
        let mut raised = 0;
        for weak in active.drain(..) {
            if let Some(flag) = weak.upgrade() {
                flag.store(true, Ordering::Relaxed);
                raised += 1;
            }
        }
        raised
    }

    /// Drops every cached verdict (counters are preserved).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// Answers a query: validates its subjects, consults the verdict cache,
    /// coalesces with an identical in-flight query if there is one, and
    /// otherwise dispatches to the portfolio under the builder's default
    /// deadline (if any).  This is *the* entry point;
    /// [`Self::check_data_race`], [`Self::check_equivalence`] and
    /// [`Self::check_validity`] are thin conveniences over it.
    pub fn verify(&self, query: Query<'_>) -> Result<Verdict, VerifyError> {
        self.verify_impl(query, self.default_deadline)
    }

    /// Like [`Self::verify`] with an explicit per-query budget overriding
    /// the builder default.  Cache hits and coalesced waits are not subject
    /// to the budget (they do no engine work); a dispatch that outlives it
    /// resolves fail-closed to [`VerifyError::DeadlineExceeded`].
    pub fn verify_within(
        &self,
        query: Query<'_>,
        budget: Duration,
    ) -> Result<Verdict, VerifyError> {
        self.verify_impl(query, Some(budget))
    }

    fn verify_impl(
        &self,
        query: Query<'_>,
        deadline: Option<Duration>,
    ) -> Result<Verdict, VerifyError> {
        self.validate_subjects(&query)?;
        if !self.cache.enabled() {
            // Without a cache there is no key to coalesce on either; the
            // query goes straight to the portfolio.
            return self.dispatch(&query, deadline);
        }
        // Each program is printed once: the text is the query's identity,
        // its hash the key, and the same `Arc` is held by the flight and the
        // cache entry.  It is built before the in-flight lock is taken, so
        // no O(program) work happens inside that critical section.
        let owned = Arc::new(OwnedQuery::printed(&query));
        let key = owned.cache_key(&self.config);
        if let Some(cached) = self.cache.get(&key, &owned) {
            return Ok(cached);
        }
        let dispatch_and_cache = |owned: Arc<OwnedQuery>| {
            let result = self.dispatch(&query, deadline);
            if let Ok(verdict) = &result {
                self.cache.insert(key, owned, verdict.clone());
            }
            result
        };
        enum Role {
            Lead(Arc<Flight>),
            Wait(Arc<Flight>),
            Collide,
        }
        let role = {
            let mut inflight = self.inflight.lock().expect("in-flight table poisoned");
            match inflight.get(&key) {
                // Coalescing is only sound when the in-flight *subjects*
                // match, not just the 128-bit key: a colliding query must
                // run on its own rather than adopt another query's verdict.
                Some(flight) if flight.subjects == owned => Role::Wait(Arc::clone(flight)),
                Some(_) => Role::Collide,
                None => {
                    let flight = Arc::new(Flight::new(Arc::clone(&owned)));
                    inflight.insert(key, Arc::clone(&flight));
                    Role::Lead(flight)
                }
            }
        };
        match role {
            Role::Wait(flight) => {
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                let mut result = flight.wait();
                if let Ok(verdict) = &mut result {
                    verdict.coalesced = true;
                }
                result
            }
            // The insert keeps whatever the colliding leader cached and
            // counts the collision (or takes the slot if the leader failed
            // without caching) — the same accounting a sequential arrival of
            // the colliding pair gets.
            Role::Collide => dispatch_and_cache(owned),
            Role::Lead(flight) => {
                let lead = FlightLead {
                    verifier: self,
                    key,
                    flight: &flight,
                    query_kind: query.kind(),
                    finished: false,
                };
                // Double-check after winning leadership: the previous
                // leader may have populated the cache between this query's
                // miss and its registration (peek keeps the per-query
                // hit/miss accounting exact).
                let result = match self.cache.peek(&key, &owned) {
                    Some(cached) => Ok(cached),
                    None => dispatch_and_cache(owned),
                };
                lead.finish(result.clone());
                result
            }
        }
    }

    /// Answers a batch of queries, fanning them out over worker threads.
    /// `results[i]` is always the answer to `queries[i]` — the fan-out
    /// never reorders — and identical queries within (or across) batches
    /// coalesce onto a single engine run via the cache and single-flight.
    pub fn verify_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Verdict, VerifyError>> {
        self.verify_batch_impl(queries, self.default_deadline)
    }

    /// Like [`Self::verify_batch`] with an explicit *per-query* budget:
    /// each query in the batch gets its own `budget`, not a shared pot.
    pub fn verify_batch_within(
        &self,
        queries: &[Query<'_>],
        budget: Duration,
    ) -> Vec<Result<Verdict, VerifyError>> {
        self.verify_batch_impl(queries, Some(budget))
    }

    fn verify_batch_impl(
        &self,
        queries: &[Query<'_>],
        deadline: Option<Duration>,
    ) -> Vec<Result<Verdict, VerifyError>> {
        let mut slots: Vec<Option<Result<Verdict, VerifyError>>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        let slots = Mutex::new(slots);
        // Every worker, the calling thread included, pulls the next query
        // until the batch is drained, so no worker idles while queries
        // remain behind a long one.  The counter only hands out indices;
        // results reach this thread through the mutex and the scope's join.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(query) = queries.get(index) else {
                break;
            };
            let result = self.verify_impl(*query, deadline);
            slots.lock().expect("batch slots poisoned")[index] = Some(result);
        };
        rayon::scope(|s| {
            for _ in 1..rayon::current_num_threads().min(queries.len()) {
                s.spawn(|_| work());
            }
            work();
        });
        slots
            .into_inner()
            .expect("batch slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled before the scope joins"))
            .collect()
    }

    /// Convenience: `verify(Query::DataRace(program))`.
    pub fn check_data_race(&self, program: &Program) -> Result<Verdict, VerifyError> {
        self.verify(Query::DataRace(program))
    }

    /// Convenience: `verify(Query::Equivalence(original, transformed))`.
    pub fn check_equivalence(
        &self,
        original: &Program,
        transformed: &Program,
    ) -> Result<Verdict, VerifyError> {
        self.verify(Query::Equivalence(original, transformed))
    }

    /// Convenience: `verify(Query::Validity(formula))`.
    pub fn check_validity(&self, formula: &Formula) -> Result<Verdict, VerifyError> {
        self.verify(Query::Validity(formula))
    }

    /// Runs a *single named engine* on a query, bypassing cache and
    /// portfolio — the hook differential tests and the agreement test suite
    /// use to compare engines against each other.
    pub fn verify_with_engine(
        &self,
        engine: Engine,
        query: Query<'_>,
    ) -> Result<Verdict, VerifyError> {
        self.validate_subjects(&query)?;
        self.counters.engine_runs.fetch_add(1, Ordering::Relaxed);
        let (answer, elapsed) = run_engine(
            engine,
            &query,
            &self.config,
            &NEVER_CANCELLED,
            self.faults.as_deref(),
        );
        match answer {
            EngineAnswer::Verdict(outcome, soundness) => Ok(Verdict {
                outcome,
                engine,
                soundness,
                elapsed,
                cached: false,
                coalesced: false,
            }),
            EngineAnswer::Skip(skip) => Err(VerifyError::NoApplicableEngine {
                query: query.kind(),
                skipped: vec![skip],
            }),
            EngineAnswer::Panicked(_) => {
                // A single-engine run has no surviving portfolio member.
                self.counters.panicked_runs.fetch_add(1, Ordering::Relaxed);
                Err(VerifyError::PortfolioFailed {
                    query: query.kind(),
                })
            }
            EngineAnswer::Cancelled => unreachable!("the never-raised flag cannot cancel a run"),
        }
    }

    fn validate_subjects(&self, query: &Query<'_>) -> Result<(), VerifyError> {
        let check = |role: ProgramRole, program: &Program| -> Result<(), VerifyError> {
            let errors = validate(program);
            match errors.first() {
                Some(first) => Err(VerifyError::InvalidProgram {
                    role,
                    message: first.to_string(),
                }),
                None => Ok(()),
            }
        };
        match query {
            Query::DataRace(program) => check(ProgramRole::Queried, program),
            Query::Equivalence(original, transformed) => {
                check(ProgramRole::Original, original)?;
                check(ProgramRole::Transformed, transformed)
            }
            Query::Validity(_) => Ok(()),
        }
    }

    /// Runs a cache-missed query through the applicable engines, one after
    /// the other in dispatch (authority) order: the first engine that
    /// answers produces the verdict.  A skipping or panicking engine hands
    /// the query to the next one (a panic is reported as a skip with its
    /// message).
    ///
    /// Every dispatch owns one cooperative-cancel flag, raised by the
    /// deadline watchdog (when `deadline` is set) or by
    /// [`Self::abort_inflight`].  A raised flag would cancel every remaining
    /// engine too, so the first cancelled run resolves the dispatch to
    /// [`VerifyError::DeadlineExceeded`].  Finished dispatches drop their
    /// `Arc`, so stale registrations cost nothing.
    fn dispatch(
        &self,
        query: &Query<'_>,
        deadline: Option<Duration>,
    ) -> Result<Verdict, VerifyError> {
        let cancel = Arc::new(AtomicBool::new(false));
        if let Some(budget) = deadline {
            watchdog::watch(Instant::now() + budget, &cancel);
        }
        {
            let mut active = self.active.lock().expect("active flag list poisoned");
            active.retain(|weak| weak.strong_count() > 0);
            active.push(Arc::downgrade(&cancel));
        }
        let mut skipped = Vec::new();
        let mut panicked = 0usize;
        for &engine in self
            .engines
            .iter()
            .filter(|engine| engine.supports(query.kind()))
        {
            self.counters.engine_runs.fetch_add(1, Ordering::Relaxed);
            let (answer, elapsed) =
                run_engine(engine, query, &self.config, &cancel, self.faults.as_deref());
            match answer {
                EngineAnswer::Verdict(outcome, soundness) => {
                    return Ok(Verdict {
                        outcome,
                        engine,
                        soundness,
                        elapsed,
                        cached: false,
                        coalesced: false,
                    })
                }
                EngineAnswer::Skip(skip) => skipped.push(skip),
                EngineAnswer::Panicked(message) => {
                    self.counters.panicked_runs.fetch_add(1, Ordering::Relaxed);
                    panicked += 1;
                    skipped.push(EngineSkip {
                        engine,
                        reason: format!("engine panicked: {message}"),
                    });
                }
                EngineAnswer::Cancelled => {
                    self.counters.cancelled_runs.fetch_add(1, Ordering::Relaxed);
                    self.counters.deadline_hits.fetch_add(1, Ordering::Relaxed);
                    return Err(VerifyError::DeadlineExceeded {
                        query: query.kind(),
                    });
                }
            }
        }
        // Every engine that ran left one skip report behind.
        if panicked > 0 && panicked == skipped.len() {
            return Err(VerifyError::PortfolioFailed {
                query: query.kind(),
            });
        }
        Err(VerifyError::NoApplicableEngine {
            query: query.kind(),
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_lang::pretty::print_program;
    use retreet_mso::formula::FoVar;

    fn small_verifier() -> Verifier {
        Verifier::builder().max_nodes(3).valuations(1).build()
    }

    /// A closed formula that is bounded-Valid up to 2 nodes but Invalid in
    /// general: "there do not exist three pairwise-distinct nodes".
    fn three_node_formula() -> Formula {
        let three_nodes = Formula::exists_fo(
            "x",
            Formula::exists_fo(
                "y",
                Formula::exists_fo(
                    "z",
                    Formula::conj(vec![
                        Formula::not(Formula::Eq(FoVar::new("x"), FoVar::new("y"))),
                        Formula::not(Formula::Eq(FoVar::new("y"), FoVar::new("z"))),
                        Formula::not(Formula::Eq(FoVar::new("x"), FoVar::new("z"))),
                    ]),
                ),
            ),
        );
        Formula::not(three_nodes)
    }

    #[test]
    fn all_three_query_kinds_are_answered_with_provenance() {
        let verifier = small_verifier();

        let race = verifier
            .verify(Query::DataRace(&corpus::size_counting_parallel()))
            .unwrap();
        assert!(race.is_race_free());
        assert_eq!(race.engine, Engine::Automata);
        assert_eq!(race.soundness, Soundness::Unbounded);

        let equiv = verifier
            .verify(Query::Equivalence(
                &corpus::size_counting_sequential(),
                &corpus::size_counting_fused(),
            ))
            .unwrap();
        assert!(equiv.is_equivalent());
        assert_eq!(equiv.engine, Engine::Automata);
        assert_eq!(equiv.soundness, Soundness::Unbounded);

        let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
        let valid = verifier.verify(Query::Validity(&formula)).unwrap();
        assert!(valid.is_valid());
        assert_eq!(valid.engine, Engine::Automata);
        assert_eq!(valid.soundness, Soundness::Unbounded);
    }

    #[test]
    fn negative_verdicts_carry_structured_witnesses() {
        let verifier = small_verifier();

        let race = verifier
            .verify(Query::DataRace(&corpus::cycletree_parallel()))
            .unwrap();
        let witness = race.race_witness().expect("race witness");
        assert_eq!(witness.field, "num");
        assert_eq!(race.soundness, Soundness::Unbounded);
        // The automata engine skips what it cannot prove; the witness comes
        // from the engine that owns the bounded search.
        assert_eq!(race.engine, Engine::Configuration);

        let equiv = verifier
            .verify(Query::Equivalence(
                &corpus::size_counting_sequential(),
                &corpus::size_counting_fused_invalid(),
            ))
            .unwrap();
        assert!(equiv.counterexample().is_some());
        assert_eq!(equiv.engine, Engine::Trace);
        assert_eq!(equiv.soundness, Soundness::Unbounded);
    }

    #[test]
    fn cache_hit_returns_identical_witness() {
        let verifier = small_verifier();
        let program = corpus::cycletree_parallel();
        let first = verifier.verify(Query::DataRace(&program)).unwrap();
        assert!(!first.cached);
        let second = verifier.verify(Query::DataRace(&program)).unwrap();
        assert!(second.cached);
        assert_eq!(
            format!("{:?}", first.race_witness().unwrap()),
            format!("{:?}", second.race_witness().unwrap()),
        );
        let stats = verifier.cache_stats();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn bounded_positive_cannot_preempt_a_pending_refuting_engine() {
        // Regression for the soundness-priority bug, with bound-skewed
        // engines: the bounded enumerator exhausts every tree up to 2 nodes
        // almost instantly and answers Valid, while the automata engine
        // holds the unbounded refutation (Invalid).  The authority order
        // runs the automata engine first, so its Invalid is the verdict.
        let formula = three_node_formula();
        let verifier = Verifier::builder()
            .validity_nodes(2)
            .cache_capacity(0)
            .build();
        let verdict = verifier.verify(Query::Validity(&formula)).unwrap();
        assert!(
            !verdict.is_valid(),
            "bounded Valid pre-empted the automata Invalid"
        );
        assert_eq!(verdict.engine, Engine::Automata);
        assert_eq!(verdict.soundness, Soundness::Unbounded);
    }

    #[test]
    fn user_supplied_engine_order_is_the_authority_order() {
        // With the bounded engine deliberately placed first, its bounded
        // Valid *is* the verdict: the dispatch never "upgrades" to the
        // automata answer behind it.
        let formula = three_node_formula();
        let verifier = Verifier::builder()
            .validity_nodes(2)
            .engines([Engine::BoundedEnumeration, Engine::Automata])
            .cache_capacity(0)
            .build();
        let verdict = verifier.verify(Query::Validity(&formula)).unwrap();
        assert_eq!(verdict.engine, Engine::BoundedEnumeration);
        assert!(verdict.is_valid());
        assert_eq!(verifier.serving_stats().engine_runs, 1);
    }

    #[test]
    fn verify_batch_preserves_input_order() {
        let verifier = small_verifier();
        let race_free = corpus::size_counting_parallel();
        let racy = corpus::cycletree_parallel();
        let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
        let queries = [
            Query::DataRace(&racy),
            Query::Validity(&formula),
            Query::DataRace(&race_free),
            Query::DataRace(&racy),
        ];
        let results = verifier.verify_batch(&queries);
        assert_eq!(results.len(), 4);
        assert!(!results[0].as_ref().unwrap().is_race_free());
        assert!(results[1].as_ref().unwrap().is_valid());
        assert!(results[2].as_ref().unwrap().is_race_free());
        assert!(!results[3].as_ref().unwrap().is_race_free());
        // The identical pair ran the portfolio once: exactly one of the two
        // led, and the other was answered by the cache or by coalescing.
        // Which one leads depends on when the fan-out's worker starts, so
        // neither position is assumed.
        let answered_without_dispatch = |i: usize| {
            let verdict = results[i].as_ref().unwrap();
            verdict.cached || verdict.coalesced
        };
        assert_ne!(answered_without_dispatch(0), answered_without_dispatch(3));
    }

    #[test]
    fn verify_batch_reports_errors_in_place() {
        let verifier = small_verifier();
        let ok = corpus::size_counting_parallel();
        let no_main = retreet_lang::parse_program("fn F(n) { return 0; }").unwrap();
        let queries = [Query::DataRace(&no_main), Query::DataRace(&ok)];
        let results = verifier.verify_batch(&queries);
        assert!(matches!(
            results[0],
            Err(VerifyError::InvalidProgram { .. })
        ));
        assert!(results[1].as_ref().unwrap().is_race_free());
    }

    #[test]
    fn invalid_programs_are_rejected_with_typed_errors() {
        let verifier = small_verifier();
        let no_main = retreet_lang::parse_program("fn F(n) { return 0; }").unwrap();
        match verifier.verify(Query::DataRace(&no_main)) {
            Err(VerifyError::InvalidProgram { role, .. }) => {
                assert_eq!(role, ProgramRole::Queried)
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
        match verifier.verify(Query::Equivalence(
            &corpus::size_counting_sequential(),
            &no_main,
        )) {
            Err(VerifyError::InvalidProgram { role, .. }) => {
                assert_eq!(role, ProgramRole::Transformed)
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn restricted_portfolio_reports_no_applicable_engine() {
        let verifier = Verifier::builder()
            .engines([Engine::BoundedEnumeration])
            .build();
        match verifier.verify(Query::DataRace(&corpus::size_counting_parallel())) {
            Err(VerifyError::NoApplicableEngine { query, .. }) => {
                assert_eq!(query, QueryKind::DataRace)
            }
            other => panic!("expected NoApplicableEngine, got {other:?}"),
        }
    }

    #[test]
    fn oversized_formula_falls_back_to_bounded_enumeration() {
        // 20 nested SO quantifiers exceed the automata compiler's 16-bit
        // alphabet; the portfolio answers with the bounded engine instead.
        let mut formula = Formula::True;
        for i in 0..20 {
            formula = Formula::exists_so(format!("X{i}"), formula);
        }
        let verifier = Verifier::builder().validity_nodes(2).build();
        let verdict = verifier.verify(Query::Validity(&formula)).unwrap();
        assert_eq!(verdict.engine, Engine::BoundedEnumeration);
        assert!(matches!(
            verdict.soundness,
            Soundness::BoundedUpTo { max_nodes: 2 }
        ));
    }

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "retreet-verify-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn deadline_exceeded_when_no_engine_answers_in_budget() {
        // Every engine run is stalled far past the budget; the watchdog
        // raises the cancel flag, the stall polls it and exits, and the
        // portfolio fails closed with the typed deadline error — never a
        // truncated verdict.
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .fault_plan(FaultPlan::builder(7).engine_stall(1.0, 60_000).build())
            .build();
        let program = corpus::size_counting_parallel();
        let result = verifier.verify_within(Query::DataRace(&program), Duration::from_millis(60));
        match result {
            Err(VerifyError::DeadlineExceeded { query }) => {
                assert_eq!(query, QueryKind::DataRace)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = verifier.serving_stats();
        assert_eq!(stats.deadline_hits, 1);
        assert_eq!(stats.cancelled_runs, 1, "the stalled run was cancelled");
        // The deadline error is an engine-side failure, not a cacheable
        // verdict: a retry goes back to the portfolio.
        assert_eq!(verifier.cache_stats().entries, 0);
    }

    #[test]
    fn deadline_resolves_fail_closed_never_a_wrong_verdict() {
        // Authority order puts the bounded enumerator (facing a Catalan-
        // sized 12-node corpus it cannot finish in budget: about 0.6 s in
        // a release build on a 2-vCPU x86-64 host, far longer unoptimized)
        // ahead of the instant automata engine.  The deadline cancels the
        // enumerator, and the dispatch fails closed at once: the automata
        // engine behind it never runs, so no verdict other than the
        // authoritative one can ever be served.
        let verifier = Verifier::builder()
            .validity_nodes(12)
            .engines([Engine::BoundedEnumeration, Engine::Automata])
            .default_deadline(Duration::from_millis(150))
            .build();
        let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
        match verifier.verify(Query::Validity(&formula)) {
            Err(VerifyError::DeadlineExceeded { query }) => {
                assert_eq!(query, QueryKind::Validity)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = verifier.serving_stats();
        assert_eq!(stats.deadline_hits, 1);
        assert_eq!(stats.engine_runs, 1);
        assert_eq!(stats.cancelled_runs, 1);
        assert_eq!(verifier.cache_stats().entries, 0);
    }

    #[test]
    fn panicking_engines_are_confined_to_their_slot() {
        // Every engine run panics (injected); the unwind never crosses
        // `run_engine`, the serving thread survives, and the portfolio
        // reports the typed failure only because *no* engine survived.
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .fault_plan(FaultPlan::builder(3).engine_panic(1.0).build())
            .build();
        let program = corpus::size_counting_parallel();
        match verifier.verify(Query::DataRace(&program)) {
            Err(VerifyError::PortfolioFailed { query }) => {
                assert_eq!(query, QueryKind::DataRace)
            }
            other => panic!("expected PortfolioFailed, got {other:?}"),
        }
        let stats = verifier.serving_stats();
        assert!(stats.panicked_runs >= 1);
        assert_eq!(stats.panicked_runs, stats.engine_runs);
    }

    #[test]
    fn persisted_verdicts_survive_a_restart_with_identical_witnesses() {
        let path = temp_store_path("restart");
        let racy = corpus::cycletree_parallel();
        let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
        let first_witness;
        {
            let verifier = Verifier::builder()
                .max_nodes(3)
                .valuations(1)
                .persist(&path)
                .build();
            let race = verifier.verify(Query::DataRace(&racy)).unwrap();
            first_witness = format!("{:?}", race.race_witness().unwrap());
            verifier.verify(Query::Validity(&formula)).unwrap();
            let stats = verifier.store_stats().expect("store attached");
            assert_eq!(stats.appends, 2);
            verifier.flush_store();
        }
        // "Restart": a fresh verifier over the same path serves the entire
        // prior corpus as cache hits, witnesses byte-identical.
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .persist(&path)
            .build();
        let stats = verifier.store_stats().expect("store attached");
        assert_eq!(stats.loaded, 2, "every persisted verdict is recovered");
        assert_eq!(stats.skipped, 0);
        let race = verifier.verify(Query::DataRace(&racy)).unwrap();
        assert!(race.cached, "recovered verdict served from cache");
        assert_eq!(format!("{:?}", race.race_witness().unwrap()), first_witness);
        let valid = verifier.verify(Query::Validity(&formula)).unwrap();
        assert!(valid.cached);
        assert_eq!(
            verifier.serving_stats().engine_runs,
            0,
            "no engine ran after the restart"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cached_answers_byte_identical_program_text_and_counts_only_hits() {
        let verifier = small_verifier();
        let original = corpus::size_counting_sequential();
        let fused = corpus::size_counting_fused();
        let (original_text, fused_text) = (print_program(&original), print_program(&fused));
        let text = SourceQuery::Equivalence(&original_text, &fused_text);
        assert!(verifier.cached(text).is_none(), "nothing resident yet");
        assert_eq!(verifier.cache_stats(), CacheStats::default());
        let first = verifier
            .verify(Query::Equivalence(&original, &fused))
            .unwrap();
        let hit = verifier.cached(text).expect("printed text hits");
        assert!(hit.cached);
        assert_eq!(format!("{:?}", hit.outcome), format!("{:?}", first.outcome));
        // Another layout of the same program is a text miss that counts
        // nothing; its parsed query then hits.
        let relaid = original_text.replace('\n', " ");
        assert!(verifier
            .cached(SourceQuery::Equivalence(&relaid, &fused_text))
            .is_none());
        assert!(verifier
            .cached(SourceQuery::Equivalence(&fused_text, &original_text))
            .is_none());
        assert!(verifier
            .cached(SourceQuery::DataRace(&original_text))
            .is_none());
        let reparsed = retreet_lang::parse_program(&relaid).unwrap();
        assert!(
            verifier
                .verify(Query::Equivalence(&reparsed, &fused))
                .unwrap()
                .cached
        );
        let stats = verifier.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn cached_misses_without_a_cache() {
        let verifier = Verifier::builder().cache_capacity(0).build();
        let program = corpus::size_counting_parallel();
        verifier.verify(Query::DataRace(&program)).unwrap();
        let text = print_program(&program);
        assert!(verifier.cached(SourceQuery::DataRace(&text)).is_none());
    }

    #[test]
    fn replay_skips_stored_programs_that_fail_validation() {
        let path = temp_store_path("invalid");
        let config = VerifierBuilder::default().max_nodes(3).valuations(1).config;
        let invalid = "fn F(n) {\n    return 0;\n}\n";
        let valid = print_program(&corpus::size_counting_parallel());
        {
            let (store, _) = VerdictStore::open(&path, CorruptionPolicy::SkipAndLog, None).unwrap();
            let verdict = Verdict {
                outcome: Outcome::RaceFree {
                    trees_checked: 0,
                    configurations: 0,
                },
                engine: Engine::Automata,
                soundness: Soundness::Unbounded,
                elapsed: Duration::ZERO,
                cached: false,
                coalesced: false,
            };
            for program in [invalid, valid.as_str()] {
                let subjects = OwnedQuery::DataRace(program.into());
                store.write_through(&subjects.cache_key(&config), &subjects, &verdict);
            }
            store.flush();
        }
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .persist(&path)
            .build();
        let stats = verifier.store_stats().unwrap();
        assert_eq!((stats.loaded, stats.skipped), (1, 1));
        assert!(verifier.cached(SourceQuery::DataRace(invalid)).is_none());
        assert!(verifier.cached(SourceQuery::DataRace(&valid)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_write_through_keeps_exact_accounting() {
        // Satellite: 8 threads hammer the same 3 queries through a
        // persisting verifier; the hit/miss ledger must balance exactly
        // (hits + misses == lookups) and the store must end up with exactly
        // one record per distinct query.
        let path = temp_store_path("concurrent");
        let verifier = std::sync::Arc::new(
            Verifier::builder()
                .max_nodes(3)
                .valuations(1)
                .persist(&path)
                .build(),
        );
        let threads = 8;
        let rounds = 4;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let verifier = std::sync::Arc::clone(&verifier);
                std::thread::spawn(move || {
                    let race_free = corpus::size_counting_parallel();
                    let racy = corpus::cycletree_parallel();
                    let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
                    for _ in 0..rounds {
                        assert!(verifier
                            .verify(Query::DataRace(&race_free))
                            .unwrap()
                            .is_race_free());
                        assert!(!verifier
                            .verify(Query::DataRace(&racy))
                            .unwrap()
                            .is_race_free());
                        assert!(verifier
                            .verify(Query::Validity(&formula))
                            .unwrap()
                            .is_valid());
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
        let lookups = (threads * rounds * 3) as u64;
        let stats = verifier.cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            lookups,
            "every lookup is exactly one hit or one miss"
        );
        assert_eq!(stats.entries, 3);
        let store = verifier.store_stats().expect("store attached");
        assert_eq!(store.entries, 3, "one persisted record per distinct query");
        assert_eq!(store.write_errors, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_classifies_cache_warmth() {
        let verifier = small_verifier();
        let program = corpus::size_counting_parallel();
        let query = Query::DataRace(&program);
        assert_eq!(verifier.probe(&query), Warmth::Cold);
        verifier.verify(query).unwrap();
        assert_eq!(verifier.probe(&query), Warmth::Hit);
        // Probing never moves the hit/miss counters.
        let stats = verifier.cache_stats();
        assert_eq!(stats.hits + stats.misses, 1);
    }

    #[test]
    fn abort_inflight_cancels_a_running_dispatch() {
        // A 12-node bounded-validity dispatch takes far longer than this
        // test; abort_inflight raises its cancel flag and the query
        // resolves with the typed deadline error instead of running on.
        let verifier = std::sync::Arc::new(
            Verifier::builder()
                .validity_nodes(12)
                .engines([Engine::BoundedEnumeration])
                .cache_capacity(0)
                .build(),
        );
        let worker = {
            let verifier = std::sync::Arc::clone(&verifier);
            std::thread::spawn(move || {
                let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
                verifier.verify(Query::Validity(&formula))
            })
        };
        // Wait until the dispatch has registered its flag (the engine-run
        // counter moves strictly after registration), then abort.
        for _ in 0..3000 {
            if verifier.serving_stats().engine_runs >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(verifier.abort_inflight() >= 1, "one flag was raised");
        match worker.join().expect("worker panicked") {
            Err(VerifyError::DeadlineExceeded { query }) => {
                assert_eq!(query, QueryKind::Validity)
            }
            other => panic!("expected DeadlineExceeded after abort, got {other:?}"),
        }
        assert_eq!(verifier.serving_stats().cancelled_runs, 1);
    }

    #[test]
    fn abort_inflight_cancels_the_bounded_searches_mid_run() {
        // An exhaustive 9-node configuration search and an 11-node trace
        // search each take far longer than this test.  Both check the flag
        // between trees (the configuration engine also between outer pair
        // indices), so the abort lands mid-scan and the query resolves with
        // the typed deadline error instead of a verdict from a partial scan.
        let race_free = corpus::size_counting_parallel();
        let original = corpus::size_counting_sequential();
        let fused = corpus::size_counting_fused();
        let runs = [
            (
                Verifier::builder()
                    .race_nodes(9)
                    .engines([Engine::Configuration]),
                Query::DataRace(&race_free),
            ),
            (
                Verifier::builder().equiv_nodes(11).engines([Engine::Trace]),
                Query::Equivalence(&original, &fused),
            ),
        ];
        for (builder, query) in runs {
            let verifier = builder.cache_capacity(0).build();
            let outcome = std::thread::scope(|s| {
                let worker = s.spawn(|| verifier.verify(query));
                // The engine-run counter moves strictly after the dispatch
                // registered its flag.
                for _ in 0..3000 {
                    if verifier.serving_stats().engine_runs >= 1 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert!(verifier.abort_inflight() >= 1, "one flag was raised");
                worker.join().expect("worker panicked")
            });
            match outcome {
                Err(VerifyError::DeadlineExceeded { query: kind }) => {
                    assert_eq!(kind, query.kind())
                }
                other => panic!("expected DeadlineExceeded after abort, got {other:?}"),
            }
            assert_eq!(verifier.serving_stats().cancelled_runs, 1);
        }
    }

    #[test]
    fn serving_stats_count_runs_and_coalescing() {
        let verifier = small_verifier();
        let program = corpus::size_counting_parallel();
        verifier.verify(Query::DataRace(&program)).unwrap();
        let stats = verifier.serving_stats();
        assert_eq!(stats.engine_runs, 1, "sequential portfolio stops at one");
        assert_eq!(stats.cancelled_runs, 0);
        assert_eq!(stats.coalesced, 0);
        // A cache hit does not touch the portfolio.
        verifier.verify(Query::DataRace(&program)).unwrap();
        assert_eq!(verifier.serving_stats().engine_runs, 1);
    }
}
