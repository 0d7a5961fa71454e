//! # retreet-serve — the concurrent verification service
//!
//! The ROADMAP's north star is a verifier that serves heavy concurrent
//! traffic; this crate is that serving tier.  It wraps one shared
//! [`retreet_verify::Verifier`] — sharded verdict cache, single-flight
//! coalescing, batch fan-out — in a long-running loop speaking
//! newline-delimited JSON over stdin/stdout or a TCP listener:
//!
//! ```text
//! → {"id": 1, "kind": "race", "program": "fn Main(n) { ... }"}
//! ← {"id": 1, "status": "ok", "kind": "race", "verdict": "race-free",
//!    "positive": true, "engine": "configuration", "soundness": "bounded:4",
//!    "cached": false, "coalesced": false, "elapsed_us": 1234,
//!    "trees_checked": 14, "detail": ""}
//! ```
//!
//! Request kinds:
//!
//! * `race` — `program` (Retreet source); Theorem 2.
//! * `equivalence` — `original` + `transformed` (Retreet source); Theorem 3.
//! * `validity` — `formula` (the s-expression syntax of [`formula`]).
//! * `batch` — `queries`: an array of the above; answered through
//!   [`Verifier::verify_batch`], results in input order.
//! * `run` — `program` plus optional `height` (complete-tree height, default
//!   6), `seed` (field valuation) and `arity` (complete-tree arity,
//!   default: the program's declared arity, so binary programs run on binary
//!   complete trees; out-of-range axes are a `bad_request`); a tree of more
//!   than 65,535 nodes (the binary height-16 count) is a `bad_request`, and
//!   an omitted height is clamped to fit.  *Executes* the program through
//!   the `retreet-runtime` compiled tier (bytecode VM with certified
//!   iterative lowering on a tree built directly in flat form, interpreter
//!   fallback) and answers with the returned values, the executing tier,
//!   the certified-lowered functions and the node count; `elapsed_us`
//!   covers building the tree and running the program.  Executors are
//!   compiled once per distinct source and cached, and a cached source is
//!   not parsed again.
//! * `tune` — `program` plus optional `height` (default 8) / `seed` /
//!   `arity` (same rules and node bound as `run`): runs the certified
//!   schedule autotuner (`retreet_runtime::tune_and_compile`) over the
//!   program's pass pipeline
//!   and answers with the winning schedule's source, its certificate
//!   provenance (kind, engine, soundness), the baseline and tuned costs,
//!   and the full candidate table — certified candidates with measured VM
//!   costs, refused candidates with their refusal.  Results are cached by
//!   `(program, height, seed, arity)`; the winner's executor is pre-seeded
//!   into the `run` cache.
//! * `stats` — cache and serving counters of the shared verifier, plus the
//!   codegen tier's compile/execute counters.
//!
//! Every verdict response carries the engine provenance, the soundness
//! caveat and the `cached` / `coalesced` serving flags, so a client can
//! always tell how its answer was produced.  It also carries
//! `"degraded":false`, and the `stats` response's `serving` block
//! `"degraded":0`: both are constants kept so the wire format does not
//! change (a deadline never yields a verdict, only `deadline_exceeded`).
//! Malformed requests are answered with
//! `{"status": "error", "code": ..., ...}` on the same line — the
//! connection (and the service) stays up.
//!
//! # The two-lane scheduler
//!
//! A `race` or `equivalence` request is first looked up by its program
//! text ([`Verifier::cached`]): text byte-identical to a cached entry's
//! printed programs is answered inline before anything is parsed, and a
//! miss counts nothing.  Every other verification request is parsed and
//! *probed* against the shared verifier ([`Verifier::probe`]):
//!
//! ```text
//!   request ──► cached(text) ── hit ──► answered inline, nothing parsed
//!      │ miss (or validity, batch)
//!      ▼       ┌─ probe ──────────────────────────────────────────┐
//!    parse ───►│ Hit / InFlight ──► warm lane: answered inline    │──► response
//!              │                    (cache read / coalesced wait) │
//!              │ Cold ────────────► cold lane: bounded queue ───► │
//!              │                    worker pool (portfolio run)   │
//!              └──────── queue full? ──► {"code":"overloaded"} ───┘
//! ```
//!
//! Warm lookups are answered on the connection thread and can never queue
//! behind expensive cold verifications; cold work goes through a *bounded*
//! queue drained by a fixed worker pool, and when that queue is full the
//! request is shed with an explicit `overloaded` error instead of growing
//! an unbounded backlog.  See [`ServeOptions::workers`] /
//! [`ServeOptions::cold_queue`].
//!
//! # Robustness
//!
//! * **Deadlines** — [`ServeOptions::deadline_ms`] arms a per-query
//!   wall-clock budget; an expired query resolves fail-closed to the typed
//!   `deadline_exceeded` error — never a wrong or truncated verdict.
//! * **Persistence** — [`ServeOptions::persist`] backs the verdict cache
//!   with a crash-safe append-only log; a restarted replica reloads every
//!   verdict it ever computed and serves them as cache hits.
//! * **Graceful shutdown** — a `{"kind": "shutdown"}` request (or
//!   [`Service::finish`]) stops intake, drains in-flight requests under
//!   [`ServeOptions::drain_ms`], flushes the store and lets the process
//!   exit 0 with no in-flight response lost.
//! * **Fault injection** — a seeded [`retreet_verify::FaultPlan`] drives
//!   engine panics/stalls, store write faults and connection drops for
//!   the chaos suite; the service isolates each, and the shared process
//!   survives.
//!
//! [`Service::warm_start`] preloads the §5 corpus verdicts so a fresh
//! replica answers the common queries from the cache immediately; a
//! persistent store generalizes this to every verdict ever computed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formula;
pub mod json;
mod sched;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use retreet_analysis::vtree::complete_kary_len;
use retreet_lang::ast::Program;
use retreet_lang::corpus;
use retreet_mso::formula::Formula;
use retreet_runtime::exec::{ExecTier, ProgramExecutor};
use retreet_verify::{
    CorruptionPolicy, FaultPlan, FaultSite, InjectedFault, Outcome, Query, Soundness, SourceQuery,
    Verdict, Verifier, VerifyError, Warmth,
};

use json::Value;
use sched::{Admission, ColdPool};

/// Budget and portfolio options of a service verifier (a trimmed mirror of
/// the [`Verifier`] builder knobs, so `main` can parse them from flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Largest tree (in nodes) enumerated for data-race queries.
    pub race_nodes: usize,
    /// Largest tree (in nodes) enumerated for equivalence queries.
    pub equiv_nodes: usize,
    /// Largest tree (in nodes) enumerated for bounded validity queries.
    pub validity_nodes: usize,
    /// Deterministic field valuations per tree shape.
    pub valuations: usize,
    /// Verdict-cache capacity (0 disables caching and coalescing).
    pub cache_capacity: usize,
    /// Cold-lane worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Bound of the cold-lane queue; a full queue sheds with `overloaded`.
    pub cold_queue: usize,
    /// Per-query wall-clock budget in milliseconds (0 = no deadline).
    pub deadline_ms: u64,
    /// Most simultaneous TCP connections [`serve_tcp`] accepts; further
    /// clients are answered one `overloaded` error line and disconnected.
    pub max_connections: usize,
    /// How long [`Service::finish`] waits for in-flight requests before
    /// cancelling what remains.
    pub drain_ms: u64,
    /// Back the verdict cache with a crash-safe log at this path.
    pub persist: Option<PathBuf>,
    /// With [`Self::persist`]: refuse to open a corrupt store instead of
    /// skipping bad records.
    pub fail_open: bool,
    /// Seeded fault-injection plan shared by the verifier's engine/store
    /// sites and this crate's connection writer.  Chaos-testing hook —
    /// never set in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            race_nodes: 4,
            equiv_nodes: 5,
            validity_nodes: 5,
            valuations: 2,
            cache_capacity: 4096,
            workers: 2,
            cold_queue: 256,
            deadline_ms: 0,
            max_connections: 64,
            drain_ms: 2_000,
            persist: None,
            fail_open: false,
            faults: None,
        }
    }
}

impl ServeOptions {
    /// Builds the verifier these options describe, reporting store-open
    /// failures instead of panicking.
    pub fn try_build_verifier(&self) -> Result<Verifier, VerifyError> {
        let mut builder = Verifier::builder()
            .race_nodes(self.race_nodes)
            .equiv_nodes(self.equiv_nodes)
            .validity_nodes(self.validity_nodes)
            .valuations(self.valuations)
            .cache_capacity(self.cache_capacity);
        if self.deadline_ms > 0 {
            builder = builder.default_deadline(Duration::from_millis(self.deadline_ms));
        }
        if let Some(plan) = &self.faults {
            builder = builder.shared_fault_plan(Arc::clone(plan));
        }
        if let Some(path) = &self.persist {
            let policy = if self.fail_open {
                CorruptionPolicy::FailOpen
            } else {
                CorruptionPolicy::SkipAndLog
            };
            builder = builder.persist_with_policy(path.clone(), policy);
        }
        builder.try_build()
    }

    /// Builds the verifier these options describe (panics on a store-open
    /// failure; use [`Self::try_build_verifier`] to handle it).
    pub fn build_verifier(&self) -> Verifier {
        self.try_build_verifier()
            .expect("ServeOptions::build_verifier: verdict store failed to open")
    }
}

/// The service: one shared verifier, the two-lane scheduler and request
/// accounting.  `Sync` — one instance serves any number of client
/// threads/connections.
pub struct Service {
    verifier: Arc<Verifier>,
    /// The cold lane: bounded queue + worker pool (see [`crate`] docs).
    cold: ColdPool,
    /// Connection-writer fault hook (mirrors the verifier's plan).
    faults: Option<Arc<FaultPlan>>,
    requests: AtomicU64,
    /// Requests answered inline on the warm lane (cache hit or coalesced).
    warm_inline: AtomicU64,
    /// Requests currently being handled by a serving loop (the drain gauge:
    /// counted from read to *flushed response*).
    inflight: AtomicU64,
    /// Raised by a `shutdown` request or [`Self::finish`]; serving loops
    /// stop reading and new verification work is refused.
    shutting_down: AtomicBool,
    max_connections: usize,
    drain_ms: u64,
    /// Compiled executors, keyed by program source (a `run` request pays
    /// compilation and lowering certification once per distinct program).
    executors: Mutex<HashMap<String, Arc<ProgramExecutor>>>,
    compiles: AtomicU64,
    vm_runs: AtomicU64,
    interp_runs: AtomicU64,
    /// Autotuner responses, keyed by `(program, height, seed)` — tuning is
    /// the most expensive request kind, so repeats are answered from here.
    tuned: Mutex<HashMap<String, Arc<String>>>,
    tunes: AtomicU64,
}

/// One parsed sub-query with owned subjects (the borrow source for the
/// [`Query`]s handed to the verifier).
enum ParsedQuery {
    Race(Program),
    Equivalence(Program, Program),
    Validity(Formula),
}

impl ParsedQuery {
    fn kind(&self) -> &'static str {
        match self {
            ParsedQuery::Race(_) => "race",
            ParsedQuery::Equivalence(_, _) => "equivalence",
            ParsedQuery::Validity(_) => "validity",
        }
    }

    fn as_query(&self) -> Query<'_> {
        match self {
            ParsedQuery::Race(p) => Query::DataRace(p),
            ParsedQuery::Equivalence(a, b) => Query::Equivalence(a, b),
            ParsedQuery::Validity(f) => Query::Validity(f),
        }
    }
}

impl Service {
    /// A service over a fresh verifier built from `options`.  Panics if the
    /// persistent store fails to open; [`Self::try_new`] reports it.
    pub fn new(options: &ServeOptions) -> Self {
        Service::try_new(options).expect("Service::new: verdict store failed to open")
    }

    /// A service over a fresh verifier built from `options`, reporting
    /// store-open failures.
    pub fn try_new(options: &ServeOptions) -> Result<Self, VerifyError> {
        let verifier = options.try_build_verifier()?;
        Ok(Service::assemble(verifier, options))
    }

    /// A service over a caller-built verifier (scheduler knobs take their
    /// defaults; the verifier's fault plan, if any, also drives the
    /// connection-writer site).
    pub fn from_verifier(verifier: Verifier) -> Self {
        Service::assemble(verifier, &ServeOptions::default())
    }

    fn assemble(verifier: Verifier, options: &ServeOptions) -> Self {
        let faults = verifier.fault_plan();
        Service {
            verifier: Arc::new(verifier),
            cold: ColdPool::new(options.workers, options.cold_queue),
            faults,
            requests: AtomicU64::new(0),
            warm_inline: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            max_connections: options.max_connections.max(1),
            drain_ms: options.drain_ms,
            executors: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            vm_runs: AtomicU64::new(0),
            interp_runs: AtomicU64::new(0),
            tuned: Mutex::new(HashMap::new()),
            tunes: AtomicU64::new(0),
        }
    }

    /// The shared verifier (for stats or direct queries).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Total requests handled so far (every NDJSON line counts once;
    /// a batch counts once plus nothing per sub-query).
    pub fn requests_handled(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Whether shutdown was requested (serving loops stop after their
    /// current response).
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: refuse new verification work, wait up to the
    /// configured drain budget for in-flight requests to flush their
    /// responses, cancel whatever remains, join the cold-lane workers and
    /// durably flush the verdict store.  Idempotent.  Returns `true` when
    /// everything drained inside the budget (`false` = stragglers were
    /// cancelled).
    pub fn finish(&self) -> bool {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.cold.close();
        let deadline = Instant::now() + Duration::from_millis(self.drain_ms);
        let drained = loop {
            if self.inflight.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if !drained {
            // Past the drain budget: raise the cooperative-cancel flag of
            // every live dispatch so stuck engines resolve fail-closed and
            // the workers can exit.
            self.verifier.abort_inflight();
        }
        self.cold.join();
        self.verifier.flush_store();
        drained
    }

    /// Preloads the verdict cache with the §5 corpus: a race query per
    /// corpus program and an equivalence query per known fusion pair.
    /// Returns the number of queries preloaded, so a fresh replica starts
    /// warm instead of paying the engine cost on first contact.
    pub fn warm_start(&self) -> usize {
        let mut preloaded = 0;
        for (_, program) in corpus::all() {
            if self.verifier.verify(Query::DataRace(&program)).is_ok() {
                preloaded += 1;
            }
        }
        let pairs = [
            (
                corpus::size_counting_sequential(),
                corpus::size_counting_fused(),
            ),
            (
                corpus::size_counting_sequential(),
                corpus::size_counting_fused_invalid(),
            ),
            (
                corpus::tree_mutation_original(),
                corpus::tree_mutation_fused(),
            ),
            (corpus::css_minify_original(), corpus::css_minify_fused()),
            (corpus::cycletree_original(), corpus::cycletree_fused()),
        ];
        for (original, transformed) in &pairs {
            if self
                .verifier
                .verify(Query::Equivalence(original, transformed))
                .is_ok()
            {
                preloaded += 1;
            }
        }
        preloaded
    }

    /// Handles one NDJSON request line and returns the one-line response.
    /// Never panics on malformed input — parse and protocol errors come
    /// back as `{"status": "error", "code": ..., ...}`.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let value = match json::parse(line) {
            Ok(value) => value,
            Err(err) => {
                return error_response(None, "bad_request", &format!("invalid JSON: {err}"))
            }
        };
        let Some(request) = value.as_object() else {
            return error_response(None, "bad_request", "request must be a JSON object");
        };
        let id = request.get("id");
        let kind = match request.get("kind").and_then(Value::as_str) {
            Some(kind) => kind,
            None => return error_response(id, "bad_request", "missing string field `kind`"),
        };
        if self.is_shutting_down()
            && matches!(
                kind,
                "race" | "equivalence" | "validity" | "batch" | "run" | "tune"
            )
        {
            return error_response(id, "shutting_down", "service is draining for shutdown");
        }
        match kind {
            "race" | "equivalence" | "validity" => {
                if let Some(response) = self.answer_from_text(id, kind, request) {
                    return response;
                }
                match parse_query(kind, request) {
                    Ok(parsed) => self.answer_query(id, parsed),
                    Err(err) => error_response(id, "bad_request", &err),
                }
            }
            "batch" => self.handle_batch(id, request),
            "run" => self.handle_run(id, request),
            "tune" => self.handle_tune(id, request),
            "stats" => self.stats_response(id),
            "shutdown" => self.handle_shutdown(id),
            other => error_response(
                id,
                "bad_request",
                &format!("unknown request kind `{other}`"),
            ),
        }
    }

    /// The text lookup (see the crate docs): a race or equivalence request
    /// whose program text is byte-identical to a cached entry's printed
    /// programs is answered on the warm lane before anything is parsed.
    /// `None` — a miss, which counts nothing, or a request of another
    /// shape — sends the request on to parsing, which answers every error
    /// exactly as before.  The nesting guard protects the parser, and a hit
    /// parses nothing.
    fn answer_from_text(
        &self,
        id: Option<&Value>,
        kind: &str,
        request: &std::collections::BTreeMap<String, Value>,
    ) -> Option<String> {
        let text = |field: &str| request.get(field).and_then(Value::as_str);
        let query = match kind {
            "race" => SourceQuery::DataRace(text("program")?),
            "equivalence" => SourceQuery::Equivalence(text("original")?, text("transformed")?),
            _ => return None,
        };
        let verdict = self.verifier.cached(query)?;
        self.warm_inline.fetch_add(1, Ordering::Relaxed);
        Some(verdict_response(id, kind, &Ok(verdict)))
    }

    /// The two-lane scheduler (see the crate docs): warm queries answer
    /// inline; cold queries go through the bounded worker pool and are shed
    /// with `overloaded` when it is full.
    fn answer_query(&self, id: Option<&Value>, parsed: ParsedQuery) -> String {
        match self.verifier.probe(&parsed.as_query()) {
            Warmth::Hit | Warmth::InFlight => {
                self.warm_inline.fetch_add(1, Ordering::Relaxed);
                let result = self.verifier.verify(parsed.as_query());
                verdict_response(id, parsed.kind(), &result)
            }
            Warmth::Cold => {
                let verifier = Arc::clone(&self.verifier);
                let id_owned: Option<Value> = id.cloned();
                let (tx, rx) = mpsc::channel::<String>();
                let admission = self.cold.submit(Box::new(move || {
                    let result = verifier.verify(parsed.as_query());
                    let _ = tx.send(verdict_response(id_owned.as_ref(), parsed.kind(), &result));
                }));
                self.await_cold(id, admission, &rx)
            }
        }
    }

    /// Maps a cold-lane admission to its response, blocking on the worker
    /// when the job was accepted.
    fn await_cold(
        &self,
        id: Option<&Value>,
        admission: Admission,
        rx: &mpsc::Receiver<String>,
    ) -> String {
        match admission {
            Admission::Accepted => match rx.recv() {
                Ok(response) => {
                    self.cold.note_executed();
                    response
                }
                // The worker died mid-job (a panic outside the verifier's
                // own isolation): fail this request, keep the service up.
                Err(_) => error_response(id, "internal", "cold-lane worker failed mid-query"),
            },
            Admission::Overloaded => error_response(
                id,
                "overloaded",
                "cold verification queue is full; retry later",
            ),
            Admission::ShuttingDown => {
                error_response(id, "shutting_down", "service is draining for shutdown")
            }
        }
    }

    fn handle_batch(
        &self,
        id: Option<&Value>,
        request: &std::collections::BTreeMap<String, Value>,
    ) -> String {
        let Some(items) = request.get("queries").and_then(Value::as_array) else {
            return error_response(
                id,
                "bad_request",
                "batch requests need an array field `queries`",
            );
        };
        // Parse every sub-request first; parse failures keep their slot so
        // `results[i]` always answers `queries[i]`.
        let parsed: Vec<Result<ParsedQuery, String>> = items
            .iter()
            .map(|item| {
                let Some(object) = item.as_object() else {
                    return Err(String::from("batch query must be a JSON object"));
                };
                let kind = object
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("missing string field `kind`")?;
                parse_query(kind, object)
            })
            .collect();
        // A batch with only warm sub-queries stays on the warm lane; one
        // cold member sends the whole batch through the pool (its fan-out
        // runs on a worker, not on the connection thread).
        let any_cold = parsed.iter().any(|entry| match entry {
            Ok(parsed) => self.verifier.probe(&parsed.as_query()) == Warmth::Cold,
            Err(_) => false,
        });
        if !any_cold {
            self.warm_inline.fetch_add(1, Ordering::Relaxed);
            return batch_response(&self.verifier, id, &parsed);
        }
        let verifier = Arc::clone(&self.verifier);
        let id_owned: Option<Value> = id.cloned();
        let (tx, rx) = mpsc::channel::<String>();
        let admission = self.cold.submit(Box::new(move || {
            let _ = tx.send(batch_response(&verifier, id_owned.as_ref(), &parsed));
        }));
        self.await_cold(id, admission, &rx)
    }

    fn handle_shutdown(&self, id: Option<&Value>) -> String {
        // Flag first, then close the intake: a request racing past the
        // flag still cannot be admitted.
        self.shutting_down.store(true, Ordering::SeqCst);
        self.cold.close();
        let mut out = String::from("{");
        push_id(&mut out, id);
        out.push_str("\"status\":\"ok\",\"kind\":\"shutdown\",\"draining\":true}");
        out
    }

    /// The cached executor for `source`, compiling (with certified lowering
    /// through the shared verifier) on first sight.
    fn executor_for(&self, source: &str, program: &Program) -> Arc<ProgramExecutor> {
        let mut executors = self.executors.lock().expect("executor cache lock");
        if let Some(executor) = executors.get(source) {
            return Arc::clone(executor);
        }
        // Bound the cache: a flood of distinct programs resets it rather
        // than growing without limit (compilation is cheap; certified
        // lowering verdicts stay warm in the verifier's own cache).
        if executors.len() >= MAX_CACHED_EXECUTORS {
            executors.clear();
        }
        let executor = Arc::new(ProgramExecutor::with_verifier(&self.verifier, program));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        executors.insert(source.to_string(), Arc::clone(&executor));
        executor
    }

    fn handle_run(
        &self,
        id: Option<&Value>,
        request: &std::collections::BTreeMap<String, Value>,
    ) -> String {
        let Some(source) = request.get("program").and_then(Value::as_str) else {
            return error_response(
                id,
                "bad_request",
                "`run` requests need a string field `program`",
            );
        };
        // A program with a cached executor runs without being parsed again;
        // the executor's program supplies the declared arity.
        let cached = self
            .executors
            .lock()
            .expect("executor cache lock")
            .get(source)
            .cloned();
        let parsed;
        let program = match &cached {
            Some(executor) => executor.program(),
            None => {
                parsed = match parse_source(source, "program") {
                    Ok(program) => program,
                    Err(err) => return error_response(id, "bad_request", &err),
                };
                &parsed
            }
        };
        let seed = match request.get("seed") {
            None => 0,
            Some(Value::Number(s)) => *s as u64,
            Some(_) => return error_response(id, "bad_request", "`seed` must be a number"),
        };
        let (arity, height) = match parse_tree_shape(request, program, DEFAULT_RUN_HEIGHT) {
            Ok(shape) => shape,
            Err(err) => return error_response(id, "bad_request", &err),
        };
        let executor = match &cached {
            Some(executor) => Arc::clone(executor),
            None => self.executor_for(source, program),
        };
        let started = std::time::Instant::now();
        match executor.run_complete(arity, height, seed) {
            Ok(outcome) => {
                match outcome.tier {
                    ExecTier::Vm => self.vm_runs.fetch_add(1, Ordering::Relaxed),
                    ExecTier::Interpreter => self.interp_runs.fetch_add(1, Ordering::Relaxed),
                };
                let returns: Vec<String> = outcome.returns.iter().map(|v| v.to_string()).collect();
                let lowered: Vec<String> = executor
                    .lowerings()
                    .iter()
                    .map(|c| format!("\"{}\"", json::escape(&c.func)))
                    .collect();
                let mut out = String::from("{");
                push_id(&mut out, id);
                out.push_str(&format!(
                    "\"status\":\"ok\",\"kind\":\"run\",\"tier\":\"{}\",\
                     \"returns\":[{}],\"lowered\":[{}],\"nodes\":{},\"elapsed_us\":{}}}",
                    outcome.tier,
                    returns.join(","),
                    lowered.join(","),
                    outcome.nodes,
                    started.elapsed().as_micros(),
                ));
                out
            }
            Err(err) => error_response(id, "internal", &format!("execution failed: {err}")),
        }
    }

    /// The `tune` request: run the certified schedule autotuner over the
    /// program's pass pipeline (VM-measured, verifier-certified) and answer
    /// with the winner, its certificate provenance and the full candidate
    /// table.  Tuning is by far the most expensive request kind, so results
    /// are cached by `(program, height, seed)` and repeats answer from the
    /// cache with `"cached":true`.
    fn handle_tune(
        &self,
        id: Option<&Value>,
        request: &std::collections::BTreeMap<String, Value>,
    ) -> String {
        let Some(source) = request.get("program").and_then(Value::as_str) else {
            return error_response(
                id,
                "bad_request",
                "`tune` requests need a string field `program`",
            );
        };
        if source_nesting(source) > MAX_PROGRAM_NESTING {
            return error_response(
                id,
                "bad_request",
                &format!("`program` nests deeper than {MAX_PROGRAM_NESTING} levels"),
            );
        }
        let seed = match request.get("seed") {
            None => 0,
            Some(Value::Number(s)) => *s as u64,
            Some(_) => return error_response(id, "bad_request", "`seed` must be a number"),
        };
        let program = match retreet_lang::parse_program(source) {
            Ok(program) => program,
            Err(err) => {
                return error_response(id, "bad_request", &format!("cannot parse `program`: {err}"))
            }
        };
        let (arity, height) = match parse_tree_shape(request, &program, DEFAULT_TUNE_HEIGHT) {
            Ok(shape) => shape,
            Err(err) => return error_response(id, "bad_request", &err),
        };
        let cache_key = format!("{source}\u{1f}{height}\u{1f}{seed}\u{1f}{arity}");
        if let Some(body) = self.tuned.lock().expect("tune cache lock").get(&cache_key) {
            let mut out = String::from("{");
            push_id(&mut out, id);
            out.push_str("\"status\":\"ok\",\"kind\":\"tune\",\"cached\":true,");
            out.push_str(body);
            out.push('}');
            return out;
        }
        let options = retreet_transform::TuneOptions {
            tree_height: height,
            tree_arity: arity,
            seed,
            ..retreet_transform::TuneOptions::quick()
        };
        let started = std::time::Instant::now();
        let tuned = match retreet_runtime::tune_and_compile(&self.verifier, &program, &options) {
            Ok(tuned) => tuned,
            Err(err) => {
                return error_response(id, "untunable", &format!("autotuning refused: {err}"))
            }
        };
        self.tunes.fetch_add(1, Ordering::Relaxed);
        let schedule = &tuned.schedule;

        // Pre-seed the `run` executor cache with the winner so a follow-up
        // `run` of the tuned source starts warm.
        let winner_source = schedule.winner.transformed_source();
        {
            let mut executors = self.executors.lock().expect("executor cache lock");
            if !executors.contains_key(&winner_source) {
                if executors.len() >= MAX_CACHED_EXECUTORS {
                    executors.clear();
                }
                executors.insert(winner_source.clone(), Arc::new(tuned.executor));
                self.compiles.fetch_add(1, Ordering::Relaxed);
            }
        }

        let candidates: Vec<String> = schedule
            .candidates
            .iter()
            .map(|candidate| {
                let mut entry = format!(
                    "{{\"label\":\"{}\",\"schedule\":\"{}\"",
                    json::escape(&candidate.label),
                    candidate.schedule
                );
                match &candidate.status {
                    retreet_transform::CandidateStatus::Certified {
                        equivalence,
                        race,
                        cost,
                    } => {
                        entry.push_str(&format!(
                            ",\"certified\":true,\"engine\":\"{}\",\"soundness\":\"{}\"",
                            equivalence.engine, equivalence.soundness
                        ));
                        if let Some(race) = race {
                            entry.push_str(&format!(",\"race_engine\":\"{}\"", race.engine));
                        }
                        match cost {
                            Ok(seconds) => entry.push_str(&format!(",\"seconds\":{seconds:e}")),
                            Err(reason) => entry
                                .push_str(&format!(",\"unmeasured\":\"{}\"", json::escape(reason))),
                        }
                    }
                    retreet_transform::CandidateStatus::Refused(reason) => {
                        entry.push_str(&format!(
                            ",\"certified\":false,\"refusal\":\"{}\"",
                            json::escape(&reason.to_string())
                        ));
                    }
                }
                entry.push('}');
                entry
            })
            .collect();

        let certificate = &schedule.winner.certificate;
        let mut body = format!(
            "\"winner\":{{\"label\":\"{}\",\"source\":\"{}\",\
             \"certificate\":{{\"kind\":\"{}\",\"engine\":\"{}\",\"soundness\":\"{}\",\
             \"trees_checked\":{}}},\"seconds\":{:e}}},\
             \"baseline\":{{\"original_seconds\":{:e},\"fused_seconds\":{}}},\
             \"speedup\":{:.4},\"certified\":{},\"refused\":{},",
            json::escape(&schedule.winner_label),
            json::escape(&winner_source),
            certificate.kind,
            certificate.engine(),
            certificate.soundness(),
            certificate.trees_checked(),
            schedule.winner_seconds,
            schedule.baseline_original_seconds,
            schedule
                .baseline_fused_seconds
                .map(|s| format!("{s:e}"))
                .unwrap_or_else(|| String::from("null")),
            schedule.speedup(),
            schedule.certified_count(),
            schedule.refused_count(),
        );
        body.push_str(&format!(
            "\"candidates\":[{}],\"elapsed_us\":{}",
            candidates.join(","),
            started.elapsed().as_micros(),
        ));

        {
            let mut tuned_cache = self.tuned.lock().expect("tune cache lock");
            if tuned_cache.len() >= MAX_CACHED_EXECUTORS {
                tuned_cache.clear();
            }
            tuned_cache.insert(cache_key, Arc::new(body.clone()));
        }

        let mut out = String::from("{");
        push_id(&mut out, id);
        out.push_str("\"status\":\"ok\",\"kind\":\"tune\",\"cached\":false,");
        out.push_str(&body);
        out.push('}');
        out
    }

    fn stats_response(&self, id: Option<&Value>) -> String {
        let cache = self.verifier.cache_stats();
        let serving = self.verifier.serving_stats();
        let cold = self.cold.stats();
        let mut out = String::from("{");
        push_id(&mut out, id);
        out.push_str(&format!(
            "\"status\":\"ok\",\"kind\":\"stats\",\"requests\":{},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"collisions\":{},\"entries\":{}}},\
             \"serving\":{{\"engine_runs\":{},\"cancelled_runs\":{},\"panicked_runs\":{},\
             \"deadline_hits\":{},\"degraded\":0,\"coalesced\":{}}},\
             \"sched\":{{\"workers\":{},\"queue_depth\":{},\"cold_executed\":{},\"shed\":{},\
             \"warm_inline\":{},\"inflight\":{},\"shutting_down\":{}}},\
             \"codegen\":{{\"compiles\":{},\"vm_runs\":{},\"interp_runs\":{},\"tunes\":{}}}",
            self.requests_handled(),
            cache.hits,
            cache.misses,
            cache.collisions,
            cache.entries,
            serving.engine_runs,
            serving.cancelled_runs,
            serving.panicked_runs,
            serving.deadline_hits,
            serving.coalesced,
            self.cold.worker_count(),
            self.cold.queue_depth(),
            cold.executed,
            cold.shed,
            self.warm_inline.load(Ordering::Relaxed),
            self.inflight.load(Ordering::SeqCst),
            self.is_shutting_down(),
            self.compiles.load(Ordering::Relaxed),
            self.vm_runs.load(Ordering::Relaxed),
            self.interp_runs.load(Ordering::Relaxed),
            self.tunes.load(Ordering::Relaxed),
        ));
        if let Some(store) = self.verifier.store_stats() {
            out.push_str(&format!(
                ",\"store\":{{\"entries\":{},\"loaded\":{},\"skipped\":{},\"truncated_bytes\":{},\
                 \"appends\":{},\"write_errors\":{},\"compactions\":{}}}",
                store.entries,
                store.loaded,
                store.skipped,
                store.truncated_bytes,
                store.appends,
                store.write_errors,
                store.compactions,
            ));
        }
        if let Some(counts) = self.verifier.fault_counts() {
            out.push_str(&format!(",\"faults_injected\":{}", counts.total()));
        }
        out.push('}');
        out
    }
}

impl Drop for Service {
    /// Dropping the service tears the worker pool down (close the intake,
    /// join the threads).  Callers wanting a *graceful* drain call
    /// [`Service::finish`] first — this is the backstop, not the protocol.
    fn drop(&mut self) {
        self.cold.close();
        self.cold.join();
    }
}

/// Default complete-tree height for `run` requests (2^6 - 1 = 63 nodes on
/// binary trees).
const DEFAULT_RUN_HEIGHT: usize = 6;

/// Default measurement-tree height for `tune` requests — taller than the
/// `run` default so VM timings dominate dispatch overhead.
const DEFAULT_TUNE_HEIGHT: usize = 8;

/// Most nodes the complete tree of a `run` or `tune` request may have: the
/// binary height-16 count (2^16 - 1, ≈ 0.5 MB per field column).  Bounding
/// the node count rather than the height keeps the bound whatever the
/// arity, so a hostile request cannot make the shared service allocate
/// without limit.
const MAX_RUN_NODES: usize = 65_535;

/// Most compiled executors the service keeps cached; see
/// [`Service::executor_for`].
const MAX_CACHED_EXECUTORS: usize = 128;

/// Deepest brace/parenthesis nesting a request program may use.  The
/// Retreet parser (and the analyses behind it) recurse per nesting level
/// with no cap of their own, so a hostile `fn Main(n) {{{{…` line — one
/// byte per level, far under the request-size bound — would abort the
/// shared service by stack overflow.  Corpus programs nest under 10.
const MAX_PROGRAM_NESTING: usize = 256;

/// Maximum brace/paren nesting of a candidate source, scanned iteratively
/// (so the guard itself is O(n) with no recursion).
fn source_nesting(source: &str) -> usize {
    let mut depth = 0usize;
    let mut max = 0;
    for byte in source.bytes() {
        match byte {
            b'{' | b'(' => {
                depth += 1;
                max = max.max(depth);
            }
            b'}' | b')' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

/// Parses the program text of request field `field`, refusing sources that
/// nest deeper than [`MAX_PROGRAM_NESTING`] before the parser sees them.
fn parse_source(source: &str, field: &str) -> Result<Program, String> {
    if source_nesting(source) > MAX_PROGRAM_NESTING {
        return Err(format!(
            "`{field}` nests deeper than {MAX_PROGRAM_NESTING} levels"
        ));
    }
    retreet_lang::parse_program(source).map_err(|err| format!("cannot parse `{field}`: {err}"))
}

fn parse_query(
    kind: &str,
    request: &std::collections::BTreeMap<String, Value>,
) -> Result<ParsedQuery, String> {
    let program = |field: &str| -> Result<Program, String> {
        let source = request
            .get(field)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("`{kind}` requests need a string field `{field}`"))?;
        parse_source(source, field)
    };
    match kind {
        "race" => Ok(ParsedQuery::Race(program("program")?)),
        "equivalence" => Ok(ParsedQuery::Equivalence(
            program("original")?,
            program("transformed")?,
        )),
        "validity" => {
            let text = request
                .get("formula")
                .and_then(Value::as_str)
                .ok_or("`validity` requests need a string field `formula`")?;
            let formula = formula::parse_formula(text)
                .map_err(|err| format!("cannot parse `formula`: {err}"))?;
            Ok(ParsedQuery::Validity(formula))
        }
        other => Err(format!("unknown request kind `{other}`")),
    }
}

/// Renders one batch response: verify every successfully parsed sub-query
/// through the coalescing batch fan-out, keep errors in their slots.
/// Shared by the warm (inline) and cold (worker) lanes.
fn batch_response(
    verifier: &Verifier,
    id: Option<&Value>,
    parsed: &[Result<ParsedQuery, String>],
) -> String {
    let queries: Vec<Query<'_>> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .map(ParsedQuery::as_query)
        .collect();
    let mut verdicts = verifier.verify_batch(&queries).into_iter();
    let results: Vec<String> = parsed
        .iter()
        .map(|entry| match entry {
            Ok(parsed) => {
                let result = verdicts.next().expect("one verdict per parsed query");
                verdict_response(None, parsed.kind(), &result)
            }
            Err(err) => error_response(None, "bad_request", err),
        })
        .collect();
    let mut out = String::from("{");
    push_id(&mut out, id);
    out.push_str("\"status\":\"ok\",\"kind\":\"batch\",\"results\":[");
    out.push_str(&results.join(","));
    out.push_str("]}");
    out
}

/// Parses the optional `arity` field of `run`/`tune` requests: the arity of
/// the complete tree the request is answered on.  Defaults to the program's
/// declared arity (binary complete trees for binary programs).  An explicit
/// arity outside `2..=MAX_ARITY`, or one that would leave some of the
/// program's child axes without a tree column, is a `bad_request`.
fn parse_arity(
    request: &std::collections::BTreeMap<String, Value>,
    program: &Program,
) -> Result<u8, String> {
    use retreet_lang::ast::MAX_ARITY;
    let requested = match request.get("arity") {
        None => return Ok(program.arity.max(2)),
        Some(Value::Number(a)) if *a >= 2.0 && *a <= MAX_ARITY as f64 && a.fract() == 0.0 => {
            *a as u8
        }
        Some(_) => {
            return Err(format!(
                "`arity` must be an integer between 2 and {MAX_ARITY}"
            ))
        }
    };
    if requested < program.arity {
        return Err(format!(
            "tree arity {requested} leaves child axes {}..{} of the arity-{} program out of range",
            requested,
            program.arity - 1,
            program.arity
        ));
    }
    Ok(requested)
}

/// Parses the complete-tree shape of a `run`/`tune` request: its arity
/// (see [`parse_arity`]) and its `height`, refusing any shape whose
/// complete tree would exceed [`MAX_RUN_NODES`] before anything is
/// allocated.  An omitted height is `default`, clamped down to the largest
/// height within the bound at that arity.
fn parse_tree_shape(
    request: &std::collections::BTreeMap<String, Value>,
    program: &Program,
    default: usize,
) -> Result<(u8, usize), String> {
    let arity = parse_arity(request, program)?;
    let within_bound =
        |height: usize| complete_kary_len(arity, height).is_some_and(|n| n <= MAX_RUN_NODES);
    let height = match request.get("height") {
        None => (1..=default).rev().find(|&h| within_bound(h)).unwrap_or(1),
        Some(Value::Number(h)) if *h >= 1.0 => *h as usize,
        Some(_) => return Err(String::from("`height` must be a number of at least 1")),
    };
    if !within_bound(height) {
        return Err(format!(
            "a complete arity-{arity} tree of height {height} has more than \
             {MAX_RUN_NODES} nodes"
        ));
    }
    Ok((arity, height))
}

fn push_id(out: &mut String, id: Option<&Value>) {
    if let Some(id) = id {
        out.push_str(&format!("\"id\":{id},"));
    }
}

/// One error line.  `code` is a stable machine-readable discriminator:
/// `bad_request`, `request_too_large`, `overloaded`, `shutting_down`,
/// `deadline_exceeded`, `unsupported` or `internal`.
fn error_response(id: Option<&Value>, code: &str, message: &str) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    out.push_str(&format!(
        "\"status\":\"error\",\"code\":\"{}\",\"error\":\"{}\"}}",
        code,
        json::escape(message)
    ));
    out
}

/// The error code a [`VerifyError`] surfaces as on the wire.
fn error_code(err: &VerifyError) -> &'static str {
    match err {
        VerifyError::InvalidProgram { .. } => "bad_request",
        VerifyError::NoApplicableEngine { .. } => "unsupported",
        VerifyError::DeadlineExceeded { .. } => "deadline_exceeded",
        VerifyError::PortfolioFailed { .. } | VerifyError::StoreFailed { .. } => "internal",
    }
}

fn verdict_response(
    id: Option<&Value>,
    kind: &str,
    result: &Result<Verdict, VerifyError>,
) -> String {
    let verdict = match result {
        Ok(verdict) => verdict,
        Err(err) => return error_response(id, error_code(err), &err.to_string()),
    };
    let (word, detail) = describe_outcome(&verdict.outcome);
    let soundness = match verdict.soundness {
        Soundness::Unbounded => String::from("unbounded"),
        Soundness::BoundedUpTo { max_nodes } => format!("bounded:{max_nodes}"),
    };
    let mut out = String::from("{");
    push_id(&mut out, id);
    out.push_str(&format!(
        "\"status\":\"ok\",\"kind\":\"{}\",\"verdict\":\"{}\",\"positive\":{},\
         \"engine\":\"{}\",\"soundness\":\"{}\",\"cached\":{},\"coalesced\":{},\
         \"degraded\":false,\"elapsed_us\":{},\"trees_checked\":{},\"detail\":\"{}\"}}",
        kind,
        word,
        verdict.is_positive(),
        verdict.engine.name(),
        soundness,
        verdict.cached,
        verdict.coalesced,
        verdict.elapsed.as_micros(),
        verdict.trees_checked(),
        json::escape(&detail),
    ));
    out
}

fn describe_outcome(outcome: &Outcome) -> (&'static str, String) {
    match outcome {
        Outcome::RaceFree { .. } => ("race-free", String::new()),
        Outcome::Race(witness) => (
            "race",
            format!(
                "race on {}.{} between {} and {}",
                witness.node, witness.field, witness.first, witness.second
            ),
        ),
        Outcome::Equivalent { .. } => ("equivalent", String::new()),
        Outcome::NotEquivalent(ce) => (
            "not-equivalent",
            format!("counterexample: {:?}", ce.disagreement),
        ),
        Outcome::Valid { .. } => ("valid", String::new()),
        Outcome::Invalid(model) => (
            "invalid",
            match model {
                Some(tree) => format!("falsified by a {}-node tree", tree.len()),
                None => String::from("refuted by the automata engine (no model attached)"),
            },
        ),
    }
}

/// Longest request line the service buffers.  The §5 corpus programs are a
/// few KB each; 8 MiB leaves two orders of magnitude of headroom while
/// keeping one newline-less client from growing an unbounded `String` and
/// taking the shared service down with it.
const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024 * 1024;

/// One read request line, bounded and UTF-8-checked.
enum RequestLine {
    /// End of the input stream.
    Eof,
    /// A complete line (without the trailing newline / carriage return).
    Line(String),
    /// The line was not valid UTF-8 — a malformed request, not a dead
    /// connection.
    NotUtf8,
    /// The line exceeded [`MAX_REQUEST_LINE_BYTES`]; the remainder was
    /// discarded (without buffering) up to the next newline.
    TooLong,
}

/// Reads one newline-terminated line with a hard memory bound.
/// `BufRead::lines` has no cap — one hostile client streaming bytes
/// without a newline would OOM the process — so the service reads through
/// this instead.
fn read_request_line(input: &mut impl BufRead) -> std::io::Result<RequestLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            if buf.is_empty() {
                return Ok(RequestLine::Eof);
            }
            return Ok(line_from(buf));
        }
        if let Some(newline) = available.iter().position(|&b| b == b'\n') {
            if buf.len() + newline > MAX_REQUEST_LINE_BYTES {
                input.consume(newline + 1);
                return Ok(RequestLine::TooLong);
            }
            buf.extend_from_slice(&available[..newline]);
            input.consume(newline + 1);
            return Ok(line_from(buf));
        }
        let chunk = available.len();
        buf.extend_from_slice(available);
        input.consume(chunk);
        if buf.len() > MAX_REQUEST_LINE_BYTES {
            drop(buf);
            // Resynchronize on the next newline, discarding as we go (no
            // buffering, so the hostile line costs no memory).
            loop {
                let available = input.fill_buf()?;
                if available.is_empty() {
                    return Ok(RequestLine::TooLong);
                }
                match available.iter().position(|&b| b == b'\n') {
                    Some(newline) => {
                        input.consume(newline + 1);
                        return Ok(RequestLine::TooLong);
                    }
                    None => {
                        let chunk = available.len();
                        input.consume(chunk);
                    }
                }
            }
        }
    }
}

fn line_from(mut buf: Vec<u8>) -> RequestLine {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => RequestLine::Line(line),
        Err(_) => RequestLine::NotUtf8,
    }
}

/// Decrements the service's in-flight gauge on drop, so the drain in
/// [`Service::finish`] sees a request as in-flight until its response is
/// flushed (or its connection provably died) — never longer.
struct InflightGuard<'a>(&'a Service);

impl<'a> InflightGuard<'a> {
    fn enter(service: &'a Service) -> Self {
        service.inflight.fetch_add(1, Ordering::SeqCst);
        InflightGuard(service)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves NDJSON requests from `input` to `output` until EOF or graceful
/// shutdown — the stdin mode of the `retreet-serve` binary, the TCP
/// per-connection loop, and the harness tests' entry point.  Malformed
/// lines (invalid UTF-8, over the size bound) are answered with an error
/// response and the loop keeps serving; real I/O errors end it.
pub fn serve_lines(
    service: &Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    loop {
        let response = match read_request_line(&mut input)? {
            RequestLine::Eof => return Ok(()),
            RequestLine::Line(line) if line.trim().is_empty() => continue,
            RequestLine::Line(line) => {
                let guard = InflightGuard::enter(service);
                let response = service.handle_line(&line);
                write_response(service, &mut output, &response)?;
                drop(guard);
                // A shutdown request was answered (here or on a sibling
                // connection): this loop's work is done.
                if service.is_shutting_down() {
                    return Ok(());
                }
                continue;
            }
            RequestLine::NotUtf8 => {
                error_response(None, "bad_request", "request line is not valid UTF-8")
            }
            RequestLine::TooLong => error_response(
                None,
                "request_too_large",
                &format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes and was dropped"),
            ),
        };
        write_response(service, &mut output, &response)?;
        if service.is_shutting_down() {
            return Ok(());
        }
    }
}

/// Writes one response line, rolling the connection-drop fault site first:
/// an injected drop writes a *partial* line and kills this connection (the
/// caller's loop ends with an error; the shared service keeps serving).
fn write_response(
    service: &Service,
    output: &mut impl Write,
    response: &str,
) -> std::io::Result<()> {
    if let Some(plan) = &service.faults {
        if plan.roll(FaultSite::ConnectionWrite) == Some(InjectedFault::ConnectionDrop) {
            let half = response.len() / 2;
            output.write_all(&response.as_bytes()[..half])?;
            let _ = output.flush();
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected connection drop",
            ));
        }
    }
    output.write_all(response.as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

/// How long the accept loop sleeps when no connection is pending (it polls
/// so it can observe shutdown).
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Accepts TCP connections — one handler thread per client, all sharing
/// `service` (one cache, one in-flight table, one cold lane) — until the
/// service begins shutting down, then drains via [`Service::finish`] and
/// returns.  At most [`ServeOptions::max_connections`] clients are served
/// simultaneously; an excess client is answered a single `overloaded`
/// error line and disconnected at accept time, before it can submit work.
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let open = Arc::new(AtomicUsize::new(0));
    loop {
        if service.is_shutting_down() {
            service.finish();
            return Ok(());
        }
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(err) => {
                // The listener died: still drain what was accepted.
                service.finish();
                return Err(err);
            }
        };
        // The listener's nonblocking flag is inherited; handlers want
        // blocking reads.
        stream.set_nonblocking(false)?;
        if open.load(Ordering::SeqCst) >= service.max_connections {
            let mut stream = stream;
            let refusal =
                error_response(None, "overloaded", "connection limit reached; retry later");
            let _ = stream.write_all(refusal.as_bytes());
            let _ = stream.write_all(b"\n");
            continue;
        }
        open.fetch_add(1, Ordering::SeqCst);
        let service = Arc::clone(&service);
        let open = Arc::clone(&open);
        std::thread::spawn(move || {
            if let Err(err) = serve_connection(&service, &stream) {
                eprintln!("retreet-serve: connection {peer} closed: {err}");
            }
            open.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn serve_connection(service: &Service, stream: &TcpStream) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(service, reader, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::pretty::print_program;

    fn quick_options() -> ServeOptions {
        ServeOptions {
            race_nodes: 3,
            equiv_nodes: 3,
            validity_nodes: 3,
            valuations: 1,
            cache_capacity: 1024,
            ..ServeOptions::default()
        }
    }

    fn quick_service() -> Service {
        Service::new(&quick_options())
    }

    fn field(response: &str, name: &str) -> Value {
        let parsed = json::parse(response).expect("response is valid JSON");
        parsed.as_object().unwrap()[name].clone()
    }

    #[test]
    fn race_requests_round_trip() {
        let service = quick_service();
        let program = json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC);
        let request = format!(r#"{{"id": 1, "kind": "race", "program": "{program}"}}"#);
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "status").as_str(), Some("ok"));
        assert_eq!(field(&response, "verdict").as_str(), Some("race-free"));
        assert_eq!(field(&response, "id"), Value::Number(1.0));
        assert_eq!(field(&response, "cached"), Value::Bool(false));
        // The identical query again: served from the cache.
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "cached"), Value::Bool(true));
    }

    #[test]
    fn equivalence_and_validity_requests_round_trip() {
        let service = quick_service();
        let original = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        let transformed = json::escape(corpus::SIZE_COUNTING_FUSED_SRC);
        let request = format!(
            r#"{{"kind": "equivalence", "original": "{original}", "transformed": "{transformed}"}}"#
        );
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "verdict").as_str(), Some("equivalent"));

        let response =
            service.handle_line(r#"{"kind": "validity", "formula": "(exists x (root x))"}"#);
        assert_eq!(field(&response, "verdict").as_str(), Some("valid"));
        assert_eq!(field(&response, "engine").as_str(), Some("automata"));
        assert_eq!(field(&response, "soundness").as_str(), Some("unbounded"));
    }

    #[test]
    fn malformed_requests_are_errors_not_crashes() {
        let service = quick_service();
        let deep_program = format!(
            r#"{{"kind": "race", "program": "fn Main(n) {}"}}"#,
            "{".repeat(500_000)
        );
        for request in [
            "not json at all",
            "[1, 2, 3]",
            r#"{"kind": "unknown"}"#,
            r#"{"kind": "race"}"#,
            r#"{"kind": "race", "program": "fn !! syntax error"}"#,
            r#"{"kind": "validity", "formula": "(unknown x)"}"#,
            r#"{"kind": "batch"}"#,
            // One byte per nesting level: must be rejected by the nesting
            // guard before the recursive-descent program parser sees it.
            deep_program.as_str(),
        ] {
            let response = service.handle_line(request);
            assert_eq!(
                field(&response, "status").as_str(),
                Some("error"),
                "request {request:?} must answer an error"
            );
        }
        // The service keeps answering after errors.
        let response =
            service.handle_line(r#"{"kind": "validity", "formula": "(exists x (root x))"}"#);
        assert_eq!(field(&response, "status").as_str(), Some("ok"));
    }

    #[test]
    fn batch_requests_answer_in_input_order_with_errors_in_place() {
        let service = quick_service();
        let racy = json::escape(corpus::CYCLETREE_PARALLEL_SRC);
        let free = json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC);
        let request = format!(
            r#"{{"id": "b1", "kind": "batch", "queries": [
                {{"kind": "race", "program": "{racy}"}},
                {{"kind": "race", "program": "not a program"}},
                {{"kind": "race", "program": "{free}"}},
                {{"kind": "validity", "formula": "(exists x (root x))"}}
            ]}}"#
        );
        let response = service.handle_line(&request);
        let parsed = json::parse(&response).unwrap();
        let object = parsed.as_object().unwrap();
        assert_eq!(object["status"].as_str(), Some("ok"));
        let results = object["results"].as_array().unwrap();
        assert_eq!(results.len(), 4);
        let verdict =
            |i: usize, key: &str| -> Value { results[i].as_object().unwrap()[key].clone() };
        assert_eq!(verdict(0, "verdict").as_str(), Some("race"));
        assert_eq!(verdict(1, "status").as_str(), Some("error"));
        assert_eq!(verdict(2, "verdict").as_str(), Some("race-free"));
        assert_eq!(verdict(3, "verdict").as_str(), Some("valid"));
    }

    /// The verdict cache's hit and miss counters.
    fn cache_counts(service: &Service) -> (u64, u64) {
        let stats = service.verifier().cache_stats();
        (stats.hits, stats.misses)
    }

    fn race_request(program: &str) -> String {
        format!(
            r#"{{"kind": "race", "program": "{}"}}"#,
            json::escape(program)
        )
    }

    #[test]
    fn printed_program_text_is_answered_from_the_cache_as_one_hit() {
        let service = quick_service();
        service.warm_start();
        let before = cache_counts(&service);
        let runs = service.verifier().serving_stats().engine_runs;
        let printed = print_program(&corpus::cycletree_fused());
        let original = print_program(&corpus::cycletree_original());
        for request in [
            race_request(&printed),
            format!(
                r#"{{"kind": "equivalence", "original": "{}", "transformed": "{}"}}"#,
                json::escape(&original),
                json::escape(&printed)
            ),
        ] {
            let response = service.handle_line(&request);
            assert_eq!(field(&response, "cached"), Value::Bool(true), "{response}");
        }
        assert_eq!(cache_counts(&service), (before.0 + 2, before.1));
        assert_eq!(service.verifier().serving_stats().engine_runs, runs);
    }

    #[test]
    fn a_text_lookup_miss_counts_nothing() {
        let service = quick_service();
        let printed = print_program(&corpus::size_counting_parallel());
        // Cold: the text lookup misses silently, the parsed query misses.
        let response = service.handle_line(&race_request(&printed));
        assert_eq!(field(&response, "cached"), Value::Bool(false));
        assert_eq!(cache_counts(&service), (0, 1));
        let response = service.handle_line(&race_request(&printed));
        assert_eq!(field(&response, "cached"), Value::Bool(true));
        assert_eq!(cache_counts(&service), (1, 1));
        // An invalid program is refused before any lookup is counted.
        let response = service.handle_line(&race_request("fn F(n) { return 0; }"));
        assert_eq!(field(&response, "code").as_str(), Some("bad_request"));
        assert_eq!(cache_counts(&service), (1, 1));
    }

    #[test]
    fn a_whitespace_variant_of_a_resident_program_hits_after_parsing() {
        let service = quick_service();
        let printed = print_program(&corpus::size_counting_parallel());
        service.handle_line(&race_request(&printed));
        let relaid = printed.replace("\n", "\n  // relaid\n ");
        let response = service.handle_line(&race_request(&relaid));
        assert_eq!(field(&response, "cached"), Value::Bool(true), "{response}");
        assert_eq!(cache_counts(&service), (1, 1));
        assert_eq!(service.verifier().cache_stats().entries, 1);
    }

    #[test]
    fn the_two_child_spellings_of_one_program_cost_one_extra_miss() {
        let service = quick_service();
        let named = print_program(&corpus::size_counting_parallel());
        assert!(named.contains("n.l") && !named.contains("n.c0"));
        let indexed = named.replace("n.l", "n.c0").replace("n.r", "n.c1");
        let first = service.handle_line(&race_request(&named));
        let second = service.handle_line(&race_request(&indexed));
        // The programs are equal, but the cache identifies a program by its
        // printed text, which keeps the spelling: two entries, the same
        // verdict, never a wrong one.
        assert_eq!(field(&second, "cached"), Value::Bool(false));
        assert_eq!(field(&first, "verdict"), field(&second, "verdict"));
        assert_eq!(cache_counts(&service), (0, 2));
        assert_eq!(service.verifier().cache_stats().entries, 2);
        for request in [race_request(&named), race_request(&indexed)] {
            let response = service.handle_line(&request);
            assert_eq!(field(&response, "cached"), Value::Bool(true));
        }
        assert_eq!(cache_counts(&service), (2, 2));
    }

    #[test]
    fn a_repeated_run_answers_like_the_first_and_malformed_programs_stay_bad_requests() {
        let service = quick_service();
        let program = json::escape(corpus::TREE_MUTATION_ORIGINAL_SRC);
        let request =
            format!(r#"{{"kind": "run", "program": "{program}", "height": 6, "seed": 3}}"#);
        let strip = |response: &str| {
            let mut object = json::parse(response).unwrap().as_object().unwrap().clone();
            object.remove("elapsed_us");
            object
        };
        let first = service.handle_line(&request);
        assert_eq!(field(&first, "tier").as_str(), Some("vm"), "{first}");
        let again = service.handle_line(&request);
        assert_eq!(strip(&first), strip(&again), "{first}");
        // A cached program still has its request fields checked.
        let bad_seed = format!(r#"{{"kind": "run", "program": "{program}", "seed": "x"}}"#);
        let response = service.handle_line(&bad_seed);
        assert_eq!(field(&response, "code").as_str(), Some("bad_request"));
        for malformed in ["fn !! syntax error", "fn Main(n) { return 0;"] {
            let request = format!(r#"{{"kind": "run", "program": "{malformed}"}}"#);
            let response = service.handle_line(&request);
            assert_eq!(
                field(&response, "code").as_str(),
                Some("bad_request"),
                "{response}"
            );
        }
        let stats = json::parse(&service.handle_line(r#"{"kind": "stats"}"#)).unwrap();
        let codegen = stats.as_object().unwrap()["codegen"].as_object().unwrap();
        assert_eq!(codegen["compiles"], Value::Number(1.0));
        assert_eq!(codegen["vm_runs"], Value::Number(2.0));
    }

    #[test]
    fn run_requests_execute_on_the_vm_tier_and_count_in_stats() {
        let service = quick_service();
        let program = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        let request = format!(r#"{{"id": 4, "kind": "run", "program": "{program}", "height": 5}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "status").as_str(),
            Some("ok"),
            "{response}"
        );
        assert_eq!(field(&response, "tier").as_str(), Some("vm"));
        // A complete height-5 tree: layers 1/3/5 hold 1+4+16 = 21 nodes,
        // layers 2/4 hold 2+8 = 10.
        let returns = field(&response, "returns");
        let returns = returns.as_array().unwrap();
        assert_eq!(returns[0], Value::Number(21.0));
        assert_eq!(returns[1], Value::Number(10.0));
        // Same program again: compiled once, run twice.
        service.handle_line(&request);
        let stats = service.handle_line(r#"{"kind": "stats"}"#);
        let parsed = json::parse(&stats).unwrap();
        let codegen = parsed.as_object().unwrap()["codegen"].as_object().unwrap();
        assert_eq!(codegen["compiles"], Value::Number(1.0));
        assert_eq!(codegen["vm_runs"], Value::Number(2.0));
        assert_eq!(codegen["interp_runs"], Value::Number(0.0));
    }

    #[test]
    fn run_requests_report_certified_lowerings_and_bound_height() {
        let service = quick_service();
        let program = json::escape(corpus::TREE_MUTATION_ORIGINAL_SRC);
        let request = format!(r#"{{"kind": "run", "program": "{program}"}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "status").as_str(),
            Some("ok"),
            "{response}"
        );
        let lowered = field(&response, "lowered");
        assert!(
            !lowered.as_array().unwrap().is_empty(),
            "tree_mutation traversals should certify for lowering: {response}"
        );
        // Height beyond the cap is refused, the service stays up.
        let request = format!(r#"{{"kind": "run", "program": "{program}", "height": 40}}"#);
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "status").as_str(), Some("error"));
    }

    #[test]
    fn run_requests_accept_an_arity_field_and_default_to_the_programs() {
        let service = quick_service();
        // A ternary program runs on a ternary complete tree by default: a
        // height-3 complete ternary tree has 1 + 3 + 9 = 13 nodes, and the
        // ternary sum over `v` seeded to zero is 0.
        let ternary = json::escape(corpus::TERNARY_SUM_PARALLEL_SRC);
        let request = format!(r#"{{"kind": "run", "program": "{ternary}", "height": 3}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "status").as_str(),
            Some("ok"),
            "{response}"
        );
        assert_eq!(field(&response, "nodes"), Value::Number(13.0));
        // A binary program honours an explicit wider arity: the extra axes
        // exist in the tree but the program never descends them, so only
        // the binary skeleton of the arity-3 tree is visited.
        let binary = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        let request =
            format!(r#"{{"kind": "run", "program": "{binary}", "height": 3, "arity": 3}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "status").as_str(),
            Some("ok"),
            "{response}"
        );
        assert_eq!(field(&response, "nodes"), Value::Number(13.0));
    }

    #[test]
    fn trees_beyond_the_node_bound_are_typed_bad_requests() {
        let service = quick_service();
        let binary = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        let ternary = json::escape(corpus::TERNARY_SUM_PARALLEL_SRC);
        let next = format!(r#"{{"kind": "run", "program": "{binary}", "height": 3}}"#);
        let over = "more than 65535 nodes";
        for (request, reason) in [
            // 8^16 alone is about 2.8e14 nodes.
            (
                format!(r#"{{"kind": "run", "program": "{binary}", "arity": 8, "height": 16}}"#),
                over,
            ),
            // 88,573 nodes: over the bound by one ternary level.
            (
                format!(r#"{{"kind": "run", "program": "{ternary}", "height": 11}}"#),
                over,
            ),
            (
                format!(r#"{{"kind": "tune", "program": "{binary}", "arity": 8, "height": 16}}"#),
                over,
            ),
            (
                format!(r#"{{"kind": "tune", "program": "{binary}", "arity": 3, "height": 11}}"#),
                over,
            ),
            // A height whose node count overflows usize.
            (
                format!(r#"{{"kind": "run", "program": "{binary}", "height": 1e300}}"#),
                over,
            ),
            (
                format!(r#"{{"kind": "run", "program": "{binary}", "height": 0}}"#),
                "at least 1",
            ),
        ] {
            let response = service.handle_line(&request);
            assert_eq!(
                field(&response, "code").as_str(),
                Some("bad_request"),
                "{request} -> {response}"
            );
            let error = field(&response, "error");
            assert!(error.as_str().unwrap().contains(reason), "{response}");
            let response = service.handle_line(&next);
            assert_eq!(field(&response, "nodes"), Value::Number(7.0), "{response}");
        }
        // The bound itself is allowed.
        let request = format!(r#"{{"kind": "run", "program": "{binary}", "height": 16}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "nodes"),
            Value::Number(65_535.0),
            "{response}"
        );
    }

    #[test]
    fn omitted_heights_clamp_to_the_node_bound() {
        let binary = corpus::size_counting_sequential();
        let shape = |arity: u8, default: usize| {
            let request = std::collections::BTreeMap::from([(
                String::from("arity"),
                Value::Number(arity as f64),
            )]);
            parse_tree_shape(&request, &binary, default)
        };
        assert_eq!(shape(2, DEFAULT_TUNE_HEIGHT), Ok((2, 8)));
        // 5^8 / 4 ≈ 97,656 nodes at height 8; height 7 has 19,531.
        assert_eq!(shape(5, DEFAULT_TUNE_HEIGHT), Ok((5, 7)));
        // Height 7 would be 299,593 nodes; height 6 has 37,449.
        assert_eq!(shape(8, DEFAULT_TUNE_HEIGHT), Ok((8, 6)));
        assert_eq!(shape(8, DEFAULT_RUN_HEIGHT), Ok((8, 6)));
    }

    #[test]
    fn out_of_range_arities_are_typed_bad_requests() {
        let service = quick_service();
        let ternary = json::escape(corpus::TERNARY_SUM_PARALLEL_SRC);
        let binary = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        for request in [
            // Below the minimum, above MAX_ARITY, non-integer.
            format!(r#"{{"kind": "run", "program": "{binary}", "arity": 1}}"#),
            format!(r#"{{"kind": "run", "program": "{binary}", "arity": 9}}"#),
            format!(r#"{{"kind": "run", "program": "{binary}", "arity": 2.5}}"#),
            // A ternary program on a binary tree would strand axis 2.
            format!(r#"{{"kind": "run", "program": "{ternary}", "arity": 2}}"#),
            format!(r#"{{"kind": "tune", "program": "{binary}", "arity": 0}}"#),
        ] {
            let response = service.handle_line(&request);
            assert_eq!(
                field(&response, "status").as_str(),
                Some("error"),
                "{response}"
            );
            assert_eq!(
                field(&response, "code").as_str(),
                Some("bad_request"),
                "{response}"
            );
        }
    }

    #[test]
    fn tune_requests_answer_winner_certificate_and_candidate_table() {
        let service = quick_service();
        let program = json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC);
        let request =
            format!(r#"{{"id": 7, "kind": "tune", "program": "{program}", "height": 5}}"#);
        let response = service.handle_line(&request);
        assert_eq!(
            field(&response, "status").as_str(),
            Some("ok"),
            "{response}"
        );
        assert_eq!(field(&response, "cached"), Value::Bool(false));
        let winner = field(&response, "winner");
        let winner = winner.as_object().unwrap();
        let certificate = winner["certificate"].as_object().unwrap();
        assert_eq!(certificate["kind"].as_str(), Some("equivalence"));
        assert!(certificate["engine"].as_str().is_some());
        assert!(certificate["soundness"].as_str().is_some());
        let candidates = field(&response, "candidates");
        assert!(
            !candidates.as_array().unwrap().is_empty(),
            "the candidate table must be reported: {response}"
        );
        // The identical request again answers from the tune cache.
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "cached"), Value::Bool(true));
        let stats = service.handle_line(r#"{"kind": "stats"}"#);
        let parsed = json::parse(&stats).unwrap();
        let codegen = parsed.as_object().unwrap()["codegen"].as_object().unwrap();
        assert_eq!(codegen["tunes"], Value::Number(1.0));
    }

    #[test]
    fn tune_requests_refuse_untunable_programs_and_stay_up() {
        let service = quick_service();
        // An already-fused single-pass Main has no fusable run to tune.
        let program = json::escape(corpus::SIZE_COUNTING_FUSED_SRC);
        let request = format!(r#"{{"kind": "tune", "program": "{program}", "height": 4}}"#);
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "status").as_str(), Some("error"));
        assert_eq!(field(&response, "code").as_str(), Some("untunable"));
        // The service keeps answering.
        let response = service.handle_line(r#"{"kind": "stats"}"#);
        assert_eq!(field(&response, "status").as_str(), Some("ok"));
    }

    #[test]
    fn warm_start_preloads_and_stats_report_it() {
        let service = quick_service();
        let preloaded = service.warm_start();
        assert!(preloaded >= 10, "corpus + fusion pairs, got {preloaded}");
        let response = service.handle_line(r#"{"id": 9, "kind": "stats"}"#);
        let parsed = json::parse(&response).unwrap();
        let object = parsed.as_object().unwrap();
        assert_eq!(object["status"].as_str(), Some("ok"));
        let cache = object["cache"].as_object().unwrap();
        assert_eq!(cache["entries"], Value::Number(preloaded as f64));
        // A corpus query after warm start is a cache hit.
        let program = json::escape(corpus::CYCLETREE_PARALLEL_SRC);
        let request = format!(r#"{{"kind": "race", "program": "{program}"}}"#);
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "cached"), Value::Bool(true));
    }

    #[test]
    fn non_utf8_lines_answer_an_error_and_the_service_keeps_running() {
        let service = quick_service();
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\xff\xfe garbage\n");
        input.extend_from_slice(b"{\"id\": 1, \"kind\": \"stats\"}\n");
        let mut output = Vec::new();
        serve_lines(&service, &input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(field(lines[0], "status").as_str(), Some("error"));
        assert_eq!(field(lines[1], "status").as_str(), Some("ok"));
    }

    #[test]
    fn oversized_lines_answer_an_error_without_buffering_the_line() {
        let service = quick_service();
        let mut input: Vec<u8> = Vec::with_capacity(MAX_REQUEST_LINE_BYTES + 64);
        input.resize(MAX_REQUEST_LINE_BYTES + 10, b'[');
        input.push(b'\n');
        input.extend_from_slice(b"{\"id\": 1, \"kind\": \"stats\"}\n");
        let mut output = Vec::new();
        serve_lines(&service, &input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(field(lines[0], "status").as_str(), Some("error"));
        assert_eq!(
            field(lines[0], "code").as_str(),
            Some("request_too_large"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        assert_eq!(field(lines[1], "status").as_str(), Some("ok"));
    }

    #[test]
    fn two_lane_scheduler_routes_cold_to_workers_and_warm_inline() {
        let service = quick_service();
        let program = json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC);
        let request = format!(r#"{{"kind": "race", "program": "{program}"}}"#);
        // Cold: through the worker pool.
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "status").as_str(), Some("ok"));
        assert_eq!(field(&response, "degraded"), Value::Bool(false));
        // Warm: inline on the connection thread.
        let response = service.handle_line(&request);
        assert_eq!(field(&response, "cached"), Value::Bool(true));
        let stats = service.handle_line(r#"{"kind": "stats"}"#);
        let parsed = json::parse(&stats).unwrap();
        let sched = parsed.as_object().unwrap()["sched"].as_object().unwrap();
        assert_eq!(sched["cold_executed"], Value::Number(1.0));
        assert_eq!(sched["warm_inline"], Value::Number(1.0));
        assert_eq!(sched["shed"], Value::Number(0.0));
    }

    #[test]
    fn an_expired_deadline_answers_deadline_exceeded_and_degraded_stays_zero() {
        // Every engine run stalls far past the 50 ms budget: the request
        // answers the typed error, and the stats line still carries the
        // `degraded` wire constant.
        let service = Service::new(&ServeOptions {
            deadline_ms: 50,
            faults: Some(Arc::new(
                FaultPlan::builder(5).engine_stall(1.0, 60_000).build(),
            )),
            ..quick_options()
        });
        let program = json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC);
        let response =
            service.handle_line(&format!(r#"{{"kind": "race", "program": "{program}"}}"#));
        assert_eq!(
            field(&response, "code").as_str(),
            Some("deadline_exceeded"),
            "{response}"
        );
        let stats = json::parse(&service.handle_line(r#"{"kind": "stats"}"#)).unwrap();
        let serving = stats.as_object().unwrap()["serving"].as_object().unwrap();
        assert_eq!(serving["deadline_hits"], Value::Number(1.0));
        assert_eq!(serving["cancelled_runs"], Value::Number(1.0));
        assert_eq!(serving["degraded"], Value::Number(0.0));
    }

    #[test]
    fn full_cold_queues_shed_with_a_typed_overloaded_error() {
        // One worker stalled 400 ms per engine run, one queue slot: three
        // concurrent cold queries cannot all be admitted — at least one is
        // shed with `overloaded`, and every admitted one still answers.
        let service = Arc::new(Service::new(&ServeOptions {
            workers: 1,
            cold_queue: 1,
            faults: Some(Arc::new(
                FaultPlan::builder(11).engine_stall(1.0, 400).build(),
            )),
            ..quick_options()
        }));
        let programs = [
            corpus::SIZE_COUNTING_PARALLEL_SRC,
            corpus::CYCLETREE_PARALLEL_SRC,
            corpus::TREE_MUTATION_ORIGINAL_SRC,
        ];
        let responses: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = programs
                .iter()
                .map(|source| {
                    let service = Arc::clone(&service);
                    let request = format!(
                        r#"{{"kind": "race", "program": "{}"}}"#,
                        json::escape(source)
                    );
                    scope.spawn(move || service.handle_line(&request))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let shed = responses
            .iter()
            .filter(|r| r.contains(r#""code":"overloaded""#))
            .count();
        let answered = responses
            .iter()
            .filter(|r| field(r, "status").as_str() == Some("ok"))
            .count();
        assert!(
            shed >= 1,
            "queue of 1 cannot hold two waiters: {responses:?}"
        );
        assert!(
            answered >= 1,
            "admitted queries still answer: {responses:?}"
        );
        assert_eq!(shed + answered, 3, "{responses:?}");
        let stats = service.handle_line(r#"{"kind": "stats"}"#);
        let parsed = json::parse(&stats).unwrap();
        let sched = parsed.as_object().unwrap()["sched"].as_object().unwrap();
        assert_eq!(sched["shed"], Value::Number(shed as f64));
    }

    #[test]
    fn shutdown_refuses_new_work_answers_stats_and_drains() {
        let service = quick_service();
        let response = service.handle_line(r#"{"id": 7, "kind": "shutdown"}"#);
        assert_eq!(field(&response, "status").as_str(), Some("ok"));
        assert_eq!(field(&response, "draining"), Value::Bool(true));
        assert!(service.is_shutting_down());
        // New verification work is refused with the typed code…
        let program = json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC);
        let refused =
            service.handle_line(&format!(r#"{{"kind": "race", "program": "{program}"}}"#));
        assert_eq!(field(&refused, "code").as_str(), Some("shutting_down"));
        // …but stats stay observable during the drain.
        let stats = service.handle_line(r#"{"kind": "stats"}"#);
        assert_eq!(field(&stats, "status").as_str(), Some("ok"));
        assert!(service.finish(), "nothing in flight: drain is clean");
    }

    #[test]
    fn serve_lines_speaks_ndjson_until_eof() {
        let service = quick_service();
        let input = b"{\"id\": 1, \"kind\": \"stats\"}\n\n{\"id\": 2, \"kind\": \"stats\"}\n";
        let mut output = Vec::new();
        serve_lines(&service, &input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "blank lines are skipped");
        assert_eq!(field(lines[0], "id"), Value::Number(1.0));
        assert_eq!(field(lines[1], "id"), Value::Number(2.0));
    }
}
