//! # retreet-repro — umbrella crate for the Retreet reproduction
//!
//! Reproduction of *"Reasoning about recursive tree traversals"* (Wang,
//! Liu, Zhang, Qiu; PPoPP 2021).  The entry point for every verification
//! question is the unified [`retreet_verify::Verifier`] façade:
//!
//! ```
//! use retreet_repro::retreet_verify::{Query, Verifier};
//! use retreet_repro::retreet_lang::corpus;
//!
//! let verifier = Verifier::builder()
//!     .max_nodes(3)      // exhaust every tree up to this many nodes
//!     .valuations(1)     // deterministic field valuations per shape
//!     .build();          // engines run in authority order; the first answer wins
//!
//! // Theorem 2 (data race), Theorem 3 (equivalence) and MSO validity all go
//! // through the same call:
//! let verdict = verifier
//!     .verify(Query::DataRace(&corpus::size_counting_parallel()))
//!     .unwrap();
//! assert!(verdict.is_race_free());
//! println!("{verdict}"); // verdict, engine provenance, soundness, timing
//! ```
//!
//! The workspace members underneath:
//!
//! * [`retreet_verify`] — **the façade**: `Verifier` builder, typed
//!   `Query` → `Verdict` pipeline, engine portfolio, sharded verdict cache
//!   with single-flight coalescing, batch fan-out, typed `VerifyError`s;
//! * [`retreet_serve`] — **the serving tier**: a long-running NDJSON
//!   service (stdin or TCP) over one shared `Verifier`, with corpus
//!   warm-start and per-response cache/coalesce provenance;
//! * [`retreet_lang`] — the Retreet language (AST, parser, blocks, read/write
//!   analysis, weakest preconditions, the §5 program corpus);
//! * [`retreet_logic`] — the linear-integer-arithmetic solver substrate;
//! * [`retreet_mso`] — MSO over binary trees, bounded checking and the
//!   tree-automata decision procedure (the MONA substitute);
//! * [`retreet_analysis`] — the engine layer: configurations, data-race
//!   detection and fusion-equivalence checking;
//! * [`retreet_transform`] — **the certified transform tier**: AST-level
//!   traversal fusion, parallel schedule synthesis, and the certified
//!   schedule autotuner (`tune` — partial-fusion × parallelization
//!   enumeration, batch certification, cost-scored winners), each
//!   returning a `CertifiedTransform` whose certificate is a façade
//!   verdict;
//! * [`retreet_codegen`] — **the execution tier**: flat `u32`-indexed trees,
//!   a register bytecode + compiler, a certified iterative-lowering pass
//!   (self-recursion → explicit worklist loops, each gated by a façade
//!   equivalence verdict) and a stack-free VM, with the reference
//!   interpreter kept as the differential baseline;
//! * [`retreet_runtime`] — owned trees, fused and rayon-parallel schedules,
//!   capability types gated by transform certificates, and
//!   `exec::ProgramExecutor` — tiered execution preferring compiled
//!   bytecode with interpreter fallback;
//! * [`retreet_css`] / [`retreet_cycletree`] — the two real-world case-study
//!   substrates of the evaluation.
//!
//! # MIGRATION — old per-crate entry points → the façade + transform tier
//!
//! The PR 1 deprecated option-struct shims have been **removed**; every
//! in-tree caller goes through the façade (verdicts) or the transform tier
//! (certified programs).  New code should use the mappings below.
//!
//! | Old call | New call |
//! |----------|----------|
//! | `retreet_analysis::race::check_data_race(&p, &RaceOptions { max_nodes, valuations, .. })` | `Verifier::builder().race_nodes(n).valuations(v).build().verify(Query::DataRace(&p))` |
//! | `retreet_analysis::equiv::check_equivalence(&a, &b, &EquivOptions { .. })` | `verifier.verify(Query::Equivalence(&a, &b))` |
//! | `retreet_mso::bounded::check_validity(&f, bound)` | `Verifier::builder().validity_nodes(bound).engines([Engine::BoundedEnumeration]).build().verify(Query::Validity(&f))` |
//! | `retreet_mso::compile::is_valid(&f)` | `verifier.verify(Query::Validity(&f))` (the automata engine wins where the fragment allows; `Soundness::Unbounded` in the verdict) |
//! | `VerifiedFusion::verify(&a, &b, &EquivOptions)` *(removed)* | `VerifiedFusion::verify_with(&verifier, &a, &b)`, or synthesize: `retreet_transform::fuse_main_passes(&verifier, &original)` + `VerifiedFusion::from_certified(&t)` |
//! | `VerifiedParallelization::verify(&p, &RaceOptions)` *(removed)* | `VerifiedParallelization::verify_with(&verifier, &p)`, or synthesize: `retreet_transform::synthesize_parallel_main(&verifier, &sequential)` + `VerifiedParallelization::from_certified(&t)` |
//! | `VerifiedFusion::run_fused2(&mut tree, &a, &b)` / `run_fused3(…)` *(removed)* | the arity-generic `VerifiedFusion::run_fused(&mut tree, &[&a, &b, …])` |
//! | `retreet_runtime::visit::fuse2(&a, &b)` / `fuse3(…)` *(removed)* | `retreet_runtime::visit::fuse_all(&[&a, &b, …])` |
//! | hand-writing a fused program and checking `Query::Equivalence` | `retreet_transform::fuse_main_passes(&verifier, &original)` — the fused program is synthesized and returned with its certificate |
//! | `fuse_main_passes(&verifier, &p)` as the *only* schedule considered | `retreet_transform::tune(&verifier, &p, &TuneOptions::default(), &mut cost)` — whole-pass fusion is one point in the enumerated partial-fusion × parallelization space; the tuner certifies every candidate in one batch and returns the measured winner (never slower than best-of{original, canonical fusion}) plus the full scored table |
//! | hand-picking between the fused and the parallel schedule by guesswork | `retreet_runtime::tune_and_compile(&verifier, &p, &options)` — the VM-backed cost model: each certified candidate compiled once through `ProgramExecutor` (interpreter timings refused), probe-run differential-checked, best-of-batches measured; returns the `TunedSchedule` *and* the winner's ready-to-run executor |
//! | hand-writing a parallel `Main` and checking `Query::DataRace` | `retreet_transform::synthesize_parallel_main(&verifier, &sequential)` (pass level) / `retreet_transform::parallelize_recursive_calls(&verifier, &p)` (sibling recursion) |
//! | `retreet_css::analysis_model::verify_css_fusion(&EquivOptions)` *(removed)* | `retreet_css::analysis_model::verify_css_fusion_with(&verifier)` (verdict only) or `certify_css_fusion(&verifier)` (synthesized certified transform) |
//! | mutating `RaceOptions` / `EquivOptions` / `EnumOptions` fields | `RaceOptions::builder()…build()` etc., or set the budget once on the `Verifier` builder |
//! | repeated `Solver::check(&growing_system)` along a search | [`retreet_logic::IncrementalSolver`]: `push()` / `assume_all(&new_atoms)` / `check()` / `pop()` over a shared [`retreet_logic::SolverCache`] — the SAT prefix is never re-solved and a cached-UNSAT prefix prunes the extension outright |
//! | `Solver::check` on systems that repeat across a query | `Solver::check_cached(&system, &cache)` (component-decomposed memoization keyed by [`retreet_logic::intern`]-ed atom ids) |
//! | per-query `BlockTable::build` + re-summarized paths | `retreet_analysis::AnalysisContext::new(&p)` — block table, field sets, lazy path summaries, solver cache and symbol table, built once per engine run and shared by all of its trees |
//! | `retreet_analysis::AnalysisContext::for_program(&p)` (memoized process-wide per program) | **removed**: call `AnalysisContext::new(&p)` once per run (it now returns the context itself, not an `Arc`).  A repeated query is a verdict-cache hit, so the registry only held memory — and its lock while a context was built |
//! | the seed (pre-optimization) engine behaviour | preserved verbatim in `retreet_analysis::naive` (differential tests and the `bench_engines` "before" column only) |
//! | `CacheStats { hits, misses, entries }` | gains `collisions` (an insert that found a same-key, different-subjects resident; the resident entry is kept, never evicted by the collider, and the lookup side stays a plain miss so `hits + misses == lookups` always) — exhaustive-match constructors must add the field |
//! | `Engine::Automata.supports(kind)` == `false` for `DataRace` / `Equivalence` | **now `true` for all three query kinds**: the automata engine proves race-freedom through the structural access-summary analysis and equivalence through the fusion-correspondence matcher — for a pair with a parallel side, after erasing each race-free `Par` to its sequential order (`retreet_lang::rewrite::erase_par`) — both at `Soundness::Unbounded`; code that assumed `verify_with_engine(Engine::Automata, Query::DataRace(..))` errors with `NoApplicableEngine` must handle a verdict (the engine still *skips* every race or equivalence query it cannot prove: a structural race candidate, a non-corresponding pair) |
//! | asserting `verdict.engine == Engine::Trace` (or `trees_checked() > 0`) on §5 race/equivalence portfolio verdicts | the default portfolio now answers the positive ones with `Engine::Automata`, `Soundness::Unbounded`, and `trees_checked() == 0` (no model enumeration backs an unbounded answer; for the negative ones see the provenance row below); pin `.engines([Engine::Configuration])` / `[Engine::Trace]` to keep exercising the bounded tiers, or assert on `verdict.soundness` instead of the model count |
//! | re-verifying to strengthen a cached bounded verdict | the cache upgrades in place: an unbounded verdict replaces a resident `BoundedUpTo` entry for the same key, and a bounded re-run never downgrades a resident unbounded (or wider-bounded) verdict — `Soundness::covers` is the replacement criterion |
//! | `Verdict { outcome, engine, soundness, elapsed, cached }` | gains `coalesced: bool` (the verdict was adopted from an identical in-flight query's single engine run) |
//! | `.parallel(true)` first-definitive-verdict-wins dispatch | **removed** (it could cache a bounded positive over a pending engine's unbounded refutation, nondeterministically).  Dispatch decides by *authority* — dispatch order, unbounded engines first; the parallel portfolio that replaced it is gone too (see the `VerifierBuilder::parallel` row) |
//! | looping `verifier.verify(q)` over a batch | `verifier.verify_batch(&[q1, q2, …])` — worker-thread fan-out, results in input order, duplicates coalesced |
//! | hand-rolled serving loops around a `Verifier` | `retreet_serve::Service` + `serve_lines` / `serve_tcp` (NDJSON protocol), or the `retreet-serve` binary (`--listen ADDR --warm-start`) |
//! | `check_data_race` / `check_equivalence` / `check_validity` in a run that must stop on a deadline | the `*_cancellable(…, cancel: &AtomicBool)` variants — return `None` instead of a verdict once the flag is raised |
//! | `retreet_analysis::interp::run(&p, &tree)` in a hot loop | `retreet_runtime::exec::ProgramExecutor::new(&p)` (or `with_verifier(&verifier, &p)` for certified iterative lowering) + `executor.run(&tree)` — compile once, run on the VM many times, interpreter fallback when the program doesn't compile |
//! | one-shot compiled execution | `retreet_runtime::run_compiled(&p, &tree)` / `run_compiled_certified(&verifier, &certified_transform, &tree)` |
//! | trusting a hand-written iterative rewrite of a recursive traversal | `retreet_codegen::compile_with_lowering(&verifier, &p)` — the lowering is synthesized, then certified via `Query::Equivalence` against a reconstruction; refusals carry the counterexample tree and the function stays on frame bytecode |
//! | `Verdict { outcome, engine, soundness, elapsed, cached, coalesced }` | unchanged; the `degraded: bool` a later revision added is removed again (see the `Verdict::degraded` row) |
//! | `verifier.verify(q)` with unbounded patience | `Verifier::builder().default_deadline(Duration)…` (or `ServeOptions::deadline_ms` / `--deadline-ms`): the watchdog raises the cooperative cancel flag at expiry and the call resolves *typed* to `VerifyError::DeadlineExceeded`, never a wrong or truncated answer |
//! | `--warm-start` as the only restart story | `Verifier::builder().persist(path)` / `ServeOptions::persist` / `--persist PATH`: a crash-safe `retreet_store` record log written through on every fresh verdict and replayed on startup — warm start generalized to every verdict ever computed; `--fail-open` refuses a corrupt store instead of skipping bad records |
//! | `ServeOptions { race_nodes, equiv_nodes, validity_nodes, valuations, parallel, cache_capacity }` | gains the robustness knobs `workers`, `cold_queue`, `deadline_ms`, `max_connections`, `drain_ms`, `persist`, `fail_open`, `faults` — exhaustive literals must append `..ServeOptions::default()` |
//! | `Service::new(&options)` panicking on a bad store | `Service::try_new(&options)` → `Result<Service, VerifyError>` (`Service::new` still panics); `Service::finish()` drains in-flight work, joins the cold-lane workers and flushes the store — call it (or send `{"kind":"shutdown"}`) before exit |
//! | matching serve error responses on the `error` text | every error response now carries a machine-readable `"code"` (`bad_request`, `request_too_large`, `overloaded`, `shutting_down`, `deadline_exceeded`, `unsupported`, `internal`) — dispatch on the code, not the prose |
//! | `serve_tcp(service, listener)` accepting forever | bounded by `ServeOptions::max_connections` (excess clients get one `overloaded` line at accept) and returns cleanly after a shutdown request, draining via `Service::finish()` |
//! | `retreet_lang::ast::Dir::{Left, Right}` | `retreet_lang::ast::ChildAxis(u8)` — `ChildAxis::LEFT` / `ChildAxis::RIGHT` are axes 0 and 1; programs address any axis as `n.c<k>` (with `n.l` / `n.r` as spelling-preserving aliases for `c0` / `c1`) and declare higher arities with an `arity K;` header (2 ≤ K ≤ `MAX_ARITY`, default 2) |
//! | `Dir::flip()` to realign a two-call fusion order | **removed** — the fusion builder aligns *k*-ary call orders to the first component's axis permutation directly; no two-element special case survives |
//! | `NodeSel::{Cur, Left, Right}` in bytecode | `NodeSel::{Cur, Child(ChildAxis)}` — child selectors carry the axis |
//! | `IterativeLowering { pre, mid, post, .. }` (three fixed segments) | `IterativeLowering { axes, call_results, segments, .. }` — `axes.len() + 1` straight-line segments, one per gap around the recursive calls, at any arity |
//! | `FlatTree` with `left` / `right` index arrays | `FlatTree::from_value_tree_kary(&tree, &fields, arity)` — one `u32` child column per axis (`from_value_tree` remains the binary shorthand) |
//! | `retreet_mso::encode::check_overlap(&a, &b)` / `guards_equivalent(&a, &b)` | **removed**: `check_overlap_k(&a, &b, 2)` / `guards_equivalent_k(&a, &b, 2)`.  Every arity, binary included, is decided by the direct region case analysis and the propositional check over the `2^k` child-nil patterns; no region or guard question compiles an automaton any more |
//! | `retreet_mso::encode::overlap_formula(&a, &b)` / `overlap_formula_k(&a, &b, arity)` | **removed** from the public API; the MSO formula builders live on only as the encoder's test oracle.  `retreet_mso::compile` / `is_valid` stay public for `Query::Validity` |
//! | `OverlapVerdict::Overlap(Option<LabeledTree>)` | `OverlapVerdict::Overlap` — no example tree (it was an encoding-level shape, never a program witness) |
//! | `StructuralRaceAnalysis::Candidate { description, example }` | `Candidate { description }`; race witnesses come from `Engine::Configuration`'s bounded search |
//! | `TreeCorpus::new(max_nodes, &fields, valuations)` (binary only) | `TreeCorpus::with_arity(arity, max_nodes, &fields, valuations)` — k-ary shape enumeration; `ValueTree::complete_kary(arity, height, &fields, init)` builds complete k-ary measurement trees |
//! | `run` / `tune` service requests pinned to binary trees | both accept an optional `"arity"` field (2 ≤ arity ≤ 8, at least the program's declared arity; out-of-range answers a typed `bad_request`); `TuneOptions` gains `tree_arity` |
//! | `ValueTree::complete_kary(arity, height, &fields, \|_, _\| 0)` + `fill_fields(&fields, seed)` + `executor.run(&tree)` when only `returns` are needed | `executor.run_complete(arity, height, seed)` → `CompleteRun { returns, nodes, tier }`: the VM tier builds the seeded tree straight into a `FlatTree` (`FlatTree::complete_kary`, same numbering and the same `vtree::field_values` stream), with no `ValueTree` built, flattened or written back; the interpreter tier still builds the `ValueTree` |
//! | `run` / `tune` heights capped at 16 whatever the arity | the complete tree is bounded by node count: more than 65,535 nodes (the binary height-16 count, `vtree::complete_kary_len`) is a typed `bad_request`, and an omitted height is clamped to fit |
//! | `VerifierBuilder::parallel(true)` / `ServeOptions::parallel` / `retreet-serve --parallel` | **removed**: every dispatch runs the applicable engines one after the other in authority order, the one path the default always took.  The parallel portfolio returned the same verdict and witness, only later (it started engines whose answers the authority order discarded); drop the call, the field or the flag.  `verify_batch` still fans a batch out over worker threads |
//! | `Verdict::degraded` / `ServingStats::degraded` | **removed**: only the parallel portfolio produced degraded verdicts.  A deadline or `abort_inflight` now always resolves to `VerifyError::DeadlineExceeded` (counted in `ServingStats::deadline_hits`); the NDJSON wire keeps `"degraded":false` on verdict lines and `"degraded":0` in the stats line as constants |
//! | `VerifierBuilder::check_dependence_order(bool)` | **removed**: the façade always enforces the Theorem 3 dependence-order condition (the default every caller used).  To compare observable behaviour only, call `retreet_analysis::equiv::check_equivalence` with `EquivOptions::builder().check_dependence_order(false)` |
//! | `VerifierBuilder::enumeration(EnumOptions)` | **removed** (no caller): the race engines use `EnumOptions::default()`.  Custom limits go through `retreet_analysis::race::check_data_race` with `RaceOptions::builder().enumeration(…)` |
//! | `EngineConfig { …, check_dependence_order, enumeration }` | `EngineConfig { race_nodes, equiv_nodes, validity_nodes, valuations }`.  The config is hashed into every cache key, so a verdict store persisted by an older build misses once per query and is then rewritten; the record format is unchanged |
//! | `rayon::spawn` (the in-tree shim) | **removed** (its only caller was the parallel portfolio): use `rayon::scope` + `Scope::spawn`, or `rayon::join` |
//! | `Engine::Trace` / `Soundness::BoundedUpTo` on the equivalence of a sequential program and its race-free parallel schedule (e.g. `ternary_sum_sequential` vs `ternary_sum_parallel`, the tuner's `par-passes` / `par-rec` candidates) | `Engine::Automata` / `Soundness::Unbounded` with `trees_checked() == 0`: a `Par` side that erases exactly and is structurally race-free is proved through its erasure (Theorem 2).  A racy `Par` side, a branch that returns or a local shared between branches still leaves the pair to `Engine::Trace` |
//! | `verdict.engine == Engine::Automata` on a race witness or an equivalence counterexample | negative race and equivalence verdicts now come from the engine that owns the bounded search: races from `Engine::Configuration` (or `Engine::Trace` when the portfolio omits it), counterexamples from `Engine::Trace`.  The automata engine skips instead of running that search itself, so the witness bytes and `Soundness::Unbounded` are unchanged, and a racy or non-equivalent dispatch counts two engine runs (the automata skip, then the owner's answer) instead of one |
//! | a serving tier parsing every `race` / `equivalence` request before its cache lookup | `verifier.cached(SourceQuery::DataRace(&text))` / `SourceQuery::Equivalence(&original, &transformed)` first: text byte-identical to a cached entry's printed programs is answered without parsing, validating or printing; a miss answers `None` and counts nothing, so parse and `verify` as before (that lookup counts the hit or miss).  `retreet-serve` does this for every such request |
//! | the verdict cache identifying a program by its AST (`==`, structural hash), sharing one `Arc<Program>` between entries | a program is identified by its `print_program` text, byte-compared; entries hold that text, not the AST.  The printer keeps the `n.l` / `n.c0` spelling that `Program`'s `==` ignores, so one program sent in both spellings holds two entries (one extra miss, the same verdict).  A library `Query` costs one print per program per lookup |
//! | a verdict store written before the cache keyed on program text | replays, but its keys hashed the AST, so each query misses once and is re-verified under its text key.  Replay now also parses and validates every stored program and skips (counts in `StoreStats::skipped`) a record that fails |
//! | `print_program` output for a program the printer could not spell back (a brace group inside a statement list, a straight-line block split off by braces, `par { … }` with fewer than two branches, a `Loc` parameter not named `n`) | printed so that it parses back to the same program: braces where the parser's block structure needs them, `par {` for fewer than two branches, the function's own `Loc` name.  Normalized programs, the corpus, its fusions and every tune candidate print byte-identically |
//! | the bounded race and equivalence searches fanning their tree and pair loops out over rayon workers | they run in index order on the calling thread and stop at the first witness, which is the lowest-index one by construction: the witness the single-worker path always returned, now on every host.  `retreet-analysis` no longer depends on `rayon`; to use more cores, send independent queries through `verify_batch` or the serve cold-lane workers |
//! | `RaceVerdict::RaceFree { configurations }` from a bounded race run | may be higher than before, and now always equals `retreet_analysis::naive::check_data_race`'s tally: grounding a path summary substituted one symbol at a time, so a run's shared symbol table could turn a grounded symbol into a local one and prune a feasible configuration (`kdtree_closest` at 3 nodes and 2 valuations: 4,600 → 4,604) |
//!
//! # Benchmarks
//!
//! `cargo run --release -p retreet-bench --bin bench_engines` writes
//! `BENCH_engines.json` at the repository root: every §5 experiment timed
//! through both the frozen naive engines and the optimized portfolio under
//! the quick and the full budget (schema `retreet-bench-engines/v2`; format
//! documented in `crates/README.md`).  CI's perf-smoke job runs the quick
//! budget with a generous wall-clock ceiling to catch accidental
//! exponential regressions.
//!
//! `cargo run --release -p retreet-bench --bin bench_transform` writes
//! `BENCH_transform.json` (schema `retreet-bench-transform/v2`): every
//! fusable §5 case synthesized and certified through the transform tier,
//! plus fused-vs-sequential runtime on all five families — both sides
//! compiled to the VM tier and differential-checked against the
//! interpreter before timing.  CI runs it in quick mode and fails on
//! certificate drift and on execution drift.
//!
//! `cargo run --release -p retreet-bench --bin bench_service` writes
//! `BENCH_service.json` (schema `retreet-bench-service/v3`): warm-cache
//! serving throughput and p50/p99 latency under 1/4/8 client threads,
//! cache hit and coalescing rates, a cold-burst single-flight check, and
//! three robustness phases — shed rate under a full cold queue, the
//! deadline-hit rate with engines stalled past the per-query deadline
//! (every such query must answer `deadline_exceeded`),
//! and the warm-hit rate after a cold restart from the persisted verdict
//! store (which must be exactly 1.0 with zero engine runs).  Every
//! response is verified against the paper's verdict — drift under
//! concurrency fails the run.
//!
//! `cargo run --release -p retreet-bench --bin bench_codegen` writes
//! `BENCH_codegen.json` (schema `retreet-bench-codegen/v1`): every
//! executable §5 workload compiled through the codegen tier and timed on
//! the reference interpreter, the bytecode VM and the VM running the
//! certified fusion, with one certificate line per iterative lowering
//! (fresh-then-cached serving path, `cached` / `coalesced` flags reported
//! honestly).  CI runs it in quick mode and fails on VM-vs-interpreter
//! drift.
//!
//! `cargo run --release -p retreet-bench --bin bench_tune` writes
//! `BENCH_tune.json` (schema `retreet-bench-tune/v2`): the certified
//! schedule autotuner run on all five §5 families (E1, E2, E3, E4a,
//! E5) — the full scored
//! candidate table (certified schedules with measured VM seconds and
//! their certificates' engine and soundness, refusals with their
//! witnesses), both baselines, and the winner with its certificate
//! provenance.  CI runs it in quick mode and fails on drift, on a tuned
//! cost above best-of{original, canonical fusion}, on a winner without
//! certificate provenance, and on a certified candidate whose
//! equivalence or race-freedom certificate is weaker than unbounded.
//!
//! Old verdict shapes map to [`retreet_verify::Outcome`] variants: race
//! witnesses, equivalence counterexamples and falsifying trees ride along
//! unchanged inside the unified [`retreet_verify::Verdict`], which adds
//! engine provenance ([`retreet_verify::Engine`]), a bounded-soundness
//! caveat ([`retreet_verify::Soundness`]) and wall-clock timing.  Errors
//! that used to be ad-hoc `String`s are now the typed
//! [`retreet_verify::VerifyError`] hierarchy.

#![forbid(unsafe_code)]

pub use retreet_analysis;
pub use retreet_codegen;
pub use retreet_css;
pub use retreet_cycletree;
pub use retreet_lang;
pub use retreet_logic;
pub use retreet_mso;
pub use retreet_runtime;
pub use retreet_serve;
pub use retreet_store;
pub use retreet_transform;
pub use retreet_verify;

// The façade types, re-exported at the top level for downstream brevity.
pub use retreet_verify::{Query, Verdict, Verifier, VerifyError};
