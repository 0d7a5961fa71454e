//! The engine portfolio: which decision procedures can answer which query
//! kinds, and the adapter that runs one engine on one query.
//!
//! The paper answers every query through one MONA pipeline; the
//! reproduction has three complementary procedures instead, and this module
//! is where they are normalized into interchangeable portfolio members:
//!
//! * [`Engine::Configuration`] — the §3 stack-configuration abstraction
//!   (race queries),
//! * [`Engine::Trace`] — the reference interpreter (race queries
//!   dynamically; equivalence queries differentially, including the
//!   Theorem 3 dependence-order condition),
//! * [`Engine::Automata`] — the Thatcher–Wright compilation to tree
//!   automata, *unbounded* on the fragment it covers (all three query
//!   kinds: validity directly, races via the structural access-summary
//!   analysis, equivalence via the fusion-correspondence matcher — on a
//!   parallel side after erasing its race-free `Par`s to their sequential
//!   order, Theorem 2),
//! * [`Engine::BoundedEnumeration`] — exhaustive model enumeration up to a
//!   node bound (validity queries).
//!
//! Each bounded search has one owner.  The automata engine answers race
//! and equivalence queries only when it proves them (`RaceFree`,
//! `Equivalent`) and otherwise skips, so a race witness always comes from
//! [`Engine::Configuration`] and a counterexample from [`Engine::Trace`].

use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use retreet_analysis::corresp::check_fusion_correspondence;
use retreet_analysis::equiv::{check_equivalence_cancellable, EquivOptions, EquivVerdict};
use retreet_analysis::race::{
    check_data_race_cancellable, check_data_race_dynamic_cancellable, RaceOptions, RaceVerdict,
};
use retreet_analysis::summary::{structural_race_analysis, StructuralRaceAnalysis};
use retreet_lang::ast::Program;
use retreet_lang::rewrite::erase_par;
use retreet_lang::validate::program_has_parallelism;
use retreet_mso::bounded::{check_validity_cancellable, BoundedVerdict};
use retreet_mso::compile;
use retreet_store::fault::{FaultPlan, FaultSite, InjectedFault};

use crate::error::EngineSkip;
use crate::query::{Query, QueryKind};
use crate::verdict::{Outcome, Soundness};

/// One member of the verification portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The configuration-enumeration engine of §3 (race queries).
    Configuration,
    /// The trace (reference-interpreter) engine (race and equivalence
    /// queries).
    Trace,
    /// The unbounded tree-automata engine — the reproduction's stand-in
    /// for MONA.  Answers validity queries on the core fragment directly,
    /// proves race-freedom through the structural access-summary analysis
    /// and equivalence through the fusion-correspondence matcher.  When a
    /// pair has a parallel side and does not correspond as written, each
    /// `Par` side that erases exactly ([`erase_par`]) and is structurally
    /// race-free stands for its erasure (Theorem 2), and the erased pair
    /// is matched instead.  A race or equivalence query it cannot prove is
    /// skipped, never searched: the bounded engines own those searches and
    /// their witnesses.
    Automata,
    /// Bounded validity by exhaustive model enumeration.
    BoundedEnumeration,
}

impl Engine {
    /// Every engine, in the façade's preferred dispatch order (most
    /// authoritative first).
    pub const ALL: [Engine; 4] = [
        Engine::Automata,
        Engine::Configuration,
        Engine::Trace,
        Engine::BoundedEnumeration,
    ];

    /// The engine's stable lower-case name (also its `Display` rendering).
    pub const fn name(self) -> &'static str {
        match self {
            Engine::Configuration => "configuration",
            Engine::Trace => "trace",
            Engine::Automata => "automata",
            Engine::BoundedEnumeration => "bounded-enumeration",
        }
    }

    /// Whether this engine can answer queries of the given kind at all.
    pub fn supports(self, kind: QueryKind) -> bool {
        matches!(
            (self, kind),
            (Engine::Automata, _)
                | (Engine::Configuration, QueryKind::DataRace)
                | (Engine::Trace, QueryKind::DataRace | QueryKind::Equivalence)
                | (Engine::BoundedEnumeration, QueryKind::Validity)
        )
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The resolved option set an engine run receives (built by
/// [`crate::VerifierBuilder`]).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct EngineConfig {
    /// Largest tree (in nodes) for race queries.
    pub race_nodes: usize,
    /// Largest tree (in nodes) for equivalence queries.
    pub equiv_nodes: usize,
    /// Largest tree (in nodes) for bounded validity queries.
    pub validity_nodes: usize,
    /// Deterministic field valuations per tree shape.
    pub valuations: usize,
}

impl EngineConfig {
    /// The race-engine options this configuration induces (default
    /// configuration-enumeration limits).
    pub fn race_options(&self) -> RaceOptions {
        RaceOptions::builder()
            .max_nodes(self.race_nodes)
            .valuations(self.valuations)
            .build()
    }

    /// The equivalence-engine options this configuration induces (the
    /// Theorem 3 dependence-order condition is always enforced).
    pub fn equiv_options(&self) -> EquivOptions {
        EquivOptions::builder()
            .max_nodes(self.equiv_nodes)
            .valuations(self.valuations)
            .build()
    }
}

/// What one engine produced for one query.
#[derive(Debug)]
pub(crate) enum EngineAnswer {
    /// The engine produced a verdict.
    Verdict(Outcome, Soundness),
    /// The engine declined the query (fragment restriction, unsupported
    /// kind); other portfolio members may still answer.
    Skip(EngineSkip),
    /// The engine observed the cooperative cancel flag and abandoned its
    /// enumeration: the query's deadline expired or the dispatch was
    /// aborted, so no verdict may be derived from the partial run.
    Cancelled,
    /// The engine panicked.  `catch_unwind` confines the unwind to the
    /// engine's own turn — the connection/worker thread survives and the
    /// next portfolio member still runs; only when *no* engine answers does
    /// the portfolio report failure.
    Panicked(String),
}

/// A cancel flag that is never raised, for single-engine runs (no deadline
/// or abort reaches them).
pub(crate) static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);

/// Runs `engine` on `query` under `config`, returning the outcome with its
/// soundness caveat, a skip report when the engine does not apply,
/// [`EngineAnswer::Cancelled`] when `cancel` was observed raised, or
/// [`EngineAnswer::Panicked`] when the engine's own code (or an injected
/// fault) panicked — the unwind never escapes this function.  Also reports
/// the engine's own wall-clock time.
///
/// `faults`, when set, may inject an engine panic (exercising the
/// `catch_unwind` isolation) or a pre-run stall (exercising the deadline
/// watchdog; the stall polls `cancel` so a cancelled stall still exits
/// promptly).
pub(crate) fn run_engine(
    engine: Engine,
    query: &Query<'_>,
    config: &EngineConfig,
    cancel: &AtomicBool,
    faults: Option<&FaultPlan>,
) -> (EngineAnswer, std::time::Duration) {
    let start = Instant::now();
    let answer = catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = faults {
            match plan.roll(FaultSite::EngineRun) {
                Some(InjectedFault::EnginePanic) => {
                    panic!("injected fault: {engine} engine panicked")
                }
                Some(InjectedFault::EngineStall { millis }) => {
                    let stall_until = Instant::now() + Duration::from_millis(millis);
                    while Instant::now() < stall_until {
                        if cancel.load(Ordering::Relaxed) {
                            return EngineAnswer::Cancelled;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
        }
        run_engine_inner(engine, query, config, cancel)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        EngineAnswer::Panicked(message)
    });
    (answer, start.elapsed())
}

fn skip(engine: Engine, reason: impl Into<String>) -> EngineAnswer {
    EngineAnswer::Skip(EngineSkip {
        engine,
        reason: reason.into(),
    })
}

fn run_engine_inner(
    engine: Engine,
    query: &Query<'_>,
    config: &EngineConfig,
    cancel: &AtomicBool,
) -> EngineAnswer {
    if !engine.supports(query.kind()) {
        return skip(engine, format!("does not answer {} queries", query.kind()));
    }
    // An engine whose dispatch was already cancelled skips the whole run,
    // not just the remaining loop iterations.
    if cancel.load(Ordering::Relaxed) {
        return EngineAnswer::Cancelled;
    }
    match (engine, query) {
        (Engine::Automata, Query::DataRace(program)) => {
            match structural_race_analysis(program) {
                StructuralRaceAnalysis::RaceFree { .. } => answer((
                    Outcome::RaceFree {
                        trees_checked: 0,
                        configurations: 0,
                    },
                    Soundness::Unbounded,
                )),
                // A candidate pair survived the structural analysis.  The
                // bounded witness search belongs to `Engine::Configuration`,
                // so decline and let it answer at its own soundness.
                StructuralRaceAnalysis::Candidate { description, .. } => skip(
                    engine,
                    format!("structural candidate not discharged: {description}"),
                ),
            }
        }
        (Engine::Automata, Query::Equivalence(original, transformed)) => {
            if corresponds(original, transformed) || erased_pair_corresponds(original, transformed)
            {
                answer((
                    Outcome::Equivalent { trees_checked: 0 },
                    Soundness::Unbounded,
                ))
            } else {
                // No correspondence either way: the bounded counterexample
                // search belongs to `Engine::Trace`.
                skip(
                    engine,
                    "no fusion correspondence established in either direction",
                )
            }
        }
        (Engine::Configuration, Query::DataRace(program)) => {
            match check_data_race_cancellable(program, &config.race_options(), cancel) {
                Some(verdict) => answer(race_outcome(verdict, config.race_nodes)),
                None => EngineAnswer::Cancelled,
            }
        }
        (Engine::Trace, Query::DataRace(program)) => {
            match check_data_race_dynamic_cancellable(program, &config.race_options(), cancel) {
                Some(verdict) => answer(race_outcome(verdict, config.race_nodes)),
                None => EngineAnswer::Cancelled,
            }
        }
        (Engine::Trace, Query::Equivalence(original, transformed)) => {
            match check_equivalence_cancellable(
                original,
                transformed,
                &config.equiv_options(),
                cancel,
            ) {
                Some(EquivVerdict::Equivalent { trees_checked }) => answer((
                    Outcome::Equivalent { trees_checked },
                    Soundness::BoundedUpTo {
                        max_nodes: config.equiv_nodes,
                    },
                )),
                Some(EquivVerdict::CounterExample(ce)) => {
                    answer((Outcome::NotEquivalent(ce), Soundness::Unbounded))
                }
                None => EngineAnswer::Cancelled,
            }
        }
        (Engine::Automata, Query::Validity(formula)) => match compile::compile(formula) {
            Ok(compiled) => {
                let counterexamples = compiled.automaton.complement();
                if counterexamples.is_empty() {
                    answer((Outcome::Valid { trees_checked: 0 }, Soundness::Unbounded))
                } else {
                    // The complement is nonempty: extract a falsifying tree
                    // from it so the unbounded engine's negative verdicts
                    // carry a model just like the bounded engine's.
                    answer((
                        Outcome::Invalid(counterexamples.example_tree().map(Box::new)),
                        Soundness::Unbounded,
                    ))
                }
            }
            // Outside the compiler's fragment (too many variables, duplicate
            // binders): let the bounded engine answer instead.
            Err(err) => skip(engine, err.to_string()),
        },
        (Engine::BoundedEnumeration, Query::Validity(formula)) => {
            if !formula.free_fo_vars().is_empty() || !formula.free_so_vars().is_empty() {
                return skip(engine, "bounded validity requires a closed formula");
            }
            match check_validity_cancellable(formula, config.validity_nodes, cancel) {
                Some(BoundedVerdict::ValidUpTo {
                    max_nodes,
                    trees_checked,
                }) => answer((
                    Outcome::Valid { trees_checked },
                    Soundness::BoundedUpTo { max_nodes },
                )),
                Some(BoundedVerdict::CounterExample(tree)) => {
                    answer((Outcome::Invalid(Some(Box::new(tree))), Soundness::Unbounded))
                }
                None => EngineAnswer::Cancelled,
            }
        }
        _ => skip(engine, "engine/query pairing not implemented"),
    }
}

/// The fusion-correspondence matcher, tried in both directions.
fn corresponds(a: &Program, b: &Program) -> bool {
    check_fusion_correspondence(a, b).is_established()
        || check_fusion_correspondence(b, a).is_established()
}

/// The second unbounded equivalence proof, for pairs with a parallel side:
/// the pair's sequential forms correspond.
fn erased_pair_corresponds(original: &Program, transformed: &Program) -> bool {
    if !program_has_parallelism(original) && !program_has_parallelism(transformed) {
        return false;
    }
    match (sequential_form(original), sequential_form(transformed)) {
        (Some(a), Some(b)) => corresponds(&a, &b),
        _ => false,
    }
}

/// The sequential program `program` behaves like: itself without `Par`;
/// with `Par`, its exact erasure when the structural race analysis proves
/// it race-free (Theorem 2).  `None` when neither applies.
fn sequential_form(program: &Program) -> Option<Cow<'_, Program>> {
    if !program_has_parallelism(program) {
        return Some(Cow::Borrowed(program));
    }
    let erased = erase_par(program)?;
    structural_race_analysis(program)
        .is_race_free()
        .then_some(Cow::Owned(erased))
}

fn answer((outcome, soundness): (Outcome, Soundness)) -> EngineAnswer {
    EngineAnswer::Verdict(outcome, soundness)
}

/// Negative race/equivalence verdicts carry a concrete witness and are
/// therefore sound unconditionally; positive ones are bounded.
fn race_outcome(verdict: RaceVerdict, max_nodes: usize) -> (Outcome, Soundness) {
    match verdict {
        RaceVerdict::RaceFree {
            trees_checked,
            configurations,
        } => (
            Outcome::RaceFree {
                trees_checked,
                configurations,
            },
            Soundness::BoundedUpTo { max_nodes },
        ),
        RaceVerdict::Race(witness) => (Outcome::Race(Box::new(witness)), Soundness::Unbounded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_table_is_exact() {
        use QueryKind::*;
        assert!(Engine::Configuration.supports(DataRace));
        assert!(!Engine::Configuration.supports(Equivalence));
        assert!(!Engine::Configuration.supports(Validity));
        assert!(Engine::Trace.supports(DataRace));
        assert!(Engine::Trace.supports(Equivalence));
        assert!(!Engine::Trace.supports(Validity));
        assert!(Engine::Automata.supports(Validity));
        assert!(Engine::Automata.supports(DataRace));
        assert!(Engine::Automata.supports(Equivalence));
        assert!(Engine::BoundedEnumeration.supports(Validity));
        assert!(!Engine::BoundedEnumeration.supports(DataRace));
        assert!(!Engine::BoundedEnumeration.supports(Equivalence));
    }
}
