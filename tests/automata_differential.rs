//! The differential harness pinning the automata engine's unbounded
//! verdicts to the bounded engines.
//!
//! `Engine::Automata` answers race and equivalence queries with
//! `Soundness::Unbounded` (structural access summaries, the
//! fusion-correspondence matcher).  An unbounded engine that quietly
//! disagreed with the exhaustive bounded engines would be worse than no
//! engine at all, so every automata verdict here is checked against:
//!
//! * the bounded configuration engine (`Engine::Configuration`) and the
//!   dynamic trace engine (`Engine::Trace`), via the façade's
//!   single-engine hook `verify_with_engine` (no cache, no portfolio);
//! * the frozen pre-optimization engines in `retreet_analysis::naive`.
//!
//! The sweep covers the whole §5 corpus, every program the transform
//! layer generates, and 100+ proptest-randomized programs under
//! randomized budgets.
//!
//! A pair with a parallel side is proved by `Par` erasure (Theorem 2):
//! every automata positive on such a pair must rest on a `RaceFree`
//! structural verdict, and a racy side, a branch that returns or a local
//! shared between branches must leave the pair to `Engine::Trace`.
//!
//! One owner per bounded search: the automata engine only answers what it
//! proves (`RaceFree`, `Equivalent`) and skips everything else — a skip is
//! legal for any query, and `verify_with_engine` surfaces it as
//! `NoApplicableEngine`.  Witnesses come from the engines that own the
//! searches, so the default portfolio's negative verdict must carry,
//! byte for byte and at `Soundness::Unbounded`, the witness the owning
//! engine returns on its own (races → `Engine::Configuration`,
//! counterexamples → `Engine::Trace`).

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use retreet_analysis::equiv::{EquivOptions, EquivVerdict};
use retreet_analysis::naive;
use retreet_analysis::race::{RaceOptions, RaceVerdict};
use retreet_analysis::summary::structural_race_analysis;
use retreet_lang::ast::Program;
use retreet_lang::corpus;
use retreet_lang::parser::parse_program;
use retreet_lang::validate::program_has_parallelism;
use retreet_transform::{
    fuse_main_passes, parallelize_recursive_calls, synthesize_parallel_main, tune, CandidateStatus,
    ScheduleKind, TransformError, TuneOptions,
};
use retreet_verify::{Engine, Query, Soundness, Verifier, VerifyError};

/// One race query, all four race procedures, zero tolerated drift.
fn assert_race_agreement(label: &str, program: &Program, max_nodes: usize, valuations: usize) {
    let verifier = Verifier::builder()
        .race_nodes(max_nodes)
        .valuations(valuations)
        .build();
    let by_configuration = verifier
        .verify_with_engine(Engine::Configuration, Query::DataRace(program))
        .unwrap_or_else(|e| panic!("{label}: configuration engine failed: {e}"));
    let by_trace = verifier
        .verify_with_engine(Engine::Trace, Query::DataRace(program))
        .unwrap_or_else(|e| panic!("{label}: trace engine failed: {e}"));
    let by_naive = naive::check_data_race(
        program,
        &RaceOptions::builder()
            .max_nodes(max_nodes)
            .valuations(valuations)
            .build(),
    );

    // The pre-optimization engine and the optimized configuration engine
    // implement the same abstraction and must agree exactly.
    assert_eq!(
        by_configuration.is_race_free(),
        matches!(by_naive, RaceVerdict::RaceFree { .. }),
        "{label}: naive and configuration engines drifted"
    );
    // The dynamic trace engine only reports conflicts that actually occur,
    // so a static all-clear forces a dynamic all-clear.
    if by_configuration.is_race_free() {
        assert!(
            by_trace.is_race_free(),
            "{label}: trace engine found a race the configuration engine missed"
        );
    }

    match verifier.verify_with_engine(Engine::Automata, Query::DataRace(program)) {
        Ok(by_automata) => {
            // The automata engine only proves race-freedom, unbounded; a
            // race it must leave to the configuration engine.
            assert!(
                by_automata.is_race_free(),
                "{label}: the automata engine answered {:?}",
                by_automata.outcome
            );
            assert_eq!(by_automata.engine, Engine::Automata, "{label}");
            assert_eq!(by_automata.soundness, Soundness::Unbounded, "{label}");
            // An unbounded all-clear binds every bounded engine (the naive
            // engine agrees with the configuration engine, checked above).
            assert!(
                by_configuration.is_race_free() && by_trace.is_race_free(),
                "{label}: automata proved race-freedom, configuration said {:?}, trace said {:?}",
                by_configuration.outcome,
                by_trace.outcome
            );
        }
        // A skip is legal for any query: the bounded engines answer it.
        Err(VerifyError::NoApplicableEngine { .. }) => {}
        Err(other) => panic!("{label}: automata engine failed: {other}"),
    }

    // The default portfolio's race witness is the configuration engine's,
    // byte for byte and unbounded.
    let by_portfolio = verifier
        .verify(Query::DataRace(program))
        .unwrap_or_else(|e| panic!("{label}: portfolio failed: {e}"));
    assert_eq!(
        by_portfolio.is_race_free(),
        by_configuration.is_race_free(),
        "{label}: portfolio said {:?}, configuration said {:?}",
        by_portfolio.outcome,
        by_configuration.outcome
    );
    if let Some(witness) = by_portfolio.race_witness() {
        assert_eq!(by_portfolio.engine, Engine::Configuration, "{label}");
        assert_eq!(by_portfolio.soundness, Soundness::Unbounded, "{label}");
        assert_eq!(
            format!("{witness:?}"),
            format!("{:?}", by_configuration.race_witness().unwrap()),
            "{label}: portfolio and configuration race witnesses differ"
        );
    }
}

/// One equivalence query, all three equivalence procedures, zero drift.
/// Returns whether the automata engine proved the pair.
fn assert_equivalence_agreement(
    label: &str,
    original: &Program,
    transformed: &Program,
    max_nodes: usize,
    valuations: usize,
) -> bool {
    let verifier = Verifier::builder()
        .equiv_nodes(max_nodes)
        .valuations(valuations)
        .build();
    let by_trace = verifier
        .verify_with_engine(Engine::Trace, Query::Equivalence(original, transformed))
        .unwrap_or_else(|e| panic!("{label}: trace engine failed: {e}"));
    let by_naive = naive::check_equivalence(
        original,
        transformed,
        &EquivOptions::builder()
            .max_nodes(max_nodes)
            .valuations(valuations)
            .build(),
    );
    assert_eq!(
        by_trace.is_equivalent(),
        matches!(by_naive, EquivVerdict::Equivalent { .. }),
        "{label}: naive and trace equivalence engines drifted"
    );

    let proved = match verifier
        .verify_with_engine(Engine::Automata, Query::Equivalence(original, transformed))
    {
        Ok(by_automata) => {
            // The automata engine only proves equivalence, unbounded; a
            // counterexample it must leave to the trace engine.
            assert!(
                by_automata.is_equivalent(),
                "{label}: the automata engine answered {:?}",
                by_automata.outcome
            );
            assert_eq!(by_automata.engine, Engine::Automata, "{label}");
            assert_eq!(by_automata.soundness, Soundness::Unbounded, "{label}");
            // An unbounded equivalence binds the bounded engines (the naive
            // engine agrees with the trace engine, checked above).
            assert!(
                by_trace.is_equivalent(),
                "{label}: automata proved equivalence, trace said {:?}",
                by_trace.outcome
            );
            // A parallel side is only ever proved through its erasure,
            // which needs an unbounded race-freedom verdict (identical
            // programs are equivalent whatever they race on).
            if original != transformed {
                for side in [original, transformed]
                    .into_iter()
                    .filter(|p| program_has_parallelism(p))
                {
                    assert!(
                        structural_race_analysis(side).is_race_free(),
                        "{label}: a parallel side was proved without a race-freedom verdict"
                    );
                }
            }
            true
        }
        // A skip is legal for any query: the trace engine answers it.
        Err(VerifyError::NoApplicableEngine { .. }) => false,
        Err(other) => panic!("{label}: automata engine failed: {other}"),
    };

    // The default portfolio's counterexample is the trace engine's, byte
    // for byte and unbounded.
    let by_portfolio = verifier
        .verify(Query::Equivalence(original, transformed))
        .unwrap_or_else(|e| panic!("{label}: portfolio failed: {e}"));
    assert_eq!(
        by_portfolio.is_equivalent(),
        by_trace.is_equivalent(),
        "{label}: portfolio said {:?}, trace said {:?}",
        by_portfolio.outcome,
        by_trace.outcome
    );
    if let Some(counterexample) = by_portfolio.counterexample() {
        assert_eq!(by_portfolio.engine, Engine::Trace, "{label}");
        assert_eq!(by_portfolio.soundness, Soundness::Unbounded, "{label}");
        assert_eq!(
            format!("{counterexample:?}"),
            format!("{:?}", by_trace.counterexample().unwrap()),
            "{label}: portfolio and trace counterexamples differ"
        );
    }
    proved
}

// ---------------------------------------------------------------------------
// The §5 corpus
// ---------------------------------------------------------------------------

#[test]
fn corpus_race_verdicts_show_zero_drift() {
    for (name, program) in corpus::all() {
        assert_race_agreement(name, &program, 3, 1);
    }
}

#[test]
fn corpus_equivalence_verdicts_show_zero_drift() {
    let pairs = [
        (
            "E1a",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused(),
        ),
        (
            "E1b",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused_invalid(),
        ),
        (
            "E2",
            corpus::tree_mutation_original(),
            corpus::tree_mutation_fused(),
        ),
        (
            "E3",
            corpus::css_minify_original(),
            corpus::css_minify_fused(),
        ),
        (
            "E4a",
            corpus::cycletree_original(),
            corpus::cycletree_fused(),
        ),
    ];
    for (id, original, transformed) in &pairs {
        assert_equivalence_agreement(id, original, transformed, 4, 2);
        // And in the reverse direction: the matcher is directional, the
        // engine must not be.
        assert_equivalence_agreement(&format!("{id}-rev"), transformed, original, 4, 2);
    }
}

// ---------------------------------------------------------------------------
// Programs generated by the transform layer
// ---------------------------------------------------------------------------

#[test]
fn generated_transforms_show_zero_drift() {
    let verifier = Verifier::builder()
        .equiv_nodes(4)
        .race_nodes(3)
        .valuations(1)
        .build();
    for (name, original) in [
        ("size_counting", corpus::size_counting_sequential()),
        ("tree_mutation", corpus::tree_mutation_original()),
        ("css_minify", corpus::css_minify_original()),
        ("cycletree", corpus::cycletree_original()),
    ] {
        let fused = fuse_main_passes(&verifier, &original)
            .unwrap_or_else(|err| panic!("fusing {name} failed: {err}"));
        assert_equivalence_agreement(
            &format!("fuse:{name}"),
            &fused.original,
            &fused.transformed,
            4,
            1,
        );
        assert_race_agreement(
            &format!("fuse:{name}:transformed"),
            &fused.transformed,
            3,
            1,
        );
    }
    let parallel = synthesize_parallel_main(&verifier, &corpus::size_counting_sequential())
        .expect("Odd ‖ Even synthesizes");
    assert_race_agreement("par_main:size_counting", &parallel.transformed, 3, 1);
    for (name, original) in [
        ("size_counting", corpus::size_counting_sequential()),
        ("css_minify", corpus::css_minify_original()),
    ] {
        let par_rec = parallelize_recursive_calls(&verifier, &original)
            .unwrap_or_else(|err| panic!("parallelizing recursion of {name} failed: {err}"));
        assert_race_agreement(&format!("par_rec:{name}"), &par_rec.transformed, 3, 1);
        assert_equivalence_agreement(
            &format!("par_rec:{name}:equiv"),
            &par_rec.original,
            &par_rec.transformed,
            4,
            1,
        );
    }
}

// ---------------------------------------------------------------------------
// Random programs under random budgets
// ---------------------------------------------------------------------------

/// Generates one random self- or mutually-recursive traversal pass.  The
/// bodies cover the shapes the structural analyses reason about:
/// unconditional and guarded field writes, pure accumulation, and
/// field-reading returns over a deliberately small field pool (so that
/// write-write and read-write overlaps between random passes are common).
fn random_pass(name: &str, other: &str, rng: &mut TestRng) -> String {
    const FIELDS: [&str; 3] = ["a", "b", "c"];
    let field = |rng: &mut TestRng| FIELDS[rng.below(3) as usize];
    let callee = if rng.below(4) == 0 { other } else { name };
    let body = match rng.below(4) {
        0 => String::new(),
        1 => format!(
            "        n.{} = n.{} + {};\n",
            field(rng),
            field(rng),
            rng.below(3)
        ),
        2 => format!(
            "        if (n.{} > {}) {{\n            n.{} = {};\n        }}\n",
            field(rng),
            rng.below(2),
            field(rng),
            rng.below(5)
        ),
        _ => format!("        n.{} = {};\n", field(rng), rng.below(4)),
    };
    let ret = match rng.below(3) {
        0 => String::from("x + y"),
        1 => format!("x + y + n.{}", field(rng)),
        _ => String::from("0"),
    };
    format!(
        "fn {name}(n) {{\n    if (n == nil) {{\n        return 0;\n    }} else {{\n        \
         x = {callee}(n.l);\n        y = {callee}(n.r);\n{body}        return {ret};\n    }}\n}}\n"
    )
}

/// The two passes run one after the other.
const SEQUENTIAL_MAIN: &str = "fn Main(n) { u = First(n); v = Second(n); return u, v; }";
/// The two passes in a `Par`: its erasure is exactly [`SEQUENTIAL_MAIN`].
const PARALLEL_MAIN: &str = "fn Main(n) { { u = First(n); || v = Second(n); } return u, v; }";
/// The passes swapped — equivalent exactly when they commute, which the
/// random field pool makes genuinely undecided case by case.
const REORDERED_MAIN: &str = "fn Main(n) { v = Second(n); u = First(n); return u, v; }";
/// A `Par` whose first branch returns (`Par` is last-return-wins, `Seq`
/// first-return-wins): its erasure is not exact.
const RETURNING_BRANCH_MAIN: &str =
    "fn Main(n) { { u = First(n); return u, 0; || v = Second(n); } return u, v; }";
/// A `Par` whose second branch reads the local its sibling writes: the
/// race analysis does not see locals, so erasure is not licensed.
const SHARED_LOCAL_MAIN: &str =
    "fn Main(n) { { u = First(n); || v = Second(n); w = u; } return w, v; }";

/// The two random passes of `seed` under the given `Main`.
fn random_program(seed: u64, main: &str) -> Program {
    let mut rng = TestRng::deterministic(&format!("automata-differential-{seed}"));
    let p0 = random_pass("First", "Second", &mut rng);
    let p1 = random_pass("Second", "First", &mut rng);
    let source = format!("{p0}{p1}{main}");
    parse_program(&source)
        .unwrap_or_else(|err| panic!("generated program does not parse: {err}\n{source}"))
}

proptest! {
    /// Random parallel compositions: the automata engine's structural
    /// race verdicts agree with every bounded engine under random budgets.
    /// Two programs per case (a parallel and a sequential `Main` over the
    /// same random passes), 32 cases by default: 64 differential runs.
    #[test]
    fn random_parallel_programs_show_zero_race_drift(
        seed in any::<u64>(),
        max_nodes in 2usize..4,
        valuations in 1usize..3,
    ) {
        let parallel = random_program(seed, PARALLEL_MAIN);
        assert_race_agreement(&format!("random-par-{seed}"), &parallel, max_nodes, valuations);
        let sequential = random_program(seed, SEQUENTIAL_MAIN);
        assert_race_agreement(&format!("random-seq-{seed}"), &sequential, max_nodes, valuations);
    }

    /// Random pass reorderings: the automata engine's correspondence
    /// verdicts agree with the bounded differential interpreter under
    /// random budgets.  Two pairs per case (identity and reordered), 32
    /// cases by default: 64 differential runs.
    #[test]
    fn random_reorderings_show_zero_equivalence_drift(
        seed in any::<u64>(),
        max_nodes in 3usize..5,
        valuations in 1usize..3,
    ) {
        let original = random_program(seed, SEQUENTIAL_MAIN);
        // Identity: always equivalent, always established unbounded.
        assert_equivalence_agreement(
            &format!("random-id-{seed}"),
            &original,
            &original,
            max_nodes,
            valuations,
        );
        let swapped = random_program(seed, REORDERED_MAIN);
        assert_equivalence_agreement(
            &format!("random-swap-{seed}"),
            &original,
            &swapped,
            max_nodes,
            valuations,
        );
    }

    /// Random sequential/parallel pairs: the `Par` erasure rule proves
    /// exactly the race-free ones — the random passes often race — and
    /// refuses a branch that returns or a local shared between branches.
    /// Three pairs per case, 32 cases by default: 96 differential runs.
    #[test]
    fn random_seq_par_pairs_show_zero_equivalence_drift(
        seed in any::<u64>(),
        max_nodes in 3usize..5,
        valuations in 1usize..3,
    ) {
        let sequential = random_program(seed, SEQUENTIAL_MAIN);
        let parallel = random_program(seed, PARALLEL_MAIN);
        let proved = assert_equivalence_agreement(
            &format!("random-seq-par-{seed}"),
            &sequential,
            &parallel,
            max_nodes,
            valuations,
        );
        assert_eq!(
            proved,
            structural_race_analysis(&parallel).is_race_free(),
            "random-seq-par-{seed}: the erasure is exact, so race-freedom alone decides"
        );
        for (kind, main) in [("return", RETURNING_BRANCH_MAIN), ("shared", SHARED_LOCAL_MAIN)] {
            let inexact = random_program(seed, main);
            let proved = assert_equivalence_agreement(
                &format!("random-{kind}-par-{seed}"),
                &sequential,
                &inexact,
                max_nodes,
                valuations,
            );
            assert!(!proved, "random-{kind}-par-{seed}: an inexact erasure was used");
        }
    }
}

// ---------------------------------------------------------------------------
// The `Par` erasure rule's soundness boundary
// ---------------------------------------------------------------------------

/// A pair the erasure rule must leave alone: the automata engine skips it
/// in both directions, and the portfolio answers from `Engine::Trace`.
fn assert_erasure_refused(label: &str, original: &Program, parallel: &Program) {
    let verifier = Verifier::builder().equiv_nodes(4).valuations(1).build();
    for (a, b) in [(original, parallel), (parallel, original)] {
        match verifier.verify_with_engine(Engine::Automata, Query::Equivalence(a, b)) {
            Err(VerifyError::NoApplicableEngine { .. }) => {}
            other => panic!("{label}: the automata engine must skip, got {other:?}"),
        }
        let verdict = verifier
            .verify(Query::Equivalence(a, b))
            .unwrap_or_else(|e| panic!("{label}: portfolio failed: {e}"));
        assert_eq!(verdict.engine, Engine::Trace, "{label}");
    }
}

#[test]
fn par_erasure_needs_race_freedom_and_an_exact_erasure() {
    // E4b: the cycletree passes race on `num`.
    assert_erasure_refused(
        "E4b",
        &corpus::cycletree_original(),
        &corpus::cycletree_parallel(),
    );

    // The tuner's race-refused `par-passes` candidates.
    let verifier = Verifier::builder()
        .equiv_nodes(4)
        .race_nodes(3)
        .valuations(1)
        .build();
    let mut refused = Vec::new();
    for (name, original) in [
        ("css_minify", corpus::css_minify_original()),
        ("cycletree", corpus::cycletree_original()),
        ("kdtree", corpus::kdtree_closest()),
    ] {
        let tuned = tune(&verifier, &original, &TuneOptions::quick(), &mut |_| {
            Ok(1.0)
        })
        .unwrap_or_else(|err| panic!("tuning {name} failed: {err}"));
        for candidate in &tuned.candidates {
            if let CandidateStatus::Refused(TransformError::DataRace(_)) = candidate.status {
                assert_eq!(candidate.schedule, ScheduleKind::ParallelPasses);
                let label = format!("{name}:{}", candidate.label);
                let program = candidate.program.as_ref().expect("constructed");
                assert_erasure_refused(&label, &original, program);
                refused.push(label);
            }
        }
    }
    assert_eq!(
        refused.len(),
        5,
        "3 CSS, 1 cycletree, 1 kdtree: {refused:?}"
    );

    // Race-free, but not erasable.  A first branch that returns: the
    // parallel program still runs the right-hand sum, its erasure does not.
    let sum = "fn Sum(n) { if (n == nil) { return 0; } else { a = Sum(n.l); b = Sum(n.r); \
               n.total = a + b + n.v; return a + b + n.v; } }";
    let returning = parse_program(&format!(
        "{sum} fn Main(n) {{ if (n == nil) {{ return 0; }} else {{ \
         {{ a = Sum(n.l); return 1; || b = Sum(n.r); }} return 2; }} }}"
    ))
    .unwrap();
    let returning_erased = parse_program(&format!(
        "{sum} fn Main(n) {{ if (n == nil) {{ return 0; }} else {{ \
         a = Sum(n.l); return 1; b = Sum(n.r); return 2; }} }}"
    ))
    .unwrap();
    assert_erasure_refused("returning branch", &returning_erased, &returning);
    // Two branches that write the same local.
    let shared = parse_program(&format!(
        "{sum} fn Main(n) {{ if (n == nil) {{ return 0; }} else {{ \
         {{ a = Sum(n.l); || a = Sum(n.r); }} return a; }} }}"
    ))
    .unwrap();
    let shared_erased = parse_program(&format!(
        "{sum} fn Main(n) {{ if (n == nil) {{ return 0; }} else {{ \
         a = Sum(n.l); a = Sum(n.r); return a; }} }}"
    ))
    .unwrap();
    assert_erasure_refused("shared local", &shared_erased, &shared);
}
