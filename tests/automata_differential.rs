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
use retreet_lang::ast::Program;
use retreet_lang::corpus;
use retreet_lang::parser::parse_program;
use retreet_transform::{fuse_main_passes, parallelize_recursive_calls, synthesize_parallel_main};
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
fn assert_equivalence_agreement(
    label: &str,
    original: &Program,
    transformed: &Program,
    max_nodes: usize,
    valuations: usize,
) {
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

    match verifier.verify_with_engine(Engine::Automata, Query::Equivalence(original, transformed)) {
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
        }
        // A skip is legal for any query: the trace engine answers it.
        Err(VerifyError::NoApplicableEngine { .. }) => {}
        Err(other) => panic!("{label}: automata engine failed: {other}"),
    }

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

/// A random two-pass program with the given `Main` composition.
fn random_program(seed: u64, parallel: bool) -> Program {
    let mut rng = TestRng::deterministic(&format!("automata-differential-{seed}"));
    let p0 = random_pass("First", "Second", &mut rng);
    let p1 = random_pass("Second", "First", &mut rng);
    let main = if parallel {
        "fn Main(n) {\n    {\n        u = First(n);\n        ||\n        v = Second(n);\n    }\n    return u, v;\n}\n"
    } else {
        "fn Main(n) {\n    u = First(n);\n    v = Second(n);\n    return u, v;\n}\n"
    };
    let source = format!("{p0}{p1}{main}");
    parse_program(&source)
        .unwrap_or_else(|err| panic!("generated program does not parse: {err}\n{source}"))
}

/// Swaps the order of the two pass invocations in the sequential `Main` —
/// equivalent exactly when the passes commute, which the random field pool
/// makes genuinely undecided case by case.
fn reordered(seed: u64) -> Program {
    let mut rng = TestRng::deterministic(&format!("automata-differential-{seed}"));
    let p0 = random_pass("First", "Second", &mut rng);
    let p1 = random_pass("Second", "First", &mut rng);
    let main = "fn Main(n) {\n    v = Second(n);\n    u = First(n);\n    return u, v;\n}\n";
    parse_program(&format!("{p0}{p1}{main}")).expect("generated program parses")
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
        let parallel = random_program(seed, true);
        assert_race_agreement(&format!("random-par-{seed}"), &parallel, max_nodes, valuations);
        let sequential = random_program(seed, false);
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
        let original = random_program(seed, false);
        // Identity: always equivalent, always established unbounded.
        assert_equivalence_agreement(
            &format!("random-id-{seed}"),
            &original,
            &original,
            max_nodes,
            valuations,
        );
        let swapped = reordered(seed);
        assert_equivalence_agreement(
            &format!("random-swap-{seed}"),
            &original,
            &swapped,
            max_nodes,
            valuations,
        );
    }
}
