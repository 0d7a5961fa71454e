//! Integration tests for the unified `Verifier` façade: the engine
//! portfolio must be internally consistent (engines agree wherever their
//! domains overlap, across the whole §5 corpus), and the verdict cache must
//! serve repeated queries with identical witnesses.

use retreet_lang::corpus;
use retreet_mso::formula::{FoVar, Formula};
use retreet_verify::{Engine, Outcome, Query, Soundness, Verifier, VerifyError};

fn verifier() -> Verifier {
    Verifier::builder().max_nodes(3).valuations(1).build()
}

#[test]
fn configuration_and_trace_engines_agree_on_every_corpus_program() {
    let verifier = verifier();
    for (name, program) in corpus::all() {
        let by_configuration = verifier
            .verify_with_engine(Engine::Configuration, Query::DataRace(&program))
            .unwrap_or_else(|e| panic!("{name}: configuration engine failed: {e}"));
        let by_trace = verifier
            .verify_with_engine(Engine::Trace, Query::DataRace(&program))
            .unwrap_or_else(|e| panic!("{name}: trace engine failed: {e}"));
        assert_eq!(
            by_configuration.is_race_free(),
            by_trace.is_race_free(),
            "{name}: configuration said {:?}, trace said {:?}",
            by_configuration.outcome,
            by_trace.outcome
        );
        assert_eq!(by_configuration.engine, Engine::Configuration);
        assert_eq!(by_trace.engine, Engine::Trace);
    }
}

#[test]
fn portfolio_certifies_every_corpus_fusion_pair_unbounded() {
    // The §5 fusion pairs, with the expected verdicts.
    let verifier = Verifier::builder().equiv_nodes(4).valuations(2).build();
    let pairs = [
        (
            "E1a",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused(),
            true,
        ),
        (
            "E1b",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused_invalid(),
            false,
        ),
        (
            "E2",
            corpus::tree_mutation_original(),
            corpus::tree_mutation_fused(),
            true,
        ),
        (
            "E3",
            corpus::css_minify_original(),
            corpus::css_minify_fused(),
            true,
        ),
        (
            "E4a",
            corpus::cycletree_original(),
            corpus::cycletree_fused(),
            true,
        ),
    ];
    for (id, original, transformed, expected) in pairs {
        let verdict = verifier
            .verify(Query::Equivalence(&original, &transformed))
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            verdict.is_equivalent(),
            expected,
            "{id}: {:?}",
            verdict.outcome
        );
        // Every §5 fusion pair is answered unbounded: the correct fusions
        // by the automata tier's established correspondence, the invalid
        // one by the trace engine's counterexample search.
        let expected_engine = if expected {
            Engine::Automata
        } else {
            Engine::Trace
        };
        assert_eq!(verdict.engine, expected_engine, "{id}");
        assert_eq!(verdict.soundness, Soundness::Unbounded, "{id}");
    }
}

#[test]
fn automata_and_bounded_engines_agree_on_validity() {
    let verifier = Verifier::builder().validity_nodes(4).build();
    let formulas = vec![
        // Valid: some node is the root.
        Formula::exists_fo("x", Formula::Root(FoVar::new("x"))),
        // Invalid: every node is a leaf.
        Formula::forall_fo("x", Formula::Leaf(FoVar::new("x"))),
        // Valid: the root reaches every node.
        Formula::forall_fo(
            "r",
            Formula::implies(
                Formula::Root(FoVar::new("r")),
                Formula::forall_fo("y", Formula::Reach(FoVar::new("r"), FoVar::new("y"))),
            ),
        ),
        // Invalid: every node has a left child.
        Formula::forall_fo(
            "a",
            Formula::exists_fo("b", Formula::Left(FoVar::new("a"), FoVar::new("b"))),
        ),
    ];
    for formula in &formulas {
        let by_automata = verifier
            .verify_with_engine(Engine::Automata, Query::Validity(formula))
            .expect("automata engine answers the core fragment");
        let by_bounded = verifier
            .verify_with_engine(Engine::BoundedEnumeration, Query::Validity(formula))
            .expect("bounded engine answers closed formulas");
        assert_eq!(
            by_automata.is_valid(),
            by_bounded.is_valid(),
            "engines disagree on {formula:?}"
        );
        assert_eq!(by_automata.soundness, Soundness::Unbounded);
        if by_bounded.is_valid() {
            assert!(matches!(
                by_bounded.soundness,
                Soundness::BoundedUpTo { max_nodes: 4 }
            ));
        }
    }
}

#[test]
fn second_identical_query_returns_a_cached_verdict_with_identical_witness() {
    let verifier = verifier();
    let program = corpus::cycletree_parallel();

    let first = verifier.verify(Query::DataRace(&program)).unwrap();
    assert!(!first.cached);
    let witness_before = format!("{:?}", first.race_witness().expect("race witness"));

    // The second query must be a cache hit carrying the same witness, even
    // through an independently parsed (but textually identical) program.
    let reparsed = retreet_lang::parse_program(corpus::CYCLETREE_PARALLEL_SRC).unwrap();
    let second = verifier.verify(Query::DataRace(&reparsed)).unwrap();
    assert!(second.cached, "identical query should hit the cache");
    assert_eq!(
        witness_before,
        format!("{:?}", second.race_witness().expect("race witness")),
        "cached verdict must carry the identical witness"
    );
    assert_eq!(second.engine, first.engine);

    let stats = verifier.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn different_budgets_do_not_share_cache_entries() {
    // Same query, different max_nodes: the fingerprint must keep them
    // apart.  The portfolio is pinned to the bounded configuration engine
    // so the verdicts actually depend on the budget (the automata engine
    // would answer both budgets identically, with no trees checked).
    let program = corpus::size_counting_parallel();
    let small = Verifier::builder()
        .max_nodes(2)
        .valuations(1)
        .engines([Engine::Configuration])
        .build();
    let a = small.verify(Query::DataRace(&program)).unwrap();
    let big = Verifier::builder()
        .max_nodes(3)
        .valuations(1)
        .engines([Engine::Configuration])
        .build();
    let b = big.verify(Query::DataRace(&program)).unwrap();
    assert!(a.trees_checked() < b.trees_checked());
}

#[test]
fn facade_and_legacy_entry_points_agree() {
    // The per-crate engine entry points underpin the façade; both routes
    // must produce the same verdicts on the headline queries.
    let verifier = Verifier::builder()
        .race_nodes(3)
        .equiv_nodes(4)
        .valuations(1)
        .build();
    let race = verifier
        .verify(Query::DataRace(&corpus::size_counting_parallel()))
        .unwrap();
    let legacy_race = retreet_analysis::race::check_data_race(
        &corpus::size_counting_parallel(),
        &retreet_analysis::race::RaceOptions::builder()
            .max_nodes(3)
            .valuations(1)
            .build(),
    );
    assert_eq!(race.is_race_free(), legacy_race.is_race_free());

    let equiv = verifier
        .verify(Query::Equivalence(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
        ))
        .unwrap();
    let legacy_equiv = retreet_analysis::equiv::check_equivalence(
        &corpus::size_counting_sequential(),
        &corpus::size_counting_fused(),
        &retreet_analysis::equiv::EquivOptions::builder()
            .max_nodes(4)
            .valuations(1)
            .build(),
    );
    assert_eq!(equiv.is_equivalent(), legacy_equiv.is_equivalent());
}

#[test]
fn validity_queries_route_to_the_automata_engine_by_default() {
    let verifier = Verifier::with_defaults();
    let formula = Formula::exists_fo("x", Formula::Root(FoVar::new("x")));
    let verdict = verifier.verify(Query::Validity(&formula)).unwrap();
    assert!(verdict.is_valid());
    assert_eq!(verdict.engine, Engine::Automata);
    assert_eq!(verdict.soundness, Soundness::Unbounded);
    match verdict.outcome {
        Outcome::Valid { trees_checked } => assert_eq!(trees_checked, 0),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn typed_errors_replace_string_errors() {
    let verifier = verifier();
    let no_main = retreet_lang::parse_program("fn Orphan(n) { return 0; }").unwrap();
    let err = verifier.verify(Query::DataRace(&no_main)).unwrap_err();
    match &err {
        VerifyError::InvalidProgram { role, message } => {
            assert_eq!(*role, retreet_verify::ProgramRole::Queried);
            assert!(!message.is_empty());
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
    // And the hierarchy renders a readable message.
    assert!(err.to_string().contains("invalid queried program"));
}
