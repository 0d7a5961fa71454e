//! Paper-style verdicts for the k-ary workload family: the ternary `Sum`
//! race/equivalence trio and the k-d find-closest-point pair must answer
//! through the same façade portfolio — and with the same verdict shapes —
//! as the binary §5 corpus.

use retreet_lang::corpus;
use retreet_transform::CertificateKind;
use retreet_verify::{Engine, Outcome, Query, Soundness, Verifier};

fn verifier() -> Verifier {
    Verifier::builder()
        .race_nodes(4)
        .equiv_nodes(4)
        .valuations(2)
        .build()
}

#[test]
fn the_parallel_ternary_sum_is_race_free() {
    let program = corpus::ternary_sum_parallel();
    assert_eq!(program.arity, 3);
    let verdict = verifier()
        .verify(Query::DataRace(&program))
        .expect("race query answers");
    assert!(
        verdict.is_race_free(),
        "disjoint ternary subtrees must certify, got {:?}",
        verdict.outcome
    );
}

#[test]
fn the_racy_ternary_sum_is_refused_with_a_witness() {
    let program = corpus::ternary_sum_racy();
    let verdict = verifier()
        .verify(Query::DataRace(&program))
        .expect("race query answers");
    assert!(
        matches!(verdict.outcome, Outcome::Race { .. }),
        "both branches write the middle child's subtree, got {:?}",
        verdict.outcome
    );
    let witness = verdict
        .race_witness()
        .expect("a refusal carries the concrete conflict");
    assert!(!witness.field.is_empty());
}

#[test]
fn sequential_and_parallel_ternary_sums_are_equivalent() {
    let sequential = corpus::ternary_sum_sequential();
    let parallel = corpus::ternary_sum_parallel();
    let verdict = verifier()
        .verify(Query::Equivalence(&sequential, &parallel))
        .expect("equivalence query answers");
    assert!(
        verdict.is_equivalent(),
        "the parallel schedule computes the same sums, got {:?}",
        verdict.outcome
    );
    // Race-free, so it erases to the sequential form: an unbounded proof,
    // not the bounded search.
    assert_eq!(verdict.engine, Engine::Automata);
    assert_eq!(verdict.soundness, Soundness::Unbounded);
}

#[test]
fn the_kdtree_pair_certifies_and_fuses() {
    let program = corpus::kdtree_closest();
    let verifier = verifier();
    let race = verifier
        .verify(Query::DataRace(&program))
        .expect("race query answers");
    assert!(race.is_race_free(), "got {:?}", race.outcome);
    let fused = retreet_transform::fuse_main_passes(&verifier, &program)
        .expect("ComputeDist; FoldMin fuses into one traversal");
    assert_eq!(fused.certificate.kind, CertificateKind::Equivalence);
}
