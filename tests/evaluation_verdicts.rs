//! Cross-crate integration tests pinning every verdict of the paper's
//! evaluation (§5).  These are the rows EXPERIMENTS.md reports; if any of
//! them flips, the reproduction no longer reproduces the paper.

use retreet_analysis::corresp::{check_fusion_correspondence, CorrespVerdict};
use retreet_bench::{ablation_granularity, run_all, Budget, Verdict};
use retreet_lang::ast::Program;
use retreet_lang::corpus;

#[test]
fn all_evaluation_rows_match_the_paper() {
    let results = run_all(&Budget::quick());
    assert_eq!(results.len(), 7);
    for result in &results {
        assert!(
            result.matches_paper(),
            "{}: got {:?}, paper reports {:?} ({})",
            result.id,
            result.verdict,
            result.expected,
            result.detail
        );
    }
}

#[test]
fn fusion_proofs_need_the_expected_entry_counts() {
    // The paper's hardest query is the cycletree fusion (490 s), then CSS
    // (6.9 s), then the small cases (< 0.2 s).  Wall-clock order is not a
    // correctness property; the deterministic measure of a fusion proof is
    // the number of (fused function, pass tuple) entries the
    // correspondence matcher verifies.  The cycletree proof needs more
    // entries than size counting's.  CSS needs as few as tree mutation, so
    // the paper's CSS-over-size-counting order has no such counterpart.
    let entries = |id: &str, original: Program, fused: Program| match check_fusion_correspondence(
        &original, &fused,
    ) {
        CorrespVerdict::Established { entries } => entries,
        other => panic!("{id}: correspondence not established: {other:?}"),
    };
    let e1a = entries(
        "E1a",
        corpus::size_counting_sequential(),
        corpus::size_counting_fused(),
    );
    let e2 = entries(
        "E2",
        corpus::tree_mutation_original(),
        corpus::tree_mutation_fused(),
    );
    let e3 = entries(
        "E3",
        corpus::css_minify_original(),
        corpus::css_minify_fused(),
    );
    let e4a = entries(
        "E4a",
        corpus::cycletree_original(),
        corpus::cycletree_fused(),
    );
    assert!(e4a > e1a, "E4a {e4a} entries vs E1a {e1a}");
    assert_eq!((e1a, e2, e3, e4a), (3, 2, 2, 5));
}

#[test]
fn race_queries_report_the_expected_verdict_kinds() {
    let results = run_all(&Budget::quick());
    let by_id = |id: &str| results.iter().find(|r| r.id == id).unwrap().verdict;
    assert_eq!(by_id("E1c"), Verdict::RaceFree);
    assert_eq!(by_id("E4b"), Verdict::Race);
    assert_eq!(by_id("E1b"), Verdict::Invalid);
}

#[test]
fn coarse_baseline_is_strictly_less_precise() {
    let rows = ablation_granularity(&Budget::quick());
    // Fine-grained accepts everything the coarse baseline accepts…
    for row in &rows {
        if row.coarse_accepts {
            assert!(row.fine_grained_accepts, "{} regressed", row.case);
        }
    }
    // …and accepts at least two fusions the baseline rejects.
    let gap = rows
        .iter()
        .filter(|r| !r.coarse_accepts && r.fine_grained_accepts)
        .count();
    assert!(gap >= 2);
}
