//! Differential tests for the certified schedule autotuner: every candidate
//! the tuner enumerates — certified *and* refused — must execute identically
//! to the original program.  Certified candidates are checked through the
//! VM on random seeded trees; race-refused candidates (whose programs are
//! still constructible, just not parallel-safe) execute identically under
//! the sequential semantics both tiers implement; equivalence refusals must
//! carry a counterexample the interpreter confirms.

use std::sync::OnceLock;

use proptest::prelude::*;
use retreet_analysis::interp;
use retreet_analysis::vtree::{TreeCorpus, ValueTree};
use retreet_codegen::{compile, program_fields, trees_agree, Vm};
use retreet_lang::ast::Program;
use retreet_lang::blocks::BlockTable;
use retreet_lang::corpus;
use retreet_transform::{certify_fusion, tune, TransformError, TuneOptions};
use retreet_verify::Verifier;

fn verifier() -> Verifier {
    Verifier::builder()
        .equiv_nodes(4)
        .race_nodes(3)
        .valuations(1)
        .build()
}

/// One tuned family: the original program plus every candidate program the
/// tuner enumerated (certified and refused alike), with labels.
struct TunedFamily {
    original: Program,
    candidates: Vec<(String, Program, bool)>,
}

/// Enumerates the schedule space of each of the five §5 families the tuner
/// serves once (tuning runs the full batch certification, so the result is
/// cached across proptest cases).
fn families() -> &'static Vec<TunedFamily> {
    static FAMILIES: OnceLock<Vec<TunedFamily>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let verifier = verifier();
        [
            corpus::size_counting_sequential(),
            corpus::tree_mutation_original(),
            corpus::css_minify_original(),
            corpus::cycletree_original(),
            corpus::kdtree_closest(),
        ]
        .into_iter()
        .map(|original| {
            let tuned = tune(&verifier, &original, &TuneOptions::quick(), &mut |_| {
                Ok(1.0)
            })
            .expect("every §5 family has a fusable run to tune");
            let candidates = tuned
                .candidates
                .iter()
                .filter_map(|candidate| {
                    candidate.program.clone().map(|program| {
                        (
                            candidate.label.clone(),
                            program,
                            candidate.status.is_certified(),
                        )
                    })
                })
                .collect();
            TunedFamily {
                original,
                candidates,
            }
        })
        .collect()
    })
}

/// Runs `program` on `tree` through the VM (sequential Par semantics) and
/// returns (returns, post-run tree).
fn run_vm(label: &str, program: &Program, tree: &ValueTree) -> (Vec<i64>, ValueTree) {
    let compiled = compile(program).unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
    let result = Vm::new()
        .run(&compiled, tree)
        .unwrap_or_else(|e| panic!("{label}: VM run failed: {e}"));
    (result.returns, result.tree)
}

proptest! {
    /// Zero drift across the whole enumerated schedule space: on random
    /// seeded trees, every candidate — certified or race-refused — returns
    /// what the original returns and leaves the same tree, through the VM,
    /// with the interpreter as the reference for the original.  Each case
    /// checks every candidate of one family on one tree, so the default
    /// case count runs several hundred candidate executions.
    #[test]
    fn every_enumerated_candidate_matches_the_original(
        family_index in 0usize..5,
        tree_index in 0usize..200,
    ) {
        let family = &families()[family_index];
        let fields = program_fields(&family.original);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let trees = TreeCorpus::new(5, &field_refs, 2);
        let tree = trees.tree(tree_index % trees.len());

        let table = BlockTable::build(&family.original);
        let reference = interp::run_with_table(&table, &tree)
            .expect("the original program runs on every corpus tree");

        for (label, candidate, _certified) in &family.candidates {
            let (returns, post_tree) = run_vm(label, candidate, &tree);
            prop_assert_eq!(
                &returns, &reference.returns,
                "{}: candidate returns drifted from the original", label
            );
            prop_assert!(
                trees_agree(&post_tree, &reference.tree),
                "{}: candidate post-run tree drifted from the original", label
            );
        }
    }
}

#[test]
fn race_refused_candidates_keep_their_witness_and_run_sequentially() {
    // The cycletree family's parallel-passes candidate races on `num`; the
    // tuner must keep it in the table with the concrete witness, and —
    // under the sequential Par semantics both tiers implement — it still
    // executes identically to the original.
    let verifier = verifier();
    let original = corpus::cycletree_original();
    let tuned = tune(&verifier, &original, &TuneOptions::quick(), &mut |_| {
        Ok(1.0)
    })
    .unwrap();
    let refused: Vec<_> = tuned
        .candidates
        .iter()
        .filter_map(|c| match &c.status {
            retreet_transform::CandidateStatus::Refused(TransformError::DataRace(witness)) => {
                Some((c, witness))
            }
            _ => None,
        })
        .collect();
    assert!(
        !refused.is_empty(),
        "cycletree must refuse at least one racy parallel schedule"
    );
    let fields = program_fields(&original);
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    for (candidate, witness) in refused {
        assert!(
            !witness.field.is_empty(),
            "{}: empty witness",
            candidate.label
        );
        let program = candidate
            .program
            .as_ref()
            .expect("race refusals are constructible");
        for seed in [0u64, 7, 23] {
            let mut tree = ValueTree::complete(4, &field_refs, |_, _| 0);
            tree.fill_fields(&field_refs, seed);
            let table = BlockTable::build(&original);
            let reference = interp::run_with_table(&table, &tree).expect("reference runs");
            let (returns, post_tree) = run_vm(&candidate.label, program, &tree);
            assert_eq!(returns, reference.returns, "{}", candidate.label);
            assert!(
                trees_agree(&post_tree, &reference.tree),
                "{}",
                candidate.label
            );
        }
    }
}

#[test]
fn equivalence_refusals_carry_interpreter_checked_counterexamples() {
    // A refusal for non-equivalence must hand back a tree on which the two
    // programs *actually* disagree — confirmed here by the interpreter, the
    // semantics of record.
    let verifier = verifier();
    let original = corpus::size_counting_sequential();
    let invalid = corpus::size_counting_fused_invalid();
    match certify_fusion(&verifier, &original, &invalid) {
        Err(TransformError::NotEquivalent(ce)) => {
            let run = |program: &Program| {
                interp::run_with_table(&BlockTable::build(program), &ce.tree)
                    .expect("counterexample trees run on both programs")
            };
            let a = run(&original);
            let b = run(&invalid);
            assert!(
                a.returns != b.returns || !trees_agree(&a.tree, &b.tree),
                "the counterexample must witness a real disagreement"
            );
        }
        other => panic!("expected a non-equivalence refusal, got {other:?}"),
    }
}
