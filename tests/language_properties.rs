//! Property-style tests over the language front-end: the corpus, the block
//! relations of Fig. 11, and the interpreter's agreement with the
//! configuration abstraction.

use retreet_analysis::configs::enumerate;
use retreet_analysis::interp;
use retreet_analysis::race::program_fields;
use retreet_analysis::vtree::{test_trees, ValueTree};
use retreet_lang::{corpus, BlockTable, Relation};

#[test]
fn block_relations_partition_same_function_pairs() {
    // Lemma 2: two distinct blocks of the same function are related by
    // exactly one of ≺, ↑, ‖ (here: SeqBefore/SeqAfter collapse to ≺).
    for (name, program) in corpus::all() {
        let table = BlockTable::build(&program);
        for a in table.blocks() {
            for b in table.blocks() {
                let relation = table.relation(a.id, b.id);
                if a.id == b.id {
                    assert_eq!(relation, Relation::Same);
                } else if a.func == b.func {
                    assert_ne!(relation, Relation::Same, "{name}");
                    assert_ne!(relation, Relation::DifferentFunc, "{name}");
                    // Symmetry/antisymmetry of the sequential order.
                    let back = table.relation(b.id, a.id);
                    match relation {
                        Relation::SeqBefore => assert_eq!(back, Relation::SeqAfter),
                        Relation::SeqAfter => assert_eq!(back, Relation::SeqBefore),
                        other => assert_eq!(back, other),
                    }
                } else {
                    assert_eq!(relation, Relation::DifferentFunc, "{name}");
                }
            }
        }
    }
}

#[test]
fn every_executed_iteration_is_covered_by_some_configuration() {
    // Soundness link between the two engines (the over-approximation claim of
    // §3): every (block, node) iteration the interpreter actually executes
    // appears as the target of some enumerated configuration.
    for program in [
        corpus::size_counting_parallel(),
        corpus::css_minify_original(),
        corpus::tree_mutation_original(),
    ] {
        let table = BlockTable::build(&program);
        let fields = program_fields(&table);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        for tree in test_trees(3, &field_refs, 1) {
            let run = interp::run_with_table(&table, &tree).expect("run succeeds");
            let configs = enumerate(&table, &tree);
            for iteration in &run.trace.iterations {
                if table.info(iteration.block).is_call() {
                    continue; // configurations end at non-call blocks
                }
                let covered = configs.iter().any(|c| {
                    c.target == iteration.block
                        && c.target_loc().node().map(|n| n.0) == iteration.node.map(|n| n.0)
                });
                assert!(
                    covered,
                    "iteration ({}, {:?}) not covered by any configuration",
                    iteration.block, iteration.node
                );
            }
        }
    }
}

#[test]
fn interpreter_matches_manual_expectations_on_known_trees() {
    // Odd/Even counts on hand-built trees.
    let program = corpus::size_counting_parallel();
    // A left chain of three nodes: layers 1, 2, 3 → odd = 2, even = 1.
    let mut chain = ValueTree::single();
    let root = chain.root();
    let l = chain.add_left(root);
    chain.add_left(l);
    let result = interp::run(&program, &chain).unwrap();
    assert_eq!(result.returns, vec![2, 1]);
}
