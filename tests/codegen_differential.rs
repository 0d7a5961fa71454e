//! Differential tests for the bytecode-VM execution tier: on every program
//! and tree we can enumerate or generate, the `retreet-codegen` VM must be
//! observationally identical to the reference interpreter — same returns,
//! same post-run tree, same error class — and every iterative lowering the
//! compiler applies must carry an equivalence certificate.

use proptest::prelude::*;
use retreet_analysis::interp;
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{
    certify_lowering, compile, compile_with_lowering, lower_function, trees_agree, LoweringError,
    Vm, VmError,
};
use retreet_lang::blocks::BlockTable;
use retreet_lang::{ast::Program, corpus};
use retreet_transform::{fuse_main_passes, synthesize_parallel_main};
use retreet_verify::Verifier;

/// Runs `program` on `tree` through both tiers and asserts they agree:
/// identical returns and semantically identical trees on success, same
/// error class on failure.
fn assert_tiers_agree(label: &str, program: &Program, compiled_vm: &mut Vm, tree: &ValueTree) {
    let table = BlockTable::build(program);
    let compiled = compile(program).unwrap_or_else(|e| panic!("{label}: compile failed: {e}"));
    match (
        interp::run_with_table(&table, tree),
        compiled_vm.run(&compiled, tree),
    ) {
        (Ok(expected), Ok(actual)) => {
            assert_eq!(
                expected.returns, actual.returns,
                "{label}: VM returns diverged from the interpreter"
            );
            assert!(
                trees_agree(&expected.tree, &actual.tree),
                "{label}: VM post-run tree diverged from the interpreter"
            );
        }
        (Err(expected), Err(actual)) => assert_eq!(
            VmError::from_interp(&expected),
            Some(actual),
            "{label}: VM error class diverged from the interpreter's {expected:?}"
        ),
        (exp, act) => panic!("{label}: tier disagreement: interp={exp:?} vm={act:?}"),
    }
}

/// Field names used by a program, as owned strings (for tree construction).
fn fields_of(program: &Program) -> Vec<String> {
    retreet_codegen::program_fields(program)
}

#[test]
fn vm_matches_interpreter_on_the_full_corpus() {
    let mut vm = Vm::new();
    for (name, program) in corpus::all() {
        let fields = fields_of(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        for height in [1, 3, 6] {
            for seed in [0u64, 11, 42] {
                let mut tree = ValueTree::complete(height, &field_refs, |_, _| 0);
                tree.fill_fields(&field_refs, seed);
                assert_tiers_agree(name, &program, &mut vm, &tree);
            }
        }
    }
}

#[test]
fn vm_matches_interpreter_on_nested_par_programs() {
    // Nested `Par` exercises the per-Par flag discipline: a return in an
    // earlier sibling branch of an outer Par must not satisfy the
    // post-branch check of a nested Par in a later branch, and a nested
    // Par's return must propagate outward with last-return-wins.
    let sources = [
        // Nested Par after an early-returning sibling branch.
        "fn Main(n) { { return 1; || { n.a = 1; || n.b = 2; } n.c = 3; } return 0; }",
        // Inner return skips the rest of its branch but not its siblings.
        "fn Main(n) { { { n.a = 1; return 5; || n.b = 2; } n.c = 3; || n.d = 4; } return 9; }",
        // Last return wins across nesting levels.
        "fn Main(n) { { return 1; || { return 2; || n.a = 1; } n.b = 7; } return 0; }",
        // Three levels deep, returns at every level.
        "fn Main(n) { { return 1; || { { n.a = 1; || return 3; } n.b = 2; || n.c = 5; } n.d = 6; \
         || n.e = 7; } return 0; }",
        // Sequential sibling Pars inside one branch.
        "fn Main(n) { { return 4; || { n.a = 1; || n.b = 2; } { n.c = 3; || n.d = 9; } n.e = 8; } \
         return 0; }",
    ];
    let mut vm = Vm::new();
    for (i, source) in sources.iter().enumerate() {
        let program =
            retreet_lang::parser::parse_program(source).unwrap_or_else(|e| panic!("case {i}: {e}"));
        let fields = fields_of(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        for height in [1, 3] {
            let mut tree = ValueTree::complete(height, &field_refs, |_, _| 0);
            tree.fill_fields(&field_refs, 2);
            assert_tiers_agree(&format!("nested-par case {i}"), &program, &mut vm, &tree);
        }
    }
}

#[test]
fn vm_matches_interpreter_on_exhaustive_bounded_trees() {
    let mut vm = Vm::new();
    for (name, program) in corpus::all() {
        let fields = fields_of(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        for tree in retreet_analysis::vtree::test_trees(5, &field_refs, 2) {
            assert_tiers_agree(name, &program, &mut vm, &tree);
        }
    }
}

#[test]
fn vm_matches_interpreter_on_generated_fused_and_parallel_programs() {
    let verifier = Verifier::builder().build();
    let mut vm = Vm::new();
    for (name, program) in corpus::all() {
        let fields = fields_of(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let mut tree = ValueTree::complete(5, &field_refs, |_, _| 0);
        tree.fill_fields(&field_refs, 3);
        if let Ok(fused) = fuse_main_passes(&verifier, &program) {
            assert_tiers_agree(
                &format!("{name} (fused)"),
                &fused.transformed,
                &mut vm,
                &tree,
            );
        }
        if let Ok(parallel) = synthesize_parallel_main(&verifier, &program) {
            assert_tiers_agree(
                &format!("{name} (parallel)"),
                &parallel.transformed,
                &mut vm,
                &tree,
            );
        }
    }
}

#[test]
fn certified_lowering_is_present_and_agrees_on_a_section5_program() {
    let verifier = Verifier::builder().build();
    let program = corpus::tree_mutation_original();
    let compiled = compile_with_lowering(&verifier, &program).expect("compiles");
    assert!(
        !compiled.lowerings.is_empty(),
        "tree mutation's self-recursive passes should lower to worklist loops"
    );
    for cert in &compiled.lowerings {
        assert!(
            cert.verdict.is_equivalent(),
            "{}: lowering shipped without an equivalence certificate",
            cert.func
        );
    }
    let mut vm = Vm::new();
    let mut tree = ValueTree::complete(7, &["v"], |_, _| 0);
    tree.fill_fields(&["v"], 5);
    let table = BlockTable::build(&program);
    let expected = interp::run_with_table(&table, &tree).expect("interpreter runs");
    let actual = vm.run(&compiled, &tree).expect("VM runs");
    assert_eq!(expected.returns, actual.returns);
    assert!(trees_agree(&expected.tree, &actual.tree));
}

#[test]
fn uncertifiable_lowering_is_refused_with_a_witness() {
    let verifier = Verifier::builder().build();
    let program = corpus::tree_mutation_original();
    let func = program
        .funcs
        .iter()
        .find(|f| lower_function(f).is_some())
        .expect("some pass lowers");
    let mut lowering = lower_function(func).expect("lowerable");
    // Sabotage: visit the first child twice and never the second, which
    // drops a subtree — a genuinely inequivalent "lowering".
    lowering.axes[1] = lowering.axes[0];
    lowering.call_results[1] = lowering.call_results[0].clone();
    match certify_lowering(&verifier, &program, &lowering) {
        Err(LoweringError::Rejected { func, verdict }) => {
            assert!(
                verdict.counterexample().is_some(),
                "{func}: refusal must carry a concrete witness"
            );
        }
        other => panic!("sabotaged lowering must be rejected, got {other:?}"),
    }
}

proptest! {
    /// VM == interpreter on random tree shapes and valuations, for both a
    /// pure fold (size counting) and a mutating traversal (tree mutation).
    #[test]
    fn vm_matches_interpreter_on_random_trees(index in 0usize..600, mutating in any::<bool>()) {
        let program = if mutating {
            corpus::tree_mutation_original()
        } else {
            corpus::size_counting_sequential()
        };
        let fields = fields_of(&program);
        let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let corpus_trees = retreet_analysis::vtree::TreeCorpus::new(6, &field_refs, 3);
        let tree = corpus_trees.tree(index % corpus_trees.len());
        let mut vm = Vm::new();
        assert_tiers_agree("random", &program, &mut vm, &tree);
    }
}
