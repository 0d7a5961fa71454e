//! Arity-generic property tests: random traversal programs at arities 2–4
//! must roundtrip through the printer and execute identically on the
//! reference interpreter and the bytecode VM, over enumerated k-ary trees;
//! and the VM's flat complete-tree builder must reproduce the seeded
//! `ValueTree` path at every arity 2–8.

use proptest::prelude::*;
use retreet_analysis::interp;
use retreet_analysis::vtree::{complete_kary_len, TreeCorpus, ValueTree};
use retreet_codegen::{compile, trees_agree, FlatTree, Vm};
use retreet_lang::parser::parse_program;
use retreet_lang::pretty::print_program;

/// Decodes `index` into a permutation of `0..n` (factorial number system).
fn permutation(n: usize, mut index: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for k in (1..=n).rev() {
        let fact: usize = (1..k).product();
        let pick = (index / fact) % k;
        index %= fact.max(1);
        out.push(pool.remove(pick));
    }
    out
}

/// A nil-guarded self-recursive traversal over every axis of an arity-`k`
/// program, visiting children in `order` and folding seeded constants into
/// `v` between the visits.  Axes are spelled `c0..c{k-1}`, so the program
/// exercises the indexed spelling end to end.
fn traversal_source(arity: usize, order: &[usize], seed: u64) -> String {
    let mut src = String::new();
    if arity != 2 {
        src.push_str(&format!("arity {arity};\n"));
    }
    src.push_str("fn Main(n) {\n    if (n == nil) {\n        return 0;\n    } else {\n");
    for (i, axis) in order.iter().enumerate() {
        let bump = ((seed >> (8 * i)) & 0xff) as i64;
        src.push_str(&format!("        n.v = n.v + {bump};\n"));
        src.push_str(&format!("        x{i} = Main(n.c{axis});\n"));
    }
    src.push_str("        n.total = ");
    for i in 0..order.len() {
        src.push_str(&format!("x{i} + "));
    }
    src.push_str("n.v;\n        return n.total;\n    }\n}\n");
    src
}

/// Every `(arity, height)` whose complete tree stays within the serving
/// node bound (65,535 nodes, the binary height-16 count), arities 2–8.
fn shapes_within_the_node_bound() -> Vec<(u8, usize)> {
    let mut shapes = Vec::new();
    for arity in 2..=8u8 {
        let fits = |h: usize| complete_kary_len(arity, h).is_some_and(|n| n <= 65_535);
        shapes.extend((1..).take_while(|&h| fits(h)).map(|h| (arity, h)));
    }
    shapes
}

/// Asserts that the flat complete-tree builder produces, node for node,
/// the flat view of the seeded `ValueTree` path it replaces on `run`.
fn assert_flat_builder_matches(arity: u8, height: usize, field_count: usize, seed: u64) {
    let fields: Vec<String> = ["v", "a", "total", "x"][..field_count]
        .iter()
        .map(|f| f.to_string())
        .collect();
    let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut tree = ValueTree::complete_kary(arity, height, &refs, |_, _| 0);
    tree.fill_fields(&refs, seed);
    assert_eq!(
        FlatTree::complete_kary(arity, height, &fields, seed),
        FlatTree::from_value_tree_kary(&tree, &fields, arity),
        "arity {arity}, height {height}, {field_count} fields, seed {seed}"
    );
}

/// Every arity 2–8 at every height within the node bound, each with its
/// own field count and seed.
#[test]
fn flat_complete_trees_match_the_value_tree_path_at_every_bounded_shape() {
    for (index, (arity, height)) in shapes_within_the_node_bound().into_iter().enumerate() {
        let seed = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_flat_builder_matches(arity, height, index % 5, seed);
    }
}

proptest! {
    /// The same equality on random shapes within the bound, 0–4 fields and
    /// random seeds.
    #[test]
    fn flat_complete_trees_match_the_value_tree_path_on_random_seeds(
        shape in 0usize..1024,
        field_count in 0usize..5,
        seed in any::<u64>(),
    ) {
        let shapes = shapes_within_the_node_bound();
        let (arity, height) = shapes[shape % shapes.len()];
        assert_flat_builder_matches(arity, height, field_count, seed);
    }

    /// `parse(print(p)) == p` for random k-ary programs at arities 2–4, in
    /// both the indexed (`c0..c{k-1}`) and the printed-back spelling.
    #[test]
    fn kary_programs_roundtrip_through_the_printer(
        arity in 2usize..5,
        perm in 0usize..24,
        seed in any::<u64>(),
    ) {
        let source = traversal_source(arity, &permutation(arity, perm), seed);
        let program = parse_program(&source).expect("generated program parses");
        prop_assert_eq!(program.arity as usize, arity);
        let printed = print_program(&program);
        let reparsed = parse_program(&printed).expect("printed program reparses");
        prop_assert_eq!(&reparsed, &program);
        // The printer is a fixpoint: printing the reparse changes nothing.
        prop_assert_eq!(print_program(&reparsed), printed);
    }

    /// The bytecode VM is observationally identical to the reference
    /// interpreter on random k-ary programs and enumerated k-ary trees.
    #[test]
    fn vm_matches_interpreter_on_random_kary_programs(
        arity in 2usize..5,
        perm in 0usize..24,
        seed in any::<u64>(),
        tree_index in 0usize..200,
    ) {
        let source = traversal_source(arity, &permutation(arity, perm), seed);
        let program = parse_program(&source).expect("generated program parses");
        let corpus = TreeCorpus::with_arity(arity as u8, 4, &["v", "total"], 2);
        let tree = corpus.tree(tree_index % corpus.len());
        let compiled = compile(&program).expect("generated program compiles");
        let mut vm = Vm::new();
        match (interp::run(&program, &tree), vm.run(&compiled, &tree)) {
            (Ok(expected), Ok(actual)) => {
                prop_assert_eq!(expected.returns, actual.returns);
                prop_assert!(trees_agree(&expected.tree, &actual.tree));
            }
            (Err(_), Err(_)) => {}
            (exp, act) => prop_assert!(false, "tier disagreement: interp={exp:?} vm={act:?}"),
        }
    }
}

#[test]
fn lowered_kary_traversals_match_the_interpreter_exhaustively() {
    // The lowerable shape (constant returns, one call per axis) at each
    // arity, checked interpreter-vs-VM over every enumerated tree: the
    // k+1-segment worklist loop must be exact, not just certified.
    let verifier = retreet_verify::Verifier::builder()
        .equiv_nodes(3)
        .valuations(1)
        .build();
    for arity in 2usize..5 {
        let mut src = String::new();
        if arity != 2 {
            src.push_str(&format!("arity {arity};\n"));
        }
        src.push_str("fn Main(n) {\n    if (n == nil) {\n        return 0;\n    } else {\n");
        src.push_str("        n.v = n.v + 1;\n");
        for axis in 0..arity {
            src.push_str(&format!("        x{axis} = Main(n.c{axis});\n"));
        }
        src.push_str("        n.total = n.v;\n        return 0;\n    }\n}\n");
        let program = parse_program(&src).expect("lowerable program parses");
        let compiled =
            retreet_codegen::compile_with_lowering(&verifier, &program).expect("compiles");
        assert!(
            !compiled.lowerings.is_empty(),
            "arity {arity}: the traversal should lower to a worklist loop"
        );
        let corpus = TreeCorpus::with_arity(arity as u8, 4, &["v", "total"], 2);
        let mut vm = Vm::new();
        for index in 0..corpus.len() {
            let tree = corpus.tree(index);
            let expected = interp::run(&program, &tree).expect("interp runs");
            let actual = vm.run(&compiled, &tree).expect("vm runs");
            assert_eq!(expected.returns, actual.returns, "arity {arity}");
            assert!(trees_agree(&expected.tree, &actual.tree), "arity {arity}");
        }
    }
}
