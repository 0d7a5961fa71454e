//! The bytecode VM against the reference interpreter on random programs.
//!
//! `codegen_differential` runs the corpus, its transforms and shaped
//! generators; this file runs random client-style programs from the shared
//! `common` writer, most of whose functions open with the paper's nil guard
//! `if (n == nil) { return c…; }`.  A call on a nil child of such a function
//! is answered at the call site without a frame, so these programs reach
//! that path from every kind of caller: guarded or not, with or without
//! integer arguments, in either branch of a conditional or a `Par`.  Every
//! program that validates and compiles runs on a fixed set of small
//! trees through both tiers, which must agree on the returns, the post-run
//! tree and the error class.

mod common;

use std::ops::Range;

use retreet_analysis::interp;
use retreet_analysis::vtree::{TreeCorpus, ValueTree};
use retreet_codegen::{compile, program_fields, trees_agree, FuncCode, Vm, VmError};
use retreet_lang::blocks::BlockTable;
use retreet_lang::parser::parse_program;
use retreet_lang::validate::validate;

/// Percent of generated functions that open with a nil guard.
const NIL_GUARD: usize = 70;

/// What a sweep ran.
#[derive(Debug, Default)]
struct Tally {
    /// Programs that validated and compiled.
    programs: usize,
    /// Their frame functions with a call-site nil answer.
    guarded: usize,
    /// Program runs compared.
    runs: usize,
}

/// Every shape of up to 3 nodes under two valuations, and the complete
/// trees of heights 3 and 4.
fn trees(arity: u8, fields: &[&str]) -> Vec<ValueTree> {
    let corpus = TreeCorpus::with_arity(arity, 3, fields, 2);
    let mut trees: Vec<ValueTree> = (0..corpus.len()).map(|i| corpus.tree(i)).collect();
    for height in [3, 4] {
        let mut tree = ValueTree::complete_kary(arity, height, fields, |_, _| 0);
        tree.fill_fields(fields, height as u64);
        trees.push(tree);
    }
    trees
}

/// Runs the program `seed` renders, if it validates and compiles, through
/// both tiers on every tree.
fn check_seed(seed: u64, vm: &mut Vm, tally: &mut Tally) {
    let source = common::client_source(seed, NIL_GUARD);
    let program = parse_program(&source)
        .unwrap_or_else(|err| panic!("seed {seed}: generated source must parse: {err}"));
    if !validate(&program).is_empty() {
        return;
    }
    let Ok(compiled) = compile(&program) else {
        return;
    };
    tally.programs += 1;
    tally.guarded += compiled
        .funcs
        .iter()
        .filter(|code| matches!(code, FuncCode::Frames(f) if f.nil_returns.is_some()))
        .count();
    let table = BlockTable::build(&program);
    let fields = program_fields(&program);
    let names: Vec<&str> = fields.iter().map(String::as_str).collect();
    for (i, tree) in trees(program.arity, &names).iter().enumerate() {
        tally.runs += 1;
        match (
            interp::run_with_table(&table, tree),
            vm.run(&compiled, tree),
        ) {
            (Ok(expected), Ok(actual)) => {
                assert_eq!(
                    expected.returns, actual.returns,
                    "seed {seed}, tree {i}: returns differ\n{source}"
                );
                assert!(
                    trees_agree(&expected.tree, &actual.tree),
                    "seed {seed}, tree {i}: trees differ\n{source}"
                );
            }
            (Err(expected), Err(actual)) => assert_eq!(
                VmError::from_interp(&expected),
                Some(actual),
                "seed {seed}, tree {i}: error classes differ\n{source}"
            ),
            (expected, actual) => panic!(
                "seed {seed}, tree {i}: interp={:?} vm={:?}\n{source}",
                expected.map(|r| r.returns),
                actual.map(|r| r.returns)
            ),
        }
    }
}

/// Checks every seed in `seeds` on a thread whose stack holds the
/// interpreter's native recursion down to its depth cap.  The writer keeps
/// unguarded functions from calling each other, so no program recurses on
/// nil without bound, but a program that reached the cap (`fn Main(n) {
/// y = Main(n.l); … }` does) would otherwise overflow a test thread's stack.
fn sweep(seeds: Range<u64>) -> Tally {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(move || {
            let mut vm = Vm::new();
            let mut tally = Tally::default();
            for seed in seeds {
                check_seed(seed, &mut vm, &mut tally);
            }
            tally
        })
        .expect("spawn the sweep thread")
        .join()
        .expect("sweep thread")
}

#[test]
fn vm_matches_interpreter_on_random_guarded_programs() {
    let tally = sweep(0..2_000);
    assert!(
        tally.programs > 0 && tally.guarded > 0,
        "the writer must reach guarded functions: {tally:?}"
    );
}

/// The same property over 10,000 seeds (run with `--ignored`).
#[test]
#[ignore = "10,000-seed sweep; run in the heavy CI step"]
fn vm_matches_interpreter_on_random_guarded_programs_sweep() {
    let tally = sweep(0..10_000);
    eprintln!("{tally:?}");
}
