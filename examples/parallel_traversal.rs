//! Parallel traversal gated by a synthesized, certified schedule: the
//! transform layer rewrites the *sequential* size-counting program into the
//! parallel composition of Fig. 3, the race-freedom verdict certifies it
//! (E1c of the evaluation), and the certified program then computes the
//! Odd/Even counts on the VM.
//!
//! ```bash
//! cargo run --release --example parallel_traversal
//! ```

use std::time::Instant;

use retreet_analysis::interp;
use retreet_analysis::vtree::ValueTree;
use retreet_lang::blocks::BlockTable;
use retreet_lang::corpus;
use retreet_runtime::ProgramExecutor;
use retreet_transform::synthesize_parallel_main;
use retreet_verify::Verifier;

fn main() {
    // 1. Synthesis + legality: `o = Odd(n); e = Even(n);` becomes
    //    `Odd(n) ‖ Even(n)`, certified race-free.
    let verifier = Verifier::builder().race_nodes(3).valuations(1).build();
    let certified = synthesize_parallel_main(&verifier, &corpus::size_counting_sequential())
        .expect("the parallel composition is race-free");
    println!(
        "synthesized this parallel schedule:\n{}",
        certified.transformed_source()
    );
    println!("{}", certified.certificate);

    // 2. Execution: the certified parallel program, lowered to register
    //    bytecode and run on the VM (Par branches keep the reference
    //    interpreter's sequential semantics), with the interpreter timed as
    //    the baseline.
    let executor = ProgramExecutor::with_verifier(&verifier, &certified.transformed);
    let vtree = ValueTree::complete(13, &[], |_, _| 0);
    let table = BlockTable::build(&certified.transformed);
    let start = Instant::now();
    let reference = interp::run_with_table(&table, &vtree).expect("interpreter runs");
    let interp_time = start.elapsed();
    let start = Instant::now();
    let outcome = executor.run(&vtree).expect("compiled run");
    let vm_time = start.elapsed();
    assert_eq!(reference.returns, outcome.returns);
    let [odd, even] = outcome.returns[..] else {
        panic!("Main returns the two counts, got {:?}", outcome.returns);
    };
    assert_eq!((odd + even) as usize, vtree.len());
    println!("odd-layer nodes: {odd}, even-layer nodes: {even}");
    println!(
        "compiled tier ({}): interpreter {:?} vs VM {:?} ({:.2}x)",
        outcome.tier,
        interp_time,
        vm_time,
        interp_time.as_secs_f64() / vm_time.as_secs_f64().max(1e-9)
    );
}
