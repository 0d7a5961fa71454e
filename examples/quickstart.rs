//! Quickstart: write a pair of Retreet traversals, let the certified
//! transform layer *synthesize* their fusion, and run the certified fused
//! program on a real tree.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use retreet_lang::parse_program;
use retreet_transform::fuse_main_passes;
use retreet_verify::Verifier;

fn main() {
    // Two simple traversals over the same tree: `Scale` doubles every node's
    // value, `Shift` then adds the left child's value to each node.
    let original = parse_program(
        r#"
        fn Scale(n) {
            if (n == nil) { return 0; } else {
                a = Scale(n.l);
                b = Scale(n.r);
                n.v = n.v + n.v;
                return 0;
            }
        }
        fn Shift(n) {
            if (n == nil) { return 0; } else {
                a = Shift(n.l);
                b = Shift(n.r);
                if (n.l == nil) {
                    n.s = n.v;
                } else {
                    n.s = n.v + n.l.v;
                }
                return 0;
            }
        }
        fn Main(n) {
            x = Scale(n);
            y = Shift(n);
            return 0;
        }
        "#,
    )
    .expect("original parses");

    // Build the verifier once: one budget, the full engine portfolio (run in
    // authority order, unbounded engines first), and a verdict cache that
    // makes repeated legality questions O(1).
    let verifier = Verifier::builder().max_nodes(5).valuations(3).build();

    // Ask the transform layer to fuse the two passes of `Main`.  The fused
    // program is synthesized at the AST level and only returned with an
    // equivalence certificate from the verifier.
    let certified = fuse_main_passes(&verifier, &original)
        .expect("the fusion is equivalent to the two-pass original");
    println!(
        "synthesized this fused traversal:\n{}",
        certified.transformed_source()
    );
    println!("{}", certified.certificate);

    // The compiled execution tier: the certified fused program is lowered
    // to register bytecode (self-recursive passes become worklist loops,
    // each lowering certified by an equivalence verdict) and runs on the
    // VM, with the reference interpreter as the differential baseline.
    use retreet_analysis::interp;
    use retreet_analysis::vtree::ValueTree;
    use retreet_lang::blocks::BlockTable;
    use retreet_runtime::ProgramExecutor;
    use std::time::Instant;

    let executor = ProgramExecutor::with_verifier(&verifier, &certified.transformed);
    let fields = ["s", "v"];
    let mut vtree = ValueTree::complete(12, &fields, |_, _| 0);
    vtree.fill_fields(&fields, 1);
    let table = BlockTable::build(&certified.transformed);
    let start = Instant::now();
    let reference = interp::run_with_table(&table, &vtree).expect("interpreter runs");
    let interp_time = start.elapsed();
    let start = Instant::now();
    let outcome = executor.run(&vtree).expect("compiled run");
    let vm_time = start.elapsed();
    assert_eq!(reference.returns, outcome.returns);
    println!(
        "compiled tier ({}, {} certified lowerings): interpreter {:?} vs VM {:?} ({:.2}x)",
        outcome.tier,
        executor.lowerings().len(),
        interp_time,
        vm_time,
        interp_time.as_secs_f64() / vm_time.as_secs_f64().max(1e-9)
    );

    // A second, identical query is answered from the verdict cache.
    let again = fuse_main_passes(&verifier, &original).expect("cached verdict");
    let stats = verifier.cache_stats();
    println!(
        "re-certified instantly from cache ({} hit / {} miss): {} models",
        stats.hits,
        stats.misses,
        again.certificate.trees_checked(),
    );

    // The serving surface: a batch of queries fans out over worker threads
    // and comes back in input order; identical queries coalesce onto one
    // engine run (the `retreet-serve` crate speaks NDJSON over this).
    use retreet_verify::Query;
    let racy = retreet_lang::corpus::cycletree_parallel();
    let queries = [
        Query::DataRace(&original),
        Query::DataRace(&racy),
        Query::DataRace(&original),
    ];
    for (i, result) in verifier.verify_batch(&queries).iter().enumerate() {
        println!("batch[{i}]: {}", result.as_ref().expect("well-formed"));
    }
    let serving = verifier.serving_stats();
    println!(
        "serving stats: {} engine runs, {} coalesced",
        serving.engine_runs, serving.coalesced
    );
}
