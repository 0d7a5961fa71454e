//! End-to-end pipeline tests: parse → validate → analyse → execute, across
//! crates, for the two real-world substrates.

use retreet_css::css::generate_stylesheet;
use retreet_css::minify::{minify_fused, minify_reference, minify_unfused};
use retreet_cycletree::numbering::{
    complete_cycletree, cycle_order, fused_number_and_route, number_cycletree, random_cycletree,
};
use retreet_cycletree::routing::{compute_routing, route_path};
use retreet_lang::{corpus, parse_program, pretty, validate, BlockTable};
use retreet_transform::{certify_fusion, certify_parallelization};
use retreet_verify::Verifier;

#[test]
fn corpus_programs_round_trip_through_the_pretty_printer() {
    for (name, program) in corpus::all() {
        let printed = pretty::print_program(&program);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            BlockTable::build(&program).len(),
            BlockTable::build(&reparsed).len(),
            "{name} changed block count through print/parse"
        );
        assert!(validate::validate(&reparsed).is_empty(), "{name}");
    }
}

#[test]
fn css_pipeline_from_source_text_to_minified_output() {
    let sheet = generate_stylesheet(200, 123);
    let reference = minify_reference(&sheet);
    assert_eq!(minify_unfused(&sheet), reference);
    assert_eq!(minify_fused(&sheet), reference);
    assert!(reference.serialized_len() <= sheet.serialized_len());
    // And the corresponding Retreet-level fusion is certified.
    let verifier = Verifier::builder().equiv_nodes(4).valuations(1).build();
    assert!(certify_fusion(
        &verifier,
        &corpus::css_minify_original(),
        &corpus::css_minify_fused(),
    )
    .is_ok());
}

#[test]
fn cycletree_pipeline_constructs_and_routes() {
    let mut two_pass = complete_cycletree(8);
    number_cycletree(&mut two_pass);
    compute_routing(&mut two_pass);
    let mut fused = complete_cycletree(8);
    fused_number_and_route(&mut fused);
    assert_eq!(two_pass, fused);
    // Routing works between arbitrary cycle positions.
    let n = fused.len() as i64;
    for (from, to) in [(0, n - 1), (n / 2, 1), (3, 3)] {
        let path = route_path(&fused, from, to);
        assert_eq!(*path.last().unwrap(), to);
    }
    // The cycle order covers every node exactly once.
    let order = cycle_order(&fused);
    assert_eq!(order.len(), fused.len());
}

#[test]
fn parallelization_capability_is_refused_for_the_racy_cycletree_main() {
    let verifier = Verifier::builder().race_nodes(3).valuations(1).build();
    let racy = corpus::cycletree_parallel();
    assert!(certify_parallelization(&verifier, &racy, &racy).is_err());
    let race_free = corpus::size_counting_parallel();
    assert!(certify_parallelization(&verifier, &race_free, &race_free).is_ok());
}

#[test]
fn irregular_cycletrees_still_number_and_route_correctly() {
    for seed in 0..4 {
        let mut tree = random_cycletree(50, seed);
        fused_number_and_route(&mut tree);
        let mut nums: Vec<i64> = tree.preorder().into_iter().map(|n| n.num).collect();
        nums.sort_unstable();
        assert_eq!(nums, (0..50).collect::<Vec<_>>());
        for to in [0, 17, 49] {
            assert_eq!(*route_path(&tree, 0, to).last().unwrap(), to);
        }
    }
}
