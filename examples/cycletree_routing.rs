//! Cycletree construction and routing: number a tree in cyclic order with the
//! fused traversal (whose legality is E4a of the evaluation), then route
//! point-to-point messages using the router data.
//!
//! ```bash
//! cargo run --release --example cycletree_routing
//! ```

use retreet_bench::{e4a_cycletree_fusion, e4b_cycletree_parallelization_race, Budget};
use retreet_cycletree::numbering::{cycle_order, fused_number_and_route, random_cycletree};
use retreet_cycletree::routing::route_path;

fn main() {
    // The two analysis verdicts for this case study.
    let budget = Budget::quick();
    let fusion = e4a_cycletree_fusion(&budget);
    let race = e4b_cycletree_parallelization_race(&budget);
    println!(
        "E4a (fuse numbering + routing): {:?} — {}",
        fusion.verdict, fusion.detail
    );
    println!(
        "E4b (parallelize instead):      {:?} — {}",
        race.verdict, race.detail
    );

    // Build a cycletree with the fused traversal and route some messages.
    let mut tree = random_cycletree(31, 3);
    fused_number_and_route(&mut tree);
    let order = cycle_order(&tree);
    println!("cycle order of the first 10 nodes: {:?}", &order[..10]);
    for (from, to) in [(0i64, 30i64), (7, 23), (30, 1)] {
        let path = route_path(&tree, from, to);
        println!("route {from:>2} -> {to:>2}: {path:?}");
        assert_eq!(path.last(), Some(&to), "the route ends at its destination");
    }
}
