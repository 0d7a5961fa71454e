//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use proptest::prelude::*;
use retreet_analysis::equiv::{check_equivalence, EquivOptions};
use retreet_analysis::race::{check_data_race, RaceOptions};
use retreet_css::css::{generate_stylesheet, parse_css};
use retreet_css::minify::{minify_fused, minify_reference, minify_unfused};
use retreet_cycletree::numbering::{fused_number_and_route, number_cycletree, random_cycletree};
use retreet_cycletree::routing::{compute_routing, route_path};
use retreet_lang::corpus;
use retreet_logic::{Atom, LinExpr, Solver, Sym, System};

proptest! {
    /// Linear-expression substitution agrees with evaluation: evaluating
    /// e[x := r] equals evaluating e with x bound to the value of r.
    #[test]
    fn linexpr_substitution_commutes_with_evaluation(
        coeff_x in -10i64..10,
        coeff_y in -10i64..10,
        constant in -50i64..50,
        replacement_coeff in -10i64..10,
        replacement_const in -50i64..50,
        x_val in -100i64..100,
        y_val in -100i64..100,
    ) {
        let x = Sym::from_usize(0);
        let y = Sym::from_usize(1);
        let e = LinExpr::scaled_var(x, coeff_x) + LinExpr::scaled_var(y, coeff_y) + LinExpr::constant(constant);
        let r = LinExpr::scaled_var(y, replacement_coeff) + LinExpr::constant(replacement_const);
        let substituted = e.substitute(x, &r);
        let lookup = |s: Sym| Some(if s == x { x_val } else { y_val });
        let r_value = r.eval(lookup).unwrap();
        let direct = e.eval(|s| Some(if s == x { r_value } else { y_val })).unwrap();
        prop_assert_eq!(substituted.eval(lookup).unwrap(), direct);
    }

    /// The solver never reports Unsat for a system that has an explicit
    /// integer witness, and any model it returns satisfies the system.
    #[test]
    fn solver_is_sound_on_random_difference_systems(
        bounds in proptest::collection::vec((-20i64..20, 0i64..10), 1..6),
    ) {
        // Build x_i >= a_i && x_i <= a_i + d_i, satisfiable by construction.
        let mut system = System::new();
        for (i, (lo, width)) in bounds.iter().enumerate() {
            let var = LinExpr::var(Sym::from_usize(i));
            system.push(Atom::ge(var.clone(), LinExpr::constant(*lo)));
            system.push(Atom::le(var, LinExpr::constant(lo + width)));
        }
        let outcome = Solver::new().check(&system);
        prop_assert!(outcome.is_sat());
        if let Some(model) = outcome.model() {
            prop_assert!(model.satisfies(&system));
        }
    }

    /// The cyclic numbering is always a permutation, and the fused traversal
    /// always agrees with the two-pass composition (the E4a invariant).
    #[test]
    fn cycletree_numbering_is_a_permutation(nodes in 1usize..120, seed in any::<u64>()) {
        let mut two_pass = random_cycletree(nodes, seed);
        number_cycletree(&mut two_pass);
        compute_routing(&mut two_pass);
        let mut fused = random_cycletree(nodes, seed);
        fused_number_and_route(&mut fused);
        prop_assert_eq!(&two_pass, &fused);
        let mut nums: Vec<i64> = fused.preorder().into_iter().map(|n| n.num).collect();
        nums.sort_unstable();
        prop_assert_eq!(nums, (0..nodes as i64).collect::<Vec<_>>());
    }

    /// Routing always terminates at the requested destination.
    #[test]
    fn cycletree_routing_reaches_destination(nodes in 2usize..80, seed in any::<u64>(), from in 0usize..80, to in 0usize..80) {
        let mut tree = random_cycletree(nodes, seed);
        fused_number_and_route(&mut tree);
        let from = (from % nodes) as i64;
        let to = (to % nodes) as i64;
        let path = route_path(&tree, from, to);
        prop_assert_eq!(*path.first().unwrap(), from);
        prop_assert_eq!(*path.last().unwrap(), to);
    }

    /// Fused and unfused CSS minification agree (and agree with the flat
    /// reference) on arbitrary generated style sheets, and minified output
    /// still parses.
    #[test]
    fn css_minification_is_fusion_invariant(rules in 0usize..60, seed in any::<u64>()) {
        let sheet = generate_stylesheet(rules, seed);
        let reference = minify_reference(&sheet);
        prop_assert_eq!(&minify_unfused(&sheet), &reference);
        prop_assert_eq!(&minify_fused(&sheet), &reference);
        prop_assert_eq!(parse_css(&reference.to_css()).unwrap(), reference);
    }

    /// The optimized race engine (incremental solving, memo caches, shared
    /// footprints) returns the same whole verdict as the frozen
    /// pre-optimization naive engine, for every program of the §5 corpus
    /// under arbitrary bounded budgets: for races the exact witness (the
    /// lowest-index tree's lowest pair), for race-free programs the same
    /// tree and configuration tallies.
    #[test]
    fn optimized_race_engine_matches_naive_across_corpus(
        max_nodes in 1usize..4,
        valuations in 1usize..3,
    ) {
        let options = RaceOptions::builder()
            .max_nodes(max_nodes)
            .valuations(valuations)
            .build();
        for (name, program) in corpus::all() {
            let naive = retreet_analysis::naive::check_data_race(&program, &options);
            let optimized = check_data_race(&program, &options);
            prop_assert_eq!(
                format!("{naive:?}"),
                format!("{optimized:?}"),
                "{}: race verdicts diverge at max_nodes={} valuations={}",
                name,
                max_nodes,
                valuations
            );
        }
    }

    /// The optimized equivalence engine returns the same whole verdict as
    /// the naive path — the same counterexample tree and disagreement, or
    /// the same tree tally — on every §5 fusion pair under arbitrary
    /// bounded budgets.
    #[test]
    fn optimized_equivalence_engine_matches_naive_across_corpus(
        max_nodes in 1usize..5,
        valuations in 1usize..3,
        check_dependence_order in any::<bool>(),
    ) {
        let options = EquivOptions::builder()
            .max_nodes(max_nodes)
            .valuations(valuations)
            .check_dependence_order(check_dependence_order)
            .build();
        let pairs = [
            ("E1a", corpus::size_counting_sequential(), corpus::size_counting_fused()),
            ("E1b", corpus::size_counting_sequential(), corpus::size_counting_fused_invalid()),
            ("E2", corpus::tree_mutation_original(), corpus::tree_mutation_fused()),
            ("E3", corpus::css_minify_original(), corpus::css_minify_fused()),
            ("E4a", corpus::cycletree_original(), corpus::cycletree_fused()),
        ];
        for (name, original, transformed) in &pairs {
            let naive = retreet_analysis::naive::check_equivalence(original, transformed, &options);
            let optimized = check_equivalence(original, transformed, &options);
            prop_assert_eq!(
                format!("{naive:?}"),
                format!("{optimized:?}"),
                "{}: equivalence verdicts diverge at max_nodes={} valuations={}",
                name,
                max_nodes,
                valuations
            );
        }
    }
}
