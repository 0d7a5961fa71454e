//! Bounded validity and satisfiability checking.
//!
//! MONA decides WS2S over *all* finite binary trees.  This module provides
//! the bounded substitute used by the reproduction: it enumerates every
//! binary tree shape up to a node bound and model-checks the formula on each
//! (free second-order variables, if any, are enumerated as labelings).  A
//! counterexample is therefore always a concrete tree, exactly like the
//! counterexamples MONA returns; a "valid up to bound" verdict plays the role
//! of MONA's unbounded "valid" in the experiment harness, and the bound is
//! reported alongside so results are never over-claimed.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::checker::{eval, Assignment};
use crate::formula::Formula;
use crate::tree::{shared_trees_up_to, shared_trees_with, LabeledTree};

/// The verdict of a bounded validity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedVerdict {
    /// The formula held on every enumerated tree (up to the bound).
    ValidUpTo {
        /// The node bound that was exhausted.
        max_nodes: usize,
        /// How many models were checked.
        trees_checked: usize,
    },
    /// A tree on which the formula fails.
    CounterExample(LabeledTree),
}

impl BoundedVerdict {
    /// True for the `ValidUpTo` case.
    pub fn is_valid(&self) -> bool {
        matches!(self, BoundedVerdict::ValidUpTo { .. })
    }

    /// The counterexample tree, if any.
    pub fn counterexample(&self) -> Option<&LabeledTree> {
        match self {
            BoundedVerdict::CounterExample(tree) => Some(tree),
            BoundedVerdict::ValidUpTo { .. } => None,
        }
    }
}

/// Checks that a *closed* formula holds on every binary tree with at most
/// `max_nodes` nodes.
pub fn check_validity(formula: &Formula, max_nodes: usize) -> BoundedVerdict {
    static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);
    check_validity_cancellable(formula, max_nodes, &NEVER_CANCELLED)
        .expect("never-raised cancel flag cannot cancel the check")
}

/// [`check_validity`] with a cooperative cancel flag: returns `None` (and
/// no verdict) as soon as `cancel` is observed raised.  The verifier
/// façade raises the flag when a query's deadline expires or its dispatch
/// is aborted.
///
/// The flag is checked once per evaluated model *and* once per tree-size
/// tranche: the corpus is materialized through [`shared_trees_with`] one
/// size at a time (instead of [`shared_trees_up_to`]'s monolithic build,
/// which at 13 nodes spends seconds and hundreds of MB before any check
/// could run), so a lost run reacts within one tranche rather than after
/// the whole Catalan-sized corpus exists.  Model order is unchanged —
/// smallest trees first — so counterexamples are identical to
/// [`check_validity`]'s.
pub fn check_validity_cancellable(
    formula: &Formula,
    max_nodes: usize,
    cancel: &AtomicBool,
) -> Option<BoundedVerdict> {
    debug_assert!(
        formula.free_fo_vars().is_empty() && formula.free_so_vars().is_empty(),
        "bounded validity requires a closed formula; quantify the free variables"
    );
    let mut trees_checked = 0;
    for size in 1..=max_nodes {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        for tree in shared_trees_with(size).iter() {
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            trees_checked += 1;
            if !eval(formula, tree, &Assignment::new()) {
                return Some(BoundedVerdict::CounterExample(tree.clone()));
            }
        }
    }
    Some(BoundedVerdict::ValidUpTo {
        max_nodes,
        trees_checked,
    })
}

/// Checks whether a *closed* formula is satisfiable by some binary tree with
/// at most `max_nodes` nodes; returns a witness if so.
pub fn check_satisfiability(formula: &Formula, max_nodes: usize) -> Option<LabeledTree> {
    shared_trees_up_to(max_nodes)
        .iter()
        .find(|tree| eval(formula, tree, &Assignment::new()))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::FoVar;

    /// ∀x. reach(root, x) — "the root reaches every node".
    fn root_reaches_all() -> Formula {
        Formula::forall_fo(
            "r",
            Formula::implies(
                Formula::Root(FoVar::new("r")),
                Formula::forall_fo("x", Formula::Reach(FoVar::new("r"), FoVar::new("x"))),
            ),
        )
    }

    #[test]
    fn tautology_is_valid_up_to_bound() {
        let verdict = check_validity(&root_reaches_all(), 5);
        assert!(verdict.is_valid());
        match verdict {
            BoundedVerdict::ValidUpTo { trees_checked, .. } => {
                // Catalan(1..=5) = 1 + 2 + 5 + 14 + 42.
                assert_eq!(trees_checked, 64);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn falsifiable_formula_yields_a_counterexample() {
        // "every node is a leaf" fails as soon as a tree has two nodes.
        let formula = Formula::forall_fo("x", Formula::Leaf(FoVar::new("x")));
        let verdict = check_validity(&formula, 3);
        let tree = verdict.counterexample().expect("counterexample");
        assert!(tree.len() >= 2);
    }

    #[test]
    fn satisfiability_finds_a_witness() {
        // "there are at least three nodes in a left chain".
        let formula = Formula::exists_fo(
            "a",
            Formula::exists_fo(
                "b",
                Formula::exists_fo(
                    "c",
                    Formula::and(
                        Formula::Left(FoVar::new("a"), FoVar::new("b")),
                        Formula::Left(FoVar::new("b"), FoVar::new("c")),
                    ),
                ),
            ),
        );
        let witness = check_satisfiability(&formula, 3).expect("witness");
        assert_eq!(witness.len(), 3);
        assert!(check_satisfiability(&formula, 2).is_none());
    }

    #[test]
    fn raised_cancel_flag_aborts_bounded_validity_without_a_verdict() {
        let cancel = AtomicBool::new(true);
        assert!(check_validity_cancellable(&root_reaches_all(), 5, &cancel).is_none());
        let cancel = AtomicBool::new(false);
        let verdict = check_validity_cancellable(&root_reaches_all(), 5, &cancel).unwrap();
        assert!(verdict.is_valid());
    }

    #[test]
    fn unsatisfiable_formula_has_no_witness() {
        let formula = Formula::exists_fo(
            "x",
            Formula::and(
                Formula::Root(FoVar::new("x")),
                Formula::not(Formula::Reach(FoVar::new("x"), FoVar::new("x"))),
            ),
        );
        assert!(check_satisfiability(&formula, 4).is_none());
    }
}
