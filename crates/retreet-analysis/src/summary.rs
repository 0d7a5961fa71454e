//! Shared access-summary extraction and the structural (automata-based)
//! data-race analysis.
//!
//! The bounded engines decide `DataRace⟦P⟧` by enumerating trees; this
//! module decides it *structurally*, over every tree at once.  The key
//! observation (§2.1 of the paper) is that all location expressions point
//! downward — a block at invocation node `v` touches `v` or a direct child,
//! and a call launched at `v`'s child stays inside that child's subtree.  A
//! block's possible accesses therefore form a *region* relative to `v`
//! ([`retreet_mso::encode::Region`]), and any dynamically parallel pair of
//! iterations descends from a statically [`Relation::Parallel`] block pair
//! at a common invocation node.  Checking every parallel pair's guarded
//! regions for overlap ([`retreet_mso::encode::check_overlap_k`], an exact
//! case analysis) yields an unbounded `RaceFree` verdict when all of them
//! are disjoint.
//!
//! Arithmetic guards over execution-invariant values (never-written fields)
//! are additionally bridged to [`retreet_logic::bridge::ConjunctionBuilder`]
//! so contradictory guard pairs discharge candidates the structural check
//! alone cannot.

use std::collections::BTreeSet;

use retreet_lang::ast::{AExpr, BExpr, Ident, NodeRef, Program};
use retreet_lang::blocks::{BlockId, BlockTable, PathElem, Relation};
use retreet_lang::rw::rw_sets_of_block;
use retreet_lang::validate::program_has_parallelism;
use retreet_logic::bridge::ConjunctionBuilder;
use retreet_logic::LinExpr;
use retreet_mso::encode::{check_overlap_k, ChildStep, ConflictSide, Region, StructConstraint};

/// Maps a surface-language node reference to its encoding step.
pub fn step_of(node: NodeRef) -> ChildStep {
    match node {
        NodeRef::Cur => ChildStep::Here,
        NodeRef::Child(axis) => ChildStep::Child(axis.0),
    }
}

/// Per-function transitive field read/write summary: every field the
/// function or anything it (transitively) calls may touch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldSummary {
    /// Field names possibly read.
    pub reads: BTreeSet<Ident>,
    /// Field names possibly written.
    pub writes: BTreeSet<Ident>,
}

impl FieldSummary {
    /// Fields read or written.
    pub fn touched(&self) -> BTreeSet<Ident> {
        self.reads.union(&self.writes).cloned().collect()
    }
}

/// Computes the transitive field summaries of every function, indexed by
/// function position, as a call-graph fixpoint over the block-level
/// read/write sets.
pub fn transitive_field_summaries(table: &BlockTable) -> Vec<FieldSummary> {
    let program = table.program();
    let mut summaries = vec![FieldSummary::default(); program.funcs.len()];
    // Direct accesses first.
    for info in table.blocks() {
        let sets = rw_sets_of_block(table, info.id);
        let summary = &mut summaries[info.func];
        for (_, field) in sets.field_reads() {
            summary.reads.insert(field.clone());
        }
        for (_, field) in sets.field_writes() {
            summary.writes.insert(field.clone());
        }
    }
    // Then propagate along call edges until stable.
    loop {
        let mut changed = false;
        for info in table.calls() {
            let call = info.block.as_call().expect("calls() yields call blocks");
            let Some(callee) = program.func_index(&call.callee) else {
                continue;
            };
            let callee_summary = summaries[callee].clone();
            let summary = &mut summaries[info.func];
            for field in callee_summary.reads {
                changed |= summary.reads.insert(field);
            }
            for field in callee_summary.writes {
                changed |= summary.writes.insert(field);
            }
        }
        if !changed {
            return summaries;
        }
    }
}

/// Function indices reachable from `Main` through the call graph; every
/// function when the program has no `Main` (conservative).
pub fn reachable_from_main(table: &BlockTable) -> BTreeSet<usize> {
    let program = table.program();
    let Some(main) = program.func_index(retreet_lang::ast::MAIN) else {
        return (0..program.funcs.len()).collect();
    };
    let mut reachable = BTreeSet::from([main]);
    let mut frontier = vec![main];
    while let Some(func) = frontier.pop() {
        for &id in table.blocks_of_func(func) {
            let Some(call) = table.info(id).block.as_call() else {
                continue;
            };
            if let Some(callee) = program.func_index(&call.callee) {
                if reachable.insert(callee) {
                    frontier.push(callee);
                }
            }
        }
    }
    reachable
}

/// A single potential field access of a block, as a guarded region.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessSite {
    /// Where the access lands relative to the invocation node.
    pub region: Region,
    /// The field touched.
    pub field: Ident,
    /// True for a write.
    pub write: bool,
}

/// The guarded field-access sites of a block: its direct accesses (at fixed
/// offsets) plus, for call blocks, the callee's transitive summary over the
/// target subtree.
pub fn access_sites(
    table: &BlockTable,
    id: BlockId,
    summaries: &[FieldSummary],
) -> Vec<AccessSite> {
    let mut sites = Vec::new();
    let sets = rw_sets_of_block(table, id);
    for (node, field) in sets.field_reads() {
        sites.push(AccessSite {
            region: Region::At(step_of(*node)),
            field: field.clone(),
            write: false,
        });
    }
    for (node, field) in sets.field_writes() {
        sites.push(AccessSite {
            region: Region::At(step_of(*node)),
            field: field.clone(),
            write: true,
        });
    }
    if let Some(call) = table.info(id).block.as_call() {
        if let Some(callee) = table.program().func_index(&call.callee) {
            let region = Region::Subtree(step_of(call.target));
            for field in &summaries[callee].reads {
                sites.push(AccessSite {
                    region,
                    field: field.clone(),
                    write: false,
                });
            }
            for field in &summaries[callee].writes {
                sites.push(AccessSite {
                    region,
                    field: field.clone(),
                    write: true,
                });
            }
        }
    }
    sites.sort();
    sites.dedup();
    sites
}

/// A guard literal extracted from a path condition: only *necessary*
/// conditions are collected, so conjoining them over-approximates the set
/// of executions that reach the block (sound for disjointness proofs).
#[derive(Debug, Clone, PartialEq, Eq)]
enum GuardLit {
    /// `node == nil` holds with the given polarity.
    Nil(NodeRef, bool),
    /// `expr > 0` holds with the given polarity.
    Gt(AExpr, bool),
}

fn collect_literals(cond: &BExpr, polarity: bool, out: &mut Vec<GuardLit>) {
    match cond {
        BExpr::True => {}
        BExpr::IsNil(node) => out.push(GuardLit::Nil(*node, polarity)),
        BExpr::Gt(expr) => out.push(GuardLit::Gt(expr.clone(), polarity)),
        BExpr::Not(inner) => collect_literals(inner, !polarity, out),
        BExpr::And(a, b) => {
            // A conjunction is only *necessarily* true when both conjuncts
            // are; a false conjunction pins down neither conjunct.
            if polarity {
                collect_literals(a, true, out);
                collect_literals(b, true, out);
            }
        }
    }
}

/// The structural guard facts of one resolved path: the constraint on the
/// invocation node, the invariant arithmetic literals, and whether the path
/// requires the invocation node itself to be nil (in which case the block
/// performs no field access on any actual tree node).
#[derive(Debug, Clone, Default)]
pub struct PathGuard {
    /// Child-existence constraints on the invocation node.
    pub constraint: StructConstraint,
    /// True when the path assumes the invocation node is nil.
    pub at_nil: bool,
    /// `Gt` literals along the path, with polarity.
    gt_literals: Vec<(AExpr, bool)>,
}

/// Extracts the [`PathGuard`] of a resolved block path.
pub fn path_guard(elems: &[PathElem]) -> PathGuard {
    let mut literals = Vec::new();
    for elem in elems {
        if let PathElem::Assume(cond, polarity) = elem {
            collect_literals(cond, *polarity, &mut literals);
        }
    }
    let mut guard = PathGuard::default();
    for literal in literals {
        match literal {
            GuardLit::Nil(NodeRef::Cur, true) => guard.at_nil = true,
            GuardLit::Nil(NodeRef::Cur, false) => {}
            GuardLit::Nil(NodeRef::Child(axis), positive) => {
                if positive {
                    guard.constraint.require_no(axis.0);
                } else {
                    guard.constraint.require_has(axis.0);
                }
            }
            GuardLit::Gt(expr, positive) => guard.gt_literals.push((expr, positive)),
        }
    }
    guard
}

/// Lowers an arithmetic guard expression over execution-invariant values to
/// a linear expression; `None` when the expression mentions a variable or a
/// field that some reachable function may write (its value then depends on
/// execution order and the literal must not be used for pruning).
fn invariant_lin_expr(
    expr: &AExpr,
    written_fields: &BTreeSet<Ident>,
    builder: &mut ConjunctionBuilder,
) -> Option<LinExpr> {
    match expr {
        AExpr::Const(value) => Some(LinExpr::constant(*value)),
        AExpr::Var(_) => None,
        AExpr::Field(node, field) => {
            if written_fields.contains(field) {
                return None;
            }
            Some(builder.var(&format!("field:{node}:{field}")))
        }
        AExpr::Add(a, b) | AExpr::Sub(a, b) => {
            let mut lhs = invariant_lin_expr(a, written_fields, builder)?;
            let rhs = invariant_lin_expr(b, written_fields, builder)?;
            let factor = if matches!(expr, AExpr::Add(_, _)) {
                1
            } else {
                -1
            };
            for (sym, coeff) in rhs.terms() {
                lhs.add_term(sym, coeff * factor);
            }
            lhs.add_constant(rhs.constant_term() * factor);
            Some(lhs)
        }
    }
}

/// True when the two paths' invariant arithmetic guards can hold together
/// for *some* integer valuation.  Literals over mutable state are skipped
/// (over-approximation), so `false` soundly proves the paths incompatible.
fn guards_feasible(a: &PathGuard, b: &PathGuard, written_fields: &BTreeSet<Ident>) -> bool {
    let mut builder = ConjunctionBuilder::new();
    for (expr, positive) in a.gt_literals.iter().chain(b.gt_literals.iter()) {
        if let Some(lin) = invariant_lin_expr(expr, written_fields, &mut builder) {
            builder.require_gt_zero(lin, *positive);
        }
    }
    builder.feasible()
}

/// Outcome of the structural race analysis.
#[derive(Debug, Clone)]
pub enum StructuralRaceAnalysis {
    /// Every parallel block pair's guarded access regions are disjoint on
    /// every tree: the program is race-free, unboundedly.
    RaceFree {
        /// Number of parallel block pairs examined.
        pairs_examined: usize,
    },
    /// Some pair's regions may overlap; the program needs a concrete
    /// (bounded) check to decide whether the overlap is a real race.
    Candidate {
        /// Human-readable description of the first overlapping pair.
        description: String,
    },
}

impl StructuralRaceAnalysis {
    /// True for the race-free outcome.
    pub fn is_race_free(&self) -> bool {
        matches!(self, StructuralRaceAnalysis::RaceFree { .. })
    }
}

/// Decides, over all trees at once, whether any two structurally parallel
/// blocks (of any function reachable from `Main`) can touch a common field
/// of a common node.
///
/// Every dynamically parallel pair of iterations descends from two blocks
/// in distinct arms of some `Par` at a common invocation, so checking the
/// static parallel pairs with subtree-summarized call regions covers all
/// dynamic conflicts; `RaceFree` is therefore sound for every tree and
/// valuation, while `Candidate` only means "could not be discharged
/// structurally".  A program without `Par` has no parallel pair and is
/// answered before any summary is built.
pub fn structural_race_analysis(program: &Program) -> StructuralRaceAnalysis {
    if !program_has_parallelism(program) {
        return StructuralRaceAnalysis::RaceFree { pairs_examined: 0 };
    }
    let table = BlockTable::build(program);
    let summaries = transitive_field_summaries(&table);
    let reachable = reachable_from_main(&table);
    let written_fields: BTreeSet<Ident> = reachable
        .iter()
        .flat_map(|&f| summaries[f].writes.iter().cloned())
        .collect();
    let mut pairs_examined = 0usize;

    for &func in &reachable {
        let ids = table.blocks_of_func(func);
        for (pos, &first) in ids.iter().enumerate() {
            for &second in &ids[pos + 1..] {
                if table.relation(first, second) != Relation::Parallel {
                    continue;
                }
                pairs_examined += 1;
                let sites_a = access_sites(&table, first, &summaries);
                let sites_b = access_sites(&table, second, &summaries);
                for path_a in table.paths_to(first) {
                    let guard_a = path_guard(&path_a.elems);
                    if guard_a.at_nil || guard_a.constraint.contradictory() {
                        continue;
                    }
                    for path_b in table.paths_to(second) {
                        let guard_b = path_guard(&path_b.elems);
                        if guard_b.at_nil || guard_b.constraint.contradictory() {
                            continue;
                        }
                        if !guards_feasible(&guard_a, &guard_b, &written_fields) {
                            continue;
                        }
                        for site_a in &sites_a {
                            for site_b in &sites_b {
                                if site_a.field != site_b.field || !(site_a.write || site_b.write) {
                                    continue;
                                }
                                let side_a = ConflictSide {
                                    region: site_a.region,
                                    guard: guard_a.constraint,
                                };
                                let side_b = ConflictSide {
                                    region: site_b.region,
                                    guard: guard_b.constraint,
                                };
                                if !check_overlap_k(&side_a, &side_b, program.arity).is_disjoint() {
                                    let description = format!(
                                        "{} and {} may both touch field `{}` ({:?} vs {:?})",
                                        table.info(first).label,
                                        table.info(second).label,
                                        site_a.field,
                                        site_a.region,
                                        site_b.region,
                                    );
                                    return StructuralRaceAnalysis::Candidate { description };
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    StructuralRaceAnalysis::RaceFree { pairs_examined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_lang::parser::parse_program;

    #[test]
    fn summaries_are_transitive_through_calls() {
        let program = corpus::size_counting_parallel();
        let table = BlockTable::build(&program);
        let summaries = transitive_field_summaries(&table);
        // Odd/Even read nothing and write nothing (pure counters); Main
        // inherits their (empty) summaries.
        for summary in &summaries {
            assert!(summary.writes.is_empty());
        }
    }

    #[test]
    fn paper_parallel_example_is_structurally_race_free() {
        let analysis = structural_race_analysis(&corpus::size_counting_parallel());
        assert!(analysis.is_race_free(), "got {analysis:?}");
    }

    #[test]
    fn disjoint_subtree_sum_is_structurally_race_free() {
        let analysis = structural_race_analysis(&corpus::disjoint_parallel());
        assert!(analysis.is_race_free(), "got {analysis:?}");
    }

    #[test]
    fn overlapping_sum_yields_a_candidate() {
        let analysis = structural_race_analysis(&corpus::overlapping_parallel());
        assert!(!analysis.is_race_free());
    }

    #[test]
    fn sequential_programs_are_trivially_race_free() {
        // Every corpus program without `Par` takes the early exit, and the
        // full analysis agrees with it: no block pair is `Parallel`.
        let mut sequential = 0;
        for (name, program) in corpus::all() {
            if program_has_parallelism(&program) {
                continue;
            }
            sequential += 1;
            match structural_race_analysis(&program) {
                StructuralRaceAnalysis::RaceFree { pairs_examined } => {
                    assert_eq!(pairs_examined, 0, "{name}");
                }
                other => panic!("{name}: expected RaceFree, got {other:?}"),
            }
            let table = BlockTable::build(&program);
            for func in 0..program.funcs.len() {
                let ids = table.blocks_of_func(func);
                for (pos, &first) in ids.iter().enumerate() {
                    for &second in &ids[pos + 1..] {
                        assert_ne!(table.relation(first, second), Relation::Parallel, "{name}");
                    }
                }
            }
        }
        assert_eq!(sequential, 11, "corpus programs without `Par`");
    }

    #[test]
    fn incompatible_invariant_guards_discharge_candidates() {
        // Both arms write n.v, but under contradictory guards over the
        // never-written field `cfg`: structurally race-free.
        let program = parse_program(
            r#"
            fn Main(n) {
                {
                    if (n.cfg > 0) {
                        n.v = 1;
                    }
                    ||
                    if (n.cfg <= 0) {
                        n.v = 2;
                    }
                }
                return 0;
            }
        "#,
        )
        .unwrap();
        let analysis = structural_race_analysis(&program);
        assert!(analysis.is_race_free(), "got {analysis:?}");
    }

    #[test]
    fn nil_guard_separation_is_understood() {
        // One arm writes n.v only when the left child exists; the other only
        // when it does not: the guards never hold at the same node.
        let program = parse_program(
            r#"
            fn Main(n) {
                {
                    if (n.l != nil) {
                        n.v = 1;
                    }
                    ||
                    if (n.l == nil) {
                        n.v = 2;
                    }
                }
                return 0;
            }
        "#,
        )
        .unwrap();
        let analysis = structural_race_analysis(&program);
        assert!(analysis.is_race_free(), "got {analysis:?}");
    }

    #[test]
    fn conflicting_parallel_writes_are_candidates() {
        let program = parse_program(
            r#"
            fn Main(n) {
                {
                    n.v = 1;
                    ||
                    n.v = 2;
                }
                return 0;
            }
        "#,
        )
        .unwrap();
        match structural_race_analysis(&program) {
            StructuralRaceAnalysis::Candidate { description, .. } => {
                assert!(description.contains("`v`"), "{description}");
            }
            other => panic!("expected a candidate, got {other:?}"),
        }
    }
}
