//! The frozen pre-optimization engines — the "before" of every
//! before/after benchmark, and the reference the optimized engines are
//! differentially tested against.
//!
//! This module preserves the seed revision's bounded-engine *algorithms*
//! verbatim:
//!
//! * a clone-per-branch DFS that re-runs [`wp::summarize_path`] for every
//!   (stack frame, block, path) triple on every tree and re-solves every
//!   grown constraint system from scratch (no memoization, no incremental
//!   frames),
//! * strictly sequential tree and pair loops that recompute per-pair
//!   footprints on every probe and key the dependence-order maps by
//!   rendered signature strings,
//! * an interpreter run that re-annotates function bodies per run and
//!   deep-clones the annotated body on every activation (the seed
//!   interpreter's dominant cost).
//!
//! One honesty caveat for the benchmark numbers: the naive interpreter is
//! the optimized [`crate::interp::Runner`] with the per-run re-annotation
//! and per-activation deep clone restored — it still *shares* the reworked
//! interpreter plumbing (association-list environments, pooled buffers,
//! the flat trace-position buffer, precomputed callee indices), all of
//! which make this baseline **faster** than the true seed interpreter.
//! The before/after speedups in `BENCH_engines.json` are therefore
//! conservative lower bounds on the improvement over the seed.
//!
//! Nothing here is called by production code.  The `bench_engines` binary
//! times it as the "before" column of `BENCH_engines.json`, and the
//! property-test suite asserts that the optimized engines return verdicts
//! identical to this path across the §5 corpus.  Keep it frozen: bug fixes
//! that change verdicts belong in both paths, performance work only in the
//! optimized one.

use retreet_lang::ast::Program;
use retreet_lang::blocks::BlockTable;
use retreet_lang::wp::{self, PathCondition, SymbolicEnv};
use retreet_logic::{Atom, LinExpr, Solver, Sym, SymTab, System};

use crate::configs::{
    dependence, relation, ConfigRelation, Configuration, Frame, Loc, MAX_CONFIGURATIONS, MAX_DEPTH,
};
use crate::equiv::{Disagreement, EquivCounterExample, EquivOptions, EquivVerdict};
use crate::interp::{self, ExecOrder, Iteration, RunResult};
use crate::race::{program_fields, RaceOptions, RaceVerdict, RaceWitness};
use crate::vtree::{test_trees_kary, ValueTree};

use std::collections::BTreeMap;

/// The pre-optimization interpreter entry point (deep-clones the annotated
/// body on every activation).
pub fn run_with_table(
    table: &BlockTable,
    tree: &ValueTree,
) -> Result<RunResult, interp::InterpError> {
    interp::run_with_table_impl(table, tree, true)
}

/// The pre-optimization configuration enumeration: clone-per-branch DFS,
/// per-frame weakest-precondition recomputation, uncached from-scratch
/// solving of every extension.
pub fn enumerate(table: &BlockTable, tree: &ValueTree) -> Vec<Configuration> {
    let program = table.program();
    let Some(main_idx) = program.func_index(retreet_lang::ast::MAIN) else {
        return Vec::new();
    };
    let mut symtab = SymTab::new();
    let mut out = Vec::new();
    let main_frame = Frame {
        func: main_idx,
        node: Loc::Node(tree.root()),
        call_block: None,
    };
    let main_params: Vec<LinExpr> = program.funcs[main_idx]
        .int_params
        .iter()
        .map(|p| LinExpr::var(symtab.intern(&format!("main:{p}"))))
        .collect();
    let mut stack_sig = String::from("main");
    explore(
        table,
        tree,
        &mut symtab,
        &mut out,
        vec![main_frame],
        main_params,
        System::new(),
        &mut stack_sig,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn explore(
    table: &BlockTable,
    tree: &ValueTree,
    symtab: &mut SymTab,
    out: &mut Vec<Configuration>,
    frames: Vec<Frame>,
    params: Vec<LinExpr>,
    constraints: System,
    stack_sig: &mut String,
) {
    if frames.len() > MAX_DEPTH || out.len() >= MAX_CONFIGURATIONS {
        return;
    }
    let solver = Solver::decision_only();
    let frame = frames.last().expect("non-empty stack");
    let func = &table.program().funcs[frame.func];
    let param_names = func.int_params.clone();

    for &block in table.blocks_of_func(frame.func) {
        for path in table.paths_to(block) {
            // Summarize the path symbolically in a *local* symbol table, then
            // ground it against the concrete tree and the caller-provided
            // parameter expressions.
            let mut local = SymTab::new();
            let summary = wp::summarize_path(table, &path, &param_names, &mut local);
            let Some((path_constraints, mut env)) = ground_summary(
                tree,
                frame.node,
                &summary.condition,
                summary.env,
                &local,
                &params,
                &param_names,
                symtab,
                stack_sig,
            ) else {
                continue;
            };
            let mut combined = constraints.clone();
            combined.extend_from(&path_constraints);
            if !solver.check(&combined).is_sat() {
                continue;
            }
            let info = table.info(block);
            match info.block.as_call() {
                None => {
                    out.push(Configuration {
                        frames: frames.clone(),
                        target: block,
                        constraints: combined,
                    });
                    if out.len() >= MAX_CONFIGURATIONS {
                        return;
                    }
                }
                Some(call) => {
                    let callee_node = crate::configs::resolve_loc(tree, frame.node, call.target);
                    let Some(callee_idx) = table.program().func_index(&call.callee) else {
                        continue;
                    };
                    let mut local2 = local.clone();
                    let raw_args = wp::symbolic_call_args(table, block, &mut env, &mut local2);
                    let callee_args: Vec<LinExpr> = raw_args
                        .iter()
                        .map(|arg| {
                            ground_expr(
                                arg,
                                tree,
                                frame.node,
                                &local2,
                                &params,
                                &param_names,
                                symtab,
                                stack_sig,
                            )
                        })
                        .collect::<Option<Vec<_>>>()
                        .unwrap_or_else(|| {
                            raw_args
                                .iter()
                                .enumerate()
                                .map(|(i, _)| {
                                    LinExpr::var(
                                        symtab.intern(&format!("arg:{stack_sig}:{block}:{i}")),
                                    )
                                })
                                .collect()
                        });
                    let mut child_frames = frames.clone();
                    child_frames.push(Frame {
                        func: callee_idx,
                        node: callee_node,
                        call_block: Some(block),
                    });
                    let saved_len = stack_sig.len();
                    stack_sig.push_str(&format!("/{block}@{callee_node}"));
                    explore(
                        table,
                        tree,
                        symtab,
                        out,
                        child_frames,
                        callee_args,
                        combined,
                        stack_sig,
                    );
                    stack_sig.truncate(saved_len);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn ground_summary(
    tree: &ValueTree,
    loc: Loc,
    condition: &PathCondition,
    env: SymbolicEnv,
    local: &SymTab,
    params: &[LinExpr],
    param_names: &[String],
    symtab: &mut SymTab,
    stack_sig: &str,
) -> Option<(System, SymbolicEnv)> {
    let mut feasible_cases: Vec<System> = Vec::new();
    'cases: for case in &condition.cases {
        for (node_ref, must_be_nil) in &case.nil_atoms {
            let is_nil = matches!(crate::configs::resolve_loc(tree, loc, *node_ref), Loc::Nil);
            if is_nil != *must_be_nil {
                continue 'cases;
            }
        }
        match ground_system(
            &case.arith,
            tree,
            loc,
            local,
            params,
            param_names,
            symtab,
            stack_sig,
        ) {
            Some(system) => feasible_cases.push(system),
            None => continue 'cases,
        }
    }
    if feasible_cases.is_empty() {
        return None;
    }
    let system = feasible_cases.swap_remove(0);
    Some((system, env))
}

#[allow(clippy::too_many_arguments)]
fn ground_system(
    system: &System,
    tree: &ValueTree,
    loc: Loc,
    local: &SymTab,
    params: &[LinExpr],
    param_names: &[String],
    symtab: &mut SymTab,
    stack_sig: &str,
) -> Option<System> {
    let mut out = System::new();
    for atom in system.atoms() {
        let grounded = ground_atom(
            atom,
            tree,
            loc,
            local,
            params,
            param_names,
            symtab,
            stack_sig,
        )?;
        out.push(grounded);
    }
    Some(out)
}

#[allow(clippy::too_many_arguments)]
fn ground_atom(
    atom: &Atom,
    tree: &ValueTree,
    loc: Loc,
    local: &SymTab,
    params: &[LinExpr],
    param_names: &[String],
    symtab: &mut SymTab,
    stack_sig: &str,
) -> Option<Atom> {
    let expr = ground_expr(
        atom.expr(),
        tree,
        loc,
        local,
        params,
        param_names,
        symtab,
        stack_sig,
    )?;
    Some(Atom::new(expr, atom.rel()))
}

/// Grounds every symbol of `expr` at once.  Substituting one symbol at a
/// time would be wrong: the summary's local table and the run's symbol
/// table number their symbols independently, so a grounded symbol can
/// carry the id of a local symbol still waiting for its own substitution,
/// which the next step would then rewrite.
#[allow(clippy::too_many_arguments)]
fn ground_expr(
    expr: &LinExpr,
    tree: &ValueTree,
    loc: Loc,
    local: &SymTab,
    params: &[LinExpr],
    param_names: &[String],
    symtab: &mut SymTab,
    stack_sig: &str,
) -> Option<LinExpr> {
    let mut out = LinExpr::constant(expr.constant_term());
    for (sym, coeff) in expr.terms() {
        let replacement = ground_sym(
            sym,
            tree,
            loc,
            local,
            params,
            param_names,
            symtab,
            stack_sig,
        )?;
        out = out + replacement.scale(coeff);
    }
    Some(out)
}

#[allow(clippy::too_many_arguments)]
fn ground_sym(
    sym: Sym,
    tree: &ValueTree,
    loc: Loc,
    local: &SymTab,
    params: &[LinExpr],
    param_names: &[String],
    symtab: &mut SymTab,
    stack_sig: &str,
) -> Option<LinExpr> {
    let name = local.name(sym)?.to_string();
    if let Some(param) = name.strip_prefix("param:") {
        if let Some(index) = param_names.iter().position(|p| p == param) {
            if let Some(value) = params.get(index) {
                return Some(value.clone());
            }
        }
        return Some(LinExpr::var(
            symtab.intern(&format!("local:{stack_sig}:{param}")),
        ));
    }
    if let Some(field) = name.strip_prefix("field:") {
        let (node_ref, field_name) = crate::configs::parse_field_name(field)?;
        let node = crate::configs::resolve_loc(tree, loc, node_ref).node()?;
        return Some(LinExpr::var(
            symtab.intern(&format!("treefield:{node}:{field_name}")),
        ));
    }
    if let Some(ghost) = name.strip_prefix("ghost:") {
        return Some(LinExpr::var(
            symtab.intern(&format!("ghost:{stack_sig}:{ghost}")),
        ));
    }
    Some(LinExpr::var(
        symtab.intern(&format!("opaque:{stack_sig}:{name}")),
    ))
}

/// The pre-optimization configuration-based data-race check: sequential
/// tree loop, sequential pair loop, per-pair footprint recomputation,
/// uncached mutual-feasibility solving.
pub fn check_data_race(program: &Program, options: &RaceOptions) -> RaceVerdict {
    let table = BlockTable::build(program);
    let fields = program_fields(&table);
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let trees = test_trees_kary(
        program.arity,
        options.max_nodes,
        &field_refs,
        options.valuations,
    );
    let mut total_configs = 0usize;
    for tree in &trees {
        let configs = enumerate(&table, tree);
        total_configs += configs.len();
        if let Some(witness) = find_race(&table, tree, &configs) {
            return RaceVerdict::Race(witness);
        }
    }
    RaceVerdict::RaceFree {
        trees_checked: trees.len(),
        configurations: total_configs,
    }
}

fn find_race(
    table: &BlockTable,
    tree: &ValueTree,
    configs: &[Configuration],
) -> Option<RaceWitness> {
    for (i, a) in configs.iter().enumerate() {
        for b in configs.iter().skip(i + 1) {
            if relation(table, a, b) != ConfigRelation::Parallel {
                continue;
            }
            let Some((node, field)) = dependence(table, tree, a, b) else {
                continue;
            };
            if !crate::configs::mutually_feasible(a, b) {
                continue;
            }
            return Some(RaceWitness {
                tree: tree.clone(),
                first: a.describe(table),
                second: b.describe(table),
                node,
                field,
            });
        }
    }
    None
}

/// The pre-optimization bounded equivalence check: sequential tree loop,
/// deep-cloning interpreter, string-keyed dependence-order pair loop.
pub fn check_equivalence(
    original: &Program,
    transformed: &Program,
    options: &EquivOptions,
) -> EquivVerdict {
    let table_a = BlockTable::build(original);
    let table_b = BlockTable::build(transformed);
    let mut fields = program_fields(&table_a);
    for field in program_fields(&table_b) {
        if !fields.contains(&field) {
            fields.push(field);
        }
    }
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let trees = test_trees_kary(
        original.arity.max(transformed.arity),
        options.max_nodes,
        &field_refs,
        options.valuations,
    );
    for tree in &trees {
        let run_a = run_with_table(&table_a, tree);
        let run_b = run_with_table(&table_b, tree);
        let (result_a, result_b) = match (run_a, run_b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(err), _) | (_, Err(err)) => {
                return EquivVerdict::CounterExample(Box::new(EquivCounterExample {
                    tree: tree.clone(),
                    disagreement: Disagreement::ExecutionError {
                        message: err.to_string(),
                    },
                }));
            }
        };
        if let Some(disagreement) = compare_runs(&result_a, &result_b, options) {
            return EquivVerdict::CounterExample(Box::new(EquivCounterExample {
                tree: tree.clone(),
                disagreement,
            }));
        }
    }
    EquivVerdict::Equivalent {
        trees_checked: trees.len(),
    }
}

fn compare_runs(a: &RunResult, b: &RunResult, options: &EquivOptions) -> Option<Disagreement> {
    if a.returns != b.returns {
        return Some(Disagreement::Returns {
            first: a.returns.clone(),
            second: b.returns.clone(),
        });
    }
    let fields_a = a.tree.field_snapshot();
    let fields_b = b.tree.field_snapshot();
    if fields_a != fields_b {
        let detail = first_field_difference(&fields_a, &fields_b);
        return Some(Disagreement::Fields { detail });
    }
    if options.check_dependence_order {
        if let Some(detail) = dependence_order_violation(a, b) {
            return Some(Disagreement::DependenceOrder { detail });
        }
    }
    None
}

fn first_field_difference(
    a: &BTreeMap<(crate::vtree::NodeId, String), i64>,
    b: &BTreeMap<(crate::vtree::NodeId, String), i64>,
) -> String {
    for (key, value) in a {
        match b.get(key) {
            Some(other) if other == value => continue,
            Some(other) => {
                return format!("{}.{} = {} vs {}", key.0, key.1, value, other);
            }
            None => return format!("{}.{} = {} vs <unset>", key.0, key.1, value),
        }
    }
    for (key, value) in b {
        if !a.contains_key(key) {
            return format!("{}.{} = <unset> vs {}", key.0, key.1, value);
        }
    }
    String::from("<no difference>")
}

fn dependence_order_violation(a: &RunResult, b: &RunResult) -> Option<String> {
    let sig = |it: &Iteration| -> Option<String> {
        if it.accesses.is_empty() {
            return None;
        }
        let mut parts: Vec<String> = it
            .accesses
            .iter()
            .map(|acc| {
                format!(
                    "{}.{}:{}",
                    acc.node,
                    acc.field,
                    if acc.is_write { "w" } else { "r" }
                )
            })
            .collect();
        parts.sort();
        parts.dedup();
        Some(parts.join(","))
    };
    let mut index_a: BTreeMap<String, usize> = BTreeMap::new();
    for (i, it) in a.trace.iterations.iter().enumerate() {
        if let Some(s) = sig(it) {
            index_a.entry(s).or_insert(i);
        }
    }
    let mut index_b: BTreeMap<String, usize> = BTreeMap::new();
    for (i, it) in b.trace.iterations.iter().enumerate() {
        if let Some(s) = sig(it) {
            index_b.entry(s).or_insert(i);
        }
    }
    let shared: Vec<&String> = index_a
        .keys()
        .filter(|k| index_b.contains_key(*k))
        .collect();
    for (i, sig_x) in shared.iter().enumerate() {
        for sig_y in shared.iter().skip(i + 1) {
            let (xa, ya) = (index_a[*sig_x], index_a[*sig_y]);
            let (xb, yb) = (index_b[*sig_x], index_b[*sig_y]);
            if !crate::interp::conflicting(&a.trace.iterations[xa], &a.trace.iterations[ya]) {
                continue;
            }
            let order_a = a.trace.order(xa, ya);
            let order_b = b.trace.order(xb, yb);
            let conflict = matches!(
                (order_a, order_b),
                (ExecOrder::Before, ExecOrder::After) | (ExecOrder::After, ExecOrder::Before)
            );
            if conflict {
                return Some(format!(
                    "dependent iterations `{sig_x}` and `{sig_y}` are ordered {order_a:?} in the \
                     original but {order_b:?} in the transformed program"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;

    #[test]
    fn naive_race_verdicts_match_optimized() {
        let options = RaceOptions::builder().max_nodes(3).valuations(1).build();
        for (name, program) in corpus::all() {
            let naive = check_data_race(&program, &options);
            let optimized = crate::race::check_data_race(&program, &options);
            assert_eq!(
                naive.is_race_free(),
                optimized.is_race_free(),
                "{name}: naive and optimized race verdicts diverge"
            );
        }
    }

    #[test]
    fn naive_equivalence_verdicts_match_optimized() {
        let options = EquivOptions::builder().max_nodes(3).valuations(1).build();
        let pairs = [
            (
                corpus::size_counting_sequential(),
                corpus::size_counting_fused(),
            ),
            (
                corpus::size_counting_sequential(),
                corpus::size_counting_fused_invalid(),
            ),
            (corpus::cycletree_original(), corpus::cycletree_fused()),
        ];
        for (original, transformed) in &pairs {
            let naive = check_equivalence(original, transformed, &options);
            let optimized = crate::equiv::check_equivalence(original, transformed, &options);
            assert_eq!(naive.is_equivalent(), optimized.is_equivalent());
        }
    }
}
