//! Parallel schedule synthesis: rewrite independent sequential compositions
//! into parallel compositions, certified by a race-freedom verdict.
//!
//! Two granularities, mirroring the paper's two parallelism stories:
//!
//! * [`synthesize_parallel_main`] — *pass-level*: `Main`'s consecutive
//!   traversal calls become parallel branches (`Odd(n) ‖ Even(n)`, the
//!   E1c question).
//! * [`parallelize_recursive_calls`] — *recursion-level*: inside every
//!   traversal function, sibling recursive calls that descend into
//!   *distinct* children become parallel branches (the disjoint-subtree
//!   parallelism Theorem 2 licenses).
//!
//! The rewriters only group calls that are syntactically independent
//! (disjoint result bindings, no argument reading an earlier result); the
//! semantic question — is the parallel program data-race-free? — goes to
//! the verifier, and the transformed program is only released with the
//! race-freedom verdict as its certificate (Theorem 2).  A program whose
//! parallelization races is refused with the concrete witness, exactly like
//! the cycletree parallelization of §5 (E4b).

use std::collections::HashSet;

use retreet_lang::ast::{CallBlock, Func, Program, Stmt, MAIN};
use retreet_lang::rewrite;
use retreet_lang::validate::validate;
use retreet_verify::Verifier;

use crate::{
    certify_parallelization, finalize_program, unsupported, CertifiedTransform, TransformError,
};

/// Whether two calls may join the same parallel run: disjoint result
/// bindings, no dataflow from earlier results into later arguments, no
/// tree-field reads in the joining call's arguments (an earlier branch's
/// traversal may write the field, and hoisting the read into a parallel
/// branch would reorder it), and — when `distinct_targets` is set —
/// pairwise different child targets.
fn run_accepts(run: &[CallBlock], call: &CallBlock, distinct_targets: bool) -> bool {
    let bound: HashSet<&String> = run.iter().flat_map(|c| c.results.iter()).collect();
    if call.results.iter().any(|r| bound.contains(r)) {
        return false;
    }
    if call
        .args
        .iter()
        .any(|arg| arg.vars().iter().any(|v| bound.contains(*v)))
    {
        return false;
    }
    if !run.is_empty()
        && run
            .iter()
            .chain(std::iter::once(call))
            .any(|c| c.args.iter().any(|arg| !arg.field_reads().is_empty()))
    {
        return false;
    }
    if distinct_targets && run.iter().any(|c| c.target == call.target) {
        return false;
    }
    true
}

/// Rewrites a statement, turning maximal qualifying runs of consecutive
/// call blocks into parallel compositions.  Returns the rewritten statement
/// and how many runs were parallelized.  `pub(crate)` so the schedule
/// autotuner ([`crate::tune`]) can apply the same rewrite to its partially
/// fused candidates.
pub(crate) fn parallelize_stmt(stmt: &Stmt, distinct_targets: bool) -> (Stmt, usize) {
    let mut changed = 0usize;
    let items = rewrite::flatten_seq(stmt);
    let mut out: Vec<Stmt> = Vec::new();
    let mut run: Vec<CallBlock> = Vec::new();

    fn flush(out: &mut Vec<Stmt>, run: &mut Vec<CallBlock>, changed: &mut usize) {
        if run.len() >= 2 {
            *changed += 1;
            out.push(Stmt::Par(
                run.drain(..)
                    .map(|call| Stmt::Block(retreet_lang::ast::Block::call(call)))
                    .collect(),
            ));
        } else {
            out.extend(
                run.drain(..)
                    .map(|call| Stmt::Block(retreet_lang::ast::Block::call(call))),
            );
        }
    }

    for item in items {
        match &item {
            Stmt::Block(block) => match block.as_call() {
                Some(call) if run_accepts(&run, call, distinct_targets) => {
                    run.push(call.clone());
                }
                Some(call) => {
                    flush(&mut out, &mut run, &mut changed);
                    run.push(call.clone());
                }
                None => {
                    flush(&mut out, &mut run, &mut changed);
                    out.push(item);
                }
            },
            Stmt::If(cond, then_branch, else_branch) => {
                flush(&mut out, &mut run, &mut changed);
                let (then_rw, then_changed) = parallelize_stmt(then_branch, distinct_targets);
                let (else_rw, else_changed) = parallelize_stmt(else_branch, distinct_targets);
                changed += then_changed + else_changed;
                out.push(Stmt::if_else(cond.clone(), then_rw, else_rw));
            }
            Stmt::Par(branches) => {
                flush(&mut out, &mut run, &mut changed);
                let rewritten: Vec<Stmt> = branches
                    .iter()
                    .map(|b| {
                        let (rw, c) = parallelize_stmt(b, distinct_targets);
                        changed += c;
                        rw
                    })
                    .collect();
                out.push(Stmt::Par(rewritten));
            }
            Stmt::Seq(_) => unreachable!("flatten_seq splices sequences"),
        }
    }
    flush(&mut out, &mut run, &mut changed);
    (rewrite::compose(out), changed)
}

/// Rewrites `Main`'s consecutive independent traversal calls into a
/// parallel composition and certifies the result race-free.
///
/// On the sequential size-counting program this synthesizes exactly the
/// Fig. 3 parallel composition `Odd(n) ‖ Even(n)` and certifies it; on the
/// sequential cycletree program the synthesized schedule races on `num` and
/// is refused with the witness (the E4b refusal, reproduced mechanically).
pub fn synthesize_parallel_main(
    verifier: &Verifier,
    program: &Program,
) -> Result<CertifiedTransform, TransformError> {
    if let Some(first) = validate(program).first() {
        return unsupported(format!("input program fails validation: {first}"));
    }
    let main = program.main().expect("validated programs have a Main");
    let (new_body, changed) = parallelize_stmt(&main.body, false);
    if changed == 0 {
        return unsupported("Main contains no run of independent consecutive calls");
    }
    let transformed = replace_func(program, MAIN, new_body)?;
    certify_parallelization(verifier, program, &transformed)
}

/// Rewrites sibling recursive calls on distinct children into parallel
/// compositions across every non-`Main` function, and certifies the result
/// race-free: each parallel branch descends into a subtree no sibling
/// branch touches.
pub fn parallelize_recursive_calls(
    verifier: &Verifier,
    program: &Program,
) -> Result<CertifiedTransform, TransformError> {
    if let Some(first) = validate(program).first() {
        return unsupported(format!("input program fails validation: {first}"));
    }
    let mut changed_total = 0usize;
    let funcs: Vec<Func> = program
        .funcs
        .iter()
        .map(|func| {
            if func.name == MAIN {
                return func.clone();
            }
            let (body, changed) = parallelize_stmt(&func.body, true);
            changed_total += changed;
            Func {
                body,
                ..func.clone()
            }
        })
        .collect();
    if changed_total == 0 {
        return unsupported("no function has independent sibling recursive calls");
    }
    let transformed = finalize_program(program.with_funcs(funcs))?;
    certify_parallelization(verifier, program, &transformed)
}

fn replace_func(program: &Program, name: &str, body: Stmt) -> Result<Program, TransformError> {
    let funcs: Vec<Func> = program
        .funcs
        .iter()
        .map(|func| {
            if func.name == name {
                Func {
                    body: body.clone(),
                    ..func.clone()
                }
            } else {
                func.clone()
            }
        })
        .collect();
    finalize_program(program.with_funcs(funcs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_lang::validate::has_parallelism;

    fn verifier() -> Verifier {
        Verifier::builder().race_nodes(3).valuations(1).build()
    }

    #[test]
    fn synthesizes_the_fig3_parallel_composition() {
        let certified = synthesize_parallel_main(&verifier(), &corpus::size_counting_sequential())
            .expect("Odd ‖ Even is race-free");
        let main = certified.transformed.main().unwrap();
        assert!(has_parallelism(&main.body));
        assert!(certified.certificate.verdict.is_race_free());
        // The synthesized program matches the corpus parallel program.
        assert_eq!(certified.transformed, corpus::size_counting_parallel());
    }

    #[test]
    fn refuses_the_racy_cycletree_schedule_with_a_witness() {
        match synthesize_parallel_main(&verifier(), &corpus::cycletree_original()) {
            Err(TransformError::DataRace(witness)) => assert_eq!(witness.field, "num"),
            other => panic!("expected the E4b data-race refusal, got {other:?}"),
        }
    }

    #[test]
    fn parallelizes_disjoint_sibling_recursion() {
        let certified =
            parallelize_recursive_calls(&verifier(), &corpus::size_counting_sequential())
                .expect("sibling recursion over disjoint subtrees is race-free");
        // Odd and Even both gained a parallel pair of child calls.
        for name in ["Odd", "Even"] {
            let func = certified.transformed.func(name).unwrap();
            assert!(has_parallelism(&func.body), "{name} was parallelized");
        }
        assert!(certified.certificate.verdict.is_race_free());
    }

    #[test]
    fn already_parallel_or_call_free_programs_are_refused() {
        assert!(matches!(
            synthesize_parallel_main(&verifier(), &corpus::size_counting_fused()),
            Err(TransformError::UnsupportedShape(_))
        ));
    }
}
