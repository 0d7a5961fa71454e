//! Certified iterative lowering: recursion → explicit-worklist loop.
//!
//! A self-recursive traversal of the shape
//!
//! ```text
//! fn F(n) {
//!     if (nil(n)) { return c₁, …, cₖ; }
//!     else {
//!         ⟨pre⟩                  // straight-line work on n
//!         r… = F(n.d₁);
//!         ⟨mid⟩
//!         r… = F(n.d₂);          // d₂ ≠ d₁
//!         ⟨post⟩
//!         return c₁, …, cₖ;      // same constants as the nil arm
//!     }
//! }
//! ```
//!
//! is equivalent to a depth-first loop over an explicit worklist — no call
//! stack, no per-activation environment.  [`lower_function`] recognizes the
//! shape; the lowering is **never trusted**: [`certify_lowering`]
//! reconstructs a recursive function from the lowering's own pieces and asks
//! the verifier for an equivalence verdict between the original program and
//! the reconstruction (translation validation).  Only a positive verdict
//! lets the compiler emit the iterative form; a refusal carries the
//! verifier's concrete counterexample.

use std::fmt;

use retreet_lang::ast::{
    AExpr, Assign, BExpr, Block, BlockKind, CallBlock, ChildAxis, Func, Ident, NodeRef, Program,
    Stmt, StraightBlock,
};
use retreet_lang::rewrite::{flatten_seq, normalize_program};
use retreet_verify::{Query, Verdict, Verifier, VerifyError};

/// A recognized (not yet certified) iterative form of one function.
#[derive(Debug, Clone)]
pub struct IterativeLowering {
    /// The lowered function's name.
    pub func: Ident,
    /// The constants both return sites yield.
    pub returns: Vec<i64>,
    /// Child axes of the recursive calls, in visit order (pairwise
    /// distinct).  A binary traversal has two; a `k`-way one up to `k`.
    pub axes: Vec<ChildAxis>,
    /// Result variables of each call, indexed like [`Self::axes`] (dead in
    /// the lowered form — the callee returns constants — but needed to
    /// reconstruct the recursion).
    pub call_results: Vec<Vec<Ident>>,
    /// The `axes.len() + 1` straight-line segments: `segments[p]` runs
    /// before the `p`-th call, the final entry after the last call.
    pub segments: Vec<Vec<Stmt>>,
}

/// The verifier's receipt for one lowering: the equivalence verdict between
/// the original program and the recursive reconstruction of the iterative
/// form.  Carried by every [`crate::bytecode::CompiledProgram`] that runs a
/// worklist loop.
#[derive(Debug, Clone)]
pub struct LoweringCertificate {
    /// The lowered function.
    pub func: Ident,
    /// The (positive) equivalence verdict.
    pub verdict: Verdict,
}

/// Why a recognized lowering was refused the fast form.
#[derive(Debug)]
pub enum LoweringError {
    /// The verifier answered, and the answer was *not equivalent* — the
    /// verdict carries the concrete counterexample (tree + valuation on
    /// which the reconstruction disagrees with the original).
    Rejected {
        /// The function whose lowering was refused.
        func: Ident,
        /// The refusing verdict (outcome is `NotEquivalent`).
        verdict: Box<Verdict>,
    },
    /// The verifier could not answer the equivalence query at all.
    Verify(VerifyError),
}

impl fmt::Display for LoweringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoweringError::Rejected { func, verdict } => {
                write!(
                    f,
                    "iterative lowering of `{func}` refused: reconstruction is not \
                     equivalent to the original"
                )?;
                if let Some(ce) = verdict.counterexample() {
                    write!(f, " (counterexample: {ce:?})")?;
                }
                Ok(())
            }
            LoweringError::Verify(err) => write!(f, "lowering certification failed: {err}"),
        }
    }
}

impl std::error::Error for LoweringError {}

/// Recognizes the lowerable shape of `func`, if it has one.  Returning
/// `Some` is only a *candidate* — it grants nothing until
/// [`certify_lowering`] produces a positive verdict.
pub fn lower_function(func: &Func) -> Option<IterativeLowering> {
    if !func.int_params.is_empty() {
        return None;
    }
    // Body must be exactly `if (nil(n)) { return consts } else { … }`.
    let items = flatten_seq(&func.body);
    let [guard @ Stmt::If(_, _, else_branch)] = items.as_slice() else {
        return None;
    };
    let nil_returns = nil_guard(guard)?;
    if nil_returns.len() != func.num_returns {
        return None;
    }

    let else_items = flatten_seq(else_branch);
    // At least two top-level self-recursive calls on pairwise distinct
    // child axes, no other calls anywhere.
    let call_positions: Vec<usize> = else_items
        .iter()
        .enumerate()
        .filter(|(_, item)| contains_call(item))
        .map(|(i, _)| i)
        .collect();
    if call_positions.len() < 2 {
        return None;
    }
    let mut axes = Vec::new();
    let mut call_results = Vec::new();
    for &pos in &call_positions {
        let (axis, results) = self_call(&else_items[pos], func)?;
        if axes.contains(&axis) {
            return None;
        }
        axes.push(axis);
        call_results.push(results);
    }

    // Slice the straight-line work between consecutive calls into the
    // `k + 1` segments of the worklist loop.
    let mut segments: Vec<Vec<Stmt>> = Vec::with_capacity(axes.len() + 1);
    segments.push(else_items[..call_positions[0]].to_vec());
    for pair in call_positions.windows(2) {
        segments.push(else_items[pair[0] + 1..pair[1]].to_vec());
    }
    let mut post = else_items[call_positions[call_positions.len() - 1] + 1..].to_vec();
    // The last item must be the constant return, matching the nil arm.
    let ret_item = post.pop()?;
    let Stmt::Block(block) = &ret_item else {
        return None;
    };
    let BlockKind::Straight(straight) = &block.kind else {
        return None;
    };
    let exit_returns: Vec<i64> = straight
        .ret
        .as_ref()?
        .iter()
        .map(|e| match e {
            AExpr::Const(v) => Some(*v),
            _ => None,
        })
        .collect::<Option<_>>()?;
    if exit_returns != nil_returns {
        return None;
    }
    if !straight.assigns.is_empty() {
        // Keep the trailing assignments (without the return) in `post`.
        post.push(Stmt::Block(Block::straight(StraightBlock {
            assigns: straight.assigns.clone(),
            ret: None,
        })));
    }
    segments.push(post);

    // Segments must be pure traversal work: no calls (already checked), no
    // returns, no `Par`, and no variables (reads or writes) — the worklist
    // loop has no per-node environment to keep them in.
    for segment in &segments {
        if !segment.iter().all(segment_ok) {
            return None;
        }
    }

    Some(IterativeLowering {
        func: func.name.clone(),
        returns: nil_returns,
        axes,
        call_results,
        segments,
    })
}

/// Rebuilds a *recursive* function from the lowering's pieces and returns
/// the whole program with that function swapped in (normalized).  This is
/// the subject the verifier compares against the original: if the shape
/// recognizer mis-sliced the function, the reconstruction differs and the
/// equivalence query refuses the lowering.
pub fn reconstruct_recursive(program: &Program, lowering: &IterativeLowering) -> Program {
    let ret_consts: Vec<AExpr> = lowering.returns.iter().map(|v| AExpr::Const(*v)).collect();
    let call = |axis: ChildAxis, results: &[Ident]| {
        Stmt::Block(Block::call(CallBlock {
            results: results.to_vec(),
            callee: lowering.func.clone(),
            target: NodeRef::Child(axis),
            args: Vec::new(),
        }))
    };
    let mut else_items = lowering.segments[0].clone();
    for (i, axis) in lowering.axes.iter().enumerate() {
        else_items.push(call(*axis, &lowering.call_results[i]));
        else_items.extend(lowering.segments[i + 1].iter().cloned());
    }
    else_items.push(Stmt::Block(Block::straight(StraightBlock::ret(
        ret_consts.clone(),
    ))));
    let body = Stmt::if_else(
        BExpr::IsNil(NodeRef::Cur),
        Stmt::Block(Block::straight(StraightBlock::ret(ret_consts))),
        Stmt::Seq(else_items),
    );
    let funcs = program
        .funcs
        .iter()
        .map(|f| {
            if f.name == lowering.func {
                Func {
                    name: f.name.clone(),
                    loc_param: f.loc_param.clone(),
                    int_params: Vec::new(),
                    num_returns: lowering.returns.len(),
                    body: body.clone(),
                }
            } else {
                f.clone()
            }
        })
        .collect();
    normalize_program(&program.with_funcs(funcs))
}

/// Asks the verifier whether the recursive reconstruction of `lowering` is
/// equivalent to `program`.  A positive verdict yields the certificate the
/// compiled program will carry; a negative one refuses the fast form with
/// the verifier's counterexample attached.
pub fn certify_lowering(
    verifier: &Verifier,
    program: &Program,
    lowering: &IterativeLowering,
) -> Result<LoweringCertificate, LoweringError> {
    let reconstructed = reconstruct_recursive(program, lowering);
    let normalized = normalize_program(program);
    match verifier.verify(Query::Equivalence(&normalized, &reconstructed)) {
        Ok(verdict) if verdict.is_equivalent() => Ok(LoweringCertificate {
            func: lowering.func.clone(),
            verdict,
        }),
        Ok(verdict) => Err(LoweringError::Rejected {
            func: lowering.func.clone(),
            verdict: Box::new(verdict),
        }),
        Err(err) => Err(LoweringError::Verify(err)),
    }
}

/// `Some(consts)` when the first statement `stmt` runs (looking through
/// leading `Seq`s) is the nil guard `if (nil(n)) { return c₁, …, cₖ; }`
/// whose then-branch returns constants and assigns nothing (the
/// else-branch is free).
pub(crate) fn nil_guard(stmt: &Stmt) -> Option<Vec<i64>> {
    match stmt {
        Stmt::Seq(items) => nil_guard(items.first()?),
        Stmt::If(BExpr::IsNil(NodeRef::Cur), then_branch, _) => const_return(then_branch),
        _ => None,
    }
}

/// `Some(consts)` when the statement is exactly `return c₁, …, cₖ` with all
/// constants and no assignments.
fn const_return(stmt: &Stmt) -> Option<Vec<i64>> {
    let items = flatten_seq(stmt);
    let [Stmt::Block(block)] = items.as_slice() else {
        return None;
    };
    let BlockKind::Straight(straight) = &block.kind else {
        return None;
    };
    if !straight.assigns.is_empty() {
        return None;
    }
    straight
        .ret
        .as_ref()?
        .iter()
        .map(|e| match e {
            AExpr::Const(v) => Some(*v),
            _ => None,
        })
        .collect()
}

/// `Some((axis, results))` when the statement is a zero-argument
/// self-recursive call on a child of the current node.
fn self_call(stmt: &Stmt, func: &Func) -> Option<(ChildAxis, Vec<Ident>)> {
    let Stmt::Block(block) = stmt else {
        return None;
    };
    let BlockKind::Call(call) = &block.kind else {
        return None;
    };
    if call.callee != func.name || !call.args.is_empty() {
        return None;
    }
    let NodeRef::Child(axis) = call.target else {
        return None;
    };
    Some((axis, call.results.clone()))
}

fn contains_call(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Block(block) => matches!(block.kind, BlockKind::Call(_)),
        Stmt::If(_, a, b) => contains_call(a) || contains_call(b),
        Stmt::Seq(items) | Stmt::Par(items) => items.iter().any(contains_call),
    }
}

/// True when the statement is valid traversal-segment work: straight-line
/// field reads/writes and conditionals only — no calls, no returns, no
/// `Par`, no variables.
fn segment_ok(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Block(block) => match &block.kind {
            BlockKind::Call(_) => false,
            BlockKind::Straight(straight) => {
                straight.ret.is_none()
                    && straight.assigns.iter().all(|assign| match assign {
                        Assign::SetVar(..) => false,
                        Assign::SetField(_, _, value) => var_free(value),
                    })
            }
        },
        Stmt::If(cond, a, b) => cond_var_free(cond) && segment_ok(a) && segment_ok(b),
        Stmt::Seq(items) => items.iter().all(segment_ok),
        Stmt::Par(_) => false,
    }
}

fn var_free(expr: &AExpr) -> bool {
    match expr {
        AExpr::Const(_) | AExpr::Field(_, _) => true,
        AExpr::Var(_) => false,
        AExpr::Add(a, b) | AExpr::Sub(a, b) => var_free(a) && var_free(b),
    }
}

fn cond_var_free(cond: &BExpr) -> bool {
    match cond {
        BExpr::True | BExpr::IsNil(_) => true,
        BExpr::Gt(expr) => var_free(expr),
        BExpr::Not(inner) => cond_var_free(inner),
        BExpr::And(a, b) => cond_var_free(a) && cond_var_free(b),
    }
}
