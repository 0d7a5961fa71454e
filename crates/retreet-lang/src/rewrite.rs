//! AST-rewriting utilities: fresh names, alpha renaming, callee renaming,
//! block splicing, inlining, dead-function elimination, and normalization to
//! the parser's canonical shape.
//!
//! These are the building blocks source-to-source transforms (the
//! `retreet-transform` crate) use to construct well-formed [`Program`]s.
//! Every constructor here preserves two invariants the transform layer's
//! certificates depend on:
//!
//! 1. **Validity** — a rewritten program built from a valid program still
//!    passes [`validate`](crate::validate::validate()) (renaming never
//!    captures, splicing never drops a return).
//! 2. **Roundtrip identity** — [`normalize_func`]/[`normalize_program`]
//!    produce the exact AST shape the parser emits, so
//!    `parse_program(print_program(p)) == p` holds structurally for any
//!    normalized program (the property the integration suite tests across
//!    the corpus *and* every generated transform output).

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::ast::{
    AExpr, Assign, BExpr, Block, BlockKind, CallBlock, Func, Ident, NodeRef, Program, Stmt,
    StraightBlock,
};

/// Returns a name based on `base` that does not collide with anything in
/// `used`, and records it as used.  `base` itself is returned when free;
/// otherwise `base_2`, `base_3`, … are probed in order.
pub fn fresh_name(base: &str, used: &mut HashSet<String>) -> String {
    if used.insert(base.to_string()) {
        return base.to_string();
    }
    let mut i = 2usize;
    loop {
        let candidate = format!("{base}_{i}");
        if used.insert(candidate.clone()) {
            return candidate;
        }
        i += 1;
    }
}

/// Every *local integer name* a function mentions: its integer parameters,
/// call-result bindings, `SetVar` targets, and plain variable reads.  Field
/// names are excluded — fields are shared tree state, not locals.
pub fn local_names(func: &Func) -> BTreeSet<Ident> {
    let mut names: BTreeSet<Ident> = func.int_params.iter().cloned().collect();
    let mut writes = BTreeSet::new();
    collect_local_accesses(&func.body, &mut names, &mut writes);
    names.extend(writes);
    names
}

/// Collects the locals a statement reads (including its returned values)
/// and writes (`SetVar` targets and call results).
fn collect_local_accesses(stmt: &Stmt, reads: &mut BTreeSet<Ident>, writes: &mut BTreeSet<Ident>) {
    match stmt {
        Stmt::Block(block) => match &block.kind {
            BlockKind::Call(call) => {
                writes.extend(call.results.iter().cloned());
                for arg in &call.args {
                    collect_aexpr_locals(arg, reads);
                }
            }
            BlockKind::Straight(straight) => {
                for assign in &straight.assigns {
                    match assign {
                        Assign::SetVar(var, value) => {
                            writes.insert(var.clone());
                            collect_aexpr_locals(value, reads);
                        }
                        Assign::SetField(_, _, value) => collect_aexpr_locals(value, reads),
                    }
                }
                for value in straight.ret.iter().flatten() {
                    collect_aexpr_locals(value, reads);
                }
            }
        },
        Stmt::If(cond, then_branch, else_branch) => {
            collect_bexpr_locals(cond, reads);
            collect_local_accesses(then_branch, reads, writes);
            collect_local_accesses(else_branch, reads, writes);
        }
        Stmt::Seq(items) | Stmt::Par(items) => {
            for item in items {
                collect_local_accesses(item, reads, writes);
            }
        }
    }
}

fn contains_return(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Block(block) => block.as_straight().is_some_and(|s| s.ret.is_some()),
        Stmt::If(_, then_branch, else_branch) => {
            contains_return(then_branch) || contains_return(else_branch)
        }
        Stmt::Seq(items) | Stmt::Par(items) => items.iter().any(contains_return),
    }
}

fn collect_aexpr_locals(expr: &AExpr, names: &mut BTreeSet<Ident>) {
    for var in expr.vars() {
        names.insert(var.clone());
    }
}

fn collect_bexpr_locals(cond: &BExpr, names: &mut BTreeSet<Ident>) {
    match cond {
        BExpr::True | BExpr::IsNil(_) => {}
        BExpr::Gt(expr) => collect_aexpr_locals(expr, names),
        BExpr::Not(inner) => collect_bexpr_locals(inner, names),
        BExpr::And(a, b) => {
            collect_bexpr_locals(a, names);
            collect_bexpr_locals(b, names);
        }
    }
}

/// Alpha-renames the *locals* of a function (integer parameters, call
/// results, `SetVar` targets, variable reads) through `rename`; names mapped
/// to `None` are kept.  Field names and callee names are untouched.  The
/// `Loc` parameter is normalized to `n` — the only spelling that survives a
/// pretty-print roundtrip, since node references print as `n`/`n.l`/`n.r`.
pub fn rename_locals(func: &Func, rename: &dyn Fn(&str) -> Option<Ident>) -> Func {
    let map = |name: &Ident| rename(name).unwrap_or_else(|| name.clone());
    Func {
        name: func.name.clone(),
        loc_param: "n".to_string(),
        int_params: func.int_params.iter().map(&map).collect(),
        num_returns: func.num_returns,
        body: rename_stmt_locals(&func.body, &map),
    }
}

/// [`rename_locals`] with a uniform prefix: every local `x` becomes
/// `{prefix}{x}` — the capture-free bulk renaming traversal fusion uses to
/// keep merged function bodies disjoint.
pub fn prefix_locals(func: &Func, prefix: &str) -> Func {
    rename_locals(func, &|name| Some(format!("{prefix}{name}")))
}

fn rename_stmt_locals(stmt: &Stmt, map: &dyn Fn(&Ident) -> Ident) -> Stmt {
    match stmt {
        Stmt::Block(block) => Stmt::Block(Block {
            kind: match &block.kind {
                BlockKind::Call(call) => BlockKind::Call(CallBlock {
                    results: call.results.iter().map(map).collect(),
                    callee: call.callee.clone(),
                    target: call.target,
                    args: call.args.iter().map(|a| rename_aexpr(a, map)).collect(),
                }),
                BlockKind::Straight(straight) => BlockKind::Straight(StraightBlock {
                    assigns: straight
                        .assigns
                        .iter()
                        .map(|assign| match assign {
                            Assign::SetVar(var, value) => {
                                Assign::SetVar(map(var), rename_aexpr(value, map))
                            }
                            Assign::SetField(node, field, value) => {
                                Assign::SetField(*node, field.clone(), rename_aexpr(value, map))
                            }
                        })
                        .collect(),
                    ret: straight
                        .ret
                        .as_ref()
                        .map(|values| values.iter().map(|v| rename_aexpr(v, map)).collect()),
                }),
            },
            label: block.label.clone(),
        }),
        Stmt::If(cond, then_branch, else_branch) => Stmt::If(
            rename_bexpr(cond, map),
            Box::new(rename_stmt_locals(then_branch, map)),
            Box::new(rename_stmt_locals(else_branch, map)),
        ),
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| rename_stmt_locals(s, map)).collect()),
        Stmt::Par(items) => Stmt::Par(items.iter().map(|s| rename_stmt_locals(s, map)).collect()),
    }
}

fn rename_aexpr(expr: &AExpr, map: &dyn Fn(&Ident) -> Ident) -> AExpr {
    match expr {
        AExpr::Const(c) => AExpr::Const(*c),
        AExpr::Var(v) => AExpr::Var(map(v)),
        AExpr::Field(node, field) => AExpr::Field(*node, field.clone()),
        AExpr::Add(a, b) => AExpr::add(rename_aexpr(a, map), rename_aexpr(b, map)),
        AExpr::Sub(a, b) => AExpr::sub(rename_aexpr(a, map), rename_aexpr(b, map)),
    }
}

fn rename_bexpr(cond: &BExpr, map: &dyn Fn(&Ident) -> Ident) -> BExpr {
    match cond {
        BExpr::True => BExpr::True,
        BExpr::IsNil(node) => BExpr::IsNil(*node),
        BExpr::Gt(expr) => BExpr::Gt(rename_aexpr(expr, map)),
        BExpr::Not(inner) => BExpr::not(rename_bexpr(inner, map)),
        BExpr::And(a, b) => BExpr::and(rename_bexpr(a, map), rename_bexpr(b, map)),
    }
}

/// Rewrites every call's callee name through `rename` (names mapped to
/// `None` are kept) — how transforms redirect recursive calls into their
/// fused replacements.
pub fn rename_callees(stmt: &Stmt, rename: &dyn Fn(&str) -> Option<Ident>) -> Stmt {
    match stmt {
        Stmt::Block(block) => Stmt::Block(Block {
            kind: match &block.kind {
                BlockKind::Call(call) => BlockKind::Call(CallBlock {
                    results: call.results.clone(),
                    callee: rename(&call.callee).unwrap_or_else(|| call.callee.clone()),
                    target: call.target,
                    args: call.args.clone(),
                }),
                BlockKind::Straight(straight) => BlockKind::Straight(straight.clone()),
            },
            label: block.label.clone(),
        }),
        Stmt::If(cond, then_branch, else_branch) => Stmt::If(
            cond.clone(),
            Box::new(rename_callees(then_branch, rename)),
            Box::new(rename_callees(else_branch, rename)),
        ),
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| rename_callees(s, rename)).collect()),
        Stmt::Par(items) => Stmt::Par(items.iter().map(|s| rename_callees(s, rename)).collect()),
    }
}

/// Flattens a statement into the list of top-level items of its sequential
/// spine: `Seq`s are spliced recursively, everything else is one item.
pub fn flatten_seq(stmt: &Stmt) -> Vec<Stmt> {
    let mut items = Vec::new();
    splice_into(stmt, &mut items);
    items
}

fn splice_into(stmt: &Stmt, items: &mut Vec<Stmt>) {
    match stmt {
        Stmt::Seq(inner) => {
            for item in inner {
                splice_into(item, items);
            }
        }
        other => items.push(other.clone()),
    }
}

/// Composes a list of statements the way the parser does: zero items is
/// `skip`, one item is the item itself, more is a `Seq` — *the* shape rule
/// behind the roundtrip-identity guarantee.
pub fn compose(mut items: Vec<Stmt>) -> Stmt {
    if items.len() == 1 {
        items.pop().unwrap()
    } else {
        Stmt::Seq(items)
    }
}

/// Normalizes a statement to the parser's canonical shape: nested `Seq`s are
/// spliced, adjacent straight-line blocks are merged (unless the first ends
/// in a `return`, which closes its block exactly like the parser's flush),
/// empty straight blocks disappear, labels are dropped, and singleton
/// sequences collapse.
pub fn normalize_stmt(stmt: &Stmt) -> Stmt {
    compose(normalize_items(stmt))
}

fn normalize_items(stmt: &Stmt) -> Vec<Stmt> {
    let mut out: Vec<Stmt> = Vec::new();
    for item in flatten_seq(stmt) {
        let normalized = match item {
            Stmt::Block(block) => match block.kind {
                BlockKind::Straight(straight) => {
                    if straight.assigns.is_empty() && straight.ret.is_none() {
                        continue;
                    }
                    // Merge into the previous straight block when it is
                    // still open (no return yet).
                    if let Some(Stmt::Block(prev)) = out.last_mut() {
                        if let BlockKind::Straight(prev_straight) = &mut prev.kind {
                            if prev_straight.ret.is_none() {
                                prev_straight.assigns.extend(straight.assigns);
                                prev_straight.ret = straight.ret;
                                continue;
                            }
                        }
                    }
                    Stmt::Block(Block::straight(straight))
                }
                BlockKind::Call(call) => Stmt::Block(Block::call(call)),
            },
            Stmt::If(cond, then_branch, else_branch) => Stmt::If(
                cond,
                Box::new(normalize_stmt(&then_branch)),
                Box::new(normalize_stmt(&else_branch)),
            ),
            Stmt::Par(branches) => Stmt::Par(branches.iter().map(normalize_stmt).collect()),
            Stmt::Seq(_) => unreachable!("flatten_seq splices sequences"),
        };
        out.push(normalized);
    }
    out
}

/// Normalizes a function: canonical body shape plus the `n` spelling of the
/// `Loc` parameter.
pub fn normalize_func(func: &Func) -> Func {
    Func {
        name: func.name.clone(),
        loc_param: "n".to_string(),
        int_params: func.int_params.clone(),
        num_returns: func.num_returns,
        body: normalize_stmt(&func.body),
    }
}

/// Normalizes every function of a program.  A normalized program satisfies
/// `parse_program(&print_program(&p)) == Ok(p)` structurally (provided every
/// call binds at least one result, which the grammar requires anyway).
pub fn normalize_program(program: &Program) -> Program {
    program.with_funcs(program.funcs.iter().map(normalize_func).collect())
}

/// Rewrites every parallel composition into the sequential composition of
/// its branches, in syntactic order, then normalizes: the sequential
/// program a data-race-free parallel program behaves like (Theorem 2).
///
/// `None` where the rewrite would not be exact:
///
/// * a branch contains a `return` — `Par` keeps the last branch's return,
///   `Seq` stops at the first;
/// * a branch writes a local that a sibling branch reads or writes — the
///   race analysis sees only tree fields (locals are activation-local), so
///   race-freedom says nothing about such a pair.
pub fn erase_par(program: &Program) -> Option<Program> {
    let funcs = program
        .funcs
        .iter()
        .map(|func| {
            Some(Func {
                body: erase_stmt(&func.body)?,
                ..func.clone()
            })
        })
        .collect::<Option<Vec<Func>>>()?;
    Some(normalize_program(&program.with_funcs(funcs)))
}

fn erase_stmt(stmt: &Stmt) -> Option<Stmt> {
    Some(match stmt {
        Stmt::Block(_) => stmt.clone(),
        Stmt::If(cond, then_branch, else_branch) => Stmt::if_else(
            cond.clone(),
            erase_stmt(then_branch)?,
            erase_stmt(else_branch)?,
        ),
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(erase_stmt).collect::<Option<_>>()?),
        Stmt::Par(branches) => {
            if branches.iter().any(contains_return) {
                return None;
            }
            let locals: Vec<_> = branches
                .iter()
                .map(|branch| {
                    let (mut reads, mut writes) = (BTreeSet::new(), BTreeSet::new());
                    collect_local_accesses(branch, &mut reads, &mut writes);
                    (reads, writes)
                })
                .collect();
            for (i, (_, writes)) in locals.iter().enumerate() {
                let shared = locals.iter().enumerate().any(|(j, (reads, other))| {
                    i != j && !(writes.is_disjoint(reads) && writes.is_disjoint(other))
                });
                if shared {
                    return None;
                }
            }
            Stmt::Seq(branches.iter().map(erase_stmt).collect::<Option<_>>()?)
        }
    })
}

/// Drops every function unreachable from `Main` (call-graph reachability),
/// preserving declaration order — the cleanup pass transforms run after
/// redirecting calls away from the functions they replaced.
pub fn retain_reachable(program: &Program) -> Program {
    let mut reachable: HashSet<String> = HashSet::new();
    let mut work: Vec<String> = vec![crate::ast::MAIN.to_string()];
    while let Some(name) = work.pop() {
        if !reachable.insert(name.clone()) {
            continue;
        }
        if let Some(func) = program.func(&name) {
            for block in func.blocks() {
                if let BlockKind::Call(call) = &block.kind {
                    work.push(call.callee.clone());
                }
            }
        }
    }
    program.with_funcs(
        program
            .funcs
            .iter()
            .filter(|f| reachable.contains(&f.name))
            .cloned()
            .collect(),
    )
}

/// Why a rewrite was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteError {
    /// Human-readable description of the unsupported shape.
    pub message: String,
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RewriteError {}

fn rewrite_err<T>(message: impl Into<String>) -> Result<T, RewriteError> {
    Err(RewriteError {
        message: message.into(),
    })
}

/// Inlines one call block: replaces `rs = g(target, args)` by `g`'s body
/// with parameters substituted by the arguments and the returns bound to
/// the result variables.
///
/// Supported callee shape (enough for the leaf/accumulator helpers that
/// show up when merging traversals): a body that is a single straight-line
/// block ending in a `return`.  When the call targets a child (`n.l`/`n.r`)
/// the callee's `n.f` reads become `n.l.f`/`n.r.f`; callee bodies that
/// reach *their* children are refused for child-targeted calls (the
/// grandchild is not expressible in the fragment).
pub fn inline_call(program: &Program, call: &CallBlock) -> Result<Vec<Stmt>, RewriteError> {
    let Some(callee) = program.func(&call.callee) else {
        return rewrite_err(format!("cannot inline call to undefined `{}`", call.callee));
    };
    let body_items = flatten_seq(&callee.body);
    let straight = match body_items.as_slice() {
        [Stmt::Block(block)] => match &block.kind {
            BlockKind::Straight(straight) if straight.ret.is_some() => straight.clone(),
            _ => {
                return rewrite_err(format!(
                    "cannot inline `{}`: body is not a single returning straight-line block",
                    call.callee
                ))
            }
        },
        _ => {
            return rewrite_err(format!(
                "cannot inline `{}`: body is not a single straight-line block",
                call.callee
            ))
        }
    };
    if call.args.len() != callee.int_params.len() {
        return rewrite_err(format!(
            "cannot inline `{}`: argument arity mismatch",
            call.callee
        ));
    }
    let ret = straight.ret.clone().unwrap_or_default();
    if call.results.len() != ret.len() {
        return rewrite_err(format!(
            "cannot inline `{}`: result arity mismatch",
            call.callee
        ));
    }
    // Substitution environment: parameters → argument expressions.  Locals
    // assigned inside the body are forwarded through the environment so the
    // common read-only case needs no fresh temporaries — but an entry whose
    // expression *reads a field* must not be forwarded lazily past a later
    // field write (the forwarded expression would re-read the field and see
    // the after-write value).  When the callee body writes any field, such
    // entries are materialized into emitted temporaries at their original
    // position, pinning the before-write value.
    let body_writes_fields = straight
        .assigns
        .iter()
        .any(|a| matches!(a, Assign::SetField(..)));
    let mut used: HashSet<Ident> = program.funcs.iter().flat_map(local_names).collect();
    let mut env: HashMap<Ident, AExpr> = HashMap::new();
    let mut assigns: Vec<Assign> = Vec::new();
    for (param, arg) in callee.int_params.iter().zip(call.args.iter()) {
        let bound = if body_writes_fields && reads_field(arg) {
            let name = fresh_name(param, &mut used);
            assigns.push(Assign::SetVar(name.clone(), arg.clone()));
            AExpr::Var(name)
        } else {
            arg.clone()
        };
        env.insert(param.clone(), bound);
    }
    for assign in &straight.assigns {
        match assign {
            Assign::SetVar(var, value) => {
                let substituted = subst_aexpr(value, &env, call.target)?;
                let bound = if body_writes_fields && reads_field(&substituted) {
                    let name = fresh_name(var, &mut used);
                    assigns.push(Assign::SetVar(name.clone(), substituted));
                    AExpr::Var(name)
                } else {
                    substituted
                };
                env.insert(var.clone(), bound);
            }
            Assign::SetField(node, field, value) => {
                let substituted = subst_aexpr(value, &env, call.target)?;
                let node = retarget(*node, call.target)?;
                assigns.push(Assign::SetField(node, field.clone(), substituted));
            }
        }
    }
    for (result, value) in call.results.iter().zip(ret.iter()) {
        let substituted = subst_aexpr(value, &env, call.target)?;
        assigns.push(Assign::SetVar(result.clone(), substituted));
    }
    Ok(vec![Stmt::Block(Block::straight(StraightBlock {
        assigns,
        ret: None,
    }))])
}

/// True when the expression reads any tree field (and is therefore
/// sensitive to being re-evaluated after a field write).
fn reads_field(expr: &AExpr) -> bool {
    match expr {
        AExpr::Const(_) | AExpr::Var(_) => false,
        AExpr::Field(_, _) => true,
        AExpr::Add(a, b) | AExpr::Sub(a, b) => reads_field(a) || reads_field(b),
    }
}

fn retarget(node: NodeRef, target: NodeRef) -> Result<NodeRef, RewriteError> {
    match (node, target) {
        (node, NodeRef::Cur) => Ok(node),
        (NodeRef::Cur, child) => Ok(child),
        (NodeRef::Child(_), NodeRef::Child(_)) => {
            rewrite_err("cannot inline a child-targeted call whose body reaches its own children")
        }
    }
}

fn subst_aexpr(
    expr: &AExpr,
    env: &HashMap<Ident, AExpr>,
    target: NodeRef,
) -> Result<AExpr, RewriteError> {
    Ok(match expr {
        AExpr::Const(c) => AExpr::Const(*c),
        AExpr::Var(v) => env.get(v).cloned().unwrap_or_else(|| AExpr::Var(v.clone())),
        AExpr::Field(node, field) => AExpr::Field(retarget(*node, target)?, field.clone()),
        AExpr::Add(a, b) => AExpr::add(subst_aexpr(a, env, target)?, subst_aexpr(b, env, target)?),
        AExpr::Sub(a, b) => AExpr::sub(subst_aexpr(a, env, target)?, subst_aexpr(b, env, target)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use crate::parser::parse_program;
    use crate::pretty::print_program;
    use crate::validate::validate;

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut used: HashSet<String> = ["x".to_string(), "x_2".to_string()].into_iter().collect();
        assert_eq!(fresh_name("x", &mut used), "x_3");
        assert_eq!(fresh_name("y", &mut used), "y");
        assert_eq!(fresh_name("y", &mut used), "y_2");
    }

    #[test]
    fn local_names_cover_params_results_and_vars() {
        let program = corpus::size_counting_sequential();
        let odd = program.func("Odd").unwrap();
        let names = local_names(odd);
        assert!(names.contains("ls") && names.contains("rs"));
        let root = corpus::cycletree_original();
        let names = local_names(root.func("RootMode").unwrap());
        assert!(names.contains("number") && names.contains("a") && names.contains("b"));
    }

    #[test]
    fn prefix_rename_preserves_validity_and_semantics_shape() {
        let program = corpus::cycletree_original();
        let renamed_funcs: Vec<Func> = program
            .funcs
            .iter()
            .map(|f| prefix_locals(f, "t0_"))
            .collect();
        let renamed = Program::new(renamed_funcs);
        // Callee names are untouched, so the program still resolves; arities
        // and structure are unchanged.
        assert!(validate(&renamed).is_empty());
        let root = renamed.func("RootMode").unwrap();
        assert_eq!(root.int_params, vec!["t0_number".to_string()]);
        assert!(local_names(root).iter().all(|n| n.starts_with("t0_")));
    }

    #[test]
    fn rename_callees_redirects_calls() {
        let program = corpus::size_counting_sequential();
        let odd = program.func("Odd").unwrap();
        let redirected = rename_callees(&odd.body, &|name| {
            (name == "Even").then(|| "Fused".to_string())
        });
        let redirected_func = Func {
            body: redirected,
            ..odd.clone()
        };
        let callees: Vec<_> = redirected_func
            .blocks()
            .into_iter()
            .filter_map(|b| b.as_call().map(|c| c.callee.clone()))
            .collect();
        assert_eq!(callees, vec!["Fused".to_string(), "Fused".to_string()]);
    }

    #[test]
    fn normalize_merges_adjacent_straight_blocks() {
        use crate::ast::{AExpr, Assign};
        let a = Stmt::Block(Block::straight(StraightBlock {
            assigns: vec![Assign::SetVar("x".into(), AExpr::Const(1))],
            ret: None,
        }));
        let b = Stmt::Block(Block::straight(StraightBlock {
            assigns: vec![Assign::SetVar("y".into(), AExpr::Const(2))],
            ret: Some(vec![AExpr::Var("y".into())]),
        }));
        let merged = normalize_stmt(&Stmt::Seq(vec![
            Stmt::Seq(vec![a]),
            Stmt::Seq(Vec::new()),
            b,
        ]));
        match merged {
            Stmt::Block(block) => {
                let straight = block.as_straight().unwrap();
                assert_eq!(straight.assigns.len(), 2);
                assert!(straight.ret.is_some());
            }
            other => panic!("expected one merged straight block, got {other:?}"),
        }
    }

    #[test]
    fn normalize_respects_return_boundaries() {
        let ret_block = Stmt::Block(Block::straight(StraightBlock::ret(vec![AExpr::Const(0)])));
        let assign_block = Stmt::Block(Block::straight(StraightBlock {
            assigns: vec![Assign::SetVar("x".into(), AExpr::Const(1))],
            ret: None,
        }));
        // A return closes its straight block; a following assignment starts
        // a new one, exactly like the parser's flush.
        let normalized = normalize_stmt(&Stmt::Seq(vec![ret_block, assign_block]));
        match normalized {
            Stmt::Seq(items) => assert_eq!(items.len(), 2),
            other => panic!("expected two blocks, got {other:?}"),
        }
    }

    #[test]
    fn normalized_corpus_programs_are_already_canonical() {
        for (name, program) in corpus::all() {
            assert_eq!(
                normalize_program(&program),
                program,
                "{name} is parser-canonical"
            );
        }
    }

    #[test]
    fn normalized_programs_roundtrip_through_the_printer() {
        for (name, program) in corpus::all() {
            let normalized = normalize_program(&program);
            let printed = print_program(&normalized);
            let reparsed = parse_program(&printed).expect("printed program parses");
            assert_eq!(reparsed, normalized, "{name} roundtrips");
        }
    }

    #[test]
    fn erasing_par_yields_the_sequential_corpus_forms() {
        let pairs = [
            (
                corpus::size_counting_parallel(),
                corpus::size_counting_sequential(),
            ),
            (
                corpus::ternary_sum_parallel(),
                corpus::ternary_sum_sequential(),
            ),
            (corpus::cycletree_parallel(), corpus::cycletree_original()),
        ];
        for (parallel, sequential) in pairs {
            assert_eq!(erase_par(&parallel), Some(sequential.clone()));
            assert_eq!(erase_par(&sequential), Some(sequential));
        }
    }

    #[test]
    fn erasing_par_refuses_branch_returns_and_shared_locals() {
        let erase = |main: &str| {
            let source = format!("fn Leaf(n) {{ return 1; }}\nfn Main(n) {{\n{main}\n}}");
            erase_par(&parse_program(&source).expect("test program parses"))
        };
        // Disjoint locals erase; a local read after the `Par` is fine.
        assert!(erase("{ a = Leaf(n); || b = Leaf(n); } return a + b;").is_some());
        // `Par` is last-return-wins, `Seq` first-return-wins.
        assert_eq!(erase("{ a = Leaf(n); || return 2; } return a;"), None);
        // Write-write and write-read sharing across siblings.
        assert_eq!(erase("{ a = Leaf(n); || a = Leaf(n); } return a;"), None);
        assert_eq!(erase("{ a = Leaf(n); || b = a + 1; } return b;"), None);
        // Sibling reads of the same local are not a conflict.
        assert!(erase("k = 1; { a = k + 1; || b = k + 2; } return a + b;").is_some());
    }

    #[test]
    fn retain_reachable_drops_dead_functions() {
        let program = parse_program(
            r#"
            fn Dead(n) { return 0; }
            fn Live(n) {
                if (n == nil) { return 0; } else {
                    a = Live(n.l);
                    return a;
                }
            }
            fn Main(n) {
                x = Live(n);
                return x;
            }
        "#,
        )
        .unwrap();
        let kept = retain_reachable(&program);
        assert!(kept.func("Dead").is_none());
        assert!(kept.func("Live").is_some() && kept.main().is_some());
    }

    #[test]
    fn inline_leaf_call_substitutes_args_and_results() {
        let program = parse_program(
            r#"
            fn AddOne(n, k) {
                t = k + 1;
                return t;
            }
            fn Main(n) {
                x = AddOne(n, 4);
                return x;
            }
        "#,
        )
        .unwrap();
        let main = program.main().unwrap();
        let call = main.blocks()[0].as_call().unwrap().clone();
        let inlined = inline_call(&program, &call).expect("inlinable");
        match &inlined[..] {
            [Stmt::Block(block)] => {
                let straight = block.as_straight().unwrap();
                // x = (4 + 1), with the temporary forwarded away.
                assert_eq!(straight.assigns.len(), 1);
                assert_eq!(
                    straight.assigns[0],
                    Assign::SetVar("x".into(), AExpr::add(AExpr::Const(4), AExpr::Const(1)))
                );
            }
            other => panic!("expected one straight block, got {other:?}"),
        }
    }

    #[test]
    fn inline_child_call_retargets_fields() {
        let program = parse_program(
            r#"
            fn ReadV(n) {
                return n.v;
            }
            fn Main(n) {
                x = ReadV(n.l);
                return x;
            }
        "#,
        )
        .unwrap();
        let call = program.main().unwrap().blocks()[0]
            .as_call()
            .unwrap()
            .clone();
        let inlined = inline_call(&program, &call).expect("inlinable");
        let Stmt::Block(block) = &inlined[0] else {
            panic!("expected block");
        };
        let straight = block.as_straight().unwrap();
        assert_eq!(
            straight.assigns[0],
            Assign::SetVar(
                "x".into(),
                AExpr::Field(NodeRef::Child(crate::ast::ChildAxis::LEFT), "v".into())
            )
        );
    }

    #[test]
    fn inline_refuses_recursive_and_grandchild_shapes() {
        let program = corpus::size_counting_sequential();
        let main = program.main().unwrap();
        let call = main.blocks()[0].as_call().unwrap().clone();
        // Odd's body is an if with recursive calls — not inlinable.
        assert!(inline_call(&program, &call).is_err());

        let grandchild = parse_program(
            r#"
            fn ReadChild(n) {
                return n.l.v;
            }
            fn Main(n) {
                x = ReadChild(n.r);
                return x;
            }
        "#,
        )
        .unwrap();
        let call = grandchild.main().unwrap().blocks()[0]
            .as_call()
            .unwrap()
            .clone();
        assert!(inline_call(&grandchild, &call).is_err());
    }

    #[test]
    fn inline_materializes_field_reads_before_later_writes() {
        // The callee reads `n.v` *before* overwriting it; the inlined block
        // must pin the before-write value in a temporary instead of lazily
        // forwarding the field read past the write.
        let program = parse_program(
            r#"
            fn Bump(n) {
                t = n.v;
                n.v = 5;
                return t;
            }
            fn Main(n) {
                x = Bump(n);
                return x;
            }
        "#,
        )
        .unwrap();
        let call = program.main().unwrap().blocks()[0]
            .as_call()
            .unwrap()
            .clone();
        let inlined = inline_call(&program, &call).expect("inlinable");
        let Stmt::Block(block) = &inlined[0] else {
            panic!("expected block");
        };
        let straight = block.as_straight().unwrap();
        // Temporary read, field write, result bound to the temporary.
        assert_eq!(straight.assigns.len(), 3);
        let Assign::SetVar(tmp, AExpr::Field(NodeRef::Cur, field)) = &straight.assigns[0] else {
            panic!("expected a materialized field read, got {straight:?}");
        };
        assert_eq!(field, "v");
        assert_ne!(
            tmp, "x",
            "the temporary must not collide with caller locals"
        );
        assert_eq!(
            straight.assigns[1],
            Assign::SetField(NodeRef::Cur, "v".into(), AExpr::Const(5))
        );
        assert_eq!(
            straight.assigns[2],
            Assign::SetVar("x".into(), AExpr::Var(tmp.clone()))
        );
    }

    #[test]
    fn inline_materializes_field_reading_arguments_past_writes() {
        // The argument `n.v` is evaluated caller-side before the call; a
        // callee that writes `n.v` must still see the original argument.
        let program = parse_program(
            r#"
            fn Stash(n, k) {
                n.v = 0;
                return k;
            }
            fn Main(n) {
                x = Stash(n, n.v);
                return x;
            }
        "#,
        )
        .unwrap();
        let call = program.main().unwrap().blocks()[0]
            .as_call()
            .unwrap()
            .clone();
        let inlined = inline_call(&program, &call).expect("inlinable");
        let Stmt::Block(block) = &inlined[0] else {
            panic!("expected block");
        };
        let straight = block.as_straight().unwrap();
        assert_eq!(straight.assigns.len(), 3);
        let Assign::SetVar(tmp, AExpr::Field(NodeRef::Cur, field)) = &straight.assigns[0] else {
            panic!("expected a materialized argument read, got {straight:?}");
        };
        assert_eq!(field, "v");
        assert_eq!(
            straight.assigns[1],
            Assign::SetField(NodeRef::Cur, "v".into(), AExpr::Const(0))
        );
        assert_eq!(
            straight.assigns[2],
            Assign::SetVar("x".into(), AExpr::Var(tmp.clone()))
        );
    }
}
