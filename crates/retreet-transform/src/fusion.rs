//! Traversal fusion: merge the consecutive traversal passes of `Main` into
//! a single fused traversal, certified by an equivalence verdict.
//!
//! # The construction
//!
//! Fusing `r1 = F(n, ā); r2 = G(n, b̄);` means synthesizing one function
//! that computes both results in a single walk.  Because Retreet traversals
//! may be *mutually recursive* (`Odd` calls `Even`) and *mode-switching*
//! (the cycletree's `InMode` calls `PostMode` on one child and `PreMode` on
//! the other), the unit of fusion is not a pair of functions but a **tuple**
//! of functions, discovered through a worklist:
//!
//! 1. The root tuple is the run of callees in `Main`, e.g. `(Odd, Even)`.
//! 2. For each tuple, every component is alpha-renamed apart
//!    (`f0_`, `f1_`, …) and decomposed into its *traversal shape*: the
//!    nil-branch, the recursive branch's call-free segments, the recursive
//!    calls (one per child), and the final return.
//! 3. The fused body interleaves the components segment by segment; at each
//!    call position the components' calls merge into a single call to the
//!    fused function of the *callee tuple* — which is pushed onto the
//!    worklist if it has not been built yet.  `(Odd, Even)` thus discovers
//!    `(Even, Odd)`, and `(RootMode, ComputeRouting)` discovers the three
//!    other cycletree mode pairs, reconstructing Fig. 9's hand-fused shape
//!    mechanically.
//! 4. Returns concatenate: the fused function returns every component's
//!    results, and the rewritten `Main` binds them to the original result
//!    variables in one call.
//!
//! The construction is deliberately *heuristic* — components whose call
//! orders differ are re-aligned to the first component's order, and segment
//! interleavings may reorder field accesses.  Soundness never rests on the
//! construction: the resulting program is only released inside a
//! [`CertifiedTransform`] whose equivalence verdict the verifier produced,
//! and incorrect constructions are refused with the counterexample.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;

use retreet_lang::ast::{
    AExpr, BExpr, Block, BlockKind, CallBlock, Func, NodeRef, Program, Stmt, StraightBlock, MAIN,
};
use retreet_lang::rewrite;
use retreet_lang::validate::validate;
use retreet_verify::Verifier;

use crate::{certify_fusion, finalize_program, unsupported, CertifiedTransform, TransformError};

/// The decomposed shape of a traversal function: a nil-guard conditional
/// whose recursive branch is a sequence of call-free segments separated by
/// recursive calls, ending in a return.
struct Shape {
    /// The nil branch: straight-line assignments plus the return values.
    nil: StraightBlock,
    /// `calls.len() + 1` call-free segment item lists (final return
    /// stripped from the last).
    segments: Vec<Vec<Stmt>>,
    /// The recursive calls, in the component's own syntactic order.
    calls: Vec<CallBlock>,
    /// The recursive branch's return values.
    rec_ret: Vec<AExpr>,
}

impl Shape {
    fn call_on(&self, target: NodeRef) -> Option<&CallBlock> {
        self.calls.iter().find(|c| c.target == target)
    }
}

fn stmt_contains_call(stmt: &Stmt) -> bool {
    stmt.blocks().iter().any(|b| b.is_call())
}

fn stmt_contains_ret(stmt: &Stmt) -> bool {
    stmt.blocks()
        .iter()
        .any(|b| b.as_straight().is_some_and(|s| s.ret.is_some()))
}

/// Decomposes a (locally renamed) traversal function into its [`Shape`],
/// refusing anything outside the supported fragment with a precise reason.
fn shape_of(func: &Func) -> Result<Shape, TransformError> {
    let body = rewrite::normalize_stmt(&func.body);
    let Stmt::If(cond, then_branch, else_branch) = body else {
        return unsupported(format!(
            "function `{}` does not start with a nil-guard conditional",
            func.name
        ));
    };
    let (nil_stmt, rec_stmt) = match &cond {
        BExpr::IsNil(NodeRef::Cur) => (*then_branch, *else_branch),
        BExpr::Not(inner) if matches!(**inner, BExpr::IsNil(NodeRef::Cur)) => {
            (*else_branch, *then_branch)
        }
        _ => {
            return unsupported(format!(
                "function `{}` is not guarded by a nil check on the current node",
                func.name
            ))
        }
    };

    // Nil branch: a single straight-line block ending in a return.
    let nil_items = rewrite::flatten_seq(&nil_stmt);
    let nil = match nil_items.as_slice() {
        [Stmt::Block(block)] => match &block.kind {
            BlockKind::Straight(straight) if straight.ret.is_some() => straight.clone(),
            _ => {
                return unsupported(format!(
                    "function `{}`: nil branch is not a returning straight-line block",
                    func.name
                ))
            }
        },
        _ => {
            return unsupported(format!(
                "function `{}`: nil branch is not a single straight-line block",
                func.name
            ))
        }
    };

    // Recursive branch: split into call-free segments around the calls.
    let mut segments: Vec<Vec<Stmt>> = vec![Vec::new()];
    let mut calls: Vec<CallBlock> = Vec::new();
    for item in rewrite::flatten_seq(&rec_stmt) {
        match &item {
            Stmt::Block(block) => match &block.kind {
                BlockKind::Call(call) => {
                    if call.target == NodeRef::Cur {
                        return unsupported(format!(
                            "function `{}` calls `{}` on the current node; only \
                             child-descending recursive calls can be fused",
                            func.name, call.callee
                        ));
                    }
                    if call.results.is_empty() {
                        return unsupported(format!(
                            "function `{}`: call to `{}` binds no results",
                            func.name, call.callee
                        ));
                    }
                    calls.push(call.clone());
                    segments.push(Vec::new());
                }
                BlockKind::Straight(_) => segments.last_mut().unwrap().push(item),
            },
            other => {
                if stmt_contains_call(other) {
                    return unsupported(format!(
                        "function `{}` nests a recursive call under a conditional or \
                         parallel composition",
                        func.name
                    ));
                }
                segments.last_mut().unwrap().push(item.clone());
            }
        }
    }

    // The final return must close the last segment; returns anywhere else
    // (early returns) cannot be merged.
    let last = segments.last_mut().unwrap();
    let rec_ret = match last.pop() {
        Some(Stmt::Block(block)) => match block.kind {
            BlockKind::Straight(straight) if straight.ret.is_some() => {
                let StraightBlock { assigns, ret } = straight;
                if !assigns.is_empty() {
                    last.push(Stmt::Block(Block::straight(StraightBlock {
                        assigns,
                        ret: None,
                    })));
                }
                ret.unwrap()
            }
            _ => {
                return unsupported(format!(
                    "function `{}`: recursive branch does not end in a return",
                    func.name
                ))
            }
        },
        _ => {
            return unsupported(format!(
                "function `{}`: recursive branch does not end in a return",
                func.name
            ))
        }
    };
    if segments.iter().flatten().any(stmt_contains_ret) {
        return unsupported(format!(
            "function `{}` returns before the end of its recursive branch",
            func.name
        ));
    }

    Ok(Shape {
        nil,
        segments,
        calls,
        rec_ret,
    })
}

/// The worklist-driven builder: tuple of function names → fused function.
struct FusionBuilder<'a> {
    program: &'a Program,
    used_names: HashSet<String>,
    tuple_names: HashMap<Vec<String>, String>,
    queue: VecDeque<Vec<String>>,
    fused: Vec<Func>,
}

impl<'a> FusionBuilder<'a> {
    fn new(program: &'a Program) -> Self {
        FusionBuilder {
            program,
            used_names: program.funcs.iter().map(|f| f.name.clone()).collect(),
            tuple_names: HashMap::new(),
            queue: VecDeque::new(),
            fused: Vec::new(),
        }
    }

    /// The fused function's name for a tuple, enqueueing the tuple for
    /// construction on first sight.
    fn fused_name_for(&mut self, tuple: &[String]) -> String {
        if let Some(name) = self.tuple_names.get(tuple) {
            return name.clone();
        }
        let base = format!("Fused_{}", tuple.join("_"));
        let name = rewrite::fresh_name(&base, &mut self.used_names);
        self.tuple_names.insert(tuple.to_vec(), name.clone());
        self.queue.push_back(tuple.to_vec());
        name
    }

    /// Builds every queued tuple function (the queue grows as call-site
    /// tuples are discovered).
    fn build_all(&mut self) -> Result<(), TransformError> {
        while let Some(tuple) = self.queue.pop_front() {
            let name = self.tuple_names[&tuple].clone();
            let func = self.build_tuple_func(&tuple, name)?;
            self.fused.push(func);
        }
        Ok(())
    }

    fn build_tuple_func(&mut self, tuple: &[String], name: String) -> Result<Func, TransformError> {
        // Alpha-rename each component apart so the merged body is
        // capture-free.
        let components: Vec<Func> = tuple
            .iter()
            .enumerate()
            .map(|(i, fname)| {
                let func = self.program.func(fname).ok_or_else(|| {
                    TransformError::UnsupportedShape(format!(
                        "call to undefined function `{fname}`"
                    ))
                })?;
                Ok(rewrite::prefix_locals(func, &format!("f{i}_")))
            })
            .collect::<Result<_, TransformError>>()?;
        let shapes: Vec<Shape> = components
            .iter()
            .map(shape_of)
            .collect::<Result<_, TransformError>>()?;

        // Canonical call order: the first component's; every component must
        // call exactly the same set of children, once each.
        let canonical: Vec<NodeRef> = shapes[0].calls.iter().map(|c| c.target).collect();
        let mut sorted = canonical.clone();
        sorted.sort();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return unsupported(format!(
                "function `{}` calls the same child more than once",
                tuple[0]
            ));
        }
        for (fname, shape) in tuple.iter().zip(&shapes) {
            let mut targets: Vec<NodeRef> = shape.calls.iter().map(|c| c.target).collect();
            targets.sort();
            if targets != sorted {
                return unsupported(format!(
                    "functions `{}` and `{fname}` descend into different children and \
                     cannot be aligned",
                    tuple[0]
                ));
            }
        }

        // Interleave: per merge position, every component's segment in tuple
        // order, then the single fused call for the canonical child.
        let mut items: Vec<Stmt> = Vec::new();
        for position in 0..=canonical.len() {
            for shape in &shapes {
                items.extend(shape.segments[position].iter().cloned());
            }
            if let Some(&target) = canonical.get(position) {
                let mut results = Vec::new();
                let mut args = Vec::new();
                let mut callee_tuple = Vec::new();
                for shape in &shapes {
                    let call = shape.call_on(target).expect("target set was checked");
                    results.extend(call.results.iter().cloned());
                    args.extend(call.args.iter().cloned());
                    callee_tuple.push(call.callee.clone());
                }
                let callee = self.fused_name_for(&callee_tuple);
                items.push(Stmt::Block(Block::call(CallBlock {
                    results,
                    callee,
                    target,
                    args,
                })));
            }
        }
        let rec_ret: Vec<AExpr> = shapes.iter().flat_map(|s| s.rec_ret.clone()).collect();
        items.push(Stmt::Block(Block::straight(StraightBlock::ret(rec_ret))));
        let rec_branch = rewrite::normalize_stmt(&Stmt::Seq(items));

        let nil_branch = Stmt::Block(Block::straight(StraightBlock {
            assigns: shapes
                .iter()
                .flat_map(|s| s.nil.assigns.iter().cloned())
                .collect(),
            ret: Some(
                shapes
                    .iter()
                    .flat_map(|s| s.nil.ret.clone().unwrap_or_default())
                    .collect(),
            ),
        }));

        let num_returns = components.iter().map(|c| c.num_returns).sum();
        if num_returns == 0 {
            return unsupported("fused traversal would return no values");
        }
        Ok(Func {
            name,
            loc_param: "n".to_string(),
            int_params: components
                .iter()
                .flat_map(|c| c.int_params.iter().cloned())
                .collect(),
            num_returns,
            body: Stmt::if_else(BExpr::IsNil(NodeRef::Cur), nil_branch, rec_branch),
        })
    }
}

/// The run of consecutive fusable calls in `Main`: start index into the
/// flattened body and the calls themselves.
pub(crate) fn find_fusable_run(items: &[Stmt]) -> Result<(usize, Vec<CallBlock>), TransformError> {
    let mut start = 0;
    while start < items.len() {
        let Stmt::Block(block) = &items[start] else {
            start += 1;
            continue;
        };
        let Some(first) = block.as_call() else {
            start += 1;
            continue;
        };
        // Grow the run while the next item is a call on the same node that
        // is independent of the run so far; a dependent call *ends* the run
        // rather than refusing the program — the suffix starting at it may
        // still fuse.  Dependence is (a) reading or rebinding an earlier
        // call's result, or (b) reading any tree field in an argument once
        // the run is non-empty: an earlier traversal may write any field,
        // and merging would move the read before it.
        let mut run: Vec<CallBlock> = vec![first.clone()];
        let mut bound: HashSet<&String> = first.results.iter().collect();
        for item in &items[start + 1..] {
            let Stmt::Block(block) = item else { break };
            let Some(call) = block.as_call() else { break };
            if call.target != first.target
                || call.results.iter().any(|r| bound.contains(r))
                || call
                    .args
                    .iter()
                    .any(|arg| arg.vars().iter().any(|v| bound.contains(*v)))
                || call.args.iter().any(|arg| !arg.field_reads().is_empty())
            {
                break;
            }
            bound.extend(call.results.iter());
            run.push(call.clone());
        }
        if run.len() >= 2 {
            return Ok((start, run));
        }
        start += run.len();
    }
    unsupported(
        "Main contains no run of two or more consecutive, independent same-node traversal calls",
    )
}

/// The pre-finalization pieces of one grouped program: the function list,
/// the group call statements (so schedule variants can rearrange them) and
/// the names of the freshly synthesized fused functions.
pub(crate) struct GroupedRun {
    pub(crate) funcs: Vec<Func>,
    pub(crate) group_calls: Vec<CallBlock>,
    pub(crate) synthesized: Vec<String>,
}

/// Builds the sequentially grouped program for one grouping of the run
/// `run`, found at `items[start..]` of `Main`'s flattened body: fused
/// functions for every multi-pass group, original calls for singletons,
/// `Main` rewritten with one call per group.  The single whole-run group
/// is the canonical fusion ([`fuse_main_passes`]); the schedule autotuner
/// ([`crate::tune`]) builds every contiguous grouping the same way.
pub(crate) fn build_grouping(
    program: &Program,
    items: &[Stmt],
    start: usize,
    run: &[CallBlock],
    groups: &[Range<usize>],
) -> Result<GroupedRun, TransformError> {
    let mut builder = FusionBuilder::new(program);
    let mut group_calls: Vec<CallBlock> = Vec::new();
    for range in groups {
        let calls = &run[range.clone()];
        if calls.len() == 1 {
            group_calls.push(calls[0].clone());
            continue;
        }
        let tuple: Vec<String> = calls.iter().map(|c| c.callee.clone()).collect();
        let callee = builder.fused_name_for(&tuple);
        group_calls.push(CallBlock {
            results: calls
                .iter()
                .flat_map(|c| c.results.iter().cloned())
                .collect(),
            callee,
            target: calls[0].target,
            args: calls.iter().flat_map(|c| c.args.iter().cloned()).collect(),
        });
    }
    builder.build_all()?;
    let mut funcs = std::mem::take(&mut builder.fused);
    let synthesized: Vec<String> = funcs.iter().map(|f| f.name.clone()).collect();
    funcs.extend(program.funcs.iter().filter(|f| f.name != MAIN).cloned());

    let main = program.main().expect("validated programs have a Main");
    let mut new_items: Vec<Stmt> = items[..start].to_vec();
    new_items.extend(
        group_calls
            .iter()
            .map(|call| Stmt::Block(Block::call(call.clone()))),
    );
    new_items.extend(items[start + run.len()..].iter().cloned());
    funcs.push(Func {
        body: rewrite::compose(new_items),
        ..main.clone()
    });
    Ok(GroupedRun {
        funcs,
        group_calls,
        synthesized,
    })
}

/// Fuses the first run of two or more consecutive traversal calls in `Main`
/// into a single fused traversal, and certifies the transformation with an
/// equivalence verdict from `verifier`.
///
/// On the paper corpus this synthesizes Fig. 6a from the sequential
/// size-counting program (E1), the fused CSS minifier from the three-pass
/// original (E3), the fused `Swap`+`IncrmLeft` traversal (E2), and the four
/// fused cycletree modes of Fig. 9 (E4a) — each carrying its own
/// certificate.
///
/// Errors: [`TransformError::UnsupportedShape`] when no fusable run exists
/// or a callee is outside the supported traversal fragment;
/// [`TransformError::NotEquivalent`] when the verifier refuses the
/// construction with a counterexample.
pub fn fuse_main_passes(
    verifier: &Verifier,
    program: &Program,
) -> Result<CertifiedTransform, TransformError> {
    if let Some(first) = validate(program).first() {
        return unsupported(format!("input program fails validation: {first}"));
    }
    let main = program.main().expect("validated programs have a Main");
    let items = rewrite::flatten_seq(&main.body);
    let (start, run) = find_fusable_run(&items)?;
    let whole_run = 0..run.len();
    let grouped = build_grouping(program, &items, start, &run, &[whole_run])?;
    let transformed = finalize_program(program.with_funcs(grouped.funcs))?;
    let mut certified = certify_fusion(verifier, program, &transformed)?;
    certified.synthesized = grouped.synthesized;
    Ok(certified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::ast::ChildAxis;
    use retreet_lang::corpus;
    use retreet_lang::parser::parse_program;
    use retreet_lang::pretty::print_program;
    use retreet_verify::Engine;

    fn verifier() -> Verifier {
        Verifier::builder().equiv_nodes(4).valuations(2).build()
    }

    #[test]
    fn fuses_the_mutually_recursive_size_counting_pair() {
        let certified =
            fuse_main_passes(&verifier(), &corpus::size_counting_sequential()).expect("E1 fuses");
        // The worklist discovers the swapped tuple: two fused functions plus
        // Main, and Main performs a single traversal call.
        let names: Vec<&str> = certified
            .transformed
            .funcs
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["Fused_Odd_Even", "Fused_Even_Odd", "Main"]);
        let main = certified.transformed.main().unwrap();
        assert_eq!(
            main.blocks().iter().filter(|b| b.is_call()).count(),
            1,
            "Main performs a single fused call"
        );
        // The automata tier establishes the synthesized fusion's
        // correspondence directly, so the certificate is unbounded.
        assert_eq!(certified.certificate.engine(), Engine::Automata);
    }

    #[test]
    fn fuses_the_three_css_minification_passes() {
        let certified =
            fuse_main_passes(&verifier(), &corpus::css_minify_original()).expect("E3 fuses");
        // All three passes are self-recursive, so a single fused function
        // covers the whole tuple.
        assert_eq!(certified.transformed.funcs.len(), 2);
        let fused = &certified.transformed.funcs[0];
        assert_eq!(fused.name, "Fused_ConvertValues_MinifyFont_ReduceInit");
        assert_eq!(fused.num_returns, 3);
    }

    #[test]
    fn fuses_the_reordered_tree_mutation_pair() {
        // Swap descends l-then-r, IncrmLeft r-then-l; the builder re-aligns
        // IncrmLeft to Swap's order and the verifier confirms equivalence.
        let certified =
            fuse_main_passes(&verifier(), &corpus::tree_mutation_original()).expect("E2 fuses");
        assert!(certified.certificate.verdict.is_equivalent());
        // Exact reconstruction of the axis permutation: the fused function
        // descends in the *first* component's (Swap's) order — axis 0, then
        // axis 1 — even though IncrmLeft's own order was the reverse.
        let fused = certified
            .transformed
            .funcs
            .iter()
            .find(|f| f.name.starts_with("Fused_"))
            .expect("a fused function");
        let call_order: Vec<NodeRef> = fused
            .blocks()
            .into_iter()
            .filter_map(|b| b.as_call().map(|c| c.target))
            .collect();
        assert_eq!(
            call_order,
            vec![
                NodeRef::Child(ChildAxis::LEFT),
                NodeRef::Child(ChildAxis::RIGHT)
            ]
        );
    }

    #[test]
    fn aligns_kary_call_orders_to_the_first_components_permutation() {
        // Two ternary passes over disjoint fields whose child orders are
        // different permutations of {c0, c1, c2}: the builder re-aligns the
        // second to the first's order and the fused function reconstructs
        // exactly that permutation.
        let program = retreet_lang::parse_program(
            r#"
            arity 3;
            fn A(n) {
                if (n == nil) { return 0; } else {
                    x = A(n.c1);
                    y = A(n.c0);
                    z = A(n.c2);
                    n.a = x + y + z + 1;
                    return x + y + z + 1;
                }
            }
            fn B(n) {
                if (n == nil) { return 0; } else {
                    x = B(n.c2);
                    y = B(n.c1);
                    z = B(n.c0);
                    n.b = x + y + z + n.v;
                    return x + y + z + n.v;
                }
            }
            fn Main(n) {
                p = A(n);
                q = B(n);
                return p + q;
            }
            "#,
        )
        .expect("parses");
        let verifier = Verifier::builder().equiv_nodes(3).valuations(1).build();
        let certified = fuse_main_passes(&verifier, &program).expect("ternary pair fuses");
        assert!(certified.certificate.verdict.is_equivalent());
        let fused = certified
            .transformed
            .funcs
            .iter()
            .find(|f| f.name.starts_with("Fused_"))
            .expect("a fused function");
        let call_order: Vec<NodeRef> = fused
            .blocks()
            .into_iter()
            .filter_map(|b| b.as_call().map(|c| c.target))
            .collect();
        // A's order — c1, c0, c2 — is canonical.
        assert_eq!(
            call_order,
            vec![
                NodeRef::Child(ChildAxis(1)),
                NodeRef::Child(ChildAxis(0)),
                NodeRef::Child(ChildAxis(2))
            ]
        );
        assert_eq!(certified.transformed.arity, 3);
    }

    #[test]
    fn fuses_the_cycletree_modes_into_four_fused_functions() {
        let verifier = Verifier::builder().equiv_nodes(4).valuations(1).build();
        let certified =
            fuse_main_passes(&verifier, &corpus::cycletree_original()).expect("E4a fuses");
        // (RootMode, ComputeRouting) discovers the Pre/In/Post pairs —
        // Fig. 9's hand-fused program, synthesized.
        assert_eq!(certified.synthesized.len(), 4);
        assert!(certified
            .synthesized
            .iter()
            .all(|name| certified.transformed.func(name).is_some()));
    }

    #[test]
    fn fused_outputs_roundtrip_and_validate() {
        for program in [
            corpus::size_counting_sequential(),
            corpus::tree_mutation_original(),
            corpus::css_minify_original(),
        ] {
            let certified = fuse_main_passes(&verifier(), &program).expect("fusable");
            assert!(validate(&certified.transformed).is_empty());
            let printed = print_program(&certified.transformed);
            assert_eq!(parse_program(&printed).unwrap(), certified.transformed);
        }
    }

    #[test]
    fn dependent_calls_split_the_run_instead_of_refusing_the_program() {
        // `b = G(n, a)` reads the first call's result, so (F, G) cannot
        // merge — but the (G, H) suffix is independent and must be fused.
        let program = retreet_lang::parse_program(
            r#"
            fn F(n) {
                if (n == nil) { return 0; } else {
                    x = F(n.l);
                    y = F(n.r);
                    return x + y + n.v;
                }
            }
            fn G(n, k) {
                if (n == nil) { return 0; } else {
                    x = G(n.l, k);
                    y = G(n.r, k);
                    return x + y + k;
                }
            }
            fn H(n) {
                if (n == nil) { return 0; } else {
                    x = H(n.l);
                    y = H(n.r);
                    return x + y + 1;
                }
            }
            fn Main(n) {
                a = F(n);
                b = G(n, a);
                c = H(n);
                return a + b + c;
            }
        "#,
        )
        .unwrap();
        let certified = fuse_main_passes(&verifier(), &program).expect("the (G, H) suffix fuses");
        let main = certified.transformed.main().unwrap();
        let callees: Vec<String> = main
            .blocks()
            .into_iter()
            .filter_map(|b| b.as_call().map(|c| c.callee.clone()))
            .collect();
        assert_eq!(callees, vec!["F".to_string(), "Fused_G_H".to_string()]);
    }

    #[test]
    fn programs_without_a_fusable_run_are_refused() {
        let fused_already = corpus::size_counting_fused();
        assert!(matches!(
            fuse_main_passes(&verifier(), &fused_already),
            Err(TransformError::UnsupportedShape(_))
        ));
    }
}
