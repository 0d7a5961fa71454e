//! The stack-free bytecode VM.
//!
//! Activations are pooled `Frame` records over one shared register arena —
//! no per-call `HashMap` environment, no `String` field lookups, no trace
//! recording.  A call on the nil node of a function that opens with the
//! paper's nil guard `if (nil(n)) { return c…; }` pushes no frame: after the
//! depth check, the guard's constants go straight into the caller's result
//! registers.  A call on a node starts past the guard, and `Ret` copies the
//! returned registers straight into the caller's result registers.
//! Certified iterative lowerings bypass frames entirely: the VM drains an
//! explicit `(node, phase)` worklist, running the lowered function's
//! straight-line segments around each subtree and skipping the empty ones
//! (the pre and mid segments of a post-order traversal).
//!
//! Semantics match [`retreet_analysis::interp`] instruction-for-instruction:
//! wrapping `i64` arithmetic, unset variables reading 0, child selectors of
//! a nil node resolving to nil (so `nil(n.l)` on a leaf is just true, and a
//! call targeting `n.l` runs its callee on the nil node), nil field access
//! failing, and the same `MAX_DEPTH` recursion guard.  Worklist execution
//! has no *machine* recursion, but it still enforces the interpreter's
//! depth cap on the traversal it replaces — the recursive original counts
//! one activation per visited node (nil children included, since their
//! calls are made before the nil guard returns), and outcome parity with
//! the reference is part of the differential contract.

use std::fmt;

use retreet_analysis::interp::InterpError;
use retreet_analysis::vtree::ValueTree;
use retreet_lang::ast::ChildAxis;

use crate::bytecode::{CompiledProgram, FuncCode, Instr, IterativeFunc, NodeSel};
use crate::flat::{FlatTree, NIL};

/// Maximum live frames, matching the interpreter's recursion guard.
pub const MAX_DEPTH: usize = 10_000;

/// A runtime failure (the VM's mirror of the interpreter's errors; compile
/// errors like unknown callees are caught earlier, at compile time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A field access on the nil node.
    NilDereference,
    /// More than [`MAX_DEPTH`] nested calls — frame-based frames plus the
    /// activation depth a lowered traversal's recursive original would
    /// need.
    DepthExceeded,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NilDereference => write!(f, "field access on nil node"),
            VmError::DepthExceeded => {
                write!(f, "recursion depth exceeded {MAX_DEPTH}")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl VmError {
    /// The VM error of the same class as the interpreter's `err`, the one a
    /// differential run must see.  `None` for the failures the VM tier
    /// reports at compile time instead (no `Main`, an unknown callee).
    pub fn from_interp(err: &InterpError) -> Option<VmError> {
        match err {
            InterpError::NilDereference { .. } => Some(VmError::NilDereference),
            InterpError::DepthExceeded => Some(VmError::DepthExceeded),
            InterpError::NoMain | InterpError::UnknownFunction(_) => None,
        }
    }
}

/// The outcome of a run: `Main`'s return values and the post-run tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmResult {
    /// Values returned by `Main`.
    pub returns: Vec<i64>,
    /// The tree after all field writes.
    pub tree: ValueTree,
}

/// One pooled activation record.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Function index.
    func: u16,
    /// The node this activation runs on ([`NIL`] is legal).
    node: u32,
    /// Resume pc (saved across calls).
    pc: u32,
    /// First register of this activation's window.
    base: u32,
}

/// A reusable virtual machine.  All working storage (register arena, frame
/// stack, worklist) is pooled and reused across runs, so a long-lived `Vm`
/// allocates only while growing to its high-water mark.
#[derive(Debug, Default)]
pub struct Vm {
    regs: Vec<i64>,
    frames: Vec<Frame>,
    work: Vec<(u32, u8)>,
}

impl Vm {
    /// A fresh VM with empty pools.
    pub fn new() -> Self {
        Vm::default()
    }

    /// Runs `program` on `tree`: flattens the tree, executes, writes the
    /// field columns back.
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        tree: &ValueTree,
    ) -> Result<VmResult, VmError> {
        let mut flat = FlatTree::from_value_tree_kary(tree, &program.fields, program.arity);
        let returns = self.run_flat(program, &mut flat)?;
        Ok(VmResult {
            returns,
            tree: flat.write_back(tree, &program.fields),
        })
    }

    /// Runs `program` directly on an already-flattened tree (mutated in
    /// place), returning `Main`'s values.  This is the allocation-light path
    /// benchmarks and batch runners use.
    pub fn run_flat(
        &mut self,
        program: &CompiledProgram,
        tree: &mut FlatTree,
    ) -> Result<Vec<i64>, VmError> {
        self.regs.clear();
        self.frames.clear();
        self.work.clear();
        let root = tree.root();
        match &program.funcs[program.main as usize] {
            FuncCode::Iterative(lowered) => {
                self.run_iterative(lowered, tree, root)?;
                return Ok(lowered.returns.clone());
            }
            FuncCode::Frames(main) => {
                self.regs.resize(main.num_regs as usize, 0);
                self.frames.push(Frame {
                    func: program.main,
                    node: root,
                    pc: 0,
                    base: 0,
                });
            }
        }
        'dispatch: loop {
            let fi = self.frames.len() - 1;
            let frame = self.frames[fi];
            let FuncCode::Frames(func) = &program.funcs[frame.func as usize] else {
                unreachable!("frame pushed for iterative function");
            };
            let base = frame.base as usize;
            let mut pc = frame.pc as usize;
            loop {
                let instr = &func.code[pc];
                pc += 1;
                match instr {
                    Instr::Const { dst, value } => self.regs[base + *dst as usize] = *value,
                    Instr::Copy { dst, src } => {
                        self.regs[base + *dst as usize] = self.regs[base + *src as usize]
                    }
                    Instr::Add { dst, a, b } => {
                        self.regs[base + *dst as usize] = self.regs[base + *a as usize]
                            .wrapping_add(self.regs[base + *b as usize])
                    }
                    Instr::Sub { dst, a, b } => {
                        self.regs[base + *dst as usize] = self.regs[base + *a as usize]
                            .wrapping_sub(self.regs[base + *b as usize])
                    }
                    Instr::Load { dst, node, field } => {
                        let n = resolve(tree, frame.node, *node);
                        if n == NIL {
                            return Err(VmError::NilDereference);
                        }
                        self.regs[base + *dst as usize] = tree.get(*field, n);
                    }
                    Instr::Store { node, field, src } => {
                        let n = resolve(tree, frame.node, *node);
                        if n == NIL {
                            return Err(VmError::NilDereference);
                        }
                        tree.set(*field, n, self.regs[base + *src as usize]);
                    }
                    Instr::Jump { target } => pc = *target as usize,
                    Instr::JumpIfNil { node, target } => {
                        if resolve(tree, frame.node, *node) == NIL {
                            pc = *target as usize;
                        }
                    }
                    Instr::JumpIfNotNil { node, target } => {
                        if resolve(tree, frame.node, *node) != NIL {
                            pc = *target as usize;
                        }
                    }
                    Instr::JumpIfPos { src, target } => {
                        if self.regs[base + *src as usize] > 0 {
                            pc = *target as usize;
                        }
                    }
                    Instr::JumpIfNotPos { src, target } => {
                        if self.regs[base + *src as usize] <= 0 {
                            pc = *target as usize;
                        }
                    }
                    Instr::Call {
                        func: callee,
                        target,
                        args_start,
                        num_args,
                        results,
                    } => {
                        let node = resolve(tree, frame.node, *target);
                        match &program.funcs[*callee as usize] {
                            FuncCode::Iterative(lowered) => {
                                // A certified lowering returns constants;
                                // run the loop, scatter them (zip).
                                self.run_iterative(lowered, tree, node)?;
                                let k = results.len().min(lowered.returns.len());
                                for i in 0..k {
                                    self.regs[base + results[i] as usize] = lowered.returns[i];
                                }
                            }
                            FuncCode::Frames(callee_func) => {
                                // The interpreter counts the activation
                                // before its nil guard runs.
                                if self.frames.len() >= MAX_DEPTH {
                                    return Err(VmError::DepthExceeded);
                                }
                                let entry = if node != NIL {
                                    callee_func.body_pc
                                } else if let Some(values) = &callee_func.nil_returns {
                                    // The guard's constants, scattered
                                    // like `Ret` would (zip).
                                    for (&reg, &value) in results.iter().zip(values.iter()) {
                                        self.regs[base + reg as usize] = value;
                                    }
                                    continue;
                                } else {
                                    0
                                };
                                self.frames[fi].pc = pc as u32;
                                let new_base = self.regs.len();
                                self.regs
                                    .resize(new_base + callee_func.num_regs as usize, 0);
                                let k = (*num_args as usize).min(callee_func.param_regs.len());
                                for i in 0..k {
                                    self.regs[new_base + callee_func.param_regs[i] as usize] =
                                        self.regs[base + *args_start as usize + i];
                                }
                                self.frames.push(Frame {
                                    func: *callee,
                                    node,
                                    pc: entry,
                                    base: new_base as u32,
                                });
                                continue 'dispatch;
                            }
                        }
                    }
                    Instr::Ret { start, count } => {
                        let first = base + *start as usize;
                        let values = first..first + *count as usize;
                        self.frames.pop();
                        let Some(caller) = self.frames.last().copied() else {
                            return Ok(self.regs[values].to_vec());
                        };
                        let FuncCode::Frames(caller_func) = &program.funcs[caller.func as usize]
                        else {
                            unreachable!("frame pushed for iterative function");
                        };
                        // The caller's saved pc points just past its Call
                        // instruction, which carries the result registers.
                        let Instr::Call { results, .. } = &caller_func.code[caller.pc as usize - 1]
                        else {
                            unreachable!("resume pc does not follow a call");
                        };
                        // The caller's window lies below this one, so the
                        // values copy straight across before it is freed.
                        let caller_base = caller.base as usize;
                        for (&reg, src) in results.iter().zip(values) {
                            self.regs[caller_base + reg as usize] = self.regs[src];
                        }
                        self.regs.truncate(base);
                        continue 'dispatch;
                    }
                    Instr::EndSegment => unreachable!("EndSegment in frame code"),
                }
            }
        }
    }

    /// Runs a lowered function on the subtree rooted at `start` by draining
    /// an explicit worklist: phase `p < k` runs segment `p` and descends
    /// into the `p`-th visited child, phase `k` runs the post-segment (a
    /// binary traversal is the classic pre/mid/post).  Recursing into nil
    /// is a no-op (the recursive original would return its constants, which
    /// the lowered shape never reads), but the interpreter's [`MAX_DEPTH`]
    /// cap is still enforced against the depth the recursive original would
    /// reach, so both tiers fail the same over-deep trees.
    fn run_iterative(
        &mut self,
        lowered: &IterativeFunc,
        tree: &mut FlatTree,
        start: u32,
    ) -> Result<(), VmError> {
        // The interpreter counts this activation before evaluating the nil
        // guard, so the depth check precedes the nil early-out.
        if self.frames.len() >= MAX_DEPTH {
            return Err(VmError::DepthExceeded);
        }
        if start == NIL {
            return Ok(());
        }
        let base = self.regs.len();
        self.regs.resize(base + lowered.num_regs as usize, 0);
        let work_base = self.work.len();
        self.work.push((start, 0));
        let result = self.drain(lowered, tree, base, work_base);
        self.work.truncate(work_base);
        self.regs.truncate(base);
        result
    }

    fn drain(
        &mut self,
        lowered: &IterativeFunc,
        tree: &mut FlatTree,
        base: usize,
        work_base: usize,
    ) -> Result<(), VmError> {
        let num_calls = lowered.axes.len();
        while self.work.len() > work_base {
            let (node, phase) = self.work.pop().expect("non-empty worklist");
            let p = phase as usize;
            let pc = lowered.segments[p] as usize;
            // A segment that is only its `EndSegment` (the pre and mid
            // segments of a post-order traversal) is not dispatched.
            if !matches!(lowered.code[pc], Instr::EndSegment) {
                self.segment(lowered, pc, tree, node, base)?;
            }
            if p == num_calls {
                continue;
            }
            // The recursive original now calls into every child — nil
            // ones included, whose activations the interpreter counts
            // before the nil guard returns.  Those calls sit
            // `frames + depth + 2` activations deep: the live frames,
            // `node`'s depth below the traversal root (one worklist entry
            // per ancestor), `node` and the child.  The interpreter refuses
            // them past MAX_DEPTH, so must we, for outcome parity.
            if p == 0 {
                let depth = self.work.len() - work_base;
                if self.frames.len() + depth + 2 > MAX_DEPTH {
                    return Err(VmError::DepthExceeded);
                }
            }
            self.work.push((node, phase + 1));
            let child = child_of(tree, node, lowered.axes[p]);
            if child != NIL {
                self.work.push((child, 0));
            }
        }
        Ok(())
    }

    /// Executes one straight-line segment (from `pc` to its `EndSegment`)
    /// with `node` as the current node.
    fn segment(
        &mut self,
        lowered: &IterativeFunc,
        mut pc: usize,
        tree: &mut FlatTree,
        node: u32,
        base: usize,
    ) -> Result<(), VmError> {
        loop {
            let instr = &lowered.code[pc];
            pc += 1;
            match instr {
                Instr::Const { dst, value } => self.regs[base + *dst as usize] = *value,
                Instr::Copy { dst, src } => {
                    self.regs[base + *dst as usize] = self.regs[base + *src as usize]
                }
                Instr::Add { dst, a, b } => {
                    self.regs[base + *dst as usize] =
                        self.regs[base + *a as usize].wrapping_add(self.regs[base + *b as usize])
                }
                Instr::Sub { dst, a, b } => {
                    self.regs[base + *dst as usize] =
                        self.regs[base + *a as usize].wrapping_sub(self.regs[base + *b as usize])
                }
                Instr::Load {
                    dst,
                    node: sel,
                    field,
                } => {
                    let n = resolve(tree, node, *sel);
                    if n == NIL {
                        return Err(VmError::NilDereference);
                    }
                    self.regs[base + *dst as usize] = tree.get(*field, n);
                }
                Instr::Store {
                    node: sel,
                    field,
                    src,
                } => {
                    let n = resolve(tree, node, *sel);
                    if n == NIL {
                        return Err(VmError::NilDereference);
                    }
                    tree.set(*field, n, self.regs[base + *src as usize]);
                }
                Instr::Jump { target } => pc = *target as usize,
                Instr::JumpIfNil { node: sel, target } => {
                    if resolve(tree, node, *sel) == NIL {
                        pc = *target as usize;
                    }
                }
                Instr::JumpIfNotNil { node: sel, target } => {
                    if resolve(tree, node, *sel) != NIL {
                        pc = *target as usize;
                    }
                }
                Instr::JumpIfPos { src, target } => {
                    if self.regs[base + *src as usize] > 0 {
                        pc = *target as usize;
                    }
                }
                Instr::JumpIfNotPos { src, target } => {
                    if self.regs[base + *src as usize] <= 0 {
                        pc = *target as usize;
                    }
                }
                Instr::EndSegment => return Ok(()),
                Instr::Call { .. } | Instr::Ret { .. } => {
                    unreachable!("call/ret in lowered segment")
                }
            }
        }
    }
}

/// Resolves a node selector against the current node: a child selector on
/// the nil node resolves to nil without error, like the interpreter.
#[inline]
fn resolve(tree: &FlatTree, node: u32, sel: NodeSel) -> u32 {
    match sel {
        NodeSel::Cur => node,
        NodeSel::Child(axis) => {
            if node == NIL {
                NIL
            } else {
                tree.child(node, axis.index())
            }
        }
    }
}

#[inline]
fn child_of(tree: &FlatTree, node: u32, axis: ChildAxis) -> u32 {
    tree.child(node, axis.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_analysis::interp;
    use retreet_lang::parser::parse_program;

    fn check_against_interp(source: &str, tree: &ValueTree) {
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        let expected = interp::run(&program, tree);
        let actual = Vm::new().run(&compiled, tree);
        match (expected, actual) {
            (Ok(exp), Ok(act)) => {
                assert_eq!(exp.returns, act.returns, "returns differ");
                assert!(
                    crate::flat::trees_agree(&exp.tree, &act.tree),
                    "trees differ"
                );
            }
            (Err(exp), Err(act)) => assert_eq!(
                VmError::from_interp(&exp),
                Some(act),
                "error classes differ: interp={exp:?}"
            ),
            (exp, act) => panic!("outcome mismatch: interp={exp:?} vm={act:?}"),
        }
    }

    #[test]
    fn sums_values_like_the_interpreter() {
        let source = r#"
            fn Sum(n) {
                if (n == nil) { return 0; }
                else {
                    a = Sum(n.l);
                    b = Sum(n.r);
                    return a + b + n.v;
                }
            }
            fn Main(n) {
                s = Sum(n);
                return s;
            }
        "#;
        let mut tree = ValueTree::complete(4, &["v"], |_, _| 1);
        tree.fill_fields(&["v"], 7);
        check_against_interp(source, &tree);
    }

    #[test]
    fn par_last_return_wins_and_all_branches_run() {
        let source = r#"
            fn Main(n) {
                {
                    n.a = 1;
                    return 10;
                    ||
                    n.b = 2;
                    return 20;
                }
                return 0;
            }
        "#;
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        let tree = ValueTree::single();
        let exp = interp::run(&program, &tree).expect("interp");
        let act = Vm::new().run(&compiled, &tree).expect("vm");
        assert_eq!(exp.returns, act.returns);
        assert_eq!(act.returns, vec![20], "last returning branch wins");
        assert_eq!(act.tree.field(act.tree.root(), "a"), 1, "both branches ran");
        check_against_interp(source, &tree);
    }

    #[test]
    fn nested_par_after_returning_sibling_ignores_stale_flag() {
        // Branch 1 of the outer Par returns, raising the outer Par's flag.
        // The nested Par in branch 2 has no returning branch, so branch 2
        // must still run `n.c = 3` — a shared flag register would make the
        // nested Par's post-branch check observe branch 1's return and end
        // branch 2 early.
        let source = r#"
            fn Main(n) {
                {
                    return 1;
                    ||
                    { n.a = 1; || n.b = 2; }
                    n.c = 3;
                }
                return 0;
            }
        "#;
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        let tree = ValueTree::single();
        let act = Vm::new().run(&compiled, &tree).expect("vm");
        assert_eq!(act.returns, vec![1]);
        assert_eq!(act.tree.field(act.tree.root(), "a"), 1);
        assert_eq!(act.tree.field(act.tree.root(), "b"), 2);
        assert_eq!(
            act.tree.field(act.tree.root(), "c"),
            3,
            "branch 2 must run to completion: its nested Par never returned"
        );
        check_against_interp(source, &tree);
    }

    #[test]
    fn nested_par_return_propagates_to_outer_par() {
        // The inner Par's branch returns: the rest of the enclosing outer
        // branch (`n.c = 3`) is skipped, the outer Par's remaining branch
        // still runs, and the value propagates out of both Pars.
        let source = r#"
            fn Main(n) {
                {
                    { n.a = 1; return 5; || n.b = 2; }
                    n.c = 3;
                    ||
                    n.d = 4;
                }
                return 9;
            }
        "#;
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        let tree = ValueTree::single();
        let act = Vm::new().run(&compiled, &tree).expect("vm");
        assert_eq!(act.returns, vec![5], "inner Par's return propagates");
        assert_eq!(act.tree.field(act.tree.root(), "a"), 1);
        assert_eq!(
            act.tree.field(act.tree.root(), "b"),
            2,
            "inner sibling still runs"
        );
        assert_eq!(
            act.tree.field(act.tree.root(), "c"),
            0,
            "rest of the branch is skipped"
        );
        assert_eq!(
            act.tree.field(act.tree.root(), "d"),
            4,
            "outer sibling still runs"
        );
        check_against_interp(source, &tree);
    }

    #[test]
    fn last_return_wins_across_nested_pars() {
        let source = r#"
            fn Main(n) {
                {
                    return 1;
                    ||
                    { return 2; || n.a = 1; }
                    n.b = 7;
                }
                return 0;
            }
        "#;
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        let tree = ValueTree::single();
        let act = Vm::new().run(&compiled, &tree).expect("vm");
        assert_eq!(act.returns, vec![2], "the nested Par's later return wins");
        assert_eq!(act.tree.field(act.tree.root(), "a"), 1);
        assert_eq!(
            act.tree.field(act.tree.root(), "b"),
            0,
            "skipped after the inner return"
        );
        check_against_interp(source, &tree);
    }

    /// A degenerate left chain of `len` nodes.
    fn left_chain(len: usize) -> ValueTree {
        let mut tree = ValueTree::single();
        let mut node = tree.root();
        for _ in 1..len {
            node = tree.add_left(node);
        }
        tree
    }

    const LOWERABLE_COUNTER: &str = r#"
        fn Main(n) {
            if (n == nil) { return 0; }
            else {
                n.v = n.v + 1;
                x = Main(n.l);
                y = Main(n.r);
                return 0;
            }
        }
    "#;

    #[test]
    fn lowered_traversal_enforces_the_interpreter_depth_cap() {
        let program = parse_program(LOWERABLE_COUNTER).expect("parse");
        let verifier = retreet_verify::Verifier::builder().build();
        let compiled = crate::compile_with_lowering(&verifier, &program).expect("compile");
        assert!(
            !compiled.lowerings.is_empty(),
            "Main should run as a certified worklist loop"
        );
        // A chain of MAX_DEPTH nodes: the recursive original's nil-child
        // calls at the deepest node would be activation MAX_DEPTH + 1, which
        // the interpreter refuses — the worklist must refuse it too.
        let too_deep = left_chain(MAX_DEPTH);
        assert!(matches!(
            Vm::new().run(&compiled, &too_deep),
            Err(VmError::DepthExceeded)
        ));
        // One node shorter, the deepest nil call sits exactly at MAX_DEPTH
        // and both tiers succeed.
        let just_fits = left_chain(MAX_DEPTH - 1);
        let result = Vm::new()
            .run(&compiled, &just_fits)
            .expect("within the cap");
        assert_eq!(result.returns, vec![0]);
        assert_eq!(result.tree.field(result.tree.root(), "v"), 1);
    }

    #[test]
    fn lowered_kary_traversal_honors_the_same_depth_boundary() {
        // The k-ary generalization of the depth-cap pin: a ternary
        // traversal lowered to a 4-segment worklist loop must refuse and
        // accept exactly the same chain lengths as the binary form — the
        // cap counts activations, not axes.
        let program = parse_program(
            r#"
            arity 3;
            fn Main(n) {
                if (n == nil) { return 0; }
                else {
                    n.v = n.v + 1;
                    x = Main(n.c0);
                    y = Main(n.c1);
                    z = Main(n.c2);
                    return 0;
                }
            }
            "#,
        )
        .expect("parse");
        let verifier = retreet_verify::Verifier::builder().build();
        let compiled = crate::compile_with_lowering(&verifier, &program).expect("compile");
        assert!(
            !compiled.lowerings.is_empty(),
            "the ternary Main should run as a certified worklist loop"
        );
        let chain = |len: usize| {
            let mut tree = ValueTree::single();
            let mut node = tree.root();
            for _ in 1..len {
                node = tree.add_child(node, 0);
            }
            tree
        };
        assert!(matches!(
            Vm::new().run(&compiled, &chain(MAX_DEPTH)),
            Err(VmError::DepthExceeded)
        ));
        let result = Vm::new()
            .run(&compiled, &chain(MAX_DEPTH - 1))
            .expect("within the cap");
        assert_eq!(result.returns, vec![0]);
        assert_eq!(result.tree.field(result.tree.root(), "v"), 1);
    }

    #[test]
    fn frame_calls_keep_the_interpreter_depth_boundary() {
        // Frame code only: every call on a nil child of a guarded function
        // is answered at the call site, but only after the depth check, as
        // the interpreter counts that activation before its guard runs.
        // On a left chain of MAX_DEPTH - 2 nodes the deepest nil call is
        // activation MAX_DEPTH (Main, one per node, the nil call); one node
        // more exceeds the cap.
        for (name, program) in [
            (
                "size counting",
                retreet_lang::corpus::size_counting_sequential(),
            ),
            ("cycletree", retreet_lang::corpus::cycletree_original()),
        ] {
            let compiled = crate::compile::compile(&program).expect("compile");
            let fits = Vm::new().run(&compiled, &left_chain(MAX_DEPTH - 2));
            assert!(fits.is_ok(), "{name}: {fits:?}");
            assert_eq!(
                Vm::new()
                    .run(&compiled, &left_chain(MAX_DEPTH - 1))
                    .map(|result| result.returns),
                Err(VmError::DepthExceeded),
                "{name}"
            );
        }
    }

    #[test]
    #[ignore = "the reference interpreter's trace is quadratic in recursion \
                depth (~3 GB and tens of seconds on MAX_DEPTH chains); run \
                on demand to re-pin the boundary"]
    fn depth_cap_boundary_agrees_with_the_interpreter() {
        // The reference interpreter recurses natively, so give it a thread
        // with enough stack to reach its own MAX_DEPTH guard.
        let handle = std::thread::Builder::new()
            .stack_size(256 * 1024 * 1024)
            .spawn(|| {
                let program = parse_program(LOWERABLE_COUNTER).expect("parse");
                let deep = interp::run(&program, &left_chain(MAX_DEPTH));
                let fits = interp::run(&program, &left_chain(MAX_DEPTH - 1));
                (deep.is_err(), fits.is_ok())
            })
            .expect("spawn");
        let (deep_errs, fits_ok) = handle.join().expect("interpreter thread");
        assert!(deep_errs, "interpreter refuses the over-deep chain");
        assert!(fits_ok, "interpreter accepts the chain within the cap");
    }

    #[test]
    fn nil_dereference_matches_interpreter() {
        let source = r#"
            fn Main(n) {
                x = n.l.v;
                return x;
            }
        "#;
        let tree = ValueTree::single();
        let program = parse_program(source).expect("parse");
        let compiled = crate::compile::compile(&program).expect("compile");
        assert!(matches!(
            Vm::new().run(&compiled, &tree),
            Err(VmError::NilDereference)
        ));
        check_against_interp(source, &tree);
    }

    #[test]
    fn an_assignment_may_read_the_variable_it_assigns() {
        // Values evaluate straight into the assigned variable's register:
        // every operand must be read before that register is written.
        let source = r#"
            fn Main(n) {
                x = 5;
                x = 1 + x;
                y = n.v - y;
                y = (x + 1) + y;
                z = x + x;
                return x, y, z;
            }
        "#;
        let mut tree = ValueTree::single();
        tree.set_field(tree.root(), "v", 7);
        check_against_interp(source, &tree);
    }

    #[test]
    fn unset_variables_read_zero() {
        let source = r#"
            fn Main(n) {
                return x + 1;
            }
        "#;
        check_against_interp(source, &ValueTree::single());
    }
}
