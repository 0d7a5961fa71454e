//! Lowering Retreet ASTs to bytecode.
//!
//! The compiler resolves every name at compile time: variables to registers
//! (one window per activation, zero-initialized, so an unassigned variable
//! reads 0 exactly like the interpreter's environment), fields to column
//! ids, callees to function indices.  Values are evaluated straight into
//! their destination: the assigned variable, the return window, the
//! argument registers.  Structured control flow becomes conditional jumps
//! past the then-branch, which falls through — `&&` short-circuits exactly
//! like the interpreter's guard evaluation, and no jump targets the next
//! instruction.  A function whose leading statement is the nil guard
//! `if (nil(n)) { return c…; }` (constants only, no assignment) records the
//! constants and the pc past the guard, so the VM answers a call on nil
//! without a frame and starts any other call past the test.  The
//! interpreter's `Par` return discipline (run every branch, last return
//! wins, propagate afterwards) compiles to a per-activation pending-return
//! window plus one flag register per `Par`.  The flags must be distinct:
//! with a shared flag, a return in an earlier sibling branch of an outer
//! `Par` would satisfy the post-branch check of a nested `Par` in a *later*
//! sibling branch and make it skip the rest of that branch — a return the
//! nested `Par`'s own branches never issued.  Returns propagate outward
//! explicitly instead: a nested `Par` whose own flag is raised sets the
//! enclosing `Par`'s flag before ending the enclosing branch.

use std::collections::HashMap;
use std::fmt;

use retreet_lang::ast::{
    AExpr, Assign, BExpr, BlockKind, CallBlock, Func, Ident, NodeRef, Program, Stmt, StraightBlock,
    MAIN,
};
use retreet_lang::rewrite::local_names;

use crate::bytecode::{CompiledProgram, FrameFunc, FuncCode, Instr, IterativeFunc, NodeSel};
use crate::lower::{nil_guard, IterativeLowering, LoweringCertificate};

/// Why a program could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program has no `Main`.
    NoMain,
    /// A call block references an undefined function (the interpreter fails
    /// lazily at execution time; the compiler is strict).
    UnknownFunction(String),
    /// A single activation needs more than `u16::MAX` registers.
    TooManyRegisters(Ident),
    /// A construct the bytecode tier does not support (only reachable for
    /// lowered-segment compilation, which rejects calls/returns/`Par`).
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoMain => write!(f, "the program has no Main function"),
            CompileError::UnknownFunction(name) => {
                write!(f, "call to unknown function `{name}`")
            }
            CompileError::TooManyRegisters(func) => {
                write!(f, "function `{func}` needs more than 65535 registers")
            }
            CompileError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Every field name the program reads or writes, sorted (the column-id
/// assignment of the compiled program).
pub fn program_fields(program: &Program) -> Vec<String> {
    let mut fields = std::collections::BTreeSet::new();
    for func in &program.funcs {
        collect_stmt_fields(&func.body, &mut fields);
    }
    fields.into_iter().collect()
}

fn collect_stmt_fields(stmt: &Stmt, out: &mut std::collections::BTreeSet<String>) {
    match stmt {
        Stmt::Block(block) => match &block.kind {
            BlockKind::Call(call) => {
                for arg in &call.args {
                    collect_aexpr_fields(arg, out);
                }
            }
            BlockKind::Straight(straight) => {
                for assign in &straight.assigns {
                    match assign {
                        Assign::SetVar(_, value) => collect_aexpr_fields(value, out),
                        Assign::SetField(_, field, value) => {
                            out.insert(field.clone());
                            collect_aexpr_fields(value, out);
                        }
                    }
                }
                if let Some(ret) = &straight.ret {
                    for value in ret {
                        collect_aexpr_fields(value, out);
                    }
                }
            }
        },
        Stmt::If(cond, then_branch, else_branch) => {
            collect_bexpr_fields(cond, out);
            collect_stmt_fields(then_branch, out);
            collect_stmt_fields(else_branch, out);
        }
        Stmt::Seq(items) | Stmt::Par(items) => {
            for item in items {
                collect_stmt_fields(item, out);
            }
        }
    }
}

fn collect_aexpr_fields(expr: &AExpr, out: &mut std::collections::BTreeSet<String>) {
    match expr {
        AExpr::Const(_) | AExpr::Var(_) => {}
        AExpr::Field(_, field) => {
            out.insert(field.clone());
        }
        AExpr::Add(a, b) | AExpr::Sub(a, b) => {
            collect_aexpr_fields(a, out);
            collect_aexpr_fields(b, out);
        }
    }
}

fn collect_bexpr_fields(cond: &BExpr, out: &mut std::collections::BTreeSet<String>) {
    match cond {
        BExpr::True | BExpr::IsNil(_) => {}
        BExpr::Gt(expr) => collect_aexpr_fields(expr, out),
        BExpr::Not(inner) => collect_bexpr_fields(inner, out),
        BExpr::And(a, b) => {
            collect_bexpr_fields(a, out);
            collect_bexpr_fields(b, out);
        }
    }
}

/// Compiles a program for frame-based execution only (no iterative
/// lowering; every function gets [`FuncCode::Frames`]).
pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
    compile_program(program, &[])
}

/// Compiles a program, baking the given *already certified* lowerings into
/// iterative worklist loops.  Callers outside the crate go through
/// [`crate::compile_with_lowering`], which is what certifies them.
pub(crate) fn compile_program(
    program: &Program,
    lowered: &[(IterativeLowering, LoweringCertificate)],
) -> Result<CompiledProgram, CompileError> {
    let main = program.func_index(MAIN).ok_or(CompileError::NoMain)?;
    let fields = program_fields(program);
    let field_ids: HashMap<&str, u16> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_str(), i as u16))
        .collect();
    let func_ids: HashMap<&str, u16> = program
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i as u16))
        .collect();
    let by_name: HashMap<&str, &IterativeLowering> =
        lowered.iter().map(|(l, _)| (l.func.as_str(), l)).collect();
    let mut funcs = Vec::with_capacity(program.funcs.len());
    for func in &program.funcs {
        match by_name.get(func.name.as_str()) {
            Some(lowering) => funcs.push(FuncCode::Iterative(compile_iterative(
                lowering, &field_ids,
            )?)),
            None => funcs.push(FuncCode::Frames(compile_frame_func(
                func, &field_ids, &func_ids,
            )?)),
        }
    }
    Ok(CompiledProgram {
        funcs,
        func_names: program.funcs.iter().map(|f| f.name.clone()).collect(),
        fields,
        arity: program.arity,
        main: main as u16,
        lowerings: lowered.iter().map(|(_, c)| c.clone()).collect(),
    })
}

/// The return discipline a statement compiles under.
#[derive(Clone, Copy)]
enum RetCtx {
    /// Returns emit [`Instr::Ret`] directly.
    Direct,
    /// Inside a `Par` branch: returns fill the pending window, raise the
    /// enclosing `Par`'s own flag, and jump to the branch's end so the
    /// remaining branches still run (the interpreter's last-return-wins
    /// discipline).
    Par {
        /// Label of the enclosing branch's end.
        branch_end: usize,
        /// The enclosing `Par`'s flag register.
        flag: u16,
    },
}

struct FuncCompiler<'a> {
    code: Vec<Instr>,
    /// Variable name → register.
    names: HashMap<&'a str, u16>,
    /// First register past the named (and pending-return) area.
    temp_base: u16,
    temp_next: u16,
    max_regs: u16,
    /// Label id → bound pc (`u32::MAX` while unbound).
    labels: Vec<u32>,
    field_ids: &'a HashMap<&'a str, u16>,
    func_ids: Option<&'a HashMap<&'a str, u16>>,
    /// First register of the pending-return window (`Par` support); `None`
    /// in segment mode.
    pend: Option<u16>,
    /// Next unclaimed `Par` flag register (the flag area sits between the
    /// pending-return window and `temp_base`, one register per `Par`).
    next_par_flag: u16,
    pend_ret_label: Option<usize>,
}

impl<'a> FuncCompiler<'a> {
    fn emit(&mut self, instr: Instr) {
        self.code.push(instr);
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(u32::MAX);
        self.labels.len() - 1
    }

    /// Binds `label` to the next instruction.  A `Jump` to `label` just
    /// emitted would jump to the next instruction, so it is dropped, and
    /// the labels bound to its pc move back with it.
    fn bind(&mut self, label: usize) {
        let mut pc = self.code.len() as u32;
        while matches!(self.code.last(), Some(Instr::Jump { target }) if *target as usize == label)
        {
            self.code.pop();
            for bound in self.labels.iter_mut().filter(|bound| **bound == pc) {
                *bound = pc - 1;
            }
            pc -= 1;
        }
        self.labels[label] = pc;
    }

    fn temp(&mut self) -> Result<u16, CompileError> {
        let reg = self.temp_next;
        self.temp_next = self
            .temp_next
            .checked_add(1)
            .ok_or_else(|| CompileError::TooManyRegisters("<segment>".into()))?;
        self.max_regs = self.max_regs.max(self.temp_next);
        Ok(reg)
    }

    fn named(&self, var: &str) -> u16 {
        // Pass 1 collected every local name, so the lookup cannot miss for
        // names the AST walker saw; fall back to a diagnostic panic rather
        // than silent miscompilation.
        *self
            .names
            .get(var)
            .unwrap_or_else(|| panic!("unallocated local `{var}`"))
    }

    fn field(&self, name: &str) -> u16 {
        *self
            .field_ids
            .get(name)
            .unwrap_or_else(|| panic!("unresolved field `{name}`"))
    }

    fn sel(node: NodeRef) -> NodeSel {
        match node {
            NodeRef::Cur => NodeSel::Cur,
            NodeRef::Child(dir) => NodeSel::child(dir),
        }
    }

    /// Evaluates an arithmetic expression as an operand, returning the
    /// register holding its value: the named register for a plain variable
    /// read, a fresh temporary otherwise.
    fn operand(&mut self, expr: &'a AExpr) -> Result<u16, CompileError> {
        if let AExpr::Var(var) = expr {
            return Ok(self.named(var));
        }
        let dst = self.temp()?;
        self.aexpr(expr, dst)?;
        Ok(dst)
    }

    /// Evaluates an arithmetic expression straight into `dst`.  Operands
    /// evaluate left-to-right, like the interpreter, into temporaries; only
    /// the last instruction writes `dst`, so `dst` may be one of the
    /// variables the expression reads.
    fn aexpr(&mut self, expr: &'a AExpr, dst: u16) -> Result<(), CompileError> {
        match expr {
            AExpr::Const(value) => self.emit(Instr::Const { dst, value: *value }),
            AExpr::Var(var) => {
                let src = self.named(var);
                if src != dst {
                    self.emit(Instr::Copy { dst, src });
                }
            }
            AExpr::Field(node, field) => self.emit(Instr::Load {
                dst,
                node: Self::sel(*node),
                field: self.field(field),
            }),
            AExpr::Add(a, b) => {
                let a = self.operand(a)?;
                let b = self.operand(b)?;
                self.emit(Instr::Add { dst, a, b });
            }
            AExpr::Sub(a, b) => {
                let a = self.operand(a)?;
                let b = self.operand(b)?;
                self.emit(Instr::Sub { dst, a, b });
            }
        }
        Ok(())
    }

    /// Jumps to `target` when the condition evaluates to `sense` and falls
    /// through otherwise.  `And` short-circuits (its right conjunct is not
    /// evaluated when the left is false), mirroring the interpreter's `&&`.
    fn jump_if(&mut self, cond: &'a BExpr, sense: bool, target: usize) -> Result<(), CompileError> {
        let target_pc = target as u32;
        match cond {
            BExpr::True => {
                if sense {
                    self.emit(Instr::Jump { target: target_pc });
                }
            }
            BExpr::IsNil(node) => {
                let node = Self::sel(*node);
                self.emit(if sense {
                    Instr::JumpIfNil {
                        node,
                        target: target_pc,
                    }
                } else {
                    Instr::JumpIfNotNil {
                        node,
                        target: target_pc,
                    }
                });
            }
            BExpr::Gt(expr) => {
                let src = self.operand(expr)?;
                self.emit(if sense {
                    Instr::JumpIfPos {
                        src,
                        target: target_pc,
                    }
                } else {
                    Instr::JumpIfNotPos {
                        src,
                        target: target_pc,
                    }
                });
            }
            BExpr::Not(inner) => self.jump_if(inner, !sense, target)?,
            BExpr::And(a, b) if sense => {
                let skip = self.new_label();
                self.jump_if(a, false, skip)?;
                self.jump_if(b, true, target)?;
                self.bind(skip);
            }
            BExpr::And(a, b) => {
                self.jump_if(a, false, target)?;
                self.jump_if(b, false, target)?;
            }
        }
        Ok(())
    }

    fn straight(&mut self, straight: &'a StraightBlock, ctx: RetCtx) -> Result<(), CompileError> {
        let mark = self.temp_base.max(self.temp_next.min(self.temp_base));
        for assign in &straight.assigns {
            self.temp_next = mark;
            match assign {
                Assign::SetVar(var, value) => {
                    let dst = self.named(var);
                    self.aexpr(value, dst)?;
                }
                Assign::SetField(node, field, value) => {
                    let src = self.operand(value)?;
                    self.emit(Instr::Store {
                        node: Self::sel(*node),
                        field: self.field(field),
                        src,
                    });
                }
            }
        }
        if let Some(ret) = &straight.ret {
            self.temp_next = mark;
            match ctx {
                RetCtx::Direct => {
                    // Evaluate into a contiguous window, then return it.
                    let start = self.temp_next;
                    for _ in ret {
                        self.temp()?;
                    }
                    self.values_into(ret, start)?;
                    self.emit(Instr::Ret {
                        start,
                        count: ret.len() as u16,
                    });
                }
                RetCtx::Par { branch_end, flag } => {
                    let pend_start = self
                        .pend
                        .expect("pending window allocated for functions with Par");
                    self.values_into(ret, pend_start)?;
                    self.emit(Instr::Const {
                        dst: flag,
                        value: 1,
                    });
                    self.emit(Instr::Jump {
                        target: branch_end as u32,
                    });
                }
            }
        }
        self.temp_next = mark;
        Ok(())
    }

    /// Evaluates `values` into the contiguous registers from `start`, each
    /// with scratch temporaries past the current ones.
    fn values_into(&mut self, values: &'a [AExpr], start: u16) -> Result<(), CompileError> {
        let scratch = self.temp_next;
        for (i, value) in values.iter().enumerate() {
            self.temp_next = scratch;
            self.aexpr(value, start + i as u16)?;
        }
        Ok(())
    }

    fn call_block(&mut self, call: &'a CallBlock) -> Result<(), CompileError> {
        let Some(func_ids) = self.func_ids else {
            return Err(CompileError::Unsupported(
                "a call inside a lowered traversal segment".into(),
            ));
        };
        let func = *func_ids
            .get(call.callee.as_str())
            .ok_or_else(|| CompileError::UnknownFunction(call.callee.clone()))?;
        let mark = self.temp_next;
        let args_start = self.temp_next;
        for _ in &call.args {
            self.temp()?;
        }
        self.values_into(&call.args, args_start)?;
        let results: Box<[u16]> = call.results.iter().map(|r| self.named(r)).collect();
        self.emit(Instr::Call {
            func,
            target: Self::sel(call.target),
            args_start,
            num_args: call.args.len() as u16,
            results,
        });
        self.temp_next = mark;
        Ok(())
    }

    fn stmt(&mut self, stmt: &'a Stmt, ctx: RetCtx) -> Result<(), CompileError> {
        match stmt {
            Stmt::Block(block) => match &block.kind {
                BlockKind::Call(call) => self.call_block(call),
                BlockKind::Straight(straight) => self.straight(straight, ctx),
            },
            Stmt::If(cond, then_branch, else_branch) => {
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.jump_if(cond, false, l_else)?;
                self.stmt(then_branch, ctx)?;
                self.emit(Instr::Jump {
                    target: l_end as u32,
                });
                self.bind(l_else);
                self.stmt(else_branch, ctx)?;
                self.bind(l_end);
                Ok(())
            }
            Stmt::Seq(items) => {
                for item in items {
                    self.stmt(item, ctx)?;
                }
                Ok(())
            }
            Stmt::Par(items) => {
                if self.pend.is_none() {
                    return Err(CompileError::Unsupported(
                        "a Par inside a lowered traversal segment".into(),
                    ));
                }
                // Each Par owns a dedicated flag register, cleared on
                // entry, so its post-branch check can only observe returns
                // from its own branches — never a stale flag raised by an
                // earlier sibling branch of an enclosing Par.
                let flag = self.next_par_flag;
                self.next_par_flag += 1;
                self.emit(Instr::Const {
                    dst: flag,
                    value: 0,
                });
                for item in items {
                    let branch_end = self.new_label();
                    self.stmt(item, RetCtx::Par { branch_end, flag })?;
                    self.bind(branch_end);
                }
                // A branch returned: propagate — either straight to the
                // function's pending-return epilogue, or (when this Par is
                // itself inside a Par branch) by raising the enclosing
                // Par's flag and ending the enclosing branch.
                match ctx {
                    RetCtx::Direct => {
                        let target = *self
                            .pend_ret_label
                            .as_ref()
                            .expect("epilogue label allocated for functions with Par");
                        self.emit(Instr::JumpIfPos {
                            src: flag,
                            target: target as u32,
                        });
                    }
                    RetCtx::Par {
                        branch_end,
                        flag: outer_flag,
                    } => {
                        let l_done = self.new_label();
                        self.emit(Instr::JumpIfNotPos {
                            src: flag,
                            target: l_done as u32,
                        });
                        self.emit(Instr::Const {
                            dst: outer_flag,
                            value: 1,
                        });
                        self.emit(Instr::Jump {
                            target: branch_end as u32,
                        });
                        self.bind(l_done);
                    }
                }
                Ok(())
            }
        }
    }

    /// Rewrites label ids in jump targets to bound pcs.
    fn resolve(&mut self) {
        for instr in &mut self.code {
            let target = match instr {
                Instr::Jump { target }
                | Instr::JumpIfNil { target, .. }
                | Instr::JumpIfNotNil { target, .. }
                | Instr::JumpIfPos { target, .. }
                | Instr::JumpIfNotPos { target, .. } => target,
                _ => continue,
            };
            let pc = self.labels[*target as usize];
            debug_assert_ne!(pc, u32::MAX, "unbound label");
            *target = pc;
        }
    }
}

/// Number of `Par` statements in the body — each needs its own flag
/// register.
fn count_pars(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::Block(_) => 0,
        Stmt::If(_, a, b) => count_pars(a) + count_pars(b),
        Stmt::Seq(items) => items.iter().map(count_pars).sum(),
        Stmt::Par(items) => 1 + items.iter().map(count_pars).sum::<usize>(),
    }
}

fn compile_frame_func(
    func: &Func,
    field_ids: &HashMap<&str, u16>,
    func_ids: &HashMap<&str, u16>,
) -> Result<FrameFunc, CompileError> {
    let locals = local_names(func);
    let num_pars = count_pars(&func.body);
    if locals.len() + func.num_returns + num_pars > u16::MAX as usize {
        return Err(CompileError::TooManyRegisters(func.name.clone()));
    }
    let names: HashMap<&str, u16> = locals
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i as u16))
        .collect();
    let named_count = names.len() as u16;
    let num_returns = func.num_returns as u16;
    // Window layout: named locals | pending-return window | one flag
    // register per Par | temporaries.
    let (pend, flag_base, temp_base) = if num_pars > 0 {
        let flag_base = named_count + num_returns;
        (Some(named_count), flag_base, flag_base + num_pars as u16)
    } else {
        (None, named_count, named_count)
    };
    let mut compiler = FuncCompiler {
        code: Vec::new(),
        names,
        temp_base,
        temp_next: temp_base,
        max_regs: temp_base,
        labels: Vec::new(),
        field_ids,
        func_ids: Some(func_ids),
        pend,
        next_par_flag: flag_base,
        pend_ret_label: None,
    };
    if num_pars > 0 {
        compiler.pend_ret_label = Some(compiler.new_label());
    }
    compiler.stmt(&func.body, RetCtx::Direct)?;
    // Falling off the end returns no values (the interpreter's
    // `unwrap_or_default`); callers then bind nothing.
    compiler.emit(Instr::Ret { start: 0, count: 0 });
    if let Some(label) = compiler.pend_ret_label {
        compiler.bind(label);
        let pend_start = compiler.pend.expect("pend window");
        compiler.emit(Instr::Ret {
            start: pend_start,
            count: num_returns,
        });
    }
    compiler.resolve();
    let param_regs: Box<[u16]> = func.int_params.iter().map(|p| compiler.named(p)).collect();
    // The guard compiles first, to `JumpIfNotNil n, <past the guard>`.
    let nil_returns = nil_guard(&func.body);
    let body_pc = match (&nil_returns, compiler.code.first()) {
        (
            Some(_),
            Some(Instr::JumpIfNotNil {
                node: NodeSel::Cur,
                target,
            }),
        ) => *target,
        _ => 0,
    };
    Ok(FrameFunc {
        code: compiler.code,
        num_regs: compiler.max_regs,
        param_regs,
        nil_returns: nil_returns.map(Vec::into_boxed_slice),
        body_pc,
    })
}

/// Compiles a certified lowering's `k + 1` straight-line segments.
/// Segments are call-free, return-free, `Par`-free and variable-free by the
/// lowering shape check, so the compiler only needs scratch registers.
fn compile_iterative(
    lowering: &IterativeLowering,
    field_ids: &HashMap<&str, u16>,
) -> Result<IterativeFunc, CompileError> {
    let mut compiler = FuncCompiler {
        code: Vec::new(),
        names: HashMap::new(),
        temp_base: 0,
        temp_next: 0,
        max_regs: 0,
        labels: Vec::new(),
        field_ids,
        func_ids: None,
        pend: None,
        next_par_flag: 0,
        pend_ret_label: None,
    };
    let mut segments = Vec::with_capacity(lowering.segments.len());
    for stmts in &lowering.segments {
        segments.push(compiler.code.len() as u32);
        for stmt in stmts.iter() {
            compiler.stmt(stmt, RetCtx::Direct)?;
        }
        compiler.emit(Instr::EndSegment);
    }
    compiler.resolve();
    Ok(IterativeFunc {
        code: compiler.code,
        segments,
        axes: lowering.axes.clone(),
        returns: lowering.returns.clone(),
        num_regs: compiler.max_regs,
    })
}
