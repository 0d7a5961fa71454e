//! The compact register-based bytecode the VM executes.
//!
//! Each function compiles to a flat instruction vector over a zero-initialized
//! register file (one `i64` window per activation).  Field names are resolved
//! to column ids at compile time, node references to a selector against the
//! activation's node index, and structured control flow (`if`/`seq`/`par`
//! and early returns) to conditional jumps past each then-branch, which
//! falls through — including the interpreter's exact `Par` semantics
//! (branches run in syntactic order, the *last* returning branch wins, and
//! the pending return propagates only after every branch has run).  A frame function
//! that opens with the paper's nil guard records the guard's constants, so a
//! call on the nil node is answered at the call site without a frame.

use retreet_lang::ast::{ChildAxis, Ident};

use crate::lower::LoweringCertificate;

/// Which node an instruction addresses, relative to the activation's node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSel {
    /// The activation's own node `n`.
    Cur,
    /// The child along an axis (nil when `n` is nil or lacks that child):
    /// `n.l` is axis 0, `n.r` axis 1, `n.c<k>` axis `k`.
    Child(ChildAxis),
}

impl NodeSel {
    /// `n.l` (axis 0).
    pub const LEFT: NodeSel = NodeSel::Child(ChildAxis::LEFT);
    /// `n.r` (axis 1).
    pub const RIGHT: NodeSel = NodeSel::Child(ChildAxis::RIGHT);

    /// The selector for a child axis.
    pub fn child(axis: ChildAxis) -> NodeSel {
        NodeSel::Child(axis)
    }
}

/// One bytecode instruction.  Registers are `u16` indices into the
/// activation's window; jump targets are absolute instruction indices
/// within the owning function's code vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst ← value`.
    Const {
        /// Destination register.
        dst: u16,
        /// The literal.
        value: i64,
    },
    /// `dst ← src`.
    Copy {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst ← a + b` (wrapping, like the interpreter).
    Add {
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst ← a - b` (wrapping).
    Sub {
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst ← node.field`; nil dereference when the selector resolves to nil.
    Load {
        /// Destination register.
        dst: u16,
        /// Addressed node.
        node: NodeSel,
        /// Field column id.
        field: u16,
    },
    /// `node.field ← src`; nil dereference when the selector resolves to nil.
    Store {
        /// Addressed node.
        node: NodeSel,
        /// Field column id.
        field: u16,
        /// Source register.
        src: u16,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Jump when the selector resolves to nil (a child selector on a nil
    /// node resolves to nil without error, like the interpreter's `resolve`).
    JumpIfNil {
        /// Addressed node.
        node: NodeSel,
        /// Target instruction index.
        target: u32,
    },
    /// Jump when the selector resolves to a node (the negation of
    /// [`Instr::JumpIfNil`]).
    JumpIfNotNil {
        /// Addressed node.
        node: NodeSel,
        /// Target instruction index.
        target: u32,
    },
    /// Jump when `src > 0` (the `Gt` guard of the language).
    JumpIfPos {
        /// Tested register.
        src: u16,
        /// Target instruction index.
        target: u32,
    },
    /// Jump when `src <= 0`.
    JumpIfNotPos {
        /// Tested register.
        src: u16,
        /// Target instruction index.
        target: u32,
    },
    /// Call `func` on the selected node.  Arguments are the contiguous
    /// registers `args_start .. args_start + num_args`; on return, the
    /// callee's values are scattered into the listed result registers
    /// (zip semantics: extra result registers keep their old values, like
    /// the interpreter binding fewer returns than result variables).  A call
    /// on the nil node of a function with [`FrameFunc::nil_returns`] scatters
    /// those constants the same way and pushes no frame.
    Call {
        /// Callee function index.
        func: u16,
        /// The node the callee runs on.
        target: NodeSel,
        /// First argument register.
        args_start: u16,
        /// Number of arguments.
        num_args: u16,
        /// Result registers, in binding order.
        results: Box<[u16]>,
    },
    /// Return the contiguous registers `start .. start + count`, copied
    /// straight into the caller's result registers.
    Ret {
        /// First returned register.
        start: u16,
        /// Number of returned values.
        count: u16,
    },
    /// Terminates a lowered traversal's straight-line segment (never appears
    /// in frame-based code).
    EndSegment,
}

/// A function compiled for frame-based execution (the general case,
/// including mutual recursion and `Par`).
#[derive(Debug, Clone)]
pub struct FrameFunc {
    /// The instruction vector.
    pub code: Vec<Instr>,
    /// Size of the activation's register window.
    pub num_regs: u16,
    /// Register of each integer parameter, in declaration order (duplicate
    /// parameter names share a register, so the last binding wins exactly
    /// like the interpreter's environment).
    pub param_regs: Box<[u16]>,
    /// The constants of a leading `if (nil(n)) { return c…; }` guard that
    /// assigns nothing: a call on the nil node returns them without running
    /// the function.
    pub nil_returns: Option<Box<[i64]>>,
    /// Where an activation on a non-nil node starts: the pc past the nil
    /// guard, or 0 without one.
    pub body_pc: u32,
}

/// A self-recursive traversal lowered to an explicit-worklist loop: the
/// recursion is replaced by an iterative depth-first schedule over the tree,
/// with the function's straight-line work split into `k + 1` segments for a
/// `k`-way recursion (before the first child, between consecutive children,
/// after the last child).  A binary traversal has the classic three
/// (pre/mid/post) segments.
///
/// Only certified lowerings are ever compiled to this form — see
/// [`crate::lower`].
#[derive(Debug, Clone)]
pub struct IterativeFunc {
    /// Segment code (each segment ends with [`Instr::EndSegment`]).
    pub code: Vec<Instr>,
    /// Entry pcs of the `k + 1` segments, in visit order: `segments[p]` runs
    /// before descending into the `p`-th visited child; the last entry is
    /// the post segment run after the final child's subtree.
    pub segments: Vec<u32>,
    /// The children in visit order (`k` distinct axes).
    pub axes: Vec<ChildAxis>,
    /// The constants the traversal returns (on nil and non-nil nodes alike —
    /// a requirement of the lowerable shape).
    pub returns: Vec<i64>,
    /// Scratch registers the segments use.
    pub num_regs: u16,
}

/// How a function executes.
#[derive(Debug, Clone)]
pub enum FuncCode {
    /// Frame-based bytecode.
    Frames(FrameFunc),
    /// Certified explicit-worklist loop.
    Iterative(IterativeFunc),
}

/// A whole program, compiled.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Per-function code, indexed like the source program's function list.
    pub funcs: Vec<FuncCode>,
    /// Function names (for diagnostics), same indexing.
    pub func_names: Vec<Ident>,
    /// Field names in column-id order.
    pub fields: Vec<String>,
    /// The source program's tree arity (number of child columns a flat tree
    /// needs).
    pub arity: u8,
    /// Index of `Main`.
    pub main: u16,
    /// The equivalence certificates of every iterative lowering baked into
    /// [`Self::funcs`] (empty when compiled without lowering).
    pub lowerings: Vec<LoweringCertificate>,
}

impl CompiledProgram {
    /// Names of the functions compiled to certified worklist loops.
    pub fn lowered_funcs(&self) -> Vec<&str> {
        self.funcs
            .iter()
            .zip(self.func_names.iter())
            .filter(|(code, _)| matches!(code, FuncCode::Iterative(_)))
            .map(|(_, name)| name.as_str())
            .collect()
    }

    /// Total instruction count across all functions.
    pub fn code_len(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| match f {
                FuncCode::Frames(f) => f.code.len(),
                FuncCode::Iterative(f) => f.code.len(),
            })
            .sum()
    }
}
