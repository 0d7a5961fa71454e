//! Program execution with tier selection: compiled bytecode first, the
//! reference interpreter as fallback.
//!
//! A [`ProgramExecutor`] is built once per program and reused across trees
//! and threads: it holds the compiled [`CompiledProgram`] (when compilation
//! succeeded) and the interpreter's prebuilt [`BlockTable`] for the
//! fallback path.  VM runs use the calling thread's pooled [`Vm`], so
//! clients running one executor from different threads never wait for each
//! other.  [`ProgramExecutor::run_complete`] runs on a seeded
//! complete tree that the VM tier builds directly in flat form.
//! Construction through [`ProgramExecutor::with_verifier`] additionally
//! runs the certified iterative-lowering pipeline of `retreet-codegen`, so
//! self-recursive traversals execute as explicit-worklist loops — but only
//! when the verifier certified the lowering equivalent to the recursion.
//!
//! Runtime errors (nil dereference, depth exhaustion) are *program* errors
//! the interpreter would raise identically, so they are reported, not used
//! as a reason to fall back.

use std::cell::RefCell;
use std::fmt;

use retreet_analysis::interp::{self, InterpError};
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{
    compile, compile_with_lowering, program_fields, CompiledProgram, FlatTree, LoweringCertificate,
    Vm, VmError,
};
use retreet_lang::ast::Program;
use retreet_lang::blocks::BlockTable;
use retreet_verify::Verifier;

thread_local! {
    /// The calling thread's pooled VM, shared by every executor the thread
    /// runs.  [`Vm::run_flat`] clears its pools on entry, so a run that
    /// failed or panicked leaves nothing behind for the next one.
    static VM: RefCell<Vm> = RefCell::new(Vm::new());
}

/// One VM run on a flat tree, on the calling thread's pooled VM.
fn run_vm(compiled: &CompiledProgram, tree: &mut FlatTree) -> Result<Vec<i64>, ExecError> {
    VM.with(|vm| vm.borrow_mut().run_flat(compiled, tree))
        .map_err(ExecError::Vm)
}

/// Which execution tier ran (or would run) a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// Compiled bytecode on the VM.
    Vm,
    /// The reference tree-walking interpreter.
    Interpreter,
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecTier::Vm => write!(f, "vm"),
            ExecTier::Interpreter => write!(f, "interpreter"),
        }
    }
}

/// The result of one run: `Main`'s values, the post-run tree, and which
/// tier produced them.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Values returned by `Main`.
    pub returns: Vec<i64>,
    /// The tree after all field writes.
    pub tree: ValueTree,
    /// The tier that executed the program.
    pub tier: ExecTier,
}

/// The result of [`ProgramExecutor::run_complete`]: `Main`'s values, the
/// node count of the tree they were computed on, and the tier that ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteRun {
    /// Values returned by `Main`.
    pub returns: Vec<i64>,
    /// Nodes in the complete tree.
    pub nodes: usize,
    /// The tier that executed the program.
    pub tier: ExecTier,
}

/// A runtime failure, from whichever tier ran.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The VM failed.
    Vm(VmError),
    /// The interpreter failed.
    Interp(InterpError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Vm(err) => write!(f, "vm: {err}"),
            ExecError::Interp(err) => write!(f, "interpreter: {err}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A reusable executor for one program.
#[derive(Debug)]
pub struct ProgramExecutor {
    table: BlockTable,
    compiled: Option<CompiledProgram>,
}

impl ProgramExecutor {
    /// Builds an executor with plain compilation (no iterative lowering).
    /// A program the bytecode compiler rejects — e.g. a call to an unknown
    /// function, which the interpreter only faults on lazily — still gets
    /// an executor; it just runs on the interpreter tier.
    pub fn new(program: &Program) -> Self {
        Self::build(program, compile(program).ok())
    }

    /// Builds an executor whose compilation includes the certified
    /// iterative-lowering pass: lowerable traversals are submitted to
    /// `verifier` and run as worklist loops when (and only when) the
    /// equivalence verdict is positive.
    pub fn with_verifier(verifier: &Verifier, program: &Program) -> Self {
        Self::build(program, compile_with_lowering(verifier, program).ok())
    }

    fn build(program: &Program, compiled: Option<CompiledProgram>) -> Self {
        ProgramExecutor {
            table: BlockTable::build(program),
            compiled,
        }
    }

    /// The program this executor runs.
    pub fn program(&self) -> &Program {
        self.table.program()
    }

    /// The tier [`Self::run`] will use.
    pub fn tier(&self) -> ExecTier {
        if self.compiled.is_some() {
            ExecTier::Vm
        } else {
            ExecTier::Interpreter
        }
    }

    /// The equivalence certificates of the iterative lowerings baked into
    /// the compiled program (empty without [`Self::with_verifier`], or when
    /// nothing was lowerable).
    pub fn lowerings(&self) -> &[LoweringCertificate] {
        self.compiled
            .as_ref()
            .map(|c| c.lowerings.as_slice())
            .unwrap_or(&[])
    }

    /// Runs the program on `tree`, preferring the compiled tier.
    pub fn run(&self, tree: &ValueTree) -> Result<ExecOutcome, ExecError> {
        match &self.compiled {
            Some(compiled) => {
                let mut flat =
                    FlatTree::from_value_tree_kary(tree, &compiled.fields, compiled.arity);
                let returns = run_vm(compiled, &mut flat)?;
                Ok(ExecOutcome {
                    returns,
                    tree: flat.write_back(tree, &compiled.fields),
                    tier: ExecTier::Vm,
                })
            }
            None => self.run_interpreted(tree),
        }
    }

    /// The compiled program the VM tier runs; `None` on the interpreter
    /// tier.
    pub(crate) fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref()
    }

    /// One VM run on a flat tree whose columns are [`Self::compiled`]'s
    /// fields, in place: no flattening and no write-back, so a timer around
    /// it times only the program.  Panics on the interpreter tier, which
    /// has no flat trees.
    pub(crate) fn run_flat(&self, tree: &mut FlatTree) -> Result<Vec<i64>, ExecError> {
        let compiled = self.compiled.as_ref().expect("flat runs need the VM tier");
        run_vm(compiled, tree)
    }

    /// Runs the program on the seeded complete tree
    /// `ValueTree::complete_kary(arity, height, ..)` filled by
    /// `fill_fields(.., seed)` over the program's fields, and answers only
    /// `Main`'s values — for callers that do not need the post-run tree.
    /// The VM tier builds the tree straight into a [`FlatTree`]
    /// ([`FlatTree::complete_kary`]), so no [`ValueTree`] is built,
    /// flattened or written back; the interpreter tier builds the
    /// [`ValueTree`] as [`Self::run`] would run on it.
    pub fn run_complete(
        &self,
        arity: u8,
        height: usize,
        seed: u64,
    ) -> Result<CompleteRun, ExecError> {
        match &self.compiled {
            Some(compiled) => {
                let mut tree = FlatTree::complete_kary(arity, height, &compiled.fields, seed);
                let returns = run_vm(compiled, &mut tree)?;
                Ok(CompleteRun {
                    returns,
                    nodes: tree.len(),
                    tier: ExecTier::Vm,
                })
            }
            None => {
                let fields = program_fields(self.table.program());
                let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                let mut tree = ValueTree::complete_kary(arity, height, &refs, |_, _| 0);
                tree.fill_fields(&refs, seed);
                let outcome = self.run_interpreted(&tree)?;
                Ok(CompleteRun {
                    returns: outcome.returns,
                    nodes: tree.len(),
                    tier: outcome.tier,
                })
            }
        }
    }

    /// Runs the program on the interpreter tier unconditionally (the
    /// differential baseline).
    pub fn run_interpreted(&self, tree: &ValueTree) -> Result<ExecOutcome, ExecError> {
        let result = interp::run_with_table(&self.table, tree).map_err(ExecError::Interp)?;
        Ok(ExecOutcome {
            returns: result.returns,
            tree: result.tree,
            tier: ExecTier::Interpreter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use std::sync::Barrier;

    #[test]
    fn executor_prefers_vm_and_matches_interpreter() {
        let program = corpus::size_counting_sequential();
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Vm);
        let mut tree = ValueTree::complete(8, &[], |_, _| 0);
        tree.fill_fields(&[], 3);
        let fast = executor.run(&tree).expect("vm run");
        let slow = executor.run_interpreted(&tree).expect("interp run");
        assert_eq!(fast.tier, ExecTier::Vm);
        assert_eq!(slow.tier, ExecTier::Interpreter);
        assert_eq!(fast.returns, slow.returns);
    }

    #[test]
    fn threads_sharing_one_executor_each_match_the_interpreter() {
        let program = corpus::tree_mutation_original();
        let executor = ProgramExecutor::new(&program);
        let fields = program_fields(&program);
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        let mut tree = ValueTree::complete_kary(2, 10, &refs, |_, _| 0);
        tree.fill_fields(&refs, 5);
        let expected = executor.run_interpreted(&tree).expect("interp run");
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let full = executor.run(&tree).expect("vm run");
                        let complete = executor.run_complete(2, 10, 5).expect("vm run_complete");
                        (full, complete)
                    })
                })
                .collect();
            for worker in workers {
                let (full, complete) = worker.join().expect("worker thread");
                assert_eq!(full.tier, ExecTier::Vm);
                assert_eq!(full.returns, expected.returns);
                assert!(retreet_codegen::trees_agree(&full.tree, &expected.tree));
                assert_eq!(complete.returns, expected.returns);
            }
        });
    }

    #[test]
    fn uncompilable_program_falls_back_to_interpreter() {
        let program = retreet_lang::parser::parse_program("fn Main(n) { x = Ghost(n); return x; }")
            .expect("parse");
        let executor = ProgramExecutor::new(&program);
        assert_eq!(executor.tier(), ExecTier::Interpreter);
        let result = executor.run(&ValueTree::single());
        assert!(
            matches!(
                result,
                Err(ExecError::Interp(InterpError::UnknownFunction(_)))
            ),
            "interpreter surfaces the unknown callee at run time"
        );
    }

    #[test]
    fn run_complete_matches_run_on_the_seeded_value_tree() {
        let ghost = retreet_lang::parser::parse_program(
            "fn Main(n) { if (n == nil) { g = Ghost(n); return g; } else { n.v = n.v + 1; \
             return n.v; } }",
        )
        .expect("parse");
        for (program, tier) in [
            (corpus::tree_mutation_original(), ExecTier::Vm),
            (corpus::ternary_sum_parallel(), ExecTier::Vm),
            (ghost, ExecTier::Interpreter),
        ] {
            let executor = ProgramExecutor::new(&program);
            let fields = program_fields(&program);
            let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            for (arity, height, seed) in [(3, 1, 0), (3, 4, 7), (4, 3, 21)] {
                let mut tree = ValueTree::complete_kary(arity, height, &refs, |_, _| 0);
                tree.fill_fields(&refs, seed);
                let expected = executor.run(&tree).expect("run");
                let actual = executor
                    .run_complete(arity, height, seed)
                    .expect("run_complete");
                assert_eq!(
                    actual,
                    CompleteRun {
                        returns: expected.returns,
                        nodes: tree.len(),
                        tier,
                    }
                );
            }
        }
    }

    #[test]
    fn with_verifier_carries_lowering_certificates() {
        let verifier = Verifier::builder().build();
        let program = corpus::tree_mutation_original();
        let executor = ProgramExecutor::with_verifier(&verifier, &program);
        assert!(!executor.lowerings().is_empty());
        let mut tree = ValueTree::complete(5, &["v"], |_, _| 0);
        tree.fill_fields(&["v"], 9);
        let fast = executor.run(&tree).expect("vm");
        let slow = executor.run_interpreted(&tree).expect("interp");
        assert_eq!(fast.returns, slow.returns);
        assert!(retreet_codegen::trees_agree(&fast.tree, &slow.tree));
    }
}
