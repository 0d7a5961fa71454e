//! # retreet-runtime — executing (verified) tree-traversal schedules
//!
//! The Retreet paper answers the *legality* question for traversal
//! transformations; this crate provides the *execution* side a downstream
//! user needs once a transformation is known to be legal:
//!
//! * [`tree`] — owned binary trees ([`tree::TreeNode`]) whose disjoint
//!   subtrees can be handed to different rayon workers,
//! * [`visit`] — sequential, fused (the arity-generic [`visit::fuse_all`])
//!   and rayon-parallel traversal schedules, plus parallel folds,
//! * [`verified`] — capability types ([`verified::VerifiedFusion`],
//!   [`verified::VerifiedParallelization`]) that are only constructible
//!   from a `retreet-transform` certificate of the right kind, tying the
//!   verifier's verdicts to the schedules that rely on them,
//! * [`exec`] — tiered execution of Retreet programs proper: a
//!   [`exec::ProgramExecutor`] compiles a program to `retreet-codegen`
//!   bytecode (with certified iterative lowering when built from a
//!   verifier) and runs it on the VM, keeping the reference interpreter as
//!   the fallback tier and differential baseline,
//! * [`tune`] — the VM-backed cost model for `retreet-transform`'s
//!   certified schedule autotuner: [`tune_and_compile`] measures every
//!   certified candidate on the compiled tier (never the interpreter) and
//!   returns the winning schedule with a ready executor.
//!
//! # Example
//!
//! ```
//! use retreet_runtime::tree::complete_tree;
//! use retreet_runtime::visit::{par_fold, seq_fold};
//!
//! // The running example of the paper as a runtime fold: count nodes on odd
//! // and even layers in one (parallelizable) pass.
//! let tree = complete_tree(10, &|_| ());
//! let combine = |_: &(), (lo, le): (u64, u64), (ro, re): (u64, u64)| (le + re + 1, lo + ro);
//! let seq = seq_fold(&tree, &|| (0, 0), &combine);
//! let par = par_fold(&tree, 64, &|| (0, 0), &combine);
//! assert_eq!(seq, par);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod tree;
pub mod tune;
pub mod verified;
pub mod visit;

pub use exec::{
    run_compiled, run_compiled_certified, CompleteRun, ExecError, ExecOutcome, ExecTier,
    ProgramExecutor,
};
pub use tree::{complete_tree, random_tree, TreeNode};
pub use tune::{tune_and_compile, TunedProgram};
pub use verified::{TransformError, VerifiedFusion, VerifiedParallelization};
pub use visit::{
    fuse_all, par_fold, par_postorder_mut, par_preorder_mut, postorder_mut, preorder_mut,
    run_passes, seq_fold, NodeVisitor,
};
