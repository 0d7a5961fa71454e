//! # retreet-runtime — executing certified Retreet programs
//!
//! The Retreet paper answers the *legality* question for traversal
//! transformations; this crate runs the programs whose legality the
//! verifier certified:
//!
//! * [`exec`] — tiered execution of Retreet programs: a
//!   [`exec::ProgramExecutor`] compiles a program to `retreet-codegen`
//!   bytecode (with certified iterative lowering when built from a
//!   verifier) and runs it on the VM, keeping the reference interpreter as
//!   the fallback tier and differential baseline,
//! * [`tune`] — the VM-backed cost model for `retreet-transform`'s
//!   certified schedule autotuner: [`tune_and_compile`] measures every
//!   certified candidate on the compiled tier (never the interpreter) and
//!   returns the winning schedule with a ready executor,
//! * [`tree`] — the owned binary trees ([`tree::TreeNode`]) the CSS and
//!   cycletree case studies build their concrete ASTs from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod tree;
pub mod tune;

pub use exec::{CompleteRun, ExecError, ExecOutcome, ExecTier, ProgramExecutor};
pub use tree::{complete_tree, random_tree, TreeNode};
pub use tune::{tune_and_compile, TunedProgram};
