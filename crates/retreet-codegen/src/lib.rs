//! `retreet-codegen`: the certified bytecode execution tier.
//!
//! The tree-walking interpreter in `retreet-analysis` is the semantic
//! reference: it records a full trace, keeps a `HashMap` environment per
//! activation and resolves field names through string maps — exactly what a
//! reference implementation should do, and exactly what a fast one should
//! not.  This crate adds the fast form:
//!
//! 1. [`compile()`] lowers a program to compact register-based bytecode
//!    ([`bytecode::CompiledProgram`]): variables become registers, fields
//!    become column ids, structured control flow becomes jumps, and call
//!    results become scatter lists.
//! 2. [`lower`] additionally recognizes self-recursive traversals that can
//!    run as an explicit-worklist loop — and *certifies* each lowering by
//!    reconstructing the recursion from the lowered pieces and asking
//!    `retreet-verify` for an equivalence verdict (translation validation).
//!    Uncertified lowerings are refused and fall back to frame bytecode.
//! 3. [`vm::Vm`] executes either form against a [`flat::FlatTree`]
//!    (structure-of-arrays node storage, dense `u32` node indices) with
//!    pooled frames and registers, no tracing, and interpreter-exact
//!    semantics.
//!
//! The interpreter stays available as the differential baseline; the
//! workspace's differential suite runs both on the same inputs and demands
//! identical returns, trees and error outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod compile;
pub mod flat;
pub mod lower;
pub mod vm;

use retreet_lang::ast::Program;
use retreet_verify::Verifier;

pub use bytecode::{CompiledProgram, FuncCode};
pub use compile::{compile, program_fields, CompileError};
pub use flat::{trees_agree, FlatTree, NIL};
pub use lower::{
    certify_lowering, lower_function, reconstruct_recursive, IterativeLowering,
    LoweringCertificate, LoweringError,
};
pub use vm::{Vm, VmError, VmResult};

use std::fmt;

/// Any failure while producing a compiled program.
#[derive(Debug)]
pub enum CodegenError {
    /// The bytecode compiler rejected the program.
    Compile(CompileError),
    /// Lowering certification could not run (verifier error).  Note that a
    /// *negative* verdict is not an error at this level — the function just
    /// keeps its frame-based form; see [`compile_with_lowering`].
    Verify(retreet_verify::VerifyError),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Compile(err) => write!(f, "compile error: {err}"),
            CodegenError::Verify(err) => write!(f, "certification error: {err}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<CompileError> for CodegenError {
    fn from(err: CompileError) -> Self {
        CodegenError::Compile(err)
    }
}

/// Compiles `program` with certified iterative lowering: every function
/// whose shape [`lower_function`] recognizes is submitted to the verifier,
/// and only positively-certified lowerings execute as worklist loops — the
/// rest keep frame-based bytecode.  The returned program carries one
/// [`LoweringCertificate`] per lowered function.
pub fn compile_with_lowering(
    verifier: &Verifier,
    program: &Program,
) -> Result<CompiledProgram, CodegenError> {
    let mut certified = Vec::new();
    for func in &program.funcs {
        let Some(lowering) = lower_function(func) else {
            continue;
        };
        match certify_lowering(verifier, program, &lowering) {
            Ok(certificate) => certified.push((lowering, certificate)),
            // A refused lowering is not fatal: the function simply keeps
            // its (always-correct) frame-based form.
            Err(LoweringError::Rejected { .. }) => {}
            Err(LoweringError::Verify(err)) => return Err(CodegenError::Verify(err)),
        }
    }
    compile::compile_program(program, &certified).map_err(CodegenError::Compile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_analysis::interp;
    use retreet_analysis::vtree::ValueTree;
    use retreet_lang::corpus;

    fn quick_verifier() -> Verifier {
        Verifier::builder().build()
    }

    #[test]
    fn corpus_programs_compile() {
        for (name, program) in corpus::all() {
            match compile(&program) {
                Ok(compiled) => assert!(compiled.code_len() > 0, "{name}: empty code"),
                Err(err) => panic!("{name}: {err}"),
            }
        }
    }

    #[test]
    fn unknown_callee_is_a_compile_error() {
        let program = retreet_lang::parser::parse_program("fn Main(n) { x = Ghost(n); return x; }")
            .expect("parse");
        assert!(matches!(
            compile(&program),
            Err(CompileError::UnknownFunction(name)) if name == "Ghost"
        ));
    }

    #[test]
    fn lowering_is_certified_and_matches_interpreter() {
        let program = corpus::tree_mutation_original();
        let verifier = quick_verifier();
        let compiled = compile_with_lowering(&verifier, &program).expect("compile");
        assert!(
            !compiled.lowered_funcs().is_empty(),
            "expected at least one certified lowering in tree_mutation"
        );
        assert_eq!(compiled.lowerings.len(), compiled.lowered_funcs().len());
        for cert in &compiled.lowerings {
            assert!(cert.verdict.is_equivalent(), "{}: bad verdict", cert.func);
        }
        let mut tree = ValueTree::complete(6, &["v"], |_, _| 0);
        tree.fill_fields(&["v"], 11);
        let expected = interp::run(&program, &tree).expect("interp");
        let actual = Vm::new().run(&compiled, &tree).expect("vm");
        assert_eq!(expected.returns, actual.returns);
        assert!(trees_agree(&expected.tree, &actual.tree));
    }

    #[test]
    fn broken_lowering_is_refused_with_witness() {
        let program = corpus::tree_mutation_original();
        let func = program
            .funcs
            .iter()
            .find(|f| lower_function(f).is_some())
            .expect("a lowerable function");
        let mut lowering = lower_function(func).expect("lowering");
        // Sabotage: visit the first child twice, dropping the other subtree.
        lowering.axes[1] = lowering.axes[0];
        let verifier = quick_verifier();
        match certify_lowering(&verifier, &program, &lowering) {
            Err(LoweringError::Rejected {
                func: name,
                verdict,
            }) => {
                assert_eq!(name, lowering.func);
                assert!(
                    verdict.counterexample().is_some(),
                    "refusal must carry a concrete witness"
                );
            }
            other => panic!("sabotaged lowering was not refused: {other:?}"),
        }
    }
}
