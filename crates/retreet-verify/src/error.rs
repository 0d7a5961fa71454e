//! The typed error hierarchy of the façade.
//!
//! Before this crate existed, every entry point reported failures as ad-hoc
//! `String`s (`TransformError::InvalidProgram(String)`, panics in the MSO
//! compiler, …).  [`VerifyError`] replaces those with a structured hierarchy
//! that callers can match on, while still rendering a readable message.

use std::fmt;

use crate::engine::Engine;
use crate::query::QueryKind;

/// Which program of a query an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramRole {
    /// The single program of a [`crate::Query::DataRace`] query.
    Queried,
    /// The original program of an equivalence query.
    Original,
    /// The transformed program of an equivalence query.
    Transformed,
}

impl fmt::Display for ProgramRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramRole::Queried => write!(f, "queried program"),
            ProgramRole::Original => write!(f, "original program"),
            ProgramRole::Transformed => write!(f, "transformed program"),
        }
    }
}

/// Why an engine declined to answer a query (not an error: other portfolio
/// members may still answer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSkip {
    /// The engine that declined.
    pub engine: Engine,
    /// Why it declined (fragment restriction, unsupported query kind, …).
    pub reason: String,
}

impl fmt::Display for EngineSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.engine, self.reason)
    }
}

/// The typed error hierarchy of the verification façade.
#[derive(Debug, Clone)]
pub enum VerifyError {
    /// A program handed to the query is not a well-formed Retreet program.
    InvalidProgram {
        /// Which program of the query is malformed.
        role: ProgramRole,
        /// The first validation error, rendered.
        message: String,
    },
    /// No engine in the configured portfolio could answer the query; carries
    /// one skip report per engine that was consulted (an MSO-compiler
    /// fragment rejection surfaces here as the automata engine's skip).
    NoApplicableEngine {
        /// The kind of query that went unanswered.
        query: QueryKind,
        /// Why each consulted engine declined.
        skipped: Vec<EngineSkip>,
    },
    /// The portfolio ran but every applicable engine panicked (each panic
    /// is isolated to its engine's turn by `catch_unwind`, so one bad
    /// engine cannot take the others down, but when *none* survives this
    /// is the honest answer).
    PortfolioFailed {
        /// The kind of query that was being answered.
        query: QueryKind,
    },
    /// The per-query deadline expired (or the dispatch was aborted) before
    /// an engine produced a verdict.  Fail-closed: no partial or truncated
    /// answer is ever synthesized.
    DeadlineExceeded {
        /// The kind of query whose budget expired.
        query: QueryKind,
    },
    /// The persistent verdict store could not be opened (I/O failure, or
    /// corruption under the fail-open policy).
    StoreFailed {
        /// The underlying error, rendered.
        message: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InvalidProgram { role, message } => {
                write!(f, "invalid {role}: {message}")
            }
            VerifyError::NoApplicableEngine { query, skipped } => {
                write!(f, "no engine could answer the {query} query")?;
                for skip in skipped {
                    write!(f, "; {skip}")?;
                }
                Ok(())
            }
            VerifyError::PortfolioFailed { query } => {
                write!(f, "every portfolio worker failed on the {query} query")
            }
            VerifyError::DeadlineExceeded { query } => {
                write!(
                    f,
                    "deadline exceeded before any engine answered the {query} query"
                )
            }
            VerifyError::StoreFailed { message } => {
                write!(f, "verdict store unavailable: {message}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}
