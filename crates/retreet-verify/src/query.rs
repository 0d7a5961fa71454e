//! The typed query surface of the façade.
//!
//! The three dependence questions of the paper — data race (Theorem 2),
//! transformation equivalence (Theorem 3) and MSO validity (the substrate
//! both encode into) — were previously exposed as three disconnected entry
//! points.  [`Query`] makes them one type, so a single [`crate::Verifier`]
//! can dispatch, cache and report all of them uniformly.

use std::fmt;
use std::hash::{Hash, Hasher};

use retreet_lang::ast::Program;
use retreet_lang::pretty::print_program;
use retreet_mso::formula::Formula;

use crate::cache::CacheKey;
use crate::engine::EngineConfig;

/// One verification question, borrowing its subject(s) from the caller.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// Is the (parallel composition in the) program data-race-free?
    /// The paper's `DataRace⟦P⟧` query, Theorem 2.
    DataRace(&'a Program),
    /// Is the transformed program equivalent to the original?  The paper's
    /// `Conflict⟦P, P′⟧` query, Theorem 3 (original first, transformed
    /// second).
    Equivalence(&'a Program, &'a Program),
    /// Does the closed MSO formula hold on every finite binary tree?
    Validity(&'a Formula),
}

/// The kind of a query, without its subjects (used in errors, stats and
/// engine-applicability tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// A [`Query::DataRace`] query.
    DataRace,
    /// A [`Query::Equivalence`] query.
    Equivalence,
    /// A [`Query::Validity`] query.
    Validity,
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryKind::DataRace => write!(f, "data-race"),
            QueryKind::Equivalence => write!(f, "equivalence"),
            QueryKind::Validity => write!(f, "validity"),
        }
    }
}

impl Query<'_> {
    /// The kind of this query.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::DataRace(_) => QueryKind::DataRace,
            Query::Equivalence(_, _) => QueryKind::Equivalence,
            Query::Validity(_) => QueryKind::Validity,
        }
    }
}

/// A race or equivalence query over program *source text*, for
/// [`crate::Verifier::cached`]: the form a serving tier receives before it
/// parses anything.  Only text byte-identical to a cached program's printed
/// form (see [`retreet_lang::pretty::print_program`]) finds its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceQuery<'a> {
    /// A [`Query::DataRace`] over this program text.
    DataRace(&'a str),
    /// A [`Query::Equivalence`] over these program texts, original first.
    Equivalence(&'a str, &'a str),
}

impl SourceQuery<'_> {
    /// The kind of this query.
    pub fn kind(&self) -> QueryKind {
        match self {
            SourceQuery::DataRace(_) => QueryKind::DataRace,
            SourceQuery::Equivalence(_, _) => QueryKind::Equivalence,
        }
    }

    /// The verdict-cache key of this query under `config`; the same key
    /// as a [`Query`] whose programs print to these texts.
    pub(crate) fn cache_key(&self, config: &EngineConfig) -> CacheKey {
        match *self {
            SourceQuery::DataRace(program) => cache_key(self.kind(), config, program),
            SourceQuery::Equivalence(original, transformed) => {
                cache_key(self.kind(), config, &(original, transformed))
            }
        }
    }
}

/// The verdict-cache key of subjects in their canonical form: the query
/// kind plus a 128-bit hash (two independently seeded 64-bit hashes) of
/// the option set and the subjects.
///
/// A program's canonical form is its printed text.  Text keys are back
/// (an AST hash replaced them once, and made every hit parse its request
/// and walk the AST) because they let a serving tier answer a request
/// whose program text is already canonical without parsing it, and let an
/// entry hold bytes instead of a tree.  They are cheap and exact: the
/// printer writes into one buffer (a few microseconds for the largest
/// corpus program) and is the parser's inverse on every source a client
/// may send.
fn cache_key(kind: QueryKind, config: &EngineConfig, subjects: &(impl Hash + ?Sized)) -> CacheKey {
    let digest = |domain: u8| -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        domain.hash(&mut hasher);
        config.hash(&mut hasher);
        subjects.hash(&mut hasher);
        hasher.finish()
    };
    CacheKey {
        kind,
        h1: digest(0),
        h2: digest(1),
    }
}

/// A query's subjects in the verdict cache's canonical form: each program
/// as printed by [`print_program`], a formula as it is.  Two queries are
/// the same query exactly when their canonical subjects are equal, so the
/// cache's collision guard is a byte compare.
#[derive(Debug, PartialEq)]
pub(crate) enum OwnedQuery {
    /// Owned [`Query::DataRace`].
    DataRace(Box<str>),
    /// Owned [`Query::Equivalence`].
    Equivalence(Box<str>, Box<str>),
    /// Owned [`Query::Validity`].
    Validity(Formula),
}

impl OwnedQuery {
    /// The canonical subjects of `query`, printing each program once.
    pub(crate) fn printed(query: &Query<'_>) -> Self {
        let print = |program: &Program| print_program(program).into_boxed_str();
        match *query {
            Query::DataRace(program) => OwnedQuery::DataRace(print(program)),
            Query::Equivalence(original, transformed) => {
                OwnedQuery::Equivalence(print(original), print(transformed))
            }
            Query::Validity(formula) => OwnedQuery::Validity(formula.clone()),
        }
    }

    /// The verdict-cache key of these subjects under `config`.
    pub(crate) fn cache_key(&self, config: &EngineConfig) -> CacheKey {
        match self {
            OwnedQuery::DataRace(program) => cache_key(QueryKind::DataRace, config, &**program),
            OwnedQuery::Equivalence(original, transformed) => cache_key(
                QueryKind::Equivalence,
                config,
                &(&**original, &**transformed),
            ),
            OwnedQuery::Validity(formula) => cache_key(QueryKind::Validity, config, formula),
        }
    }

    /// True when `source`'s texts are byte-identical to these programs.
    pub(crate) fn matches_source(&self, source: &SourceQuery<'_>) -> bool {
        match (self, *source) {
            (OwnedQuery::DataRace(program), SourceQuery::DataRace(text)) => **program == *text,
            (
                OwnedQuery::Equivalence(original, transformed),
                SourceQuery::Equivalence(first, second),
            ) => **original == *first && **transformed == *second,
            _ => false,
        }
    }
}
