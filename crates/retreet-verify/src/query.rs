//! The typed query surface of the façade.
//!
//! The three dependence questions of the paper — data race (Theorem 2),
//! transformation equivalence (Theorem 3) and MSO validity (the substrate
//! both encode into) — were previously exposed as three disconnected entry
//! points.  [`Query`] makes them one type, so a single [`crate::Verifier`]
//! can dispatch, cache and report all of them uniformly.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use retreet_lang::ast::Program;
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

    /// An owned copy of this query (the verdict cache verifies key hits by
    /// full subject equality), taking each program from `share`: the cache
    /// passes a resident copy when it holds an equal one and a fresh clone
    /// otherwise.
    pub(crate) fn to_owned_query_with(
        self,
        mut share: impl FnMut(&Program) -> Arc<Program>,
    ) -> OwnedQuery {
        match self {
            Query::DataRace(p) => OwnedQuery::DataRace(share(p)),
            Query::Equivalence(a, b) => OwnedQuery::Equivalence(share(a), share(b)),
            Query::Validity(f) => OwnedQuery::Validity(f.clone()),
        }
    }

    /// The verdict-cache key of this query under `config`: a 128-bit
    /// structural hash of the query subjects (two independently seeded
    /// 64-bit hashes over the ASTs) combined with the query kind and the
    /// option set.
    ///
    /// Earlier revisions keyed the cache on the *pretty-printed program
    /// text*, re-canonicalizing every subject on every lookup; hashing the
    /// AST directly at query construction is allocation-free and O(subject)
    /// with a far smaller constant, and the stored key is a fixed-size
    /// value instead of the whole program text.  The key remains
    /// construction-independent: parsed, built and cloned subjects hash
    /// identically because the hash walks the AST, not the source.
    pub(crate) fn cache_key(&self, config: &EngineConfig) -> CacheKey {
        let digest = |domain: u8| -> u64 {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            domain.hash(&mut hasher);
            config.hash(&mut hasher);
            match self {
                Query::DataRace(program) => program.hash(&mut hasher),
                Query::Equivalence(original, transformed) => {
                    original.hash(&mut hasher);
                    transformed.hash(&mut hasher);
                }
                Query::Validity(formula) => formula.hash(&mut hasher),
            }
            hasher.finish()
        };
        CacheKey {
            kind: self.kind(),
            h1: digest(0),
            h2: digest(1),
        }
    }
}

/// An owned copy of a [`Query`]'s subjects.  Programs sit behind an `Arc`
/// so that every cache entry over an equal program can share one copy.
pub(crate) enum OwnedQuery {
    /// Owned [`Query::DataRace`].
    DataRace(Arc<Program>),
    /// Owned [`Query::Equivalence`].
    Equivalence(Arc<Program>, Arc<Program>),
    /// Owned [`Query::Validity`].
    Validity(Formula),
}

impl OwnedQuery {
    /// The borrowed view of the owned subjects.
    pub(crate) fn as_query(&self) -> Query<'_> {
        match self {
            OwnedQuery::DataRace(p) => Query::DataRace(p),
            OwnedQuery::Equivalence(a, b) => Query::Equivalence(a, b),
            OwnedQuery::Validity(f) => Query::Validity(f),
        }
    }

    /// Full structural equality of the subjects — the collision guard the
    /// verdict cache runs on every key hit (a 128-bit hash hit alone is not
    /// proof the queries are the same).
    pub(crate) fn matches(&self, query: &Query<'_>) -> bool {
        match (self, query) {
            (OwnedQuery::DataRace(p), Query::DataRace(q)) => **p == **q,
            (OwnedQuery::Equivalence(a, b), Query::Equivalence(c, d)) => **a == **c && **b == **d,
            (OwnedQuery::Validity(f), Query::Validity(g)) => f == *g,
            _ => false,
        }
    }

    /// The subject programs: none for a validity query, the original before
    /// the transformed one for an equivalence.
    pub(crate) fn programs(&self) -> impl Iterator<Item = &Arc<Program>> {
        let (first, second) = match self {
            OwnedQuery::DataRace(p) => (Some(p), None),
            OwnedQuery::Equivalence(a, b) => (Some(a), Some(b)),
            OwnedQuery::Validity(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}
