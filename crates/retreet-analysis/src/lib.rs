//! # retreet-analysis — iteration-level reasoning for Retreet programs
//!
//! This crate implements the back half of the Retreet framework: the
//! stack-based *configuration* abstraction of §3, and the dependence queries
//! of §4 — data-race detection (`DataRace⟦P⟧`, Theorem 2) and
//! transformation-correctness checking (`Conflict⟦P, P′⟧`, Theorem 3).
//!
//! The paper discharges these queries by encoding them to MSO over trees and
//! calling MONA.  The reproduction answers them with its own analyses (see
//! `crates/README.md`, "The substrate" and "The bounded-engine hot path",
//! for the substitution argument):
//!
//! * the **structural analyses** ([`summary`], [`corresp`]) — unbounded
//!   verdicts over every tree at once: transitive field-access summaries
//!   with guarded regions decide race-freedom of a program's parallel
//!   block pairs, and the fusion-correspondence matcher proves a fused
//!   program equivalent to its passes in the style of Theorem 3;
//! * the **configuration engine** ([`configs`], [`race`]) — enumerates the
//!   paper's configurations over every tree up to a size bound, keeping
//!   parameters and speculative call returns symbolic (discharged by
//!   `retreet-logic`) and the tree shape concrete;
//! * the **trace engine** ([`interp`], [`equiv`]) — a reference interpreter
//!   recording iterations, accesses and series-parallel positions, used for
//!   dynamic race validation and for differential equivalence checking of
//!   fusions, including the Theorem 3 dependence-order condition.
//!
//! The two bounded engines search trees in corpus order and item pairs in
//! lexicographic order, so every witness is the first one in that order:
//! the same on every run.  [`coarse`] adds the TreeFuser-style
//! field-granularity baseline used by the ablation benchmarks, [`naive`]
//! keeps the pre-optimization engines as a differential reference, and
//! [`vtree`] provides the concrete trees all of the above run on.
//!
//! # Example: the paper's two headline verdicts
//!
//! ```
//! use retreet_analysis::race::{check_data_race, RaceOptions};
//! use retreet_analysis::equiv::{check_equivalence, EquivOptions};
//! use retreet_lang::corpus;
//!
//! let mut race_opts = RaceOptions::default();
//! race_opts.max_nodes = 3;
//! // Odd(n) ‖ Even(n) is data-race-free (checked in 0.02s by MONA in §5).
//! assert!(check_data_race(&corpus::size_counting_parallel(), &race_opts).is_race_free());
//!
//! let mut equiv_opts = EquivOptions::default();
//! equiv_opts.max_nodes = 4;
//! // The Fig. 6a fusion is correct; the Fig. 6b fusion is not.
//! assert!(check_equivalence(
//!     &corpus::size_counting_sequential(),
//!     &corpus::size_counting_fused(),
//!     &equiv_opts,
//! ).is_equivalent());
//! assert!(!check_equivalence(
//!     &corpus::size_counting_sequential(),
//!     &corpus::size_counting_fused_invalid(),
//!     &equiv_opts,
//! ).is_equivalent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::AtomicBool;

pub mod coarse;
pub mod configs;
pub mod corresp;
pub mod equiv;
pub mod interp;
pub mod naive;
pub mod race;
pub mod summary;
pub mod vtree;

pub use configs::{
    AnalysisContext, ConfigRelation, Configuration, EnumOptions, Frame, Loc, PathSummaries,
    SharedSymTab,
};
pub use equiv::{
    check_equivalence, check_equivalence_cancellable, Disagreement, EquivCounterExample,
    EquivOptions, EquivVerdict,
};
pub use interp::{run, ExecOrder, FieldAccess, Iteration, RunResult, Trace};
pub use race::{
    check_data_race, check_data_race_cancellable, check_data_race_dynamic,
    check_data_race_dynamic_cancellable, RaceOptions, RaceVerdict, RaceWitness,
};
pub use vtree::{test_trees, NodeId, ValueTree};

/// A cancel flag that is never raised: what the non-cancellable entry
/// points pass to their `*_cancellable` variants.
static NEVER_CANCELLED: AtomicBool = AtomicBool::new(false);
