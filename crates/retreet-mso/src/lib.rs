//! # retreet-mso — MSO logic over binary trees and tree automata
//!
//! The Retreet paper encodes configurations, schedules and dependences into
//! Monadic Second-Order logic over trees and discharges the resulting
//! queries with the MONA WS2S solver.  MONA is external infrastructure this
//! reproduction cannot vendor, so this crate provides the substitute
//! substrate (see `crates/README.md`, "The substrate"):
//!
//! * [`tree`] — finite labeled binary trees (the models) and exhaustive
//!   shape enumeration;
//! * [`formula`] — the MSO formula AST (`root`, `left`, `right`, `reach`,
//!   membership, subset, boolean connectives, first- and second-order
//!   quantifiers);
//! * [`checker`] — an explicit model checker (quantifier expansion) for a
//!   formula on a concrete labeled tree;
//! * [`bounded`] — bounded validity / satisfiability by enumerating every
//!   tree up to a node bound (the workhorse the analysis crate uses, with
//!   counterexamples reported as concrete trees exactly like MONA's);
//! * [`automata`] / [`mod@compile`] — a bottom-up tree-automata library
//!   (intersection, union, complement via determinization, projection,
//!   emptiness) and the Thatcher–Wright compilation of the core MSO fragment
//!   onto it, giving *unbounded* answers for that fragment.
//!
//! # Example
//!
//! ```
//! use retreet_mso::formula::{Formula, FoVar};
//! use retreet_mso::compile::is_valid;
//! use retreet_mso::bounded::check_validity;
//!
//! // "Every tree has a root that reaches every node."
//! let formula = Formula::forall_fo(
//!     "r",
//!     Formula::implies(
//!         Formula::Root(FoVar::new("r")),
//!         Formula::forall_fo("x", Formula::Reach(FoVar::new("r"), FoVar::new("x"))),
//!     ),
//! );
//! assert!(is_valid(&formula).unwrap());            // unbounded, via automata
//! assert!(check_validity(&formula, 5).is_valid()); // bounded, via enumeration
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automata;
pub mod bounded;
pub mod checker;
pub mod compile;
pub mod encode;
pub mod formula;
pub mod tree;

pub use automata::Nfta;
pub use bounded::{check_satisfiability, check_validity, BoundedVerdict};
pub use checker::{eval, Assignment};
pub use compile::{compile, is_satisfiable, is_valid, Compiled};
pub use formula::{FoVar, Formula, SoVar};
pub use tree::{all_trees_up_to, complete_tree, LabeledTree, NodeId, Shape};
