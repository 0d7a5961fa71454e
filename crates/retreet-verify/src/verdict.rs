//! The unified verdict type: one structured answer shape for all three
//! query kinds, carrying the witness, the engine that produced it, the
//! soundness caveat and the wall-clock time.

use std::fmt;
use std::time::Duration;

use retreet_analysis::equiv::EquivCounterExample;
use retreet_analysis::race::RaceWitness;
use retreet_mso::tree::LabeledTree;

use crate::engine::Engine;

/// How far a verdict's guarantee extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Soundness {
    /// The verdict holds on *every* finite tree of the program's declared
    /// arity — on every finite binary tree for MSO validity, whose formulas
    /// speak of binary trees (the tree-automata engine's answers, playing
    /// MONA's role).
    Unbounded,
    /// The verdict was established by exhausting every model up to a node
    /// bound — the reproduction's bounded substitute for MONA.  Negative
    /// verdicts (a race, a counterexample) are definitive either way; only
    /// positive verdicts carry this caveat.
    BoundedUpTo {
        /// The exhausted node bound.
        max_nodes: usize,
    },
}

impl Soundness {
    /// True when a verdict with this soundness is at least as strong as one
    /// with `other`: an unbounded answer covers everything, a bounded answer
    /// covers bounded answers with a smaller-or-equal exhausted bound, and a
    /// bounded answer never covers an unbounded one.  The verdict cache uses
    /// this to decide whether a fresh verdict may replace a resident one.
    pub fn covers(&self, other: &Soundness) -> bool {
        match (self, other) {
            (Soundness::Unbounded, _) => true,
            (Soundness::BoundedUpTo { .. }, Soundness::Unbounded) => false,
            (
                Soundness::BoundedUpTo { max_nodes: mine },
                Soundness::BoundedUpTo { max_nodes: theirs },
            ) => mine >= theirs,
        }
    }
}

impl fmt::Display for Soundness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Soundness::Unbounded => write!(f, "unbounded"),
            Soundness::BoundedUpTo { max_nodes } => {
                write!(f, "bounded (all models up to {max_nodes} nodes)")
            }
        }
    }
}

/// The answer proper, with its structured witness.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// No data race on any enumerated model.
    RaceFree {
        /// Trees enumerated.
        trees_checked: usize,
        /// Configurations (or trace iterations) examined.
        configurations: usize,
    },
    /// A data race, with its concrete witness.
    Race(Box<RaceWitness>),
    /// The two programs agree on every tested model.
    Equivalent {
        /// (tree, valuation) models tested.
        trees_checked: usize,
    },
    /// The programs disagree on the attached counterexample.
    NotEquivalent(Box<EquivCounterExample>),
    /// The formula holds (see the verdict's [`Soundness`] for how far).
    Valid {
        /// Models checked (0 for the unbounded automata engine, whose
        /// answer does not come from enumeration).
        trees_checked: usize,
    },
    /// The formula fails; both engines attach a falsifying tree when one
    /// can be extracted (the automata engine reads it off the nonempty
    /// complement automaton).
    Invalid(Option<Box<LabeledTree>>),
}

impl Outcome {
    /// True for the positive verdicts (`RaceFree`, `Equivalent`, `Valid`).
    pub fn is_positive(&self) -> bool {
        matches!(
            self,
            Outcome::RaceFree { .. } | Outcome::Equivalent { .. } | Outcome::Valid { .. }
        )
    }
}

/// A unified verdict: outcome, engine provenance, soundness and timing.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The structured answer.
    pub outcome: Outcome,
    /// Which portfolio engine produced the answer.
    pub engine: Engine,
    /// How far the answer's guarantee extends.
    pub soundness: Soundness,
    /// Wall-clock time of the winning engine (preserved across cache hits).
    pub elapsed: Duration,
    /// True when this verdict was served from the verdict cache.
    pub cached: bool,
    /// True when this verdict was *coalesced*: the query arrived while an
    /// identical query was already in flight, waited on that single engine
    /// run, and received the same witness — without racing the portfolio a
    /// second time.
    pub coalesced: bool,
}

impl Verdict {
    /// True for the positive verdicts (`RaceFree`, `Equivalent`, `Valid`).
    pub fn is_positive(&self) -> bool {
        self.outcome.is_positive()
    }

    /// True when the outcome is `RaceFree`.
    pub fn is_race_free(&self) -> bool {
        matches!(self.outcome, Outcome::RaceFree { .. })
    }

    /// True when the outcome is `Equivalent`.
    pub fn is_equivalent(&self) -> bool {
        matches!(self.outcome, Outcome::Equivalent { .. })
    }

    /// True when the outcome is `Valid`.
    pub fn is_valid(&self) -> bool {
        matches!(self.outcome, Outcome::Valid { .. })
    }

    /// The race witness, when the outcome is `Race`.
    pub fn race_witness(&self) -> Option<&RaceWitness> {
        match &self.outcome {
            Outcome::Race(witness) => Some(witness),
            _ => None,
        }
    }

    /// The equivalence counterexample, when the outcome is `NotEquivalent`.
    pub fn counterexample(&self) -> Option<&EquivCounterExample> {
        match &self.outcome {
            Outcome::NotEquivalent(ce) => Some(ce),
            _ => None,
        }
    }

    /// The falsifying tree, when the outcome is `Invalid` with a model.
    pub fn invalidity_model(&self) -> Option<&LabeledTree> {
        match &self.outcome {
            Outcome::Invalid(Some(tree)) => Some(tree),
            _ => None,
        }
    }

    /// How many models the verdict rests on (0 for unbounded answers and
    /// negative verdicts, which rest on a single witness).
    pub fn trees_checked(&self) -> usize {
        match &self.outcome {
            Outcome::RaceFree { trees_checked, .. }
            | Outcome::Equivalent { trees_checked }
            | Outcome::Valid { trees_checked } => *trees_checked,
            _ => 0,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let answer = match &self.outcome {
            Outcome::RaceFree {
                trees_checked,
                configurations,
            } => format!("race-free ({trees_checked} trees, {configurations} configurations)"),
            Outcome::Race(witness) => {
                format!("RACE on {}.{}", witness.node, witness.field)
            }
            Outcome::Equivalent { trees_checked } => {
                format!("equivalent ({trees_checked} models)")
            }
            Outcome::NotEquivalent(ce) => format!("NOT equivalent: {:?}", ce.disagreement),
            Outcome::Valid { .. } => String::from("valid"),
            Outcome::Invalid(_) => String::from("INVALID"),
        };
        write!(
            f,
            "{answer} [engine: {}, {}{}{}, {:?}]",
            self.engine,
            self.soundness,
            if self.cached { ", cached" } else { "" },
            if self.coalesced { ", coalesced" } else { "" },
            self.elapsed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_the_upgrade_lattice_order() {
        let unbounded = Soundness::Unbounded;
        let narrow = Soundness::BoundedUpTo { max_nodes: 3 };
        let wide = Soundness::BoundedUpTo { max_nodes: 7 };
        // Unbounded is the top element.
        assert!(unbounded.covers(&unbounded));
        assert!(unbounded.covers(&narrow));
        assert!(unbounded.covers(&wide));
        // A bounded verdict never covers an unbounded one.
        assert!(!narrow.covers(&unbounded));
        assert!(!wide.covers(&unbounded));
        // Among bounded verdicts, covering follows the node bound, and
        // equal bounds cover each other (a refresh is allowed).
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(narrow.covers(&narrow));
    }

    #[test]
    fn soundness_renders_the_guarantee() {
        assert_eq!(Soundness::Unbounded.to_string(), "unbounded");
        assert_eq!(
            Soundness::BoundedUpTo { max_nodes: 5 }.to_string(),
            "bounded (all models up to 5 nodes)"
        );
    }
}
