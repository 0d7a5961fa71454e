//! Guarded access regions and the exact decider for overlap and guard
//! questions.
//!
//! The race and equivalence engines summarize what a block touches as a
//! *region* relative to its invocation node — the node itself, one of its
//! children, or a whole subtree (for recursive calls) — guarded by the
//! structural `IsNil` conditions on the path to the block.  The paper's
//! Theorems 2 and 3 reduce race-freedom and fusion equivalence to two
//! questions about such summaries: can two guarded regions touch a common
//! node ([`check_overlap_k`]), and do two structural guards hold on exactly
//! the same nodes ([`guards_equivalent_k`])?  Both answers quantify over
//! every tree at once — an *unbounded* answer — yet need no automata: a
//! region lies at most one step below its invocation node and a guard only
//! observes which children are nil, so a case analysis and a propositional
//! check over the `2^k` child-nil patterns decide them exactly at every
//! arity.
//!
//! The same questions have an MSO reading over binary trees, which
//! [`crate::compile()`] turns into NFTA emptiness and validity checks.  Its
//! formula builders live on only in this module's tests, as the oracle the
//! deciders are pinned to.

/// A step down from the invocation node: the node itself or one child axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChildStep {
    /// The invocation node itself (`n`).
    Here,
    /// Its child along the given axis (`n.l` is axis 0, `n.r` axis 1, and
    /// `n.c<k>` axis `k` for higher arities).
    Child(u8),
}

impl ChildStep {
    /// The left child of a binary node (axis 0).
    pub const LEFT: ChildStep = ChildStep::Child(0);
    /// The right child of a binary node (axis 1).
    pub const RIGHT: ChildStep = ChildStep::Child(1);
}

/// The part of the tree a block (running at some invocation node) may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Exactly the node at the given offset (a direct field access).
    At(ChildStep),
    /// The whole subtree rooted at the offset (a recursive call: the callee
    /// and everything it transitively calls stay inside the subtree because
    /// the language only has downward node references).
    Subtree(ChildStep),
}

impl Region {
    /// The offset the region hangs off.
    fn step(self) -> ChildStep {
        match self {
            Region::At(step) | Region::Subtree(step) => step,
        }
    }
}

/// Structural constraints the path to a block imposes on the invocation
/// node: which children must exist or be absent (`IsNil` guards), one bit
/// per child axis (bit `k` speaks about axis `k`; arities above
/// [`MAX_CONSTRAINT_AXES`] are unsupported by the surface language).
///
/// A constraint with both the `no` and `has` bit set for the same axis is
/// contradictory — the guarded block is structurally unreachable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructConstraint {
    /// Axes whose child must be nil (`n.c<k> == nil` must hold).
    pub no_mask: u8,
    /// Axes whose child must exist (`n.c<k> != nil` must hold).
    pub has_mask: u8,
}

/// Number of child axes a [`StructConstraint`] can speak about.
pub const MAX_CONSTRAINT_AXES: u8 = 8;

impl StructConstraint {
    /// Requires the child along `axis` to be nil.
    pub fn require_no(&mut self, axis: u8) {
        self.no_mask |= 1 << axis;
    }

    /// Requires the child along `axis` to exist.
    pub fn require_has(&mut self, axis: u8) {
        self.has_mask |= 1 << axis;
    }

    /// True when the child along `axis` must be nil.
    pub fn no(&self, axis: u8) -> bool {
        self.no_mask & (1 << axis) != 0
    }

    /// True when the child along `axis` must exist.
    pub fn has(&self, axis: u8) -> bool {
        self.has_mask & (1 << axis) != 0
    }

    /// True when the constraint can never hold on any tree node.
    pub fn contradictory(&self) -> bool {
        self.no_mask & self.has_mask != 0
    }
}

/// One side of a potential conflict: a region plus the structural guard
/// under which the access happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConflictSide {
    /// Where the access lands, relative to the shared invocation node.
    pub region: Region,
    /// Structural conditions on the invocation node for the access to run.
    pub guard: StructConstraint,
}

/// Whether two guarded regions can touch a common node on *some* tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapVerdict {
    /// No tree puts the two regions in contact: proved over all trees.
    Disjoint,
    /// Some tree puts the two regions in contact.
    Overlap,
}

impl OverlapVerdict {
    /// True for the [`OverlapVerdict::Disjoint`] case.
    pub fn is_disjoint(&self) -> bool {
        matches!(self, OverlapVerdict::Disjoint)
    }
}

/// Decides, over every tree of a program with the given child `arity`,
/// whether the two guarded regions can touch a common node.  The regions
/// may only name axes below `arity`; the relation itself is the same at
/// every arity.
///
/// Both guards constrain the *same* invocation node, so their masks merge;
/// a merged contradiction, or a region hanging off a child the merged guard
/// forbids, makes contact impossible.  Otherwise the regions are a node
/// (`At`) or a full subtree (`Subtree`) at most one step below `v`, and on
/// trees (acyclic, references only point downward):
///
/// * `At(x)` meets `At(y)` iff `x == y` — distinct steps land on distinct
///   nodes.
/// * `Subtree(Here)` contains `v` and every descendant, so it meets
///   everything still possible under the guard.
/// * `Subtree(Child(i))` meets `At(Child(j))` or `Subtree(Child(j))` iff
///   `i == j` — subtrees under distinct children are disjoint — and never
///   meets `At(Here)`, which lies strictly above it.
///
/// Any surviving combination is witnessed by a node whose children exist
/// exactly where the merged guard and the two steps demand, so "overlap"
/// answers are never spurious.
pub fn check_overlap_k(a: &ConflictSide, b: &ConflictSide, arity: u8) -> OverlapVerdict {
    debug_assert!(
        [a.region, b.region]
            .iter()
            .all(|region| match region.step() {
                ChildStep::Here => true,
                ChildStep::Child(axis) => axis < arity.max(2),
            }),
        "{a:?} / {b:?} name an axis beyond arity {arity}"
    );
    let no = a.guard.no_mask | b.guard.no_mask;
    let has = a.guard.has_mask | b.guard.has_mask;
    if no & has != 0 {
        return OverlapVerdict::Disjoint;
    }
    let forbidden = |step: ChildStep| match step {
        ChildStep::Here => false,
        ChildStep::Child(axis) => no & (1u8 << axis) != 0,
    };
    if forbidden(a.region.step()) || forbidden(b.region.step()) {
        return OverlapVerdict::Disjoint;
    }
    let overlap = match (a.region, b.region) {
        (Region::At(x), Region::At(y)) => x == y,
        (Region::Subtree(x), Region::Subtree(y)) => match (x, y) {
            (ChildStep::Here, _) | (_, ChildStep::Here) => true,
            (ChildStep::Child(i), ChildStep::Child(j)) => i == j,
        },
        (Region::At(at), Region::Subtree(sub)) | (Region::Subtree(sub), Region::At(at)) => {
            match (at, sub) {
                (_, ChildStep::Here) => true,
                (ChildStep::Here, ChildStep::Child(_)) => false,
                (ChildStep::Child(i), ChildStep::Child(j)) => i == j,
            }
        }
    };
    if overlap {
        OverlapVerdict::Overlap
    } else {
        OverlapVerdict::Disjoint
    }
}

/// A purely structural boolean guard: the fragment of the surface language's
/// guard expressions built from `IsNil` tests, negation, and conjunction.
///
/// `NilAt(Here)` denotes "the invocation node is nil"; since the guards
/// compared here are evaluated at actual tree nodes, it is always false.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardExpr {
    /// The constant true guard.
    True,
    /// `<offset> == nil`.
    NilAt(ChildStep),
    /// Guard negation.
    Not(Box<GuardExpr>),
    /// Guard conjunction.
    And(Box<GuardExpr>, Box<GuardExpr>),
}

/// Evaluates a structural guard at a node whose nil children are exactly
/// the set bits of `nil_mask` (bit `k` ⇒ the child along axis `k` is nil).
fn guard_expr_eval(expr: &GuardExpr, nil_mask: u8) -> bool {
    match expr {
        GuardExpr::True => true,
        GuardExpr::NilAt(ChildStep::Here) => false,
        GuardExpr::NilAt(ChildStep::Child(axis)) => nil_mask & (1u8 << axis) != 0,
        GuardExpr::Not(inner) => !guard_expr_eval(inner, nil_mask),
        GuardExpr::And(a, b) => guard_expr_eval(a, nil_mask) && guard_expr_eval(b, nil_mask),
    }
}

/// Decides whether two structural guards of a program with the given child
/// `arity` hold on exactly the same nodes of every tree: validity of
/// `∀v. (a(v) ↔ b(v))`.
///
/// A guard only observes which children of its node are nil, and every nil
/// pattern over the `arity` axes is realized by some node of some tree, so
/// validity reduces to agreement on all `2^arity` child-nil assignments.
pub fn guards_equivalent_k(a: &GuardExpr, b: &GuardExpr, arity: u8) -> bool {
    let axes = arity.clamp(2, MAX_CONSTRAINT_AXES);
    (0..1u16 << axes).all(|mask| guard_expr_eval(a, mask as u8) == guard_expr_eval(b, mask as u8))
}

/// The MSO reading of the region and guard questions, kept as the test
/// oracle for the deciders above: a closed formula per question, over
/// binary trees, that [`crate::compile()`] decides with tree automata.
/// Above arity 2 the formulas go through the slotted binarization, which
/// states the k-ary semantics but whose automata do not compile in
/// practical time (a single ternary pair runs for minutes), so the tests
/// pin arity 2 only.
#[cfg(test)]
mod oracle {
    use super::{ChildStep, ConflictSide, GuardExpr, Region, StructConstraint};
    use crate::formula::{FoVar, Formula};

    fn fo(name: &str) -> FoVar {
        FoVar::new(name)
    }

    /// Builds the slotted first-child/next-sibling chain for `axis` under `v`
    /// and applies `tail` to the final slot: `∃s0..s_axis. Left(v, s0) ∧
    /// Right(s0, s1) ∧ … ∧ tail(s_axis)`.
    ///
    /// This is how arities above 2 are binarized: each k-ary node's children
    /// hang off a right-spine of *slot* nodes, child `j` being the left child
    /// of slot `j`.  The formulas stay in the binary NFTA algebra, and since
    /// the binary universe contains every slotted image of every k-ary tree,
    /// an empty conflict automaton still proves k-ary disjointness.
    fn slotted(
        v: &str,
        axis: u8,
        fresh: &mut u32,
        tail: impl FnOnce(&str, &mut u32) -> Formula,
    ) -> Formula {
        let slots: Vec<String> = (0..=axis)
            .map(|_| {
                let s = format!("s{fresh}");
                *fresh += 1;
                s
            })
            .collect();
        let mut parts = vec![Formula::Left(fo(v), fo(&slots[0]))];
        for j in 1..slots.len() {
            parts.push(Formula::Right(fo(&slots[j - 1]), fo(&slots[j])));
        }
        parts.push(tail(slots.last().expect("at least one slot"), fresh));
        let mut body = Formula::conj(parts);
        for s in slots.into_iter().rev() {
            body = Formula::exists_fo(s, body);
        }
        body
    }

    fn membership(v: &str, w: &str, region: Region, arity: u8, fresh: &mut u32) -> Formula {
        match region {
            Region::At(ChildStep::Here) => Formula::Eq(fo(v), fo(w)),
            Region::At(ChildStep::Child(0)) if arity <= 2 => Formula::Left(fo(v), fo(w)),
            Region::At(ChildStep::Child(_)) if arity <= 2 => Formula::Right(fo(v), fo(w)),
            Region::At(ChildStep::Child(axis)) => {
                slotted(v, axis, fresh, |slot, _| Formula::Left(fo(slot), fo(w)))
            }
            Region::Subtree(ChildStep::Here) => Formula::Reach(fo(v), fo(w)),
            Region::Subtree(ChildStep::Child(axis)) if arity <= 2 => {
                let c = format!("c{fresh}");
                *fresh += 1;
                let edge = if axis == 0 {
                    Formula::Left(fo(v), fo(&c))
                } else {
                    Formula::Right(fo(v), fo(&c))
                };
                Formula::exists_fo(c.clone(), Formula::and(edge, Formula::Reach(fo(&c), fo(w))))
            }
            Region::Subtree(ChildStep::Child(axis)) => slotted(v, axis, fresh, |slot, fresh| {
                let c = format!("c{fresh}");
                *fresh += 1;
                Formula::exists_fo(
                    c.clone(),
                    Formula::and(
                        Formula::Left(fo(slot), fo(&c)),
                        Formula::Reach(fo(&c), fo(w)),
                    ),
                )
            }),
        }
    }

    fn child_exists(v: &str, axis: u8, arity: u8, fresh: &mut u32) -> Formula {
        if arity <= 2 {
            let g = format!("g{fresh}");
            *fresh += 1;
            let edge = if axis == 0 {
                Formula::Left(fo(v), fo(&g))
            } else {
                Formula::Right(fo(v), fo(&g))
            };
            return Formula::exists_fo(g, edge);
        }
        slotted(v, axis, fresh, |slot, fresh| {
            let g = format!("g{fresh}");
            *fresh += 1;
            Formula::exists_fo(g.clone(), Formula::Left(fo(slot), fo(&g)))
        })
    }

    fn guard_constraint(v: &str, guard: &StructConstraint, arity: u8, fresh: &mut u32) -> Formula {
        let mut parts = Vec::new();
        for axis in 0..arity.max(2) {
            if guard.has(axis) {
                parts.push(child_exists(v, axis, arity, fresh));
            }
            if guard.no(axis) {
                parts.push(Formula::not(child_exists(v, axis, arity, fresh)));
            }
        }
        Formula::conj(parts)
    }

    /// The formula of a structural guard at node `v`.
    pub(super) fn guard_expr_formula(
        v: &str,
        expr: &GuardExpr,
        arity: u8,
        fresh: &mut u32,
    ) -> Formula {
        match expr {
            GuardExpr::True => Formula::True,
            GuardExpr::NilAt(ChildStep::Here) => Formula::False,
            GuardExpr::NilAt(ChildStep::Child(axis)) => {
                Formula::not(child_exists(v, *axis, arity, fresh))
            }
            GuardExpr::Not(inner) => Formula::not(guard_expr_formula(v, inner, arity, fresh)),
            GuardExpr::And(a, b) => Formula::and(
                guard_expr_formula(v, a, arity, fresh),
                guard_expr_formula(v, b, arity, fresh),
            ),
        }
    }

    /// The closed formula "some tree has an invocation node `v` satisfying
    /// both guards and a node `w` inside both regions".  Axes beyond the
    /// binary pair are encoded through the slotted binarization (see
    /// `slotted`).
    pub(super) fn overlap_formula_k(a: &ConflictSide, b: &ConflictSide, arity: u8) -> Formula {
        let mut fresh = 0;
        let body = Formula::conj([
            guard_constraint("v", &a.guard, arity, &mut fresh),
            guard_constraint("v", &b.guard, arity, &mut fresh),
            membership("v", "w", a.region, arity, &mut fresh),
            membership("v", "w", b.region, arity, &mut fresh),
        ]);
        Formula::exists_fo("v", Formula::exists_fo("w", body))
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{guard_expr_formula, overlap_formula_k};
    use super::*;
    use crate::compile::{compile, is_valid};
    use crate::formula::Formula;

    fn side(region: Region) -> ConflictSide {
        guarded(region, StructConstraint::default())
    }

    fn guarded(region: Region, guard: StructConstraint) -> ConflictSide {
        ConflictSide { region, guard }
    }

    fn no(axis: u8) -> StructConstraint {
        let mut guard = StructConstraint::default();
        guard.require_no(axis);
        guard
    }

    fn has(axis: u8) -> StructConstraint {
        let mut guard = StructConstraint::default();
        guard.require_has(axis);
        guard
    }

    const BINARY_REGIONS: [Region; 6] = [
        Region::At(ChildStep::Here),
        Region::At(ChildStep::LEFT),
        Region::At(ChildStep::RIGHT),
        Region::Subtree(ChildStep::Here),
        Region::Subtree(ChildStep::LEFT),
        Region::Subtree(ChildStep::RIGHT),
    ];

    /// The oracle's overlap answer: emptiness of the binary conflict
    /// automaton.
    fn oracle_disjoint(a: &ConflictSide, b: &ConflictSide) -> bool {
        compile(&overlap_formula_k(a, b, 2))
            .expect("binary overlap formulas compile")
            .automaton
            .is_empty()
    }

    /// The oracle's guard answer: validity of `∀v. a(v) ↔ b(v)` over binary
    /// trees.
    fn oracle_equivalent(a: &GuardExpr, b: &GuardExpr) -> bool {
        let mut fresh = 0;
        let lhs = guard_expr_formula("v", a, 2, &mut fresh);
        let rhs = guard_expr_formula("v", b, 2, &mut fresh);
        is_valid(&Formula::forall_fo("v", Formula::iff(lhs, rhs)))
            .expect("binary guard formulas compile")
    }

    fn assert_overlap_matches_the_oracle(a: &ConflictSide, b: &ConflictSide) {
        assert_eq!(
            check_overlap_k(a, b, 2).is_disjoint(),
            oracle_disjoint(a, b),
            "decider and oracle disagree on {a:?} vs {b:?}"
        );
    }

    fn assert_guards_match_the_oracle(a: &GuardExpr, b: &GuardExpr) -> bool {
        let decided = guards_equivalent_k(a, b, 2);
        assert_eq!(
            decided,
            oracle_equivalent(a, b),
            "decider and oracle disagree on {a:?} vs {b:?}"
        );
        decided
    }

    fn not(expr: GuardExpr) -> GuardExpr {
        GuardExpr::Not(Box::new(expr))
    }

    fn and(a: GuardExpr, b: GuardExpr) -> GuardExpr {
        GuardExpr::And(Box::new(a), Box::new(b))
    }

    #[test]
    fn sibling_subtrees_are_disjoint() {
        let left = side(Region::Subtree(ChildStep::LEFT));
        let right = side(Region::Subtree(ChildStep::RIGHT));
        assert!(check_overlap_k(&left, &right, 2).is_disjoint());
    }

    #[test]
    fn node_and_its_subtree_overlap_with_a_witness() {
        let here = side(Region::At(ChildStep::Here));
        let subtree = side(Region::Subtree(ChildStep::Here));
        assert!(!check_overlap_k(&here, &subtree, 2).is_disjoint());
        // The oracle's conflict automaton is non-empty and accepts the
        // witness tree it extracts.
        let automaton = compile(&overlap_formula_k(&here, &subtree, 2))
            .unwrap()
            .automaton;
        let example = automaton
            .example_tree()
            .expect("the conflict automaton is non-empty");
        assert!(automaton.accepts(&example));
    }

    #[test]
    fn child_access_misses_the_other_subtree() {
        let at_left = side(Region::At(ChildStep::LEFT));
        let right_subtree = side(Region::Subtree(ChildStep::RIGHT));
        assert!(check_overlap_k(&at_left, &right_subtree, 2).is_disjoint());
        // But the left child is inside the left subtree.
        let left_subtree = side(Region::Subtree(ChildStep::LEFT));
        assert!(!check_overlap_k(&at_left, &left_subtree, 2).is_disjoint());
    }

    #[test]
    fn contradictory_guards_rule_out_overlap() {
        let impossible = guarded(
            Region::At(ChildStep::Here),
            StructConstraint {
                no_mask: 0b01,
                has_mask: 0b01,
            },
        );
        let any = side(Region::Subtree(ChildStep::Here));
        assert!(check_overlap_k(&impossible, &any, 2).is_disjoint());
    }

    #[test]
    fn incompatible_guards_rule_out_overlap() {
        // One access requires a left child, the other its absence: they can
        // never fire at the same invocation node.
        let with_left = guarded(Region::At(ChildStep::Here), has(0));
        let without_left = guarded(Region::At(ChildStep::Here), no(0));
        assert!(check_overlap_k(&with_left, &without_left, 2).is_disjoint());
        assert!(!check_overlap_k(&with_left, &with_left, 2).is_disjoint());
    }

    #[test]
    fn the_direct_decision_agrees_with_the_automata_on_binary_regions() {
        // Every unguarded region pair against the NFTA oracle.
        for &ra in &BINARY_REGIONS {
            for &rb in &BINARY_REGIONS {
                assert_overlap_matches_the_oracle(&side(ra), &side(rb));
            }
        }
        // Guarded spot checks (the heavy sweep below covers single-axis
        // guards on every pair): incompatible requirements, a region under
        // a forbidden child, and a guard that merely requires the touched
        // child.
        let spot_checks = [
            (
                guarded(Region::At(ChildStep::Here), has(0)),
                guarded(Region::At(ChildStep::Here), no(0)),
            ),
            (
                guarded(Region::At(ChildStep::LEFT), no(0)),
                side(Region::Subtree(ChildStep::Here)),
            ),
            (
                guarded(Region::Subtree(ChildStep::LEFT), has(0)),
                side(Region::At(ChildStep::LEFT)),
            ),
        ];
        for (a, b) in spot_checks {
            assert_overlap_matches_the_oracle(&a, &b);
        }
    }

    /// Pins both binary deciders to the NFTA oracle: guard equivalence on
    /// every pair of ten guard shapes, and overlap on every region pair with
    /// one side under a single-axis `no`/`has` guard.  Two-sided guard
    /// products are left out: they stall the automata pipeline.
    #[test]
    #[ignore = "compiles a few hundred NFTAs; run in release with --ignored"]
    fn binary_deciders_match_the_automata_oracle() {
        let nil_l = || GuardExpr::NilAt(ChildStep::LEFT);
        let nil_r = || GuardExpr::NilAt(ChildStep::RIGHT);
        let shapes = [
            GuardExpr::True,
            GuardExpr::NilAt(ChildStep::Here),
            nil_l(),
            nil_r(),
            not(GuardExpr::NilAt(ChildStep::Here)),
            not(nil_l()),
            not(nil_r()),
            and(nil_l(), not(nil_r())),
            // A De Morgan pair: ¬(l ∧ r) and ¬l ∨ ¬r spelled ¬(¬¬l ∧ ¬¬r).
            not(and(nil_l(), nil_r())),
            not(and(not(not(nil_l())), not(not(nil_r())))),
        ];
        let mut equivalent_pairs = 0;
        for a in &shapes {
            for b in &shapes {
                if assert_guards_match_the_oracle(a, b) && a != b {
                    equivalent_pairs += 1;
                }
            }
        }
        // True ≡ ¬Nil(here) and the De Morgan pair, each both ways.
        assert_eq!(equivalent_pairs, 4);

        let guards = [StructConstraint::default(), no(0), has(0), no(1), has(1)];
        for guard in guards {
            for &ra in &BINARY_REGIONS {
                for &rb in &BINARY_REGIONS {
                    assert_overlap_matches_the_oracle(&guarded(ra, guard), &side(rb));
                }
            }
        }
    }

    #[test]
    fn ternary_overlap_questions_decide_instantly() {
        // Sibling subtrees stay disjoint and same-axis contacts stay
        // overlaps when the third axis is in play.
        for i in 0..3u8 {
            for j in 0..3u8 {
                let a = side(Region::Subtree(ChildStep::Child(i)));
                let b = side(Region::Subtree(ChildStep::Child(j)));
                assert_eq!(check_overlap_k(&a, &b, 3).is_disjoint(), i != j);
                let at = side(Region::At(ChildStep::Child(i)));
                assert_eq!(check_overlap_k(&at, &b, 3).is_disjoint(), i != j);
            }
        }
        // A guard forbidding the middle child empties regions under it.
        let middle = guarded(Region::At(ChildStep::Child(1)), no(1));
        let everything = side(Region::Subtree(ChildStep::Here));
        assert!(check_overlap_k(&middle, &everything, 3).is_disjoint());
    }

    #[test]
    fn ternary_guard_equivalence_is_propositional() {
        let c2 = GuardExpr::NilAt(ChildStep::Child(2));
        let doubled = not(not(c2.clone()));
        assert!(guards_equivalent_k(&c2, &doubled, 3));
        assert!(!guards_equivalent_k(
            &c2,
            &GuardExpr::NilAt(ChildStep::Child(1)),
            3
        ));
        assert!(guards_equivalent_k(
            &GuardExpr::True,
            &not(GuardExpr::NilAt(ChildStep::Here)),
            3
        ));
    }

    #[test]
    fn guard_equivalence_sees_through_double_negation() {
        let plain = GuardExpr::NilAt(ChildStep::LEFT);
        assert!(assert_guards_match_the_oracle(
            &plain,
            &not(not(plain.clone()))
        ));
        assert!(assert_guards_match_the_oracle(
            &GuardExpr::True,
            &not(GuardExpr::NilAt(ChildStep::Here))
        ));
        assert!(!assert_guards_match_the_oracle(
            &GuardExpr::NilAt(ChildStep::LEFT),
            &GuardExpr::NilAt(ChildStep::RIGHT)
        ));
    }
}
