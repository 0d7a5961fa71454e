//! Transformation-correctness checking (the `Conflict⟦P, P′⟧` query of §4).
//!
//! The paper certifies a fusion or reordering by (1) exhibiting a
//! bisimulation between the call blocks of the two programs and (2) showing
//! that no pair of dependent configurations is ordered one way in `P` and
//! the other way in `P′` (Theorem 3).  The bounded reproduction discharges
//! the same question semantically: both programs are executed on every tree
//! up to a bound (with several deterministic field valuations), and they are
//! equivalent when they always produce the same return values and the same
//! final field state, and every *dependent* pair of iterations that both
//! programs execute appears in the same relative order.
//!
//! A disagreement is returned as a concrete counterexample tree — the same
//! artifact MONA's counterexamples are manually mapped to in §5.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use retreet_lang::ast::Program;

use crate::interp::{self, ExecOrder, Iteration, RunResult};
use crate::vtree::{TreeCorpus, ValueTree};
use crate::NEVER_CANCELLED;

/// Options for the bounded equivalence check.
///
/// Construct with [`EquivOptions::builder`] (or take the defaults); prefer
/// the builder over mutating fields in place:
///
/// ```
/// use retreet_analysis::equiv::EquivOptions;
///
/// let options = EquivOptions::builder().max_nodes(4).valuations(2).build();
/// assert!(options.check_dependence_order);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivOptions {
    /// Largest tree (in nodes) to test.
    pub max_nodes: usize,
    /// Number of deterministic field valuations per tree shape.
    pub valuations: usize,
    /// Also require that dependent iteration pairs keep their relative order
    /// (the Theorem 3 condition); disable to compare observable behaviour
    /// only.
    pub check_dependence_order: bool,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            max_nodes: 5,
            valuations: 3,
            check_dependence_order: true,
        }
    }
}

impl EquivOptions {
    /// Starts a builder seeded with the default options.
    pub fn builder() -> EquivOptionsBuilder {
        EquivOptionsBuilder {
            options: EquivOptions::default(),
        }
    }
}

/// Builder for [`EquivOptions`].
#[derive(Debug, Clone, Default)]
pub struct EquivOptionsBuilder {
    options: EquivOptions,
}

impl EquivOptionsBuilder {
    /// Largest tree (in nodes) to test.
    pub fn max_nodes(mut self, max_nodes: usize) -> Self {
        self.options.max_nodes = max_nodes;
        self
    }

    /// Number of deterministic field valuations per tree shape.
    pub fn valuations(mut self, valuations: usize) -> Self {
        self.options.valuations = valuations;
        self
    }

    /// Whether to enforce the Theorem 3 dependence-order condition.
    pub fn check_dependence_order(mut self, check: bool) -> Self {
        self.options.check_dependence_order = check;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> EquivOptions {
        self.options
    }
}

/// Why two programs were found inequivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disagreement {
    /// `Main` returned different values.
    Returns {
        /// Return values of the first program.
        first: Vec<i64>,
        /// Return values of the second program.
        second: Vec<i64>,
    },
    /// The final field states differ at some node/field.
    Fields {
        /// A description of the first differing (node, field, value, value).
        detail: String,
    },
    /// A pair of dependent iterations is ordered differently (the Theorem 3
    /// conflict condition).
    DependenceOrder {
        /// Description of the conflicting pair.
        detail: String,
    },
    /// One of the two programs failed to execute (nil dereference or similar).
    ExecutionError {
        /// The interpreter error message.
        message: String,
    },
}

/// A concrete counterexample to equivalence.
#[derive(Debug, Clone)]
pub struct EquivCounterExample {
    /// The input tree.
    pub tree: ValueTree,
    /// What went wrong.
    pub disagreement: Disagreement,
}

/// Verdict of the equivalence query.
#[derive(Debug, Clone)]
pub enum EquivVerdict {
    /// No disagreement on any tested tree.
    Equivalent {
        /// How many (tree, valuation) pairs were tested.
        trees_checked: usize,
    },
    /// The programs disagree on the attached counterexample.
    CounterExample(Box<EquivCounterExample>),
}

impl EquivVerdict {
    /// True for the equivalent verdict.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivVerdict::Equivalent { .. })
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&EquivCounterExample> {
        match self {
            EquivVerdict::CounterExample(ce) => Some(ce),
            EquivVerdict::Equivalent { .. } => None,
        }
    }
}

/// Checks bounded equivalence of two programs (typically an original
/// composition of traversals and its fused form).
pub fn check_equivalence(
    original: &Program,
    transformed: &Program,
    options: &EquivOptions,
) -> EquivVerdict {
    check_equivalence_cancellable(original, transformed, options, &NEVER_CANCELLED)
        .expect("never-raised cancel flag cannot cancel the analysis")
}

/// [`check_equivalence`] with a cooperative cancel flag, checked once per
/// tested tree; returns `None` (and no verdict) when the flag is observed
/// raised.  The façade raises the flag when a query's deadline expires or
/// its dispatch is aborted.
pub fn check_equivalence_cancellable(
    original: &Program,
    transformed: &Program,
    options: &EquivOptions,
    cancel: &AtomicBool,
) -> Option<EquivVerdict> {
    let ctx_a = crate::configs::AnalysisContext::new(original);
    let ctx_b = crate::configs::AnalysisContext::new(transformed);
    // Test trees must initialize the union of both programs' fields so that
    // reads observe the same initial values on both sides.
    let mut fields = ctx_a.fields.clone();
    for field in &ctx_b.fields {
        if !fields.contains(field) {
            fields.push(field.clone());
        }
    }
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let corpus = TreeCorpus::with_arity(
        original.arity.max(transformed.arity),
        options.max_nodes,
        &field_refs,
        options.valuations,
    );
    if corpus.is_empty() {
        return Some(EquivVerdict::Equivalent { trees_checked: 0 });
    }
    // The per-program interpreter setup is hoisted out of the tree loop.
    let (runner_a, runner_b) = match (
        interp::Runner::new(&ctx_a.table),
        interp::Runner::new(&ctx_b.table),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => {
            return Some(EquivVerdict::CounterExample(Box::new(
                EquivCounterExample {
                    tree: corpus.tree(0),
                    disagreement: Disagreement::ExecutionError {
                        message: err.to_string(),
                    },
                },
            )));
        }
    };
    // Identical trees (same shape, no fields to value) produce identical
    // deterministic runs; checking one representative per duplicate group is
    // exact.  Representatives are checked in corpus order and each is the
    // first tree of its group, so the counterexample (when one exists) is
    // the one the naive engine's loop over every tree reports.
    for index in corpus.representatives() {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let tree = corpus.tree(index);
        let run_a = runner_a.run(&tree);
        let run_b = runner_b.run(&tree);
        let disagreement = match (run_a, run_b) {
            (Ok(a), Ok(b)) => compare_runs(&a, &b, options),
            (Err(err), _) | (_, Err(err)) => Some(Disagreement::ExecutionError {
                message: err.to_string(),
            }),
        };
        if let Some(disagreement) = disagreement {
            return Some(EquivVerdict::CounterExample(Box::new(
                EquivCounterExample { tree, disagreement },
            )));
        }
    }
    Some(EquivVerdict::Equivalent {
        trees_checked: corpus.len(),
    })
}

fn compare_runs(a: &RunResult, b: &RunResult, options: &EquivOptions) -> Option<Disagreement> {
    if a.returns != b.returns {
        return Some(Disagreement::Returns {
            first: a.returns.clone(),
            second: b.returns.clone(),
        });
    }
    // Structurally equal final trees have equal snapshots; only build the
    // (allocating) snapshots when the trees actually differ, to locate the
    // first differing field.
    if a.tree != b.tree {
        let fields_a = a.tree.field_snapshot();
        let fields_b = b.tree.field_snapshot();
        if fields_a != fields_b {
            let detail = first_field_difference(&fields_a, &fields_b);
            return Some(Disagreement::Fields { detail });
        }
    }
    if options.check_dependence_order {
        if let Some(detail) = dependence_order_violation(a, b) {
            return Some(Disagreement::DependenceOrder { detail });
        }
    }
    None
}

fn first_field_difference(
    a: &BTreeMap<(crate::vtree::NodeId, String), i64>,
    b: &BTreeMap<(crate::vtree::NodeId, String), i64>,
) -> String {
    for (key, value) in a {
        match b.get(key) {
            Some(other) if other == value => continue,
            Some(other) => {
                return format!("{}.{} = {} vs {}", key.0, key.1, value, other);
            }
            None => return format!("{}.{} = {} vs <unset>", key.0, key.1, value),
        }
    }
    for (key, value) in b {
        if !a.contains_key(key) {
            return format!("{}.{} = <unset> vs {}", key.0, key.1, value);
        }
    }
    String::from("<no difference>")
}

/// Checks the Theorem 3 condition on the two traces: every pair of
/// *dependent* iterations executed by both programs (matched by their
/// concrete write-read footprints) must not be ordered one way in `a` and
/// the opposite way in `b`.
///
/// Iterations are matched across programs by `(node, field accesses)`
/// signature, which is exactly what the bisimulation relation preserves for
/// the transformations considered in §5 (fusion and parallelization reorder
/// iterations but keep their per-node effects).
/// An iteration's footprint signature: its deduplicated, sorted accesses as
/// structural keys.  The naive engine keys the same information as a
/// formatted string; working structurally avoids one string allocation per
/// trace iteration, and the matching render (see [`render_sig`]) is only
/// produced for the one violating pair actually reported.
type Sig<'t> = Vec<(crate::vtree::NodeId, &'t str, bool)>;

fn sig_of(it: &Iteration) -> Option<Sig<'_>> {
    if it.accesses.is_empty() {
        return None;
    }
    let mut parts: Sig<'_> = it
        .accesses
        .iter()
        .map(|acc| (acc.node, acc.field.as_str(), acc.is_write))
        .collect();
    parts.sort_unstable();
    parts.dedup();
    Some(parts)
}

/// Renders a signature in the naive engine's exact format (parts sorted
/// *lexicographically as strings*, then joined), e.g. `n0.val:w,n1.k:r`.
fn render_sig(sig: &Sig<'_>) -> String {
    let mut parts: Vec<String> = sig
        .iter()
        .map(|(node, field, is_write)| {
            format!("{}.{}:{}", node, field, if *is_write { "w" } else { "r" })
        })
        .collect();
    parts.sort();
    parts.join(",")
}

/// `(signature, first index)` pairs of a trace, sorted by signature —
/// the sorted-vector equivalent of the naive engine's `BTreeMap`, without
/// the per-node tree allocations.
fn first_sigs(trace: &crate::interp::Trace) -> Vec<(Sig<'_>, usize)> {
    let mut sigs: Vec<(Sig<'_>, usize)> = trace
        .iterations
        .iter()
        .enumerate()
        .filter_map(|(i, it)| sig_of(it).map(|s| (s, i)))
        .collect();
    // Sort by (signature, index) then keep the first (lowest-index)
    // occurrence of each signature — `BTreeMap::entry(..).or_insert`
    // semantics.
    sigs.sort_unstable();
    sigs.dedup_by(|next, prev| next.0 == prev.0);
    sigs
}

fn dependence_order_violation(a: &RunResult, b: &RunResult) -> Option<String> {
    let index_a = first_sigs(&a.trace);
    let index_b = first_sigs(&b.trace);
    // Merge-intersect the two sorted signature lists, so the O(k²) pair
    // loop below works on plain indices, not map keys.
    let mut shared: Vec<(&Sig<'_>, usize, usize)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < index_a.len() && j < index_b.len() {
        match index_a[i].0.cmp(&index_b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared.push((&index_a[i].0, index_a[i].1, index_b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    // Scan pairs in the naive engine's order: its maps are keyed by the
    // *rendered* signature strings.  For node ids 0–9 the rendered
    // lexicographic order coincides with the structural order the merge
    // above produced (single-digit ids compare like their digits, and the
    // `.`/`:`/`,` separators sort below alphanumerics consistently with
    // field/flag/part boundaries), so the rendering pass is only needed —
    // and only paid — once a trace touches node ids with two digits.
    let two_digit_ids = shared
        .iter()
        .flat_map(|(sig, _, _)| sig.iter())
        .any(|(node, _, _)| node.0 >= 10);
    let shared: Vec<(&Sig<'_>, usize, usize)> = if two_digit_ids {
        let mut rendered: Vec<(String, usize)> = shared
            .iter()
            .enumerate()
            .map(|(k, (sig, _, _))| (render_sig(sig), k))
            .collect();
        rendered.sort();
        rendered.iter().map(|&(_, k)| shared[k]).collect()
    } else {
        shared
    };
    // The per-tree pair scan is bounded by one trace's length; tree-level
    // cancellation (in the caller's corpus loop) is granular enough.
    for (i, &(sig_x, xa, xb)) in shared.iter().enumerate() {
        for &(sig_y, ya, yb) in &shared[i + 1..] {
            if !crate::interp::conflicting(&a.trace.iterations[xa], &a.trace.iterations[ya]) {
                continue;
            }
            let order_a = a.trace.order(xa, ya);
            let order_b = b.trace.order(xb, yb);
            let conflict = matches!(
                (order_a, order_b),
                (ExecOrder::Before, ExecOrder::After) | (ExecOrder::After, ExecOrder::Before)
            );
            if conflict {
                let (sig_x, sig_y) = (render_sig(sig_x), render_sig(sig_y));
                return Some(format!(
                    "dependent iterations `{sig_x}` and `{sig_y}` are ordered {order_a:?} in the \
                     original but {order_b:?} in the transformed program"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;

    fn options() -> EquivOptions {
        EquivOptions {
            max_nodes: 4,
            valuations: 2,
            check_dependence_order: true,
        }
    }

    #[test]
    fn raised_cancel_flag_aborts_the_equivalence_engine_without_a_verdict() {
        let cancel = AtomicBool::new(true);
        assert!(check_equivalence_cancellable(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
            &options(),
            &cancel,
        )
        .is_none());
        let cancel = AtomicBool::new(false);
        let verdict = check_equivalence_cancellable(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
            &options(),
            &cancel,
        )
        .unwrap();
        assert!(verdict.is_equivalent());
    }

    #[test]
    fn valid_size_counting_fusion_is_equivalent() {
        // E1a: Fig. 6a is a correct fusion of Odd/Even.
        let verdict = check_equivalence(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
            &options(),
        );
        assert!(verdict.is_equivalent(), "verdict: {verdict:?}");
    }

    #[test]
    fn invalid_size_counting_fusion_is_rejected_with_counterexample() {
        // E1b: Fig. 6b breaks the child-to-parent read-after-write dependence.
        let verdict = check_equivalence(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused_invalid(),
            &options(),
        );
        let ce = verdict.counterexample().expect("counterexample expected");
        assert!(matches!(ce.disagreement, Disagreement::Returns { .. }));
    }

    #[test]
    fn tree_mutation_fusion_is_equivalent() {
        // E2: Swap; IncrmLeft fused into one pass (after flag conversion).
        let verdict = check_equivalence(
            &corpus::tree_mutation_original(),
            &corpus::tree_mutation_fused(),
            &options(),
        );
        assert!(verdict.is_equivalent(), "verdict: {verdict:?}");
    }

    #[test]
    fn css_minification_fusion_is_equivalent() {
        // E3: ConvertValues; MinifyFont; ReduceInit fused into one traversal.
        let verdict = check_equivalence(
            &corpus::css_minify_original(),
            &corpus::css_minify_fused(),
            &options(),
        );
        assert!(verdict.is_equivalent(), "verdict: {verdict:?}");
    }

    #[test]
    fn cycletree_fusion_is_equivalent() {
        // E4a: RootMode + ComputeRouting fused into a single traversal.
        let verdict = check_equivalence(
            &corpus::cycletree_original(),
            &corpus::cycletree_fused(),
            &EquivOptions {
                max_nodes: 4,
                valuations: 1,
                check_dependence_order: true,
            },
        );
        assert!(verdict.is_equivalent(), "verdict: {verdict:?}");
    }

    #[test]
    fn swapping_dependent_passes_is_rejected() {
        // Running MinifyFont before ConvertValues is NOT equivalent to the
        // original order (both write `value` under different conditions).
        let reordered = retreet_lang::parse_program(
            r#"
            fn ConvertValues(n) {
                if (n == nil) { return 0; } else {
                    a = ConvertValues(n.l);
                    b = ConvertValues(n.r);
                    if (n.kind > 0) { n.value = n.value - 1; }
                    return 0;
                }
            }
            fn MinifyFont(n) {
                if (n == nil) { return 0; } else {
                    a = MinifyFont(n.l);
                    b = MinifyFont(n.r);
                    if (n.prop > 0) { n.value = 400; }
                    return 0;
                }
            }
            fn ReduceInit(n) {
                if (n == nil) { return 0; } else {
                    a = ReduceInit(n.l);
                    b = ReduceInit(n.r);
                    if (n.initial > n.value) { n.value = 0; }
                    return 0;
                }
            }
            fn Main(n) {
                y = MinifyFont(n);
                x = ConvertValues(n);
                z = ReduceInit(n);
                return 0;
            }
        "#,
        )
        .unwrap();
        let verdict = check_equivalence(&corpus::css_minify_original(), &reordered, &options());
        assert!(!verdict.is_equivalent());
    }

    #[test]
    fn a_program_is_equivalent_to_itself() {
        for program in [
            corpus::size_counting_sequential(),
            corpus::css_minify_original(),
            corpus::tree_mutation_original(),
        ] {
            let verdict = check_equivalence(&program, &program, &options());
            assert!(verdict.is_equivalent());
        }
    }
}
