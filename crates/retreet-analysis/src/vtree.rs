//! Concrete binary trees with integer-valued local fields.
//!
//! The bounded analysis engines run Retreet programs (and enumerate
//! configurations) over *concrete* trees: a shape plus an integer value for
//! every local field read by the program.  [`ValueTree`] is that model.  The
//! shapes come from the exhaustive enumerator of `retreet-mso`; field values
//! are filled in by a small deterministic generator so analyses are
//! reproducible without an external RNG.

use std::collections::BTreeMap;
use std::fmt;

use retreet_mso::tree::{shared_trees_up_to, LabeledTree};

/// Identifier of a node inside a [`ValueTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct VNode {
    /// Children indexed by axis; the vector is only as long as the highest
    /// axis ever attached (missing tail entries mean nil).
    children: Vec<Option<NodeId>>,
    parent: Option<NodeId>,
    fields: BTreeMap<String, i64>,
}

/// A k-ary tree whose nodes carry named integer fields.
///
/// Axes 0 and 1 are the binary `l`/`r` children; the `left`/`right` helpers
/// are kept as the common special case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueTree {
    nodes: Vec<VNode>,
}

impl ValueTree {
    /// A single-node tree.
    pub fn single() -> Self {
        ValueTree {
            nodes: vec![VNode::default()],
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a value tree has at least its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a child on the given axis.
    pub fn add_child(&mut self, parent: NodeId, axis: usize) -> NodeId {
        assert!(self.child(parent, axis).is_none());
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(VNode {
            parent: Some(parent),
            ..VNode::default()
        });
        let children = &mut self.nodes[parent.as_usize()].children;
        if children.len() <= axis {
            children.resize(axis + 1, None);
        }
        children[axis] = Some(id);
        id
    }

    /// Adds a left child (axis 0).
    pub fn add_left(&mut self, parent: NodeId) -> NodeId {
        self.add_child(parent, 0)
    }

    /// Adds a right child (axis 1).
    pub fn add_right(&mut self, parent: NodeId) -> NodeId {
        self.add_child(parent, 1)
    }

    /// The child on the given axis (`None` for nil).
    pub fn child(&self, node: NodeId, axis: usize) -> Option<NodeId> {
        self.nodes[node.as_usize()]
            .children
            .get(axis)
            .copied()
            .flatten()
    }

    /// Left child (axis 0).
    pub fn left(&self, node: NodeId) -> Option<NodeId> {
        self.child(node, 0)
    }

    /// Right child (axis 1).
    pub fn right(&self, node: NodeId) -> Option<NodeId> {
        self.child(node, 1)
    }

    /// The children of a node over the given arity, axis by axis (nil
    /// children included as `None`).
    pub fn children(&self, node: NodeId, arity: u8) -> Vec<Option<NodeId>> {
        (0..arity as usize).map(|a| self.child(node, a)).collect()
    }

    /// Parent.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.as_usize()].parent
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Reads a field (0 when never written or initialized).
    pub fn field(&self, node: NodeId, name: &str) -> i64 {
        self.nodes[node.as_usize()]
            .fields
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// The fields ever written or initialized on `node`, in name order,
    /// with their values.  A field absent here reads 0 through
    /// [`Self::field`].
    pub fn fields(&self, node: NodeId) -> impl Iterator<Item = (&str, i64)> {
        self.nodes[node.as_usize()]
            .fields
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
    }

    /// Writes a field.
    pub fn set_field(&mut self, node: NodeId, name: &str, value: i64) {
        self.nodes[node.as_usize()]
            .fields
            .insert(name.to_string(), value);
    }

    /// A snapshot of every `(node, field, value)` triple, for equality
    /// comparisons between program runs.
    pub fn field_snapshot(&self) -> BTreeMap<(NodeId, String), i64> {
        let mut out = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (name, value) in &node.fields {
                out.insert((NodeId(i as u32), name.clone()), *value);
            }
        }
        out
    }

    /// The height of the tree (single node = 1).
    pub fn height(&self) -> usize {
        fn depth(tree: &ValueTree, node: NodeId) -> usize {
            let deepest = tree.nodes[node.as_usize()]
                .children
                .iter()
                .flatten()
                .map(|&c| depth(tree, c))
                .max()
                .unwrap_or(0);
            1 + deepest
        }
        depth(self, self.root())
    }

    /// Builds a [`ValueTree`] with the same shape as a `retreet-mso` tree.
    pub fn from_shape_of(labeled: &LabeledTree) -> Self {
        let mut tree = ValueTree::single();
        fn copy(
            labeled: &LabeledTree,
            src: retreet_mso::tree::NodeId,
            tree: &mut ValueTree,
            dst: NodeId,
        ) {
            if let Some(l) = labeled.left(src) {
                let child = tree.add_left(dst);
                copy(labeled, l, tree, child);
            }
            if let Some(r) = labeled.right(src) {
                let child = tree.add_right(dst);
                copy(labeled, r, tree, child);
            }
        }
        copy(labeled, labeled.root(), &mut tree, NodeId(0));
        tree
    }

    /// Builds a complete binary tree of the given height with fields from
    /// `init(node_index, field)`.
    pub fn complete(height: usize, fields: &[&str], init: impl Fn(usize, &str) -> i64) -> Self {
        ValueTree::complete_kary(2, height, fields, init)
    }

    /// Builds a complete k-ary tree of the given height with fields from
    /// `init(node_index, field)`.
    pub fn complete_kary(
        arity: u8,
        height: usize,
        fields: &[&str],
        init: impl Fn(usize, &str) -> i64,
    ) -> Self {
        assert!(height >= 1);
        assert!(arity >= 1);
        let mut tree = ValueTree::single();
        fn grow(tree: &mut ValueTree, node: NodeId, arity: u8, remaining: usize) {
            if remaining == 0 {
                return;
            }
            // Allocate every child before recursing so node numbering (and
            // therefore every seeded field valuation) matches the historic
            // binary layout exactly.
            let children: Vec<NodeId> = (0..arity as usize)
                .map(|axis| tree.add_child(node, axis))
                .collect();
            for child in children {
                grow(tree, child, arity, remaining - 1);
            }
        }
        grow(&mut tree, NodeId(0), arity, height - 1);
        for node in tree.nodes().collect::<Vec<_>>() {
            for field in fields {
                let value = init(node.as_usize(), field);
                tree.set_field(node, field, value);
            }
        }
        tree
    }

    /// Fills every listed field of every node with the values of
    /// [`field_values`]`(seed)`, drawn node by node in index order and,
    /// within a node, in the order of `fields`.
    pub fn fill_fields(&mut self, fields: &[&str], seed: u64) {
        let mut values = field_values(seed);
        for node in 0..self.nodes.len() as u32 {
            for (field, value) in fields.iter().zip(&mut values) {
                self.set_field(NodeId(node), field, value);
            }
        }
    }
}

/// The deterministic pseudo-random field values seeded by `seed`: a simple
/// linear congruential generator, good enough for differential testing and
/// reproducible across runs.  Every seeded tree draws from this one stream
/// ([`ValueTree::fill_fields`] and the VM's flat complete-tree builder), so
/// the two representations of a seeded tree cannot drift apart.
pub fn field_values(seed: u64) -> impl Iterator<Item = i64> {
    fn step(state: u64) -> u64 {
        state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }
    let mut state = step(seed);
    std::iter::repeat_with(move || {
        state = step(state);
        // Small signed values keep the arithmetic readable in
        // counterexamples and avoid overflow in long traversals.
        ((state >> 33) % 17) as i64 - 8
    })
}

/// The node count of a complete `arity`-ary tree of the given height
/// (`1 + arity + … + arity^(height-1)`), or `None` when it overflows
/// `usize`.  Computed without allocating, so a caller can bound a tree
/// before building it.
pub fn complete_kary_len(arity: u8, height: usize) -> Option<usize> {
    match arity {
        0 => Some(height.min(1)),
        1 => Some(height),
        _ => {
            // At least doubling per level, so an absurd height overflows
            // within a few dozen iterations.
            let (mut total, mut level) = (0usize, 1usize);
            for depth in 0..height {
                if depth > 0 {
                    level = level.checked_mul(arity as usize)?;
                }
                total = total.checked_add(level)?;
            }
            Some(total)
        }
    }
}

/// The corpus of test trees the bounded engines iterate over: every shape up
/// to `max_nodes` nodes, each with `valuations` different deterministic field
/// valuations for the given field names.
pub fn test_trees(max_nodes: usize, fields: &[&str], valuations: usize) -> Vec<ValueTree> {
    let corpus = TreeCorpus::new(max_nodes, fields, valuations);
    (0..corpus.len()).map(|i| corpus.tree(i)).collect()
}

/// [`test_trees`] over k-ary shapes (identical to it at arity 2).
pub fn test_trees_kary(
    arity: u8,
    max_nodes: usize,
    fields: &[&str],
    valuations: usize,
) -> Vec<ValueTree> {
    let corpus = TreeCorpus::with_arity(arity, max_nodes, fields, valuations);
    (0..corpus.len()).map(|i| corpus.tree(i)).collect()
}

/// A k-ary tree shape with no field values: the unit the k-ary bounded
/// enumeration is built from.
#[derive(Clone, Default)]
struct KShape {
    /// One entry per axis; `None` is a nil child.
    children: Vec<Option<Box<KShape>>>,
}

/// Every k-ary shape with exactly `n` nodes, in a deterministic order
/// (compositions of the remaining node budget over the axes, smallest first
/// axis budget first).
fn kary_shapes_with(arity: usize, n: usize) -> Vec<KShape> {
    assert!(n >= 1);
    let mut out = Vec::new();
    let mut parts = vec![0usize; arity];
    fill_axes(arity, n - 1, 0, &mut parts, &mut out);
    out
}

fn fill_axes(
    arity: usize,
    budget: usize,
    axis: usize,
    parts: &mut Vec<usize>,
    out: &mut Vec<KShape>,
) {
    if axis == arity {
        if budget == 0 {
            let mut shape = KShape::default();
            expand_axes(arity, parts, 0, &mut shape, out);
        }
        return;
    }
    for take in 0..=budget {
        parts[axis] = take;
        fill_axes(arity, budget - take, axis + 1, parts, out);
    }
    parts[axis] = 0;
}

/// Expands one composition into the cartesian product of per-axis subtree
/// shapes.
fn expand_axes(
    arity: usize,
    parts: &[usize],
    axis: usize,
    prefix: &mut KShape,
    out: &mut Vec<KShape>,
) {
    if axis == arity {
        out.push(prefix.clone());
        return;
    }
    if parts[axis] == 0 {
        prefix.children.push(None);
        expand_axes(arity, parts, axis + 1, prefix, out);
        prefix.children.pop();
        return;
    }
    for sub in kary_shapes_with(arity, parts[axis]) {
        prefix.children.push(Some(Box::new(sub)));
        expand_axes(arity, parts, axis + 1, prefix, out);
        prefix.children.pop();
    }
}

fn kary_shapes_up_to(arity: u8, max_nodes: usize) -> Vec<ValueTree> {
    let mut out = Vec::new();
    for n in 1..=max_nodes {
        for shape in kary_shapes_with(arity as usize, n) {
            let mut tree = ValueTree::single();
            build_from_kshape(&shape, &mut tree, NodeId(0));
            out.push(tree);
        }
    }
    out
}

fn build_from_kshape(shape: &KShape, tree: &mut ValueTree, node: NodeId) {
    // Allocate all children before recursing, matching `complete_kary`'s
    // numbering convention.
    let mut grafted = Vec::new();
    for (axis, child) in shape.children.iter().enumerate() {
        if let Some(sub) = child {
            grafted.push((tree.add_child(node, axis), sub.as_ref()));
        }
    }
    for (id, sub) in grafted {
        build_from_kshape(sub, tree, id);
    }
}

/// A *lazily materialized* corpus of test trees: the shapes come from the
/// process-wide shape cache, and each tree is only built (shape copy plus
/// deterministic field fill) when an engine actually asks for its index.
///
/// Queries that terminate on an early witness (a race or a counterexample
/// on the first few trees) therefore never pay for the hundreds of larger
/// trees behind it.  Index order is identical to [`test_trees`].
pub struct TreeCorpus {
    shapes: ShapeSource,
    fields: Vec<String>,
    valuations: usize,
}

/// Where a corpus's tree shapes come from.  Binary corpora keep using the
/// process-wide [`shared_trees_up_to`] cache (so the binary engines are
/// byte-identical to before the arity generalization); higher arities
/// enumerate k-ary shapes locally.
enum ShapeSource {
    Binary(std::sync::Arc<Vec<LabeledTree>>),
    Kary(Vec<ValueTree>),
}

impl ShapeSource {
    fn len(&self) -> usize {
        match self {
            ShapeSource::Binary(shapes) => shapes.len(),
            ShapeSource::Kary(shapes) => shapes.len(),
        }
    }
}

impl TreeCorpus {
    /// The corpus of every shape up to `max_nodes` with `valuations`
    /// deterministic field valuations each.
    pub fn new(max_nodes: usize, fields: &[&str], valuations: usize) -> Self {
        TreeCorpus::with_arity(2, max_nodes, fields, valuations)
    }

    /// [`TreeCorpus::new`] generalized to k-ary shapes.  Arity 2 is exactly
    /// the binary corpus (same shapes, same order, same shared cache).
    pub fn with_arity(arity: u8, max_nodes: usize, fields: &[&str], valuations: usize) -> Self {
        let shapes = if arity <= 2 {
            ShapeSource::Binary(shared_trees_up_to(max_nodes))
        } else {
            ShapeSource::Kary(kary_shapes_up_to(arity, max_nodes))
        };
        TreeCorpus {
            shapes,
            fields: fields.iter().map(|f| f.to_string()).collect(),
            valuations: valuations.max(1),
        }
    }

    /// Number of trees in the corpus.
    pub fn len(&self) -> usize {
        self.shapes.len() * self.valuations
    }

    /// True when the corpus is empty (a zero node bound).
    pub fn is_empty(&self) -> bool {
        self.shapes.len() == 0
    }

    /// Materializes the `index`-th tree (same order as [`test_trees`]).
    pub fn tree(&self, index: usize) -> ValueTree {
        let shape = index / self.valuations;
        let v = index % self.valuations;
        let fields: Vec<&str> = self.fields.iter().map(String::as_str).collect();
        let mut tree = match &self.shapes {
            ShapeSource::Binary(shapes) => ValueTree::from_shape_of(&shapes[shape]),
            ShapeSource::Kary(shapes) => shapes[shape].clone(),
        };
        tree.fill_fields(&fields, 0x9E3779B9u64.wrapping_add(v as u64 * 0x1234567));
        tree
    }

    /// The indices whose trees are pairwise distinct representatives:
    /// when there are no fields to value, the `valuations` copies of each
    /// shape are identical and only the first is kept.  (Distinct seeds can
    /// in principle coincide on tiny trees too; re-checking such a
    /// coincidence is sound, just redundant, so only the field-free case is
    /// deduplicated.)
    pub fn representatives(&self) -> Vec<usize> {
        if self.fields.is_empty() {
            (0..self.len()).step_by(self.valuations).collect()
        } else {
            (0..self.len()).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_mso::tree::all_trees_up_to;

    #[test]
    fn build_and_navigate() {
        let mut tree = ValueTree::single();
        let root = tree.root();
        let l = tree.add_left(root);
        let r = tree.add_right(root);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.parent(l), Some(root));
        assert_eq!(tree.left(root), Some(l));
        assert_eq!(tree.right(root), Some(r));
        assert_eq!(tree.height(), 2);
    }

    #[test]
    fn fields_default_to_zero() {
        let mut tree = ValueTree::single();
        let root = tree.root();
        assert_eq!(tree.field(root, "v"), 0);
        tree.set_field(root, "v", 42);
        assert_eq!(tree.field(root, "v"), 42);
        assert_eq!(tree.field_snapshot().len(), 1);
    }

    #[test]
    fn shape_conversion_preserves_structure() {
        for labeled in all_trees_up_to(4) {
            let tree = ValueTree::from_shape_of(&labeled);
            assert_eq!(tree.len(), labeled.len());
        }
    }

    #[test]
    fn complete_tree_and_deterministic_fill() {
        let tree = ValueTree::complete(3, &["v"], |i, _| i as i64);
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.field(NodeId(3), "v"), 3);

        let mut a = ValueTree::complete(3, &[], |_, _| 0);
        let mut b = ValueTree::complete(3, &[], |_, _| 0);
        a.fill_fields(&["v"], 7);
        b.fill_fields(&["v"], 7);
        assert_eq!(a, b, "filling is deterministic");
        b.fill_fields(&["v"], 8);
        assert_ne!(a, b, "different seeds give different valuations");
    }

    #[test]
    fn field_values_are_the_fill_stream() {
        let mut tree = ValueTree::complete_kary(3, 3, &[], |_, _| 0);
        tree.fill_fields(&["a", "b"], 5);
        let expected: Vec<i64> = field_values(5).take(2 * tree.len()).collect();
        let filled: Vec<i64> = tree
            .nodes()
            .flat_map(|node| [tree.field(node, "a"), tree.field(node, "b")])
            .collect();
        assert_eq!(filled, expected);
    }

    #[test]
    fn complete_kary_len_counts_nodes_and_reports_overflow() {
        for arity in 1..=4u8 {
            for height in 1..=5 {
                let tree = ValueTree::complete_kary(arity, height, &[], |_, _| 0);
                assert_eq!(complete_kary_len(arity, height), Some(tree.len()));
            }
        }
        assert_eq!(complete_kary_len(2, 16), Some(65_535));
        assert_eq!(complete_kary_len(3, 11), Some(88_573));
        assert_eq!(complete_kary_len(8, 64), None);
        assert_eq!(complete_kary_len(2, usize::MAX), None);
        assert_eq!(complete_kary_len(1, usize::MAX), Some(usize::MAX));
    }

    #[test]
    fn test_tree_corpus_size() {
        let trees = test_trees(3, &["v"], 2);
        // (1 + 2 + 5) shapes × 2 valuations.
        assert_eq!(trees.len(), 16);
        assert!(trees.iter().all(|t| t.len() <= 3));
    }
}
