//! Flat node-index trees: the VM's memory representation.
//!
//! The interpreter walks a [`ValueTree`] whose per-node fields live in a
//! `BTreeMap<String, i64>` — every field access hashes a string.  The VM
//! instead addresses nodes by dense `u32` index and fields by compile-time
//! resolved column id: a [`FlatTree`] is a structure-of-arrays view (one
//! child column per axis, one `i64` column per field) built once per run
//! from the input [`ValueTree`] and written back once at the end — or, for
//! a seeded complete tree, built directly by [`FlatTree::complete_kary`]
//! with no [`ValueTree`] at all.

use retreet_analysis::vtree::{complete_kary_len, field_values, NodeId, ValueTree};

/// The nil sentinel: `u32::MAX` marks an absent child (and the nil node a
/// callee may legally run on).
pub const NIL: u32 = u32::MAX;

/// A structure-of-arrays k-ary tree with integer field columns: one dense
/// `u32` child column per axis, one `i64` column per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree {
    children: Vec<Vec<u32>>,
    columns: Vec<Vec<i64>>,
}

impl FlatTree {
    /// Builds the binary flat view of `tree` (axes `l`/`r` only); see
    /// [`FlatTree::from_value_tree_kary`] for higher arities.
    pub fn from_value_tree(tree: &ValueTree, fields: &[String]) -> Self {
        FlatTree::from_value_tree_kary(tree, fields, 2)
    }

    /// Builds the flat view of `tree` with `arity` child columns and one
    /// field column per name in `fields` (column order is the caller's
    /// field-id assignment).  Unset fields read as 0, exactly like
    /// [`ValueTree::field`].
    pub fn from_value_tree_kary(tree: &ValueTree, fields: &[String], arity: u8) -> Self {
        let n = tree.len();
        let mut children = vec![vec![NIL; n]; arity.max(2) as usize];
        for node in tree.nodes() {
            let i = node.as_usize();
            for (axis, column) in children.iter_mut().enumerate() {
                if let Some(child) = tree.child(node, axis) {
                    column[i] = child.0;
                }
            }
        }
        let columns = fields
            .iter()
            .map(|field| {
                (0..n as u32)
                    .map(|i| tree.field(NodeId(i), field))
                    .collect()
            })
            .collect();
        FlatTree { children, columns }
    }

    /// Builds the seeded complete tree directly in flat form: node for
    /// node, the flat view of `ValueTree::complete_kary(arity, height,
    /// fields, |_, _| 0)` followed by `fill_fields(fields, seed)` — the same
    /// numbering (every child of a node is allocated before descending into
    /// the first) and the same [`field_values`] stream — with
    /// `arity.max(2)` child columns, like
    /// [`FlatTree::from_value_tree_kary`].  `fields` are distinct names, as
    /// [`crate::program_fields`] yields them.
    pub fn complete_kary(arity: u8, height: usize, fields: &[String], seed: u64) -> Self {
        assert!(height >= 1);
        assert!(arity >= 1);
        let n = complete_kary_len(arity, height)
            .filter(|&n| n < NIL as usize)
            .expect("complete tree fits u32 node indices");
        let mut children = vec![vec![NIL; n]; arity.max(2) as usize];
        let mut next = 1u32;
        let mut pending = vec![(0u32, height - 1)];
        while let Some((node, remaining)) = pending.pop() {
            if remaining == 0 {
                continue;
            }
            let first = next;
            for column in &mut children[..arity as usize] {
                column[node as usize] = next;
                next += 1;
            }
            // Reversed, so the first child's subtree is expanded first.
            pending.extend((first..next).rev().map(|child| (child, remaining - 1)));
        }
        let mut columns = vec![Vec::with_capacity(n); fields.len()];
        let mut values = field_values(seed);
        for _ in 0..n {
            for (column, value) in columns.iter_mut().zip(&mut values) {
                column.push(value);
            }
        }
        FlatTree { children, columns }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children[0].len()
    }

    /// True when the tree has no nodes (never the case for trees built from
    /// a [`ValueTree`], which always has a root).
    pub fn is_empty(&self) -> bool {
        self.children[0].is_empty()
    }

    /// The root node index, or [`NIL`] for an empty tree.
    pub fn root(&self) -> u32 {
        if self.is_empty() {
            NIL
        } else {
            0
        }
    }

    /// Child of `node` along `axis` ([`NIL`] when absent).
    #[inline]
    pub fn child(&self, node: u32, axis: usize) -> u32 {
        self.children[axis][node as usize]
    }

    /// Left child of `node` ([`NIL`] when absent) — axis 0.
    #[inline]
    pub fn left(&self, node: u32) -> u32 {
        self.children[0][node as usize]
    }

    /// Right child of `node` ([`NIL`] when absent) — axis 1.
    #[inline]
    pub fn right(&self, node: u32) -> u32 {
        self.children[1][node as usize]
    }

    /// Reads column `field` of `node`.
    #[inline]
    pub fn get(&self, field: u16, node: u32) -> i64 {
        self.columns[field as usize][node as usize]
    }

    /// Writes column `field` of `node`.
    #[inline]
    pub fn set(&mut self, field: u16, node: u32, value: i64) {
        self.columns[field as usize][node as usize] = value;
    }

    /// Applies the column values back onto a copy of `original` (the tree
    /// the flat view was built from), yielding the post-run [`ValueTree`].
    pub fn write_back(&self, original: &ValueTree, fields: &[String]) -> ValueTree {
        let mut tree = original.clone();
        for (column, field) in self.columns.iter().zip(fields.iter()) {
            for (i, value) in column.iter().enumerate() {
                tree.set_field(NodeId(i as u32), field, *value);
            }
        }
        tree
    }
}

/// Semantic tree equality: same shape and every field of every node reads
/// the same value through [`ValueTree::field`] (which defaults unset fields
/// to 0).  This is the equality differential tests need — the VM
/// materializes explicit `0` entries where the interpreter leaves a field
/// unset, so raw [`ValueTree`] equality is too strict.
pub fn trees_agree(a: &ValueTree, b: &ValueTree) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for node in a.nodes() {
        for axis in 0..retreet_lang::ast::MAX_ARITY as usize {
            if a.child(node, axis) != b.child(node, axis) {
                return false;
            }
        }
    }
    let mut fields: Vec<String> = a
        .field_snapshot()
        .into_keys()
        .chain(b.field_snapshot().into_keys())
        .map(|(_, field)| field)
        .collect();
    fields.sort();
    fields.dedup();
    for node in a.nodes() {
        for field in &fields {
            if a.field(node, field) != b.field(node, field) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_view_roundtrips_fields_and_shape() {
        let mut tree = ValueTree::single();
        let root = tree.root();
        let l = tree.add_left(root);
        tree.set_field(root, "v", 7);
        tree.set_field(l, "v", -3);
        let fields = vec!["v".to_string(), "w".to_string()];
        let mut flat = FlatTree::from_value_tree(&tree, &fields);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.left(0), 1);
        assert_eq!(flat.right(0), NIL);
        assert_eq!(flat.get(0, 0), 7);
        assert_eq!(flat.get(1, 1), 0, "unset fields read 0");
        flat.set(1, 0, 42);
        let back = flat.write_back(&tree, &fields);
        assert_eq!(back.field(root, "w"), 42);
        assert_eq!(back.field(l, "v"), -3);
        assert!(trees_agree(&back, &back));
    }

    #[test]
    fn complete_kary_matches_the_flattened_value_tree() {
        let fields = vec!["a".to_string(), "v".to_string()];
        let refs = ["a", "v"];
        for arity in 1..=4u8 {
            for height in 1..=4 {
                let mut tree = ValueTree::complete_kary(arity, height, &refs, |_, _| 0);
                tree.fill_fields(&refs, 17);
                assert_eq!(
                    FlatTree::complete_kary(arity, height, &fields, 17),
                    FlatTree::from_value_tree_kary(&tree, &fields, arity),
                    "arity {arity}, height {height}"
                );
            }
        }
    }

    #[test]
    fn trees_agree_is_semantic_not_structural() {
        let a = ValueTree::single();
        let mut b = ValueTree::single();
        b.set_field(b.root(), "v", 0);
        // Raw equality differs (explicit 0 entry), semantic equality holds.
        assert_ne!(a, b);
        assert!(trees_agree(&a, &b));
        b.set_field(b.root(), "v", 1);
        assert!(!trees_agree(&a, &b));
    }
}
