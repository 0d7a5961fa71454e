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

use std::cmp::Ordering;

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

    /// This tree's view over the fields `onto`, given the names of its own
    /// columns in column order (`fields`): column `i` of the result copies
    /// the column named `onto[i]`, or reads 0 on every node when `fields`
    /// has no such name, as [`FlatTree::from_value_tree_kary`] reads a
    /// field the tree never set.  The child columns are copied unchanged.
    pub fn project(&self, fields: &[String], onto: &[String]) -> FlatTree {
        let columns = onto
            .iter()
            .map(|name| match fields.iter().position(|field| field == name) {
                Some(column) => self.columns[column].clone(),
                None => vec![0; self.len()],
            })
            .collect();
        FlatTree {
            children: self.children.clone(),
            columns,
        }
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
/// unset, so raw [`ValueTree`] equality is too strict.  Compares node by
/// node, merging the two nodes' name-ordered fields, and allocates nothing.
pub fn trees_agree(a: &ValueTree, b: &ValueTree) -> bool {
    a.len() == b.len()
        && a.nodes().all(|node| {
            (0..retreet_lang::ast::MAX_ARITY as usize)
                .all(|axis| a.child(node, axis) == b.child(node, axis))
                && fields_agree(a.fields(node), b.fields(node))
        })
}

/// Whether two name-ordered field lists read alike, a field missing from
/// one list reading 0 there.
fn fields_agree<'a>(
    a: impl Iterator<Item = (&'a str, i64)>,
    b: impl Iterator<Item = (&'a str, i64)>,
) -> bool {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let (left, right) = match (a.peek(), b.peek()) {
            (None, None) => return true,
            (Some(&(x, _)), Some(&(y, _))) => match x.cmp(y) {
                Ordering::Less => (a.next(), None),
                Ordering::Greater => (None, b.next()),
                Ordering::Equal => (a.next(), b.next()),
            },
            (Some(_), None) => (a.next(), None),
            (None, Some(_)) => (None, b.next()),
        };
        if left.map_or(0, |(_, value)| value) != right.map_or(0, |(_, value)| value) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// The snapshot definition of [`trees_agree`], the oracle of its
    /// property test: the same shape, and every field name either tree set
    /// on any node reads the same on every node.
    fn snapshot_agree(a: &ValueTree, b: &ValueTree) -> bool {
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
        a.nodes()
            .all(|node| fields.iter().all(|f| a.field(node, f) == b.field(node, f)))
    }

    /// A tree grown by `(parent, axis)` steps, the parent picked modulo the
    /// nodes so far; a step onto an occupied axis adds nothing.
    fn grown(steps: &[(usize, usize)]) -> ValueTree {
        let mut tree = ValueTree::single();
        for &(parent, axis) in steps {
            let parent = NodeId((parent % tree.len()) as u32);
            if tree.child(parent, axis).is_none() {
                tree.add_child(parent, axis);
            }
        }
        tree
    }

    /// Applies `(node, field, value)` writes, the node picked modulo the
    /// tree's nodes.
    fn write(tree: &mut ValueTree, writes: &[(usize, usize, i64)]) {
        for &(node, field, value) in writes {
            let node = NodeId((node % tree.len()) as u32);
            tree.set_field(node, ["a", "b", "c"][field], value);
        }
    }

    proptest! {
        /// The node-by-node merge decides exactly what the snapshot
        /// definition decides.  Values are drawn from {-1, 0, 1}, so an
        /// explicit 0 often meets an unset field, and the writes only one
        /// tree gets set fields the other may never have.
        #[test]
        fn trees_agree_matches_the_snapshot_definition(
            growth in collection::vec((0usize..8, 0usize..3), 0..6),
            shared in collection::vec((0usize..8, 0usize..3, -1i64..2), 0..10),
            only_b in collection::vec((0usize..8, 0usize..3, -1i64..2), 0..4),
            reshape in 0u8..4,
        ) {
            let mut a = grown(&growth);
            // One case in four drops b's last growth step: a shape change
            // whenever that step added a node.
            let mut b = if reshape == 0 {
                grown(&growth[..growth.len().saturating_sub(1)])
            } else {
                grown(&growth)
            };
            write(&mut a, &shared);
            write(&mut b, &shared);
            write(&mut b, &only_b);
            prop_assert_eq!(trees_agree(&a, &b), snapshot_agree(&a, &b));
            prop_assert_eq!(trees_agree(&b, &a), snapshot_agree(&b, &a));
        }
    }

    #[test]
    fn project_copies_named_columns_and_zero_fills_the_rest() {
        let mut tree = ValueTree::complete_kary(3, 3, &[], |_, _| 0);
        tree.fill_fields(&["a", "v"], 4);
        let own = vec!["a".to_string(), "v".to_string()];
        let flat = FlatTree::from_value_tree_kary(&tree, &own, 3);
        for onto in [
            vec!["v".to_string(), "w".to_string(), "a".to_string()],
            vec!["w".to_string()],
            Vec::new(),
        ] {
            assert_eq!(
                flat.project(&own, &onto),
                FlatTree::from_value_tree_kary(&tree, &onto, 3),
                "{onto:?}"
            );
        }
    }

    #[test]
    fn flat_view_roundtrips_fields_and_shape() {
        let mut tree = ValueTree::single();
        let root = tree.root();
        let l = tree.add_left(root);
        tree.set_field(root, "v", 7);
        tree.set_field(l, "v", -3);
        let fields = vec!["v".to_string(), "w".to_string()];
        let mut flat = FlatTree::from_value_tree_kary(&tree, &fields, 2);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.child(0, 0), 1);
        assert_eq!(flat.child(0, 1), NIL);
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
        // A field set in one tree only agrees exactly when it reads 0.
        let mut c = ValueTree::single();
        c.set_field(c.root(), "w", 0);
        assert!(trees_agree(&a, &c) && trees_agree(&c, &a));
        c.set_field(c.root(), "w", -1);
        assert!(!trees_agree(&a, &c) && !trees_agree(&c, &a));
    }
}
