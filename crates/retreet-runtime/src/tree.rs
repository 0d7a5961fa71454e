//! Owned binary trees for the case-study substrates.
//!
//! The CSS minifier and the cycletree case study hold their concrete ASTs
//! as [`TreeNode`]s and walk them with plain recursion: each node owns its
//! subtrees, so a pass borrows a child `&mut` without arena indices.

/// A node of an owned binary tree carrying a payload of type `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode<T> {
    /// The payload stored at this node.
    pub value: T,
    /// Left subtree.
    pub left: Option<Box<TreeNode<T>>>,
    /// Right subtree.
    pub right: Option<Box<TreeNode<T>>>,
}

impl<T> TreeNode<T> {
    /// A leaf node.
    pub fn leaf(value: T) -> Self {
        TreeNode {
            value,
            left: None,
            right: None,
        }
    }

    /// Number of nodes in the subtree rooted here.
    pub fn len(&self) -> usize {
        1 + self.left.as_ref().map_or(0, |n| n.len()) + self.right.as_ref().map_or(0, |n| n.len())
    }

    /// Always false (a node exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height of the subtree rooted here (a leaf has height 1).
    pub fn height(&self) -> usize {
        1 + self
            .left
            .as_ref()
            .map_or(0, |n| n.height())
            .max(self.right.as_ref().map_or(0, |n| n.height()))
    }

    /// Collects references to the payloads in pre-order.
    pub fn preorder(&self) -> Vec<&T> {
        let mut out = Vec::with_capacity(self.len());
        self.preorder_into(&mut out);
        out
    }

    fn preorder_into<'a>(&'a self, out: &mut Vec<&'a T>) {
        out.push(&self.value);
        if let Some(left) = &self.left {
            left.preorder_into(out);
        }
        if let Some(right) = &self.right {
            right.preorder_into(out);
        }
    }
}

/// Builds a complete binary tree of the given height, with payloads produced
/// by `make(index)` where `index` is a breadth-first position (root = 0).
pub fn complete_tree<T>(height: usize, make: &impl Fn(usize) -> T) -> TreeNode<T> {
    assert!(height >= 1, "height must be at least 1");
    build_complete(0, height, make)
}

fn build_complete<T>(index: usize, height: usize, make: &impl Fn(usize) -> T) -> TreeNode<T> {
    let mut node = TreeNode::leaf(make(index));
    if height > 1 {
        node.left = Some(Box::new(build_complete(2 * index + 1, height - 1, make)));
        node.right = Some(Box::new(build_complete(2 * index + 2, height - 1, make)));
    }
    node
}

/// Builds a deterministic "random-shaped" tree with exactly `nodes` nodes,
/// using a splitmix-style generator seeded by `seed`.  Useful for benchmark
/// workloads that should not all be perfectly balanced.
pub fn random_tree<T>(nodes: usize, seed: u64, make: &impl Fn(usize) -> T) -> TreeNode<T> {
    assert!(nodes >= 1);
    let mut counter = 0usize;
    let mut state = seed;
    build_random(nodes, &mut counter, &mut state, make)
}

fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn build_random<T>(
    nodes: usize,
    counter: &mut usize,
    state: &mut u64,
    make: &impl Fn(usize) -> T,
) -> TreeNode<T> {
    let index = *counter;
    *counter += 1;
    let mut node = TreeNode::leaf(make(index));
    let remaining = nodes - 1;
    if remaining == 0 {
        return node;
    }
    let to_left = (next_u64(state) as usize) % (remaining + 1);
    let to_right = remaining - to_left;
    if to_left > 0 {
        node.left = Some(Box::new(build_random(to_left, counter, state, make)));
    }
    if to_right > 0 {
        node.right = Some(Box::new(build_random(to_right, counter, state, make)));
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_tree_shape() {
        let tree = complete_tree(4, &|i| i);
        assert_eq!(tree.len(), 15);
        assert_eq!(tree.height(), 4);
        assert_eq!(complete_tree(1, &|i| i).len(), 1);
        // Pre-order visits root, left, right; payloads are breadth-first
        // indices.
        assert_eq!(complete_tree(2, &|i| i).preorder(), vec![&0, &1, &2]);
    }

    #[test]
    fn random_tree_has_requested_size_and_is_deterministic() {
        let a = random_tree(100, 42, &|i| i);
        let b = random_tree(100, 42, &|i| i);
        let c = random_tree(100, 7, &|i| i);
        assert_eq!(a.len(), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn single_node_random_tree() {
        let tree = random_tree(1, 0, &|i| i);
        assert_eq!((tree.len(), tree.height()), (1, 1));
    }
}
