//! Router-data computation (`ComputeRouting`, Fig. 9) and the point-to-point
//! routing algorithm that consumes it.
//!
//! After the cyclic numbering, every node stores the minimum and maximum
//! cycle positions found in its subtree (`min`/`max`) and in each child
//! subtree (`lmin`/`lmax`, `rmin`/`rmax`).  A message addressed to cycle
//! position `t` is routed with purely local decisions: deliver if `t` is this
//! node's position, descend into the child whose interval contains `t`, or
//! climb to the parent when `t` lies outside the subtree — the routing scheme
//! the cycletree papers rely on.

use retreet_runtime::tree::TreeNode;

use crate::numbering::CycleNode;

/// Applies the per-node block of `ComputeRouting` (Fig. 9): assumes both
/// children already carry correct router data.
pub fn update_router_data(node: &mut TreeNode<CycleNode>) {
    let (left, right) = (node.left.as_deref(), node.right.as_deref());
    let value = &mut node.value;
    value.min = value.num;
    value.max = value.num;
    if let Some(left) = left {
        value.lmin = left.value.min;
        value.lmax = left.value.max;
        value.min = value.min.min(value.lmin);
        value.max = value.max.max(value.lmax);
    }
    if let Some(right) = right {
        value.rmin = right.value.min;
        value.rmax = right.value.max;
        value.min = value.min.min(value.rmin);
        value.max = value.max.max(value.rmax);
    }
}

/// The standalone `ComputeRouting` traversal (post-order over the tree).
pub fn compute_routing(tree: &mut TreeNode<CycleNode>) {
    fn go(node: &mut TreeNode<CycleNode>) {
        if let Some(left) = node.left.as_deref_mut() {
            go(left);
        }
        if let Some(right) = node.right.as_deref_mut() {
            go(right);
        }
        update_router_data(node);
    }
    go(tree);
}

/// The local routing decision at one node for a message addressed to cycle
/// position `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// The message is for this node.
    Deliver,
    /// Forward into the left subtree.
    Left,
    /// Forward into the right subtree.
    Right,
    /// Forward to the parent (the target is outside this subtree).
    Up,
}

/// Computes the local next-hop decision from a node's router data.
pub fn route_next_hop(node: &CycleNode, has_left: bool, has_right: bool, target: i64) -> NextHop {
    if target == node.num {
        return NextHop::Deliver;
    }
    if has_left && target >= node.lmin && target <= node.lmax {
        return NextHop::Left;
    }
    if has_right && target >= node.rmin && target <= node.rmax {
        return NextHop::Right;
    }
    NextHop::Up
}

/// Routes a message from cycle position `from` to cycle position `to`,
/// returning the sequence of cycle positions visited (inclusive of both
/// endpoints).  Panics if either endpoint does not exist in the tree.
pub fn route_path(root: &TreeNode<CycleNode>, from: i64, to: i64) -> Vec<i64> {
    // Locate the source node, remembering the ancestor chain.
    let mut ancestors: Vec<&TreeNode<CycleNode>> = Vec::new();
    let mut current = root;
    loop {
        if current.value.num == from {
            break;
        }
        let has_left = current.left.is_some();
        let has_right = current.right.is_some();
        match route_next_hop(&current.value, has_left, has_right, from) {
            NextHop::Left => {
                ancestors.push(current);
                current = current
                    .left
                    .as_deref()
                    .expect("router data promised a left child");
            }
            NextHop::Right => {
                ancestors.push(current);
                current = current
                    .right
                    .as_deref()
                    .expect("router data promised a right child");
            }
            NextHop::Deliver => break,
            NextHop::Up => panic!("source position {from} does not exist in the tree"),
        }
    }
    // Walk toward the destination using local decisions only.
    let mut path = vec![current.value.num];
    let mut steps = 0usize;
    loop {
        if current.value.num == to {
            return path;
        }
        steps += 1;
        assert!(
            steps <= 4 * root.len() + 4,
            "routing did not converge; router data is inconsistent"
        );
        let has_left = current.left.is_some();
        let has_right = current.right.is_some();
        match route_next_hop(&current.value, has_left, has_right, to) {
            NextHop::Deliver => return path,
            NextHop::Left => {
                ancestors.push(current);
                current = current.left.as_deref().expect("left child");
            }
            NextHop::Right => {
                ancestors.push(current);
                current = current.right.as_deref().expect("right child");
            }
            NextHop::Up => {
                current = ancestors
                    .pop()
                    .unwrap_or_else(|| panic!("destination position {to} does not exist"));
            }
        }
        path.push(current.value.num);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numbering::{complete_cycletree, number_cycletree, random_cycletree};

    fn prepared(height: usize) -> TreeNode<CycleNode> {
        let mut tree = complete_cycletree(height);
        number_cycletree(&mut tree);
        compute_routing(&mut tree);
        tree
    }

    #[test]
    fn router_data_brackets_the_subtree() {
        let tree = prepared(4);
        fn check(node: &TreeNode<CycleNode>) {
            let nums: Vec<i64> = node.preorder().into_iter().map(|n| n.num).collect();
            assert_eq!(node.value.min, *nums.iter().min().unwrap());
            assert_eq!(node.value.max, *nums.iter().max().unwrap());
            if let Some(left) = node.left.as_deref() {
                assert_eq!(node.value.lmin, left.value.min);
                assert_eq!(node.value.lmax, left.value.max);
                check(left);
            }
            if let Some(right) = node.right.as_deref() {
                assert_eq!(node.value.rmin, right.value.min);
                assert_eq!(node.value.rmax, right.value.max);
                check(right);
            }
        }
        check(&tree);
    }

    #[test]
    fn next_hop_decisions() {
        let tree = prepared(3);
        let root = &tree.value;
        assert_eq!(route_next_hop(root, true, true, root.num), NextHop::Deliver);
        assert_eq!(route_next_hop(root, true, true, root.lmin), NextHop::Left);
        assert_eq!(route_next_hop(root, true, true, root.rmax), NextHop::Right);
        // A target outside the whole tree goes up.
        assert_eq!(route_next_hop(root, true, true, 10_000), NextHop::Up);
    }

    #[test]
    fn routing_reaches_every_destination() {
        let tree = prepared(4);
        let n = tree.len() as i64;
        for from in 0..n {
            for to in 0..n {
                let path = route_path(&tree, from, to);
                assert_eq!(*path.first().unwrap(), from);
                assert_eq!(*path.last().unwrap(), to);
                // Paths never exceed twice the height-bounded diameter.
                assert!(path.len() <= 2 * tree.height() + 1);
            }
        }
    }

    #[test]
    fn routing_works_on_irregular_trees() {
        for seed in 0..5 {
            let mut tree = random_cycletree(25, seed);
            number_cycletree(&mut tree);
            compute_routing(&mut tree);
            for to in 0..25 {
                let path = route_path(&tree, 0, to);
                assert_eq!(*path.last().unwrap(), to);
            }
        }
    }

    #[test]
    fn route_to_self_is_a_single_hop() {
        let tree = prepared(3);
        assert_eq!(route_path(&tree, 3, 3), vec![3]);
    }
}
