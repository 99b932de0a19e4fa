//! k-ary Binding Agent trees (paper §5.2.2).
//!
//! "By constructing a k-ary tree of Binding Agents, eliminating traffic
//! from 'leaf' Binding Agents to LegionClass, we can arbitrarily reduce
//! the load placed on LegionClass. In essence, Binding Agents could be
//! organized to implement a software combining tree."
//!
//! This module is the pure topology arithmetic: node `0` is the root
//! (no parent, consults classes/LegionClass directly); node `i > 0` has
//! parent `(i - 1) / k`. Clients attach to the leaves. `legion-sim`
//! instantiates the actual endpoints from this shape.

/// The shape of a k-ary agent tree with `count` nodes.
///
/// ```
/// use legion_naming::tree::TreeShape;
///
/// let t = TreeShape::new(2, 7); // a full binary tree
/// assert_eq!(t.parent(0), None);
/// assert_eq!(t.children(0), vec![1, 2]);
/// assert_eq!(t.leaves(), vec![3, 4, 5, 6]);
/// assert_eq!(t.path_to_root(6), vec![6, 2, 0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Branching factor (≥ 1).
    pub arity: usize,
    /// Total number of agents (≥ 1).
    pub count: usize,
}

impl TreeShape {
    /// A tree of `count` nodes with branching factor `arity`.
    pub fn new(arity: usize, count: usize) -> Self {
        TreeShape {
            arity: arity.max(1),
            count: count.max(1),
        }
    }

    /// A degenerate "tree": one root agent only.
    pub fn single() -> Self {
        TreeShape::new(1, 1)
    }

    /// Parent of node `i`, or `None` for the root.
    pub fn parent(&self, i: usize) -> Option<usize> {
        if i == 0 || i >= self.count {
            None
        } else {
            Some((i - 1) / self.arity)
        }
    }

    /// Children of node `i`.
    pub fn children(&self, i: usize) -> Vec<usize> {
        let first = i * self.arity + 1;
        (first..first + self.arity)
            .take_while(|&c| c < self.count)
            .collect()
    }

    /// Is node `i` a leaf?
    pub fn is_leaf(&self, i: usize) -> bool {
        i < self.count && self.children(i).is_empty()
    }

    /// The leaves, in index order. A single-node tree's root is its leaf.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.count).filter(|&i| self.is_leaf(i)).collect()
    }

    /// Depth of node `i` (root = 0).
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (max depth).
    pub fn height(&self) -> usize {
        (0..self.count).map(|i| self.depth(i)).max().unwrap_or(0)
    }

    /// The path from node `i` to the root, inclusive.
    pub fn path_to_root(&self, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Assign clients to leaves round-robin: which leaf serves client `c`
    /// out of `n_clients`?
    pub fn leaf_for_client(&self, c: usize) -> usize {
        let leaves = self.leaves();
        leaves[c % leaves.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tree() {
        let t = TreeShape::single();
        assert_eq!(t.parent(0), None);
        assert!(t.is_leaf(0));
        assert_eq!(t.leaves(), vec![0]);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn binary_tree_of_seven() {
        let t = TreeShape::new(2, 7);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(0));
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(6), Some(2));
        assert_eq!(t.children(0), vec![1, 2]);
        assert_eq!(t.children(1), vec![3, 4]);
        assert_eq!(t.children(3), Vec::<usize>::new());
        assert_eq!(t.leaves(), vec![3, 4, 5, 6]);
        assert_eq!(t.height(), 2);
        assert_eq!(t.path_to_root(6), vec![6, 2, 0]);
    }

    #[test]
    fn partial_last_level() {
        let t = TreeShape::new(4, 6); // root + 4 children + 1 grandchild
        assert_eq!(t.children(0), vec![1, 2, 3, 4]);
        assert_eq!(t.children(1), vec![5]);
        assert!(t.is_leaf(5));
        assert!(!t.is_leaf(1));
        assert_eq!(t.leaves(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn every_nonroot_has_smaller_parent() {
        for arity in 1..6 {
            for count in 1..50 {
                let t = TreeShape::new(arity, count);
                for i in 1..count {
                    let p = t.parent(i).unwrap();
                    assert!(p < i, "arity {arity} count {count} node {i}");
                }
                // All paths terminate at the root.
                for i in 0..count {
                    assert_eq!(*t.path_to_root(i).last().unwrap(), 0);
                }
            }
        }
    }

    #[test]
    fn out_of_range_nodes() {
        let t = TreeShape::new(2, 3);
        assert_eq!(t.parent(3), None);
        assert!(!t.is_leaf(3));
    }

    #[test]
    fn leaf_for_client_round_robins() {
        let t = TreeShape::new(2, 7);
        let leaves = t.leaves();
        for c in 0..20 {
            assert_eq!(t.leaf_for_client(c), leaves[c % leaves.len()]);
        }
    }

    #[test]
    fn height_shrinks_with_arity() {
        let narrow = TreeShape::new(2, 100);
        let wide = TreeShape::new(16, 100);
        assert!(wide.height() < narrow.height());
    }
}
