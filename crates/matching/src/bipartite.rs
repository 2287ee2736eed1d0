//! Bipartite graphs between ingress ports (left side) and egress ports
//! (right side), with adjacency-list storage.

/// A bipartite graph with `left` ingress vertices and `right` egress
/// vertices. Edges are stored as adjacency lists on the left side.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    adj: Vec<Vec<usize>>,
    edge_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(left: usize, right: usize) -> Self {
        BipartiteGraph {
            left,
            right,
            adj: vec![Vec::new(); left],
            edge_count: 0,
        }
    }

    /// Builds the *support graph* of a matrix: edge `(i, j)` iff `d_ij > 0`.
    ///
    /// This is the graph `G` of Step 2(i) of Algorithm 1 in the paper.
    pub fn support_of(matrix: &crate::IntMatrix) -> Self {
        let m = matrix.dim();
        let mut g = Self::new(m, m);
        for (i, j, _) in matrix.nonzero_entries() {
            g.add_edge(i, j);
        }
        g
    }

    /// Adds the edge `(u, v)`; duplicate edges are allowed but pointless.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.left, "left endpoint out of range");
        assert!(v < self.right, "right endpoint out of range");
        self.adj[u].push(v);
        self.edge_count += 1;
    }

    /// Number of left vertices.
    #[inline]
    pub fn left_count(&self) -> usize {
        self.left
    }

    /// Number of right vertices.
    #[inline]
    pub fn right_count(&self) -> usize {
        self.right
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbors of left vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Removes the edge `(u, v)` if present, preserving the relative order
    /// of the remaining neighbors of `u`. This is what keeps an
    /// incrementally-maintained support graph *identical* — edge for edge,
    /// order for order — to one rebuilt from scratch after an entry of the
    /// underlying matrix drops to zero. Returns whether an edge was removed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.left, "left endpoint out of range");
        let row = &mut self.adj[u];
        match row.iter().position(|&x| x == v) {
            Some(pos) => {
                row.remove(pos);
                self.edge_count -= 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntMatrix;

    #[test]
    fn support_graph_of_fig1() {
        let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        let g = BipartiteGraph::support_of(&d);
        assert_eq!(g.left_count(), 2);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[0, 1]);
    }

    #[test]
    fn support_graph_skips_zeros() {
        let d = IntMatrix::from_nested(&[[0, 5], [7, 0]]);
        let g = BipartiteGraph::support_of(&d);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn remove_edge_preserves_neighbor_order() {
        let d = IntMatrix::from_nested(&[[1, 2, 3], [4, 5, 6], [7, 8, 9]]);
        let mut g = BipartiteGraph::support_of(&d);
        assert!(g.remove_edge(0, 1));
        assert_eq!(g.neighbors(0), &[0, 2]);
        assert_eq!(g.edge_count(), 8);
        // Removing a missing edge is a no-op.
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn incremental_removal_matches_rebuilt_support() {
        let mut d = IntMatrix::from_nested(&[[2, 1, 0], [1, 0, 2], [0, 2, 1]]);
        let mut g = BipartiteGraph::support_of(&d);
        d[(0, 0)] = 0;
        d[(2, 1)] = 0;
        g.remove_edge(0, 0);
        g.remove_edge(2, 1);
        let rebuilt = BipartiteGraph::support_of(&d);
        for u in 0..3 {
            assert_eq!(g.neighbors(u), rebuilt.neighbors(u));
        }
        assert_eq!(g.edge_count(), rebuilt.edge_count());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(2, 0);
    }
}
