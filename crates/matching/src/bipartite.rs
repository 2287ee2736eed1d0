//! Bipartite graphs between ingress ports (left side) and egress ports
//! (right side), stored as one CSR over the left side.

/// A bipartite graph with `left` ingress vertices and `right` egress
/// vertices. The neighbours of every left vertex lie in one shared buffer:
/// row `u` is `nbrs[start[u]..start[u] + live[u]]`, so a graph costs three
/// allocations whatever its width. Rows added one after another (as
/// [`BipartiteGraph::support_of`] adds them) are appended in place;
/// adding to a row that is not the buffer's last moves that row to the
/// end of the buffer first.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    left: usize,
    right: usize,
    /// Offset of each row in `nbrs`.
    start: Vec<usize>,
    /// Live neighbours of each row: removals shrink a row in place.
    live: Vec<usize>,
    nbrs: Vec<usize>,
    edge_count: usize,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(left: usize, right: usize) -> Self {
        Self::with_capacity(left, right, 0)
    }

    /// Creates an empty bipartite graph with room for `edges` edges.
    pub(crate) fn with_capacity(left: usize, right: usize, edges: usize) -> Self {
        BipartiteGraph {
            left,
            right,
            start: vec![0; left],
            live: vec![0; left],
            nbrs: Vec::with_capacity(edges),
            edge_count: 0,
        }
    }

    /// Builds the *support graph* of a matrix: edge `(i, j)` iff `d_ij > 0`.
    ///
    /// This is the graph `G` of Step 2(i) of Algorithm 1 in the paper.
    pub fn support_of(matrix: &crate::IntMatrix) -> Self {
        let m = matrix.dim();
        let mut g = Self::with_capacity(m, m, matrix.nonzero_count());
        for (i, j, _) in matrix.nonzero_entries() {
            g.add_edge(i, j);
        }
        g
    }

    /// Adds the edge `(u, v)` after `u`'s other neighbours; duplicate
    /// edges are allowed but pointless.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.left, "left endpoint out of range");
        assert!(v < self.right, "right endpoint out of range");
        let (start, live) = (self.start[u], self.live[u]);
        if live == 0 {
            self.start[u] = self.nbrs.len();
        } else if start + live != self.nbrs.len() {
            // Not the buffer's last row: move it to the end.
            self.start[u] = self.nbrs.len();
            self.nbrs.extend_from_within(start..start + live);
        }
        self.nbrs.push(v);
        self.live[u] += 1;
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
        let start = self.start[u];
        &self.nbrs[start..start + self.live[u]]
    }

    /// Removes the edge `(u, v)` if present, preserving the relative order
    /// of the remaining neighbors of `u`. This is what keeps an
    /// incrementally-maintained support graph *identical* — edge for edge,
    /// order for order — to one rebuilt from scratch after an entry of the
    /// underlying matrix drops to zero. Returns whether an edge was removed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.left, "left endpoint out of range");
        let start = self.start[u];
        let end = start + self.live[u];
        match self.nbrs[start..end].iter().position(|&x| x == v) {
            Some(pos) => {
                self.nbrs.copy_within(start + pos + 1..end, start + pos);
                self.live[u] -= 1;
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
    fn edges_added_out_of_row_order_keep_each_rows_order() {
        let mut g = BipartiteGraph::new(3, 3);
        for (u, v) in [(1, 2), (0, 1), (1, 0), (2, 2), (0, 0), (1, 1)] {
            g.add_edge(u, v);
        }
        assert_eq!(g.neighbors(0), &[1, 0]);
        assert_eq!(g.neighbors(1), &[2, 0, 1]);
        assert_eq!(g.neighbors(2), &[2]);
        assert_eq!(g.edge_count(), 6);
        assert!(g.remove_edge(1, 0));
        g.add_edge(2, 0);
        g.add_edge(1, 0);
        assert_eq!(g.neighbors(1), &[2, 1, 0]);
        assert_eq!(g.neighbors(2), &[2, 0]);
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(2, 0);
    }
}
