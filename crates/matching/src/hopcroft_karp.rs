//! Hopcroft–Karp maximum bipartite matching in `O(E √V)`.
//!
//! Algorithm 1 of the paper needs a *perfect* matching of the support graph
//! of a doubly-balanced matrix in every decomposition round (its existence is
//! guaranteed by Hall's theorem / Birkhoff–von Neumann). Hopcroft–Karp keeps
//! each round cheap even for 150-port fabrics with dense supports.
//!
//! [`HopcroftKarp::solve`] is the cold solve. Its first phase is run as a
//! plain greedy pass: with every left vertex free at distance 0, the DFS
//! layer gate `dist[w] == dist[u] + 1` can never pass, so phase 1 of the
//! textbook algorithm provably degenerates to first-free-neighbor greedy
//! matching and the initial full-graph BFS is pure overhead. The resulting
//! matching is pair-for-pair identical to the textbook cold solve (pinned
//! by a reference test below). Every solve is cold: a warm start from the
//! previous round's pairs would peel different, equally valid
//! permutations.

use crate::bipartite::BipartiteGraph;

const NIL: usize = usize::MAX;
const INF: u32 = u32::MAX;

/// The result of a maximum-matching computation.
#[derive(Clone, Debug)]
pub struct Matching {
    /// `pair_left[u]` = right vertex matched to left `u`, or `None`.
    pub pair_left: Vec<Option<usize>>,
    /// `pair_right[v]` = left vertex matched to right `v`, or `None`.
    pub pair_right: Vec<Option<usize>>,
    /// Number of matched pairs.
    pub size: usize,
}

impl Matching {
    /// True if every left vertex is matched (for square graphs this means
    /// the matching is perfect).
    pub fn is_left_perfect(&self) -> bool {
        self.size == self.pair_left.len()
    }

    /// Matched `(left, right)` pairs in order of the left vertex.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pair_left
            .iter()
            .enumerate()
            .filter_map(|(u, v)| v.map(|v| (u, v)))
    }
}

/// State buffers for Hopcroft–Karp, reusable across calls to avoid
/// re-allocating on every decomposition round (a "workhorse collection"
/// in Rust Performance Book terms).
#[derive(Clone, Debug)]
pub struct HopcroftKarp {
    pair_u: Vec<usize>,
    pair_v: Vec<usize>,
    dist: Vec<u32>,
    queue: Vec<usize>,
}

impl HopcroftKarp {
    /// Creates a solver with empty buffers; they grow to fit each graph.
    pub fn new() -> Self {
        HopcroftKarp {
            pair_u: Vec::new(),
            pair_v: Vec::new(),
            dist: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Computes a maximum matching of `g` from scratch.
    pub fn solve(&mut self, g: &BipartiteGraph) -> Matching {
        let size = self.run_cold(g);
        self.build_matching(size)
    }

    /// Cold solve returning only the matching size; the assignment is
    /// readable through [`HopcroftKarp::left_assignment`] until the next
    /// run. Avoids the [`Matching`] allocation on hot paths.
    pub fn run_cold(&mut self, g: &BipartiteGraph) -> usize {
        let n = g.left_count();
        let m = g.right_count();
        self.pair_u.clear();
        self.pair_u.resize(n, NIL);
        self.pair_v.clear();
        self.pair_v.resize(m, NIL);
        self.dist.clear();
        self.dist.resize(n, INF);

        // Phase 1 as a direct greedy pass (see module docs for why this is
        // exactly the textbook first phase).
        let mut size = self.greedy_phase(g);
        let head_round = (size > 0) as u64;
        let (augmented, rounds) = self.augment_to_maximum(g);
        size += augmented;
        // Publish once per solve so the BFS/DFS loops stay uninstrumented.
        obs::counter_add("matching.hk.bfs_rounds", head_round + rounds);
        obs::counter_add("matching.hk.augmenting_paths", size as u64);
        size
    }

    /// Raw left→right assignment of the last run (`usize::MAX` marks free
    /// lefts). Valid until the next run.
    pub fn left_assignment(&self) -> &[usize] {
        &self.pair_u
    }

    fn build_matching(&self, size: usize) -> Matching {
        Matching {
            pair_left: self
                .pair_u
                .iter()
                .map(|&v| if v == NIL { None } else { Some(v) })
                .collect(),
            pair_right: self
                .pair_v
                .iter()
                .map(|&u| if u == NIL { None } else { Some(u) })
                .collect(),
            size,
        }
    }

    /// First-free-neighbor greedy matching from the empty assignment;
    /// returns the number of pairs added.
    fn greedy_phase(&mut self, g: &BipartiteGraph) -> usize {
        let mut added = 0;
        for u in 0..g.left_count() {
            for &v in g.neighbors(u) {
                if self.pair_v[v] == NIL {
                    self.pair_u[u] = v;
                    self.pair_v[v] = u;
                    added += 1;
                    break;
                }
            }
        }
        added
    }

    /// Runs BFS/DFS phases until no augmenting path remains. Returns the
    /// number of augmenting paths applied and of successful BFS rounds.
    fn augment_to_maximum(&mut self, g: &BipartiteGraph) -> (usize, u64) {
        let mut augmented = 0;
        let mut rounds = 0u64;
        while self.bfs(g) {
            rounds += 1;
            for u in 0..g.left_count() {
                if self.pair_u[u] == NIL && self.dfs(g, u) {
                    augmented += 1;
                }
            }
        }
        (augmented, rounds)
    }

    /// BFS phase: layers free left vertices; returns true if an augmenting
    /// path exists.
    fn bfs(&mut self, g: &BipartiteGraph) -> bool {
        self.queue.clear();
        let mut found = false;
        for u in 0..g.left_count() {
            if self.pair_u[u] == NIL {
                self.dist[u] = 0;
                self.queue.push(u);
            } else {
                self.dist[u] = INF;
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &v in g.neighbors(u) {
                let w = self.pair_v[v];
                if w == NIL {
                    found = true;
                } else if self.dist[w] == INF {
                    self.dist[w] = self.dist[u] + 1;
                    self.queue.push(w);
                }
            }
        }
        found
    }

    /// DFS phase: finds a shortest augmenting path from free left vertex `u`.
    fn dfs(&mut self, g: &BipartiteGraph, u: usize) -> bool {
        for &v in g.neighbors(u) {
            let w = self.pair_v[v];
            if w == NIL || (self.dist[w] == self.dist[u] + 1 && self.dfs(g, w)) {
                self.pair_v[v] = u;
                self.pair_u[u] = v;
                return true;
            }
        }
        self.dist[u] = INF;
        false
    }
}

impl Default for HopcroftKarp {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience wrapper: one-shot maximum matching.
pub fn maximum_matching(g: &BipartiteGraph) -> Matching {
    HopcroftKarp::new().solve(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn perfect_matching_on_complete_graph() {
        let mut g = BipartiteGraph::new(3, 3);
        for u in 0..3 {
            for v in 0..3 {
                g.add_edge(u, v);
            }
        }
        let m = maximum_matching(&g);
        assert_eq!(m.size, 3);
        assert!(m.is_left_perfect());
    }

    #[test]
    fn matching_on_path() {
        // 0-0, 0-1, 1-1: maximum matching has size 2.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 1);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 2);
        assert_eq!(m.pair_left[0], Some(0));
        assert_eq!(m.pair_left[1], Some(1));
    }

    #[test]
    fn no_edges_no_matching() {
        let g = BipartiteGraph::new(4, 4);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 0);
        assert!(!m.is_left_perfect());
    }

    #[test]
    fn hall_violation_blocks_perfection() {
        // Left {0, 1} both only see right 0: max matching is 1.
        let mut g = BipartiteGraph::new(2, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 1);
    }

    #[test]
    fn doubly_balanced_support_has_perfect_matching() {
        // Birkhoff-von Neumann: doubly balanced => perfect matching exists.
        let d = IntMatrix::from_nested(&[[2, 1, 0], [1, 0, 2], [0, 2, 1]]);
        assert!(d.is_doubly_balanced(3));
        let g = BipartiteGraph::support_of(&d);
        let m = maximum_matching(&g);
        assert!(m.is_left_perfect());
        // the matching only uses support edges
        for (u, v) in m.pairs() {
            assert!(d[(u, v)] > 0);
        }
    }

    #[test]
    fn matching_consistency_left_right() {
        let mut g = BipartiteGraph::new(3, 3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let m = maximum_matching(&g);
        assert_eq!(m.size, 3);
        for (u, v) in m.pairs() {
            assert_eq!(m.pair_right[v], Some(u));
        }
    }

    /// Textbook Hopcroft–Karp with a literal BFS-gated first phase — the
    /// pre-optimization algorithm, used to pin the greedy-phase shortcut.
    fn textbook_solve(g: &BipartiteGraph) -> Vec<Option<usize>> {
        let n = g.left_count();
        let m = g.right_count();
        let mut pair_u = vec![NIL; n];
        let mut pair_v = vec![NIL; m];
        let mut dist = vec![INF; n];
        fn bfs(g: &BipartiteGraph, pair_u: &[usize], pair_v: &[usize], dist: &mut [u32]) -> bool {
            let mut queue = Vec::new();
            let mut found = false;
            for u in 0..g.left_count() {
                if pair_u[u] == NIL {
                    dist[u] = 0;
                    queue.push(u);
                } else {
                    dist[u] = INF;
                }
            }
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in g.neighbors(u) {
                    let w = pair_v[v];
                    if w == NIL {
                        found = true;
                    } else if dist[w] == INF {
                        dist[w] = dist[u] + 1;
                        queue.push(w);
                    }
                }
            }
            found
        }
        fn dfs(
            g: &BipartiteGraph,
            pair_u: &mut [usize],
            pair_v: &mut [usize],
            dist: &mut [u32],
            u: usize,
        ) -> bool {
            for idx in 0..g.neighbors(u).len() {
                let v = g.neighbors(u)[idx];
                let w = pair_v[v];
                if w == NIL || (dist[w] == dist[u] + 1 && dfs(g, pair_u, pair_v, dist, w)) {
                    pair_v[v] = u;
                    pair_u[u] = v;
                    return true;
                }
            }
            dist[u] = INF;
            false
        }
        while bfs(g, &pair_u, &pair_v, &mut dist) {
            for u in 0..n {
                if pair_u[u] == NIL {
                    dfs(g, &mut pair_u, &mut pair_v, &mut dist, u);
                }
            }
        }
        pair_u
            .into_iter()
            .map(|v| if v == NIL { None } else { Some(v) })
            .collect()
    }

    fn random_graph(n: usize, density: f64, seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = BipartiteGraph::new(n, n);
        for u in 0..n {
            for v in 0..n {
                if rng.gen_bool(density) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn greedy_first_phase_is_pair_identical_to_textbook_cold_solve() {
        // The optimized cold solve must reproduce the textbook result
        // *pair-for-pair* — the BvN output identity rests on this.
        for seed in 0..60 {
            let n = 3 + (seed as usize % 10);
            let density = 0.15 + 0.08 * (seed % 9) as f64;
            let g = random_graph(n, density, seed);
            let ours = maximum_matching(&g);
            assert_eq!(ours.pair_left, textbook_solve(&g), "seed {}", seed);
        }
    }
}
