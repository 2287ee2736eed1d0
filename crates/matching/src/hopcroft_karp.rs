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
//! by a reference test below).
//!
//! The max-min decomposition's feasibility probes also run a crate-private
//! warm solve (`run_warm`): it keeps the solver's current pair state (minus
//! anything the caller `unmatch`ed) and only runs augmenting phases for the
//! vertices that lost their partner. Any valid partial matching extends to
//! a maximum one (Berge), so the *cardinality* always equals the cold
//! solve's; the matched pairs themselves may legitimately differ, which is
//! why every permutation a decomposition emits comes from a cold solve.

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
/// in Rust Performance Book terms). The pair state doubles as the seed of
/// the max-min probes' warm solves.
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
    /// readable through [`HopcroftKarp::matched`] /
    /// [`HopcroftKarp::left_assignment`] until the next run. Avoids the
    /// [`Matching`] allocation on hot paths.
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

    /// Computes the size of a maximum matching of `g` starting from the
    /// solver's current pair state (see the module docs). The caller must
    /// guarantee every surviving matched pair is an edge of `g` (use
    /// [`HopcroftKarp::unmatch`] to drop invalidated pairs first) and that
    /// the buffer dimensions match `g`.
    pub(crate) fn run_warm(&mut self, g: &BipartiteGraph) -> usize {
        assert_eq!(
            self.pair_u.len(),
            g.left_count(),
            "warm start requires a previous run on an equally-sized graph"
        );
        assert_eq!(
            self.pair_v.len(),
            g.right_count(),
            "warm start requires a previous run on an equally-sized graph"
        );
        self.dist.clear();
        self.dist.resize(g.left_count(), INF);
        let seeded = self.pair_u.iter().filter(|&&v| v != NIL).count();
        let mut size = seeded + self.greedy_phase(g);
        let (augmented, rounds) = self.augment_to_maximum(g);
        size += augmented;
        obs::counter_add("matching.hk.bfs_rounds", rounds);
        obs::counter_add("matching.hk.augmenting_paths", (size - seeded) as u64);
        obs::counter_add("matching.hk.warm_reused", seeded as u64);
        size
    }

    /// Forgets the matched pair `(u, v)` if it is currently part of the
    /// stored assignment. Callers prune pairs whose edge left the graph
    /// before a warm solve.
    pub(crate) fn unmatch(&mut self, u: usize, v: usize) {
        if self.pair_u.get(u).copied() == Some(v) {
            self.pair_u[u] = NIL;
            self.pair_v[v] = NIL;
        }
    }

    /// Right vertex currently matched to left `u` (`None` if free).
    pub fn matched(&self, u: usize) -> Option<usize> {
        match self.pair_u.get(u) {
            Some(&v) if v != NIL => Some(v),
            _ => None,
        }
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

    /// First-free-neighbor greedy matching over the currently-free left
    /// vertices; returns the number of pairs added.
    fn greedy_phase(&mut self, g: &BipartiteGraph) -> usize {
        let mut added = 0;
        for u in 0..g.left_count() {
            if self.pair_u[u] != NIL {
                continue;
            }
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

    #[test]
    fn warm_solve_matches_cold_cardinality_after_edge_removal() {
        for seed in 200..240 {
            let n = 4 + (seed as usize % 8);
            let mut g = random_graph(n, 0.5, seed);
            let mut hk = HopcroftKarp::new();
            let before = hk.solve(&g);
            // Remove a matched edge and warm-resolve.
            let first_pair = before.pairs().next();
            if let Some((u, v)) = first_pair {
                g.remove_edge(u, v);
                hk.unmatch(u, v);
                let warm_size = hk.run_warm(&g);
                let cold = maximum_matching(&g);
                assert_eq!(warm_size, cold.size, "seed {}", seed);
                // All warm pairs are real edges.
                for (a, b) in (0..n).filter_map(|a| hk.matched(a).map(|b| (a, b))) {
                    assert!(g.neighbors(a).contains(&b), "seed {}", seed);
                }
            }
        }
    }

    #[test]
    fn warm_solve_reuses_surviving_pairs() {
        // Complete graph: removing one matched edge frees one left and one
        // right vertex, so restoring perfection needs exactly ONE augmenting
        // path. Pairs not on that path must persist — that is the whole
        // point of warm starting.
        let mut g = BipartiteGraph::new(4, 4);
        for u in 0..4 {
            for v in 0..4 {
                g.add_edge(u, v);
            }
        }
        let mut hk = HopcroftKarp::new();
        let cold = hk.solve(&g);
        assert_eq!(cold.size, 4);
        let (u, v) = cold
            .pairs()
            .next()
            .unwrap_or_else(|| unreachable!("perfect matching is nonempty"));
        g.remove_edge(u, v);
        hk.unmatch(u, v);
        let survivors: Vec<(usize, usize)> = (0..4)
            .filter_map(|a| hk.matched(a).map(|b| (a, b)))
            .collect();
        assert_eq!(survivors.len(), 3);
        assert_eq!(hk.run_warm(&g), 4);
        // A single augmenting path alternates matched/unmatched edges and
        // can re-route at most one surviving pair per flip along it; the
        // shortest path here flips exactly one, so ≥ 2 of 3 persist.
        let persisted = survivors
            .iter()
            .filter(|&&(a, b)| hk.matched(a) == Some(b))
            .count();
        assert!(
            persisted >= survivors.len() - 1,
            "warm solve rerouted too many surviving pairs: {} of {}",
            persisted,
            survivors.len()
        );
    }
}
