//! A process-global solution cache for repeated simplex solves.
//!
//! The scheduling pipeline re-solves the same model repeatedly: the
//! experiment grid's four `H_LP` cells solve the *same* interval LP once
//! each, and a `resilient` replan can rebuild a residual model it has
//! already solved. On an **exact hit** — the model (and every behaviorally
//! relevant solver option) hashes identically to a previously solved one —
//! the stored [`Solution`] is returned as-is. This is bit-identical by
//! construction and costs one hash of the model.
//!
//! Entries are filed under a *shape* key (dimensions, senses, sparsity
//! pattern), one entry per shape, and hold the *exact* key (shape plus every
//! coefficient bit) they were solved for. Keys are 64-bit hashes of the
//! data (a false hit would require a 64-bit hash collision *and* an
//! identical shape; the stored solution's dimensions are still
//! cross-checked before use).

use crate::model::{Model, Sense, Solution};
use crate::simplex::{try_solve_with, SimplexOptions};
use crate::LpError;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock};

/// Bound on cached entries; eviction is oldest-insertion-first. The grid
/// workloads touch a handful of distinct shapes, so a small cap suffices.
const CACHE_CAP: usize = 32;

fn hash_opts(h: &mut DefaultHasher, opts: &SimplexOptions) {
    // Every knob that can alter the returned *outcome* participates in the
    // key. That includes the budget knobs: a starved solve must fail the
    // way an uncached starved solve fails (driving the caller's fallback
    // chain), not be satisfied by a solution some richer budget produced.
    opts.max_iterations.hash(h);
    opts.time_limit_ms.hash(h);
    opts.stall_window.hash(h);
    opts.max_residual.to_bits().hash(h);
    opts.verify_duality.hash(h);
    opts.refactor_period.hash(h);
    opts.opt_tol.to_bits().hash(h);
    opts.pivot_tol.to_bits().hash(h);
    opts.degeneracy_patience.hash(h);
    opts.presolve.hash(h);
    opts.always_bland.hash(h);
    opts.partial_pricing.hash(h);
}

fn hash_sense(h: &mut DefaultHasher, s: Sense) {
    (match s {
        Sense::Le => 0u8,
        Sense::Ge => 1,
        Sense::Eq => 2,
    })
    .hash(h);
}

/// Shape key: dimensions, senses, and sparsity pattern — everything that
/// determines the standard-form column layout — but no coefficient values.
fn shape_key(model: &Model, opts: &SimplexOptions) -> u64 {
    let mut h = DefaultHasher::new();
    hash_opts(&mut h, opts);
    model.num_vars().hash(&mut h);
    model.num_constraints().hash(&mut h);
    for c in model.constraints() {
        hash_sense(&mut h, c.sense);
        c.terms.len().hash(&mut h);
        for &(v, _) in &c.terms {
            v.0.hash(&mut h);
        }
    }
    h.finish()
}

/// Exact key: the shape plus every coefficient bit (costs, constraint
/// coefficients, right-hand sides).
fn exact_key(model: &Model, opts: &SimplexOptions) -> u64 {
    let mut h = DefaultHasher::new();
    shape_key(model, opts).hash(&mut h);
    for &c in model.costs() {
        c.to_bits().hash(&mut h);
    }
    for c in model.constraints() {
        c.rhs.to_bits().hash(&mut h);
        for &(_, a) in &c.terms {
            a.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

struct Entry {
    exact: u64,
    solution: Solution,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    next_stamp: u64,
}

/// See the module docs: an exact-hit solution store, one entry per model
/// shape.
pub struct BasisCache {
    inner: Mutex<Inner>,
}

impl BasisCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BasisCache {
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of cached entries (for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
    }

    fn store(&self, shape: u64, exact: u64, solution: Solution) {
        let mut inner = self.lock();
        if inner.map.len() >= CACHE_CAP && !inner.map.contains_key(&shape) {
            if let Some(&oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                inner.map.remove(&oldest);
            }
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.map.insert(
            shape,
            Entry {
                exact,
                solution,
                stamp,
            },
        );
    }
}

impl Default for BasisCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The shared process-wide cache used by the scheduling pipeline.
pub fn global_cache() -> &'static BasisCache {
    static GLOBAL: OnceLock<BasisCache> = OnceLock::new();
    GLOBAL.get_or_init(BasisCache::new)
}

/// [`try_solve_with`] in front of `cache`: an exact hit returns the stored
/// solution verbatim (bit-identical to re-solving); anything else solves
/// cold and stores the result. Outputs are exactly those of
/// [`try_solve_with`].
pub fn try_solve_cached(
    model: &Model,
    opts: &SimplexOptions,
    cache: &BasisCache,
) -> Result<Solution, LpError> {
    let shape = shape_key(model, opts);
    let exact = exact_key(model, opts);
    {
        let inner = cache.lock();
        if let Some(e) = inner.map.get(&shape) {
            if e.exact == exact && e.solution.x.len() == model.num_vars() {
                obs::counter_add("lp.basis_cache.exact_hits", 1);
                return Ok(e.solution.clone());
            }
        }
    }
    obs::counter_add("lp.basis_cache.misses", 1);
    let solution = try_solve_with(model, opts)?;
    // Only healthy optima are stored; budget/health failures must re-solve.
    cache.store(shape, exact, solution.clone());
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;

    /// min x + 2y  s.t.  x + y >= 4, x <= 3, y <= 5.
    fn small_model(rhs: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_var(1.0);
        let y = m.add_var(2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, rhs);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 3.0);
        m.add_constraint(vec![(y, 1.0)], Sense::Le, 5.0);
        m
    }

    #[test]
    fn exact_hit_returns_identical_solution() {
        let cache = BasisCache::new();
        let opts = SimplexOptions::default();
        let model = small_model(4.0);
        let first = try_solve_cached(&model, &opts, &cache).unwrap();
        let second = try_solve_cached(&model, &opts, &cache).unwrap();
        assert_eq!(first.x, second.x);
        assert_eq!(first.objective.to_bits(), second.objective.to_bits());
        assert_eq!(first.duals, second.duals);
        assert_eq!(first.iterations, second.iterations);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn exact_hit_matches_uncached_solve_bitwise() {
        let cache = BasisCache::new();
        let opts = SimplexOptions::default();
        let model = small_model(4.0);
        let cold = try_solve_with(&model, &opts).unwrap();
        let _ = try_solve_cached(&model, &opts, &cache).unwrap();
        let cached = try_solve_cached(&model, &opts, &cache).unwrap();
        assert_eq!(cold.x, cached.x);
        assert_eq!(cold.duals, cached.duals);
        assert_eq!(cold.objective.to_bits(), cached.objective.to_bits());
    }

    #[test]
    fn coefficient_change_is_a_miss_not_a_stale_hit() {
        let cache = BasisCache::new();
        let opts = SimplexOptions::default();
        let a = try_solve_cached(&small_model(4.0), &opts, &cache).unwrap();
        let b = try_solve_cached(&small_model(6.0), &opts, &cache).unwrap();
        assert!((a.objective - b.objective).abs() > 0.5, "must re-solve");
    }

    #[test]
    fn option_change_is_a_different_key() {
        let cache = BasisCache::new();
        let model = small_model(4.0);
        let defaults = SimplexOptions::default();
        let bland = SimplexOptions {
            always_bland: true,
            ..SimplexOptions::default()
        };
        let a = try_solve_cached(&model, &defaults, &cache).unwrap();
        let b = try_solve_cached(&model, &bland, &cache).unwrap();
        // Same optimum either way, but the solves must not share an entry.
        assert!((a.objective - b.objective).abs() < 1e-9);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let cache = BasisCache::new();
        let opts = SimplexOptions::default();
        for i in 0..(CACHE_CAP + 8) {
            // Different shapes: vary the variable count.
            let mut m = Model::new();
            let vars: Vec<VarId> = (0..=i % (CACHE_CAP + 4)).map(|_| m.add_var(1.0)).collect();
            m.add_constraint(
                vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Ge,
                1.0,
            );
            let _ = try_solve_cached(&m, &opts, &cache).unwrap();
        }
        assert!(cache.len() <= CACHE_CAP);
    }
}
