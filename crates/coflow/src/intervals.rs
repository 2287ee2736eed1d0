//! Geometric time grids.
//!
//! The interval-indexed relaxation and the grouping step of Algorithm 2 both
//! use time points `τ_0 = 0, τ_l = 2^{l-1}` (`l = 1..L`), with `L` minimal
//! such that `2^{L-1} ≥ T`. The randomized algorithm replaces the
//! deterministic grid with `τ'_l = T₀ · a^{l-1}` where `a = 1 + √2` and
//! `T₀ ~ Uniform[1, a]`.

/// The deterministic doubling grid `0, 1, 2, 4, …, 2^{L-1}`.
///
/// ```
/// use coflow::GeometricGrid;
/// let grid = GeometricGrid::doubling(10);
/// assert_eq!(grid.points(), &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]);
/// assert_eq!(grid.interval_of(5.0), 4); // 5 lies in (4, 8]
/// ```
#[derive(Clone, Debug)]
pub struct GeometricGrid {
    points: Vec<f64>,
}

impl GeometricGrid {
    /// Builds the deterministic grid covering horizon `t_max ≥ 1`:
    /// `τ_0 = 0`, `τ_l = 2^{l-1}` up to the first point `≥ t_max`.
    pub fn doubling(t_max: u64) -> Self {
        let t_max = t_max.max(1);
        let mut points = vec![0.0, 1.0];
        while points[points.len() - 1] < t_max as f64 {
            let next = points[points.len() - 1] * 2.0;
            points.push(next);
        }
        GeometricGrid { points }
    }

    /// Builds a grid with ratio `a` and offset `t0 ∈ [1, a]`:
    /// `τ'_0 = 0`, `τ'_l = t0 · a^{l-1}` up to the first point `≥ t_max`.
    /// This is the randomized algorithm's grid (§3.2); pass `t0 = 1, a = 2`
    /// to recover the deterministic grid.
    pub fn scaled(t_max: u64, t0: f64, a: f64) -> Self {
        assert!(a > 1.0, "grid ratio must exceed 1");
        assert!(t0 > 0.0, "grid offset must be positive");
        let t_max = t_max.max(1);
        let mut points = vec![0.0, t0];
        while points[points.len() - 1] < t_max as f64 {
            let next = points[points.len() - 1] * a;
            points.push(next);
        }
        GeometricGrid { points }
    }

    /// Number of intervals `L` (points are `τ_0 … τ_L`).
    pub fn num_intervals(&self) -> usize {
        self.points.len() - 1
    }

    /// Time point `τ_l`.
    pub fn point(&self, l: usize) -> f64 {
        self.points[l]
    }

    /// All points `τ_0 … τ_L`.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The 1-based index `l` of the interval `(τ_{l-1}, τ_l]` containing
    /// `v > 0`. Panics for `v = 0` (0 lies on the boundary `τ_0`) or `v`
    /// beyond the horizon.
    pub fn interval_of(&self, v: f64) -> usize {
        assert!(v > 0.0, "interval lookup requires a positive value");
        // points are strictly increasing after index 0.
        let l = self.points.iter().position(|&p| v <= p).unwrap_or_else(|| {
            panic!(
                "value {} beyond grid horizon {}",
                v,
                self.points[self.points.len() - 1]
            )
        });
        debug_assert!(l >= 1);
        l
    }

    /// Smallest `l` with `τ_l ≥ v` — the first interval in which an event of
    /// size `v` can complete.
    pub fn first_feasible(&self, v: f64) -> usize {
        if v <= 0.0 {
            return 1;
        }
        self.interval_of(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_grid_shape() {
        let g = GeometricGrid::doubling(9);
        assert_eq!(g.points(), &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(g.num_intervals(), 5);
    }

    #[test]
    fn doubling_handles_degenerate_horizon() {
        let g = GeometricGrid::doubling(0);
        assert_eq!(g.points(), &[0.0, 1.0]);
        let g1 = GeometricGrid::doubling(1);
        assert_eq!(g1.points(), &[0.0, 1.0]);
    }

    #[test]
    fn interval_lookup() {
        let g = GeometricGrid::doubling(16);
        assert_eq!(g.interval_of(1.0), 1); // (0, 1]
        assert_eq!(g.interval_of(1.5), 2); // (1, 2]
        assert_eq!(g.interval_of(2.0), 2);
        assert_eq!(g.interval_of(3.0), 3); // (2, 4]
        assert_eq!(g.interval_of(16.0), 5);
    }

    #[test]
    #[should_panic(expected = "beyond grid horizon")]
    fn interval_lookup_out_of_range() {
        let g = GeometricGrid::doubling(4);
        let _ = g.interval_of(100.0);
    }

    #[test]
    fn scaled_grid_matches_randomized_spec() {
        let a = 1.0 + std::f64::consts::SQRT_2;
        let g = GeometricGrid::scaled(100, 1.7, a);
        assert_eq!(g.point(0), 0.0);
        assert!((g.point(1) - 1.7).abs() < 1e-12);
        assert!((g.point(2) - 1.7 * a).abs() < 1e-12);
        assert!(*g.points().last().unwrap() >= 100.0);
    }

    #[test]
    fn scaled_with_ratio_two_equals_doubling() {
        let g1 = GeometricGrid::doubling(32);
        let g2 = GeometricGrid::scaled(32, 1.0, 2.0);
        assert_eq!(g1.points(), g2.points());
    }

    #[test]
    fn first_feasible_of_zero_is_one() {
        let g = GeometricGrid::doubling(8);
        assert_eq!(g.first_feasible(0.0), 1);
        assert_eq!(g.first_feasible(5.0), 4);
    }
}
