//! User-facing linear program model.
//!
//! Minimization over nonnegative variables with `≤`, `=`, `≥` row
//! constraints — exactly the shape of the paper's interval-indexed relaxation
//! (LP) and the time-indexed (LP-EXP).

/// Identifier of a decision variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Identifier of a constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub usize);

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
}

/// One constraint row.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Sparse row coefficients as `(variable, coefficient)` pairs.
    pub terms: Vec<(VarId, f64)>,
    /// The sense of the row.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program: minimize `c·x` subject to row constraints and `x ≥ 0`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    costs: Vec<f64>,
    /// Upper bounds that are *implied by other constraints* (e.g. `x ≤ 1`
    /// follows from `Σ_l x_l = 1`). Used only by presolve to detect redundant
    /// rows; the simplex itself never enforces them, which is sound exactly
    /// because they are implied.
    implied_upper: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a variable with the given objective cost; returns its id.
    pub fn add_var(&mut self, cost: f64) -> VarId {
        self.costs.push(cost);
        self.implied_upper.push(f64::INFINITY);
        VarId(self.costs.len() - 1)
    }

    /// Declares an upper bound on `var` that is implied by the row
    /// constraints. See the field documentation for the soundness contract.
    pub fn set_implied_upper(&mut self, var: VarId, upper: f64) {
        assert!(upper >= 0.0, "implied upper bound must be nonnegative");
        self.implied_upper[var.0] = upper;
    }

    /// Adds a `≤` constraint.
    pub fn add_le(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> RowId {
        self.add_constraint(terms, Sense::Le, rhs)
    }

    /// Adds an `=` constraint.
    pub fn add_eq(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> RowId {
        self.add_constraint(terms, Sense::Eq, rhs)
    }

    /// Adds a `≥` constraint.
    pub fn add_ge(&mut self, terms: Vec<(VarId, f64)>, rhs: f64) -> RowId {
        self.add_constraint(terms, Sense::Ge, rhs)
    }

    /// Adds a constraint with an explicit sense.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, sense: Sense, rhs: f64) -> RowId {
        for &(v, _) in &terms {
            assert!(
                v.0 < self.costs.len(),
                "constraint references unknown variable"
            );
        }
        self.constraints.push(Constraint { terms, sense, rhs });
        RowId(self.constraints.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Implied upper bounds (∞ when none was declared).
    pub fn implied_upper(&self) -> &[f64] {
        &self.implied_upper
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.costs.len());
        self.costs.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Evaluates row `row` at `x`.
    pub fn row_activity(&self, row: RowId, x: &[f64]) -> f64 {
        self.constraints[row.0]
            .terms
            .iter()
            .map(|&(v, a)| a * x[v.0])
            .sum()
    }

    /// Maximum constraint violation of `x` (0 when feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (idx, c) in self.constraints.iter().enumerate() {
            let act = self.row_activity(RowId(idx), x);
            let viol = match c.sense {
                Sense::Le => act - c.rhs,
                Sense::Ge => c.rhs - act,
                Sense::Eq => (act - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        for &v in x {
            worst = worst.max(-v);
        }
        worst
    }
}

/// Solver status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
}

/// Result of solving a [`Model`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value (meaningful for `Optimal`).
    pub objective: f64,
    /// Primal values, one per variable.
    pub x: Vec<f64>,
    /// Dual values, one per original constraint row (0 for rows presolve
    /// removed as redundant). Sign convention: `min cᵀx`, `≥` rows have
    /// `y ≥ 0`, `≤` rows have `y ≤ 0`, `=` rows free.
    pub duals: Vec<f64>,
    /// Total simplex pivots across both phases.
    pub iterations: usize,
    /// Rows removed by presolve.
    pub presolve_rows_removed: usize,
}

impl Solution {
    /// True when the status is [`Status::Optimal`].
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_building_and_evaluation() {
        let mut m = Model::new();
        let x = m.add_var(1.0);
        let y = m.add_var(2.0);
        let r = m.add_le(vec![(x, 1.0), (y, 1.0)], 10.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.objective_value(&[3.0, 4.0]), 11.0);
        assert_eq!(m.row_activity(r, &[3.0, 4.0]), 7.0);
        assert_eq!(m.max_violation(&[3.0, 4.0]), 0.0);
        assert_eq!(m.max_violation(&[20.0, 0.0]), 10.0);
    }

    #[test]
    fn violation_detects_negative_vars() {
        let mut m = Model::new();
        let _ = m.add_var(1.0);
        assert!(m.max_violation(&[-0.5]) >= 0.5);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_var_check() {
        let mut m = Model::new();
        let _ = m.add_var(1.0);
        m.add_le(vec![(VarId(3), 1.0)], 1.0);
    }
}
