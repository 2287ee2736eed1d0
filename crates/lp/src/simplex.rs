//! Two-phase revised simplex with sparse LU basis factors and a sparse
//! product-form (eta) file.
//!
//! Design, following the classic textbook revised simplex:
//!
//! * the constraint matrix (structural + slack/surplus/artificial columns)
//!   is stored once in CSC form; the engine only ever reads columns;
//! * the basis inverse is represented as `B₀⁻¹` (LU factors kept as sparse
//!   index lists, refactorized every [`SimplexOptions::refactor_period`]
//!   pivots) composed with a chain of eta matrices stored by their nonzeros
//!   in one flat buffer — FTRAN applies them left-to-right, BTRAN
//!   right-to-left. Every nonzero term is applied in the order a dense
//!   kernel would apply it, so skipping exact zeros changes no value except
//!   possibly the sign of an exactly-zero entry (DESIGN.md §5.6);
//! * pricing is Dantzig (most negative reduced cost) with an automatic
//!   switch to Bland's rule after a run of degenerate pivots, which
//!   guarantees termination;
//! * phase 1 minimizes the sum of artificial variables; leftover basic
//!   artificials at value zero are pivoted out when possible and otherwise
//!   provably stay at zero (their `B⁻¹A` row is zero).

// Index-based loops are deliberate in these numeric kernels: they mirror
// the textbook algorithms and keep row/column index arithmetic explicit.
#![allow(clippy::needless_range_loop)]

use crate::error::LpError;
use crate::lu::LuFactors;
use crate::model::{Model, Sense, Solution, Status};
use crate::presolve::{presolve, PresolveResult};
use crate::sparse::{CscMatrix, TripletBuilder};
use std::time::Instant;

/// Tuning knobs for the simplex engine.
#[derive(Clone, Debug)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Wall-clock budget in milliseconds across both phases (`None`:
    /// unlimited). Exceeding it surfaces [`LpError::TimeLimit`] from
    /// [`try_solve_with`].
    pub time_limit_ms: Option<u64>,
    /// Consecutive pivots without objective improvement before the solve is
    /// declared numerically stalled (`None`: disabled). Degenerate stretches
    /// are already handled by the Bland switch, so this is a backstop
    /// against cycling that survives it; surfaced as [`LpError::Stalled`].
    pub stall_window: Option<usize>,
    /// Maximum admissible constraint violation of a returned optimum.
    /// Exceeding it surfaces [`LpError::ResidualBlowup`] from
    /// [`try_solve_with`].
    pub max_residual: f64,
    /// Re-certify every claimed optimum via strong duality
    /// ([`crate::verify::certify`]); failures surface as
    /// [`LpError::CertificationFailed`] from [`try_solve_with`].
    pub verify_duality: bool,
    /// Pivots between basis refactorizations.
    pub refactor_period: usize,
    /// Reduced costs above `-opt_tol` count as nonnegative (optimality).
    pub opt_tol: f64,
    /// Column entries below this magnitude are unusable as pivots.
    pub pivot_tol: f64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub degeneracy_patience: usize,
    /// Run presolve before solving.
    pub presolve: bool,
    /// Force Bland's rule from the first pivot (ablation / debugging).
    pub always_bland: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 200_000,
            time_limit_ms: None,
            stall_window: None,
            max_residual: 1e-6,
            verify_duality: false,
            refactor_period: 64,
            opt_tol: 1e-9,
            pivot_tol: 1e-9,
            degeneracy_patience: 60,
            presolve: true,
            always_bland: false,
        }
    }
}

/// Cross-phase budget and numerical-health tracking.
struct HealthMonitor {
    start: Instant,
    time_limit_ms: Option<u64>,
    stall_window: Option<usize>,
    best_objective: f64,
    stall_run: usize,
}

impl HealthMonitor {
    fn new(opts: &SimplexOptions) -> Self {
        HealthMonitor {
            start: Instant::now(),
            time_limit_ms: opts.time_limit_ms,
            stall_window: opts.stall_window,
            best_objective: f64::INFINITY,
            stall_run: 0,
        }
    }

    /// Resets per-phase state (the phase objective changes meaning).
    fn begin_phase(&mut self) {
        self.best_objective = f64::INFINITY;
        self.stall_run = 0;
    }

    fn over_time_budget(&self) -> Option<u64> {
        let limit = self.time_limit_ms?;
        let elapsed = self.start.elapsed().as_millis() as u64;
        (elapsed > limit).then_some(elapsed)
    }

    /// Records the post-pivot phase objective; returns `true` when the
    /// stall window is exceeded.
    fn record_objective(&mut self, objective: f64, tol: f64) -> bool {
        let Some(window) = self.stall_window else {
            return false;
        };
        if objective < self.best_objective - tol * (1.0 + self.best_objective.abs()) {
            self.best_objective = objective;
            self.stall_run = 0;
        } else {
            self.stall_run += 1;
        }
        self.stall_run >= window
    }
}

/// Classification of a standard-form column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ColKind {
    Structural,
    Slack,
    Surplus,
    Artificial,
}

/// One product-form update: the basis column at position `r` was replaced
/// by a column whose FTRAN image `d = B⁻¹ a_q` has pivot `d_r`; its other
/// nonzeros sit at `start..end` of the owning [`BasisInverse`]'s flat
/// `eta_row` / `eta_val` buffers, by ascending row.
struct Eta {
    r: usize,
    d_r: f64,
    start: usize,
    end: usize,
}

/// `B⁻¹` as the LU factors of the last refactorized basis `B₀` followed by
/// the eta file of the pivots since.
struct BasisInverse {
    lu: LuFactors,
    etas: Vec<Eta>,
    eta_row: Vec<usize>,
    eta_val: Vec<f64>,
    /// Scratch for the LU solves.
    work: Vec<f64>,
}

impl BasisInverse {
    /// `B₀⁻¹ = lu⁻¹` with an empty eta file.
    fn new(lu: LuFactors) -> Self {
        BasisInverse {
            lu,
            etas: Vec::new(),
            eta_row: Vec::new(),
            eta_val: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Replaces the factors and empties the eta file (keeping its buffers).
    fn reset(&mut self, lu: LuFactors) {
        self.lu = lu;
        self.etas.clear();
        self.eta_row.clear();
        self.eta_val.clear();
    }

    /// Number of etas since the last refactorization.
    fn len(&self) -> usize {
        self.etas.len()
    }

    /// Appends the eta of a pivot at position `r` with FTRAN'd column `d`.
    fn push(&mut self, r: usize, d: &[f64]) {
        let start = self.eta_row.len();
        for (i, &di) in d.iter().enumerate() {
            if di != 0.0 && i != r {
                self.eta_row.push(i);
                self.eta_val.push(di);
            }
        }
        self.etas.push(Eta {
            r,
            d_r: d[r],
            start,
            end: self.eta_row.len(),
        });
    }

    /// FTRAN: overwrite `v` with `B⁻¹ v`.
    fn ftran(&mut self, v: &mut [f64]) {
        self.lu.solve_in_place(v, &mut self.work);
        for eta in &self.etas {
            let t = v[eta.r] / eta.d_r;
            if t != 0.0 {
                let rows = &self.eta_row[eta.start..eta.end];
                let vals = &self.eta_val[eta.start..eta.end];
                for (&i, &di) in rows.iter().zip(vals) {
                    v[i] -= di * t;
                }
            }
            v[eta.r] = t;
        }
    }

    /// BTRAN: overwrite `v` with `B⁻ᵀ v`.
    fn btran(&mut self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            // y_r = (v_r - Σ_{i≠r} d_i v_i) / d_r, y_i = v_i otherwise.
            let mut s = v[eta.r];
            let rows = &self.eta_row[eta.start..eta.end];
            let vals = &self.eta_val[eta.start..eta.end];
            for (&i, &di) in rows.iter().zip(vals) {
                s -= di * v[i];
            }
            v[eta.r] = s / eta.d_r;
        }
        self.lu.solve_transpose_in_place(v, &mut self.work);
    }
}

struct Engine<'a> {
    a: CscMatrix,
    b: Vec<f64>,
    costs_phase2: Vec<f64>,
    kind: Vec<ColKind>,
    /// basis[pos] = column index basic at row position `pos`.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    x_b: Vec<f64>,
    inv: BasisInverse,
    opts: &'a SimplexOptions,
    iterations: usize,
    /// Pricing vector `y = B⁻ᵀ c_B`, reused across pivots.
    y: Vec<f64>,
    /// FTRAN'd entering column `d = B⁻¹ a_q`, reused across pivots.
    d: Vec<f64>,
}

/// Outcome of one phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterationLimit,
    TimeLimit { elapsed_ms: u64 },
    Stalled { window: usize },
}

impl<'a> Engine<'a> {
    fn m(&self) -> usize {
        self.b.len()
    }

    /// Rebuilds the dense basis matrix, refactorizes, and recomputes `x_B`.
    /// A numerically singular basis (pivot-tolerance interactions on
    /// ill-conditioned data) is reported rather than crashing the solve.
    fn refactorize(&mut self) -> Result<(), LpError> {
        obs::counter_add("lp.simplex.refactorizations", 1);
        let m = self.m();
        let mut dense = vec![0.0; m * m];
        for (pos, &col) in self.basis.iter().enumerate() {
            let (idx, vals) = self.a.column(col);
            for (&i, &v) in idx.iter().zip(vals) {
                dense[i * m + pos] = v;
            }
        }
        let lu = LuFactors::factorize(m, dense).map_err(|_| LpError::SingularBasis {
            iterations: self.iterations,
        })?;
        self.inv.reset(lu);
        self.x_b.copy_from_slice(&self.b);
        self.inv.ftran(&mut self.x_b);
        Ok(())
    }

    /// Runs the simplex loop for the given phase cost vector.
    /// `allow_artificial_entering` is true only in phase 1.
    ///
    /// Observability wrapper around [`Engine::run_phase_inner`]: one span
    /// per phase plus pivot-count deltas published once per phase, so the
    /// hot pivot loop itself carries no instrumentation.
    fn run_phase(
        &mut self,
        costs: &[f64],
        allow_artificial_entering: bool,
        health: &mut HealthMonitor,
    ) -> Result<PhaseEnd, LpError> {
        let _phase_span = obs::span(if allow_artificial_entering {
            "lp.phase1"
        } else {
            "lp.phase2"
        });
        let pivots_before = self.iterations;
        let result = self.run_phase_inner(costs, allow_artificial_entering, health);
        let delta = (self.iterations - pivots_before) as u64;
        obs::counter_add(
            if allow_artificial_entering {
                "lp.simplex.phase1_pivots"
            } else {
                "lp.simplex.phase2_pivots"
            },
            delta,
        );
        obs::counter_add("lp.simplex.pivots", delta);
        result
    }

    fn run_phase_inner(
        &mut self,
        costs: &[f64],
        allow_artificial_entering: bool,
        health: &mut HealthMonitor,
    ) -> Result<PhaseEnd, LpError> {
        let m = self.m();
        let mut degenerate_run = 0usize;
        health.begin_phase();
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Ok(PhaseEnd::IterationLimit);
            }
            if let Some(elapsed_ms) = health.over_time_budget() {
                return Ok(PhaseEnd::TimeLimit { elapsed_ms });
            }
            // Pricing: y = B^{-T} c_B, reduced costs r_j = c_j - y' a_j.
            self.y.clear();
            self.y.extend(self.basis.iter().map(|&col| costs[col]));
            self.inv.btran(&mut self.y);

            let use_bland =
                self.opts.always_bland || degenerate_run >= self.opts.degeneracy_patience;
            let price = |engine: &Engine, j: usize| -> Option<f64> {
                if engine.in_basis[j] {
                    return None;
                }
                if !allow_artificial_entering && engine.kind[j] == ColKind::Artificial {
                    return None;
                }
                let rj = costs[j] - engine.a.column_dot(j, &engine.y);
                (rj < -engine.opts.opt_tol).then_some(rj)
            };
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.a.cols() {
                let Some(rj) = price(self, j) else {
                    continue;
                };
                match entering {
                    None => entering = Some((j, rj)),
                    Some((_, best)) if !use_bland && rj < best => {
                        entering = Some((j, rj));
                    }
                    _ => {}
                }
                if use_bland {
                    break; // Bland: first improving index.
                }
            }
            let Some((q, _)) = entering else {
                return Ok(PhaseEnd::Optimal);
            };

            // FTRAN the entering column.
            let mut d = std::mem::take(&mut self.d);
            d.clear();
            d.resize(m, 0.0);
            self.a.scatter_column(q, 1.0, &mut d);
            self.inv.ftran(&mut d);

            // Ratio test.
            let mut leave: Option<(usize, f64)> = None; // (position, theta)
            for (pos, &di) in d.iter().enumerate() {
                if di > self.opts.pivot_tol {
                    let xb = self.x_b[pos].max(0.0);
                    let theta = xb / di;
                    match leave {
                        None => leave = Some((pos, theta)),
                        Some((lpos, ltheta)) => {
                            let better = if use_bland {
                                theta < ltheta - 1e-12
                                    || (theta <= ltheta + 1e-12
                                        && self.basis[pos] < self.basis[lpos])
                            } else {
                                theta < ltheta - 1e-12 || (theta <= ltheta + 1e-12 && di > d[lpos])
                            };
                            if better {
                                leave = Some((pos, theta));
                            }
                        }
                    }
                }
            }
            let Some((r, theta)) = leave else {
                self.d = d;
                return Ok(PhaseEnd::Unbounded);
            };

            // Update basic values.
            for (pos, xb) in self.x_b.iter_mut().enumerate() {
                *xb -= theta * d[pos];
            }
            self.x_b[r] = theta;
            let leaving_col = self.basis[r];
            self.in_basis[leaving_col] = false;
            self.in_basis[q] = true;
            self.basis[r] = q;
            self.iterations += 1;
            if theta <= self.opts.pivot_tol {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            self.inv.push(r, &d);
            self.d = d;
            if self.inv.len() >= self.opts.refactor_period {
                self.refactorize()?;
            }

            // Numerical-health monitoring: the phase objective must keep
            // improving (allowing degenerate stretches up to the window).
            let objective: f64 = self
                .basis
                .iter()
                .zip(&self.x_b)
                .map(|(&col, &xb)| costs[col] * xb)
                .sum();
            if health.record_objective(objective, self.opts.opt_tol) {
                return Ok(PhaseEnd::Stalled {
                    window: self.opts.stall_window.unwrap_or(0),
                });
            }
        }
    }

    /// After phase 1: pivot basic artificials out where a usable non-
    /// artificial column exists in their row; remaining ones sit on
    /// linearly-dependent rows and provably stay at zero.
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        let m = self.m();
        for pos in 0..m {
            if self.kind[self.basis[pos]] != ColKind::Artificial {
                continue;
            }
            // Row `pos` of B^{-1} A: e_pos^T B^{-1} a_j for candidate j.
            self.y.clear();
            self.y.resize(m, 0.0);
            self.y[pos] = 1.0;
            self.inv.btran(&mut self.y);
            let mut found = None;
            for j in 0..self.a.cols() {
                if self.in_basis[j] || self.kind[j] == ColKind::Artificial {
                    continue;
                }
                let alpha = self.a.column_dot(j, &self.y);
                if alpha.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            if let Some(j) = found {
                // Degenerate pivot: x_b[pos] is 0, so values are unchanged.
                self.d.clear();
                self.d.resize(m, 0.0);
                self.a.scatter_column(j, 1.0, &mut self.d);
                self.inv.ftran(&mut self.d);
                debug_assert!(self.d[pos].abs() > 1e-9);
                let old = self.basis[pos];
                self.in_basis[old] = false;
                self.in_basis[j] = true;
                self.basis[pos] = j;
                self.inv.push(pos, &self.d);
                if self.inv.len() >= self.opts.refactor_period {
                    self.refactorize()?;
                }
            }
        }
        Ok(())
    }
}

/// Shared solver core: always produces a best-effort legacy [`Solution`],
/// plus the typed classification when the solve did not reach a clean
/// optimum.
fn solve_core(model: &Model, opts: &SimplexOptions) -> (Solution, Option<LpError>) {
    let _solve_span = obs::span("lp.solve");
    let n = model.num_vars();
    let infeasible = |removed: usize| Solution {
        status: Status::Infeasible,
        objective: f64::INFINITY,
        x: vec![0.0; n],
        duals: vec![0.0; model.num_constraints()],
        iterations: 0,
        presolve_rows_removed: removed,
    };

    // Presolve.
    let (kept_rows, removed) = if opts.presolve {
        let _presolve_span = obs::span("lp.presolve");
        match presolve(model, opts.opt_tol) {
            PresolveResult::Infeasible { .. } => return (infeasible(0), Some(LpError::Infeasible)),
            PresolveResult::Reduced { kept_rows, removed } => (kept_rows, removed),
        }
    } else {
        ((0..model.num_constraints()).collect(), 0)
    };
    obs::counter_add("lp.presolve.rows_removed", removed as u64);

    let m = kept_rows.len();
    if m == 0 {
        // No constraints: minimum is 0 unless some cost is negative
        // (then unbounded since variables have no real upper bounds here).
        let unbounded = model.costs().iter().any(|&c| c < 0.0);
        return (
            Solution {
                status: if unbounded {
                    Status::Unbounded
                } else {
                    Status::Optimal
                },
                objective: if unbounded { f64::NEG_INFINITY } else { 0.0 },
                x: vec![0.0; n],
                duals: vec![0.0; model.num_constraints()],
                iterations: 0,
                presolve_rows_removed: removed,
            },
            unbounded.then_some(LpError::Unbounded),
        );
    }

    // Standard form: flip rows to make rhs >= 0, then add slack / surplus /
    // artificial columns.
    let mut flipped = vec![false; m];
    let mut senses = Vec::with_capacity(m);
    let mut b = Vec::with_capacity(m);
    for (r, &orig) in kept_rows.iter().enumerate() {
        let c = &model.constraints()[orig];
        let (sense, rhs) = if c.rhs < 0.0 {
            flipped[r] = true;
            let s = match c.sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
            (s, -c.rhs)
        } else {
            (c.sense, c.rhs)
        };
        senses.push(sense);
        b.push(rhs);
    }

    // Count auxiliary columns.
    let mut n_total = n;
    let mut aux_cols: Vec<(usize, ColKind, usize)> = Vec::new(); // (col, kind, row)
    for (r, s) in senses.iter().enumerate() {
        match s {
            Sense::Le => {
                aux_cols.push((n_total, ColKind::Slack, r));
                n_total += 1;
            }
            Sense::Ge => {
                aux_cols.push((n_total, ColKind::Surplus, r));
                n_total += 1;
                aux_cols.push((n_total, ColKind::Artificial, r));
                n_total += 1;
            }
            Sense::Eq => {
                aux_cols.push((n_total, ColKind::Artificial, r));
                n_total += 1;
            }
        }
    }

    // Assemble the full standard-form matrix.
    let mut builder = TripletBuilder::new(m, n_total);
    for (r, &orig) in kept_rows.iter().enumerate() {
        let sign = if flipped[r] { -1.0 } else { 1.0 };
        for &(v, a) in &model.constraints()[orig].terms {
            builder.push(r, v.0, sign * a);
        }
    }
    for &(col, kind, row) in &aux_cols {
        let v = match kind {
            ColKind::Slack | ColKind::Artificial => 1.0,
            ColKind::Surplus => -1.0,
            ColKind::Structural => unreachable!(),
        };
        builder.push(row, col, v);
    }
    let a = builder.build();

    let mut kind = vec![ColKind::Structural; n_total];
    for &(col, k, _) in &aux_cols {
        kind[col] = k;
    }
    let mut costs_phase2 = vec![0.0; n_total];
    costs_phase2[..n].copy_from_slice(model.costs());

    // Initial basis: slack for Le rows, artificial for Ge/Eq rows.
    let mut basis = vec![usize::MAX; m];
    for &(col, k, row) in &aux_cols {
        match k {
            ColKind::Slack | ColKind::Artificial => basis[row] = col,
            _ => {}
        }
    }
    debug_assert!(basis.iter().all(|&c| c != usize::MAX));
    let mut in_basis = vec![false; n_total];
    for &c in &basis {
        in_basis[c] = true;
    }
    let has_artificials = aux_cols.iter().any(|&(_, k, _)| k == ColKind::Artificial);

    let mut engine = Engine {
        a,
        x_b: b.clone(),
        b,
        costs_phase2,
        kind,
        basis,
        in_basis,
        // Slack and artificial columns are unit vectors, so the initial
        // basis is the identity.
        inv: BasisInverse::new(LuFactors::identity(m)),
        opts,
        iterations: 0,
        y: Vec::with_capacity(m),
        d: Vec::with_capacity(m),
    };

    let mut health = HealthMonitor::new(opts);
    // Best-effort solution for budget/health failures mid-solve.
    let aborted = |iterations: usize, error: LpError| {
        (
            Solution {
                status: Status::IterationLimit,
                objective: f64::NAN,
                x: vec![0.0; n],
                duals: vec![0.0; model.num_constraints()],
                iterations,
                presolve_rows_removed: removed,
            },
            Some(error),
        )
    };

    // Phase 1.
    if has_artificials {
        let mut costs_phase1 = vec![0.0; n_total];
        for (j, k) in engine.kind.iter().enumerate() {
            if *k == ColKind::Artificial {
                costs_phase1[j] = 1.0;
            }
        }
        let end = match engine.run_phase(&costs_phase1, true, &mut health) {
            Ok(end) => end,
            Err(e) => return aborted(engine.iterations, e),
        };
        match end {
            PhaseEnd::IterationLimit => {
                let iters = engine.iterations;
                return aborted(iters, LpError::IterationLimit { iterations: iters });
            }
            PhaseEnd::TimeLimit { elapsed_ms } => {
                let iters = engine.iterations;
                return aborted(
                    iters,
                    LpError::TimeLimit {
                        elapsed_ms,
                        iterations: iters,
                    },
                );
            }
            PhaseEnd::Stalled { window } => {
                let iters = engine.iterations;
                return aborted(
                    iters,
                    LpError::Stalled {
                        iterations: iters,
                        window,
                    },
                );
            }
            // Phase 1's objective is bounded below by 0, so a ray here
            // means the ratio test refused every entry of the entering
            // column: a `pivot_tol` too large for the model.
            PhaseEnd::Unbounded => return aborted(engine.iterations, LpError::Unbounded),
            PhaseEnd::Optimal => {}
        }
        let phase1_obj: f64 = engine
            .basis
            .iter()
            .zip(&engine.x_b)
            .filter(|(c, _)| engine.kind[**c] == ColKind::Artificial)
            .map(|(_, &v)| v)
            .sum();
        if phase1_obj > 1e-7 {
            return (infeasible(removed), Some(LpError::Infeasible));
        }
        if let Err(e) = engine.refactorize() {
            return aborted(engine.iterations, e);
        }
        if let Err(e) = engine.drive_out_artificials() {
            return aborted(engine.iterations, e);
        }
    }

    // Phase 2.
    let phase2_costs = engine.costs_phase2.clone();
    let end = match engine.run_phase(&phase2_costs, false, &mut health) {
        Ok(end) => end,
        Err(e) => return aborted(engine.iterations, e),
    };
    let (status, error) = match end {
        PhaseEnd::Optimal => (Status::Optimal, None),
        PhaseEnd::Unbounded => (Status::Unbounded, Some(LpError::Unbounded)),
        PhaseEnd::IterationLimit => (
            Status::IterationLimit,
            Some(LpError::IterationLimit {
                iterations: engine.iterations,
            }),
        ),
        PhaseEnd::TimeLimit { elapsed_ms } => (
            Status::IterationLimit,
            Some(LpError::TimeLimit {
                elapsed_ms,
                iterations: engine.iterations,
            }),
        ),
        PhaseEnd::Stalled { window } => (
            Status::IterationLimit,
            Some(LpError::Stalled {
                iterations: engine.iterations,
                window,
            }),
        ),
    };

    // Extract primal values.
    let mut x = vec![0.0; n];
    for (pos, &col) in engine.basis.iter().enumerate() {
        if col < n {
            x[col] = engine.x_b[pos].max(0.0);
        }
    }
    let objective = model.objective_value(&x);

    // Extract duals: y = B^{-T} c_B, un-flip flipped rows, scatter to
    // original row indices.
    let mut y = vec![0.0; m];
    for (pos, &col) in engine.basis.iter().enumerate() {
        y[pos] = engine.costs_phase2[col];
    }
    engine.inv.btran(&mut y);
    let mut duals = vec![0.0; model.num_constraints()];
    for (r, &orig) in kept_rows.iter().enumerate() {
        duals[orig] = if flipped[r] { -y[r] } else { y[r] };
    }

    let solution = Solution {
        status,
        objective,
        x,
        duals,
        iterations: engine.iterations,
        presolve_rows_removed: removed,
    };
    (solution, error)
}

/// Solves `model` with the given options, returning the legacy status-coded
/// [`Solution`].
///
/// Panics only on a numerically singular basis — with the engine's pivot
/// tolerances that indicates a pivot-selection bug, a genuine invariant
/// violation. Use [`try_solve_with`] for `Result`-typed failure handling
/// including that case.
pub fn solve_with(model: &Model, opts: &SimplexOptions) -> Solution {
    let (solution, error) = solve_core(model, opts);
    if let Some(LpError::SingularBasis { iterations }) = error {
        panic!(
            "basis matrix must be nonsingular (pivot selection bug, {} pivots)",
            iterations
        );
    }
    solution
}

/// Solves `model`, classifying every unhealthy outcome as an [`LpError`].
///
/// `Ok` guarantees an optimal solution that passed the configured health
/// checks: primal residual within [`SimplexOptions::max_residual`], and —
/// when [`SimplexOptions::verify_duality`] is set — an independent
/// strong-duality certificate.
pub fn try_solve_with(model: &Model, opts: &SimplexOptions) -> Result<Solution, LpError> {
    let (solution, error) = solve_core(model, opts);
    if let Some(e) = error {
        return Err(e);
    }
    health_check(model, opts, &solution)?;
    Ok(solution)
}

/// Numerical-health checks on a claimed optimum.
fn health_check(model: &Model, opts: &SimplexOptions, solution: &Solution) -> Result<(), LpError> {
    let _check_span = obs::span("lp.residual_check");
    let residual = model.max_violation(&solution.x);
    // NaN residuals must also trip the check, hence the explicit test.
    if residual.is_nan() || residual > opts.max_residual {
        return Err(LpError::ResidualBlowup {
            residual,
            limit: opts.max_residual,
        });
    }
    if opts.verify_duality {
        let cert = crate::verify::certify(model, solution);
        let tol = opts.max_residual.max(1e-7);
        if !cert.holds(tol) {
            let worst = cert
                .primal_violation
                .max(cert.dual_violation)
                .max(cert.gap)
                .max(cert.comp_slackness);
            return Err(LpError::CertificationFailed {
                worst_residual: worst,
                tol,
            });
        }
    }
    Ok(())
}

/// Solves `model` with default options.
pub fn solve(model: &Model) -> Solution {
    solve_with(model, &SimplexOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense eta file the sparse one replaced, kept as the reference:
    /// each eta holds its whole FTRAN'd column.
    struct DenseEtas(Vec<(usize, Vec<f64>)>);

    impl DenseEtas {
        fn ftran(&self, lu: &LuFactors, v: &mut [f64]) {
            lu.solve_in_place(v, &mut Vec::new());
            for (r, d) in &self.0 {
                let t = v[*r] / d[*r];
                if t != 0.0 {
                    for (vi, di) in v.iter_mut().zip(d) {
                        *vi -= di * t;
                    }
                }
                v[*r] = t;
            }
        }

        fn btran(&self, lu: &LuFactors, v: &mut [f64]) {
            for (r, d) in self.0.iter().rev() {
                let mut s = v[*r];
                for (i, (&di, &vi)) in d.iter().zip(v.iter()).enumerate() {
                    if i != *r {
                        s -= di * vi;
                    }
                }
                v[*r] = s / d[*r];
            }
            lu.solve_transpose_in_place(v, &mut Vec::new());
        }
    }

    /// xorshift64 with a few shapes of value: exact zeros, small negative
    /// integers and fractions of either sign.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn value(&mut self) -> f64 {
            match self.below(4) {
                0 => 0.0,
                1 => -((1 + self.below(5)) as f64),
                _ => (self.below(2001) as f64 - 1000.0) / 37.0,
            }
        }
    }

    /// Every nonzero entry bit-identical, every zero entry zero.
    fn assert_same_bits(sparse: &[f64], dense: &[f64], what: &str) {
        for (i, (&s, &d)) in sparse.iter().zip(dense).enumerate() {
            if d == 0.0 {
                assert_eq!(s, 0.0, "{what}: entry {i} must be zero, got {s:e}");
            } else {
                assert_eq!(
                    s.to_bits(),
                    d.to_bits(),
                    "{what}: entry {i}: {s:e} vs {d:e}"
                );
            }
        }
    }

    #[test]
    fn a_pivot_tolerance_above_every_entry_fails_phase_1_with_a_typed_error() {
        // min x + 2y  s.t.  x + y >= 4,  y >= 1: both rows start on an
        // artificial, so the solve needs phase 1, whose ratio test then
        // refuses every entry of size 1.
        let mut m = Model::new();
        let x = m.add_var(1.0);
        let y = m.add_var(2.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
        m.add_ge(vec![(y, 1.0)], 1.0);
        let opts = SimplexOptions {
            pivot_tol: 100.0,
            ..SimplexOptions::default()
        };
        assert_eq!(try_solve_with(&m, &opts).unwrap_err(), LpError::Unbounded);
        assert_ne!(solve_with(&m, &opts).status, Status::Optimal);
    }

    #[test]
    fn sparse_eta_file_matches_the_dense_reference() {
        let mut rng = Rng(0x5eed_e7a5);
        for case in 0..300 {
            let n = 1 + case % 24;
            let lu = if case % 3 == 0 {
                LuFactors::identity(n)
            } else {
                // Diagonally dominant with exact zeros off the diagonal.
                let a: Vec<f64> = (0..n * n)
                    .map(|idx| {
                        if idx % (n + 1) == 0 {
                            2.0 * n as f64
                        } else {
                            rng.value()
                        }
                    })
                    .collect();
                LuFactors::factorize(n, a).unwrap()
            };
            let mut sparse = BasisInverse::new(lu.clone());
            let mut dense = DenseEtas(Vec::new());
            for _ in 0..rng.below(14) {
                let r = rng.below(n);
                let mut d: Vec<f64> = (0..n).map(|_| rng.value()).collect();
                if d[r] == 0.0 {
                    d[r] = 1.5;
                }
                sparse.push(r, &d);
                dense.0.push((r, d));
            }
            assert_eq!(sparse.len(), dense.0.len());
            for _ in 0..4 {
                let b: Vec<f64> = (0..n).map(|_| rng.value()).collect();
                let (mut fs, mut fd) = (b.clone(), b.clone());
                sparse.ftran(&mut fs);
                dense.ftran(&lu, &mut fd);
                assert_same_bits(&fs, &fd, &format!("case {case} FTRAN"));
                let (mut bs, mut bd) = (b.clone(), b);
                sparse.btran(&mut bs);
                dense.btran(&lu, &mut bd);
                assert_same_bits(&bs, &bd, &format!("case {case} BTRAN"));
            }
            // A refactorization empties the file: only the new factors apply.
            sparse.reset(LuFactors::identity(n));
            let b: Vec<f64> = (0..n).map(|_| rng.value()).collect();
            let mut v = b.clone();
            sparse.ftran(&mut v);
            assert_eq!(sparse.len(), 0);
            assert_same_bits(&v, &b, &format!("case {case} after reset"));
        }
    }
}
