//! LU factorization with partial pivoting, stored as sparse factors.
//!
//! The simplex engine refactorizes its basis matrix every few dozen pivots;
//! between refactorizations it applies product-form (eta) updates. The
//! factorization itself is the dense partial-pivoting elimination — its
//! pivot order fixes every bit of `L` and `U` — but the factors are kept
//! only as sparse index lists: `L` by columns, `U` by rows, plus `U`'s
//! diagonal and the row permutation. Simplex bases are mostly slack and
//! artificial unit columns, so both triangular solves cost
//! `O(n + nnz(L) + nnz(U))` instead of `O(n²)`.
//!
//! Every solve subtracts each nonzero term in the order the dense textbook
//! loop would (`x_i -= a_ij · x_j` by ascending `j` in the forward sweeps,
//! the dot product `Σ_j a_ij x_j` by ascending `j` in the backward ones).
//! Skipped terms have an exact-zero factor, so a solve returns the dense
//! loop's result bit for bit, except that an entry that is exactly zero may
//! come out with the other sign of zero.

// Index-based loops are deliberate in these numeric kernels: they mirror
// the textbook algorithms and keep row/column index arithmetic explicit.
#![allow(clippy::needless_range_loop)]

/// LU factorization `P A = L U` of a square matrix: unit lower-triangular
/// `L`, upper-triangular `U`, row permutation `P`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    n: usize,
    /// Column `j` of `L`'s strict lower triangle: rows `> j` ascending, at
    /// `l_start[j]..l_start[j + 1]` of `l_row` / `l_val`.
    l_start: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// Row `i` of `U`'s strict upper triangle: columns `> i` ascending, at
    /// `u_start[i]..u_start[i + 1]` of `u_col` / `u_val`.
    u_start: Vec<usize>,
    u_col: Vec<usize>,
    u_val: Vec<f64>,
    /// `U`'s diagonal (the pivots).
    diag: Vec<f64>,
    /// Row permutation: `perm[k]` = original row used as pivot row `k`.
    perm: Vec<usize>,
}

/// Error returned when the matrix is numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination step at which no acceptable pivot was found.
    pub step: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at elimination step {}", self.step)
    }
}

impl std::error::Error for SingularMatrix {}

impl LuFactors {
    /// The factors of the `n × n` identity — exactly what [`factorize`]
    /// returns for it (no multipliers, unit pivots, no row swaps) — built
    /// without an `n × n` buffer.
    ///
    /// [`factorize`]: LuFactors::factorize
    pub fn identity(n: usize) -> Self {
        LuFactors {
            n,
            l_start: vec![0; n + 1],
            l_row: Vec::new(),
            l_val: Vec::new(),
            u_start: vec![0; n + 1],
            u_col: Vec::new(),
            u_val: Vec::new(),
            diag: vec![1.0; n],
            perm: (0..n).collect(),
        }
    }

    /// Factorizes a dense row-major `n × n` matrix, eliminating in place in
    /// the given buffer, which is dropped once the factors are extracted.
    pub fn factorize(n: usize, mut lu: Vec<f64>) -> Result<Self, SingularMatrix> {
        assert_eq!(lu.len(), n * n, "matrix buffer must be n*n");
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-13 {
                return Err(SingularMatrix { step: k });
            }
            if p != k {
                perm.swap(k, p);
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let mult = lu[i * n + k] / pivot;
                lu[i * n + k] = mult;
                if mult != 0.0 {
                    // Split borrows: copy pivot row segment is avoided by
                    // indexing; rows i and k are disjoint.
                    for j in (k + 1)..n {
                        let ukj = lu[k * n + j];
                        lu[i * n + j] -= mult * ukj;
                    }
                }
            }
        }
        // Keep the nonzeros only, in lists sized exactly.
        let (mut l_nnz, mut u_nnz) = (0, 0);
        for i in 0..n {
            let row = &lu[i * n..(i + 1) * n];
            l_nnz += row[..i].iter().filter(|&&v| v != 0.0).count();
            u_nnz += row[i + 1..].iter().filter(|&&v| v != 0.0).count();
        }
        let mut factors = LuFactors {
            n,
            l_start: Vec::with_capacity(n + 1),
            l_row: Vec::with_capacity(l_nnz),
            l_val: Vec::with_capacity(l_nnz),
            u_start: Vec::with_capacity(n + 1),
            u_col: Vec::with_capacity(u_nnz),
            u_val: Vec::with_capacity(u_nnz),
            diag: (0..n).map(|i| lu[i * n + i]).collect(),
            perm,
        };
        factors.l_start.push(0);
        factors.u_start.push(0);
        for k in 0..n {
            for i in (k + 1)..n {
                let l = lu[i * n + k];
                if l != 0.0 {
                    factors.l_row.push(i);
                    factors.l_val.push(l);
                }
            }
            factors.l_start.push(factors.l_row.len());
            for j in (k + 1)..n {
                let u = lu[k * n + j];
                if u != 0.0 {
                    factors.u_col.push(j);
                    factors.u_val.push(u);
                }
            }
            factors.u_start.push(factors.u_col.len());
        }
        Ok(factors)
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` in place: `b` is overwritten with `x`. `work` is
    /// scratch space (resized to `n`; its contents are irrelevant).
    pub fn solve_in_place(&self, b: &mut [f64], work: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Apply the row permutation.
        work.clear();
        work.extend(self.perm.iter().map(|&p| b[p]));
        let x = &mut work[..];
        // Forward substitution with unit lower triangle, by columns of L.
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                for t in self.l_start[j]..self.l_start[j + 1] {
                    x[self.l_row[t]] -= self.l_val[t] * xj;
                }
            }
        }
        // Back substitution with U, by rows of U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for t in self.u_start[i]..self.u_start[i + 1] {
                s -= self.u_val[t] * x[self.u_col[t]];
            }
            x[i] = s / self.diag[i];
        }
        b.copy_from_slice(x);
    }

    /// Solves `Aᵀ x = b` in place: `b` is overwritten with `x`. `work` is
    /// scratch space (resized to `n`; its contents are irrelevant).
    pub fn solve_transpose_in_place(&self, b: &mut [f64], work: &mut Vec<f64>) {
        let n = self.n;
        assert_eq!(b.len(), n);
        work.clear();
        work.extend_from_slice(b);
        let x = &mut work[..];
        // P A = L U gives Aᵀ Pᵀ = Uᵀ Lᵀ: solve Uᵀ z = b, then Lᵀ w = z, then
        // x = Pᵀ w, i.e. x[perm[k]] = w[k].
        // Forward substitution with Uᵀ (lower, with diagonal), by rows of U:
        // x_i collects its terms by ascending j before its own division.
        for j in 0..n {
            let xj = x[j] / self.diag[j];
            x[j] = xj;
            if xj != 0.0 {
                for t in self.u_start[j]..self.u_start[j + 1] {
                    x[self.u_col[t]] -= self.u_val[t] * xj;
                }
            }
        }
        // Back substitution with Lᵀ (unit diagonal), by columns of L.
        for i in (0..n).rev() {
            let mut s = x[i];
            for t in self.l_start[i]..self.l_start[i + 1] {
                s -= self.l_val[t] * x[self.l_row[t]];
            }
            x[i] = s;
        }
        for (k, &p) in self.perm.iter().enumerate() {
            b[p] = x[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(n: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{:?} != {:?}", a, b);
        }
    }

    fn solve(lu: &LuFactors, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x, &mut Vec::new());
        x
    }

    fn solve_t(lu: &LuFactors, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        lu.solve_transpose_in_place(&mut x, &mut Vec::new());
        x
    }

    #[test]
    fn identity_solve() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let lu = LuFactors::factorize(2, a).unwrap();
        assert_close(&solve(&lu, &[3.0, -4.0]), &[3.0, -4.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let lu = LuFactors::factorize(2, a).unwrap();
        assert_close(&solve(&lu, &[5.0, 7.0]), &[7.0, 5.0], 1e-12);
    }

    #[test]
    fn solve_3x3() {
        let a = vec![2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0];
        let lu = LuFactors::factorize(3, a.clone()).unwrap();
        let x_true = vec![1.0, 2.0, 3.0];
        assert_close(&solve(&lu, &mat_vec(3, &a, &x_true)), &x_true, 1e-10);
    }

    #[test]
    fn transpose_solve_3x3() {
        let a = vec![2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0];
        let at: Vec<f64> = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| a[j * 3 + i])
            .collect();
        let lu = LuFactors::factorize(3, a).unwrap();
        let x_true = vec![-1.0, 0.5, 2.0];
        assert_close(&solve_t(&lu, &mat_vec(3, &at, &x_true)), &x_true, 1e-10);
    }

    #[test]
    fn singular_detected() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(LuFactors::factorize(2, a).is_err());
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random matrix; checks A x = b round trip.
        let n = 25;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let a: Vec<f64> = (0..n * n)
            .map(|idx| {
                let v = next();
                // Diagonal dominance to keep it well conditioned.
                if idx % (n + 1) == 0 {
                    v + n as f64
                } else {
                    v
                }
            })
            .collect();
        let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactors::factorize(n, a.clone()).unwrap();
        assert_close(&solve(&lu, &mat_vec(n, &a, &x_true)), &x_true, 1e-8);

        let at: Vec<f64> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| a[j * n + i])
            .collect();
        assert_close(&solve_t(&lu, &mat_vec(n, &at, &x_true)), &x_true, 1e-8);
    }

    #[test]
    fn identity_constructor_matches_factorized_identity() {
        for n in [0, 1, 5] {
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                a[i * n + i] = 1.0;
            }
            let dense = LuFactors::factorize(n, a).unwrap();
            let built = LuFactors::identity(n);
            assert_eq!(built.l_start, dense.l_start);
            assert_eq!(built.u_start, dense.u_start);
            assert!(dense.l_row.is_empty() && dense.u_col.is_empty());
            assert!(built.l_row.is_empty() && built.u_col.is_empty());
            assert_eq!(built.diag, dense.diag);
            assert_eq!(built.perm, dense.perm);
        }
    }

    /// The dense packed-buffer triangular solves the sparse factors replace,
    /// kept as the reference: same elimination, then the textbook `O(n²)`
    /// loops over the packed `L\U` buffer.
    mod dense_reference {
        pub(super) struct DenseLu {
            pub(super) n: usize,
            pub(super) lu: Vec<f64>,
            pub(super) perm: Vec<usize>,
        }

        pub(super) fn factorize(n: usize, a: &[f64]) -> DenseLu {
            let mut lu = a.to_vec();
            let mut perm: Vec<usize> = (0..n).collect();
            for k in 0..n {
                let mut p = k;
                let mut best = lu[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = lu[i * n + k].abs();
                    if v > best {
                        best = v;
                        p = i;
                    }
                }
                assert!(best >= 1e-13, "reference matrix must be nonsingular");
                if p != k {
                    perm.swap(k, p);
                    for j in 0..n {
                        lu.swap(k * n + j, p * n + j);
                    }
                }
                let pivot = lu[k * n + k];
                for i in (k + 1)..n {
                    let mult = lu[i * n + k] / pivot;
                    lu[i * n + k] = mult;
                    if mult != 0.0 {
                        for j in (k + 1)..n {
                            let ukj = lu[k * n + j];
                            lu[i * n + j] -= mult * ukj;
                        }
                    }
                }
            }
            DenseLu { n, lu, perm }
        }

        impl DenseLu {
            pub(super) fn solve_in_place(&self, b: &mut [f64]) {
                let n = self.n;
                let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
                for i in 1..n {
                    let mut s = x[i];
                    let row = &self.lu[i * n..i * n + i];
                    for (j, &l) in row.iter().enumerate() {
                        s -= l * x[j];
                    }
                    x[i] = s;
                }
                for i in (0..n).rev() {
                    let mut s = x[i];
                    let row = &self.lu[i * n..(i + 1) * n];
                    for j in (i + 1)..n {
                        s -= row[j] * x[j];
                    }
                    x[i] = s / row[i];
                }
                b.copy_from_slice(&x);
            }

            pub(super) fn solve_transpose_in_place(&self, b: &mut [f64]) {
                let n = self.n;
                let mut x = b.to_vec();
                for i in 0..n {
                    let mut s = x[i];
                    for j in 0..i {
                        s -= self.lu[j * n + i] * x[j];
                    }
                    x[i] = s / self.lu[i * n + i];
                }
                for i in (0..n).rev() {
                    let mut s = x[i];
                    for j in (i + 1)..n {
                        s -= self.lu[j * n + i] * x[j];
                    }
                    x[i] = s;
                }
                for (k, &p) in self.perm.iter().enumerate() {
                    b[p] = x[k];
                }
            }
        }
    }

    /// xorshift64* — a small deterministic generator for the differential
    /// cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }

        fn chance(&mut self, p: f64) -> bool {
            ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
        }
    }

    /// A random `n × n` matrix of the given family, row-major.
    fn random_matrix(rng: &mut Rng, n: usize, family: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        // A random column order, so unit columns land off the diagonal.
        let mut cols: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            cols.swap(i, rng.below(i + 1));
        }
        match family {
            // Identity.
            0 => (0..n).for_each(|i| a[i * n + i] = 1.0),
            // Permutation matrix.
            1 => (0..n).for_each(|i| a[i * n + cols[i]] = 1.0),
            // Simplex-basis-like: a column-permuted identity of slack and
            // artificial unit columns (some of them surplus, −1) with a
            // random subset replaced by sparse nonnegative structural
            // columns. A structural column keeps a nonzero in its own row
            // and adds entries only in later rows, so the column-permuted
            // matrix is lower triangular and nonsingular; the extra entries
            // can outweigh the diagonal, so pivoting still swaps rows.
            2 => {
                for i in 0..n {
                    let col = cols[i];
                    a[i * n + col] = if rng.chance(0.2) { -1.0 } else { 1.0 };
                    if i + 1 < n && rng.chance(0.4) {
                        a[i * n + col] = 1.0 + 4.0 * rng.unit().abs();
                        for _ in 0..1 + rng.below(4) {
                            let row = i + 1 + rng.below(n - i - 1);
                            a[row * n + col] += (1 + rng.below(8)) as f64;
                        }
                    }
                }
            }
            // Dense, diagonally dominant.
            _ => {
                for (idx, v) in a.iter_mut().enumerate() {
                    *v = rng.unit();
                    if idx % (n + 1) == 0 {
                        *v += n as f64;
                    }
                }
            }
        }
        a
    }

    /// A right-hand side with exact zeros and negative entries.
    fn random_rhs(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.below(4) {
                0 => 0.0,
                1 => -((1 + rng.below(9)) as f64),
                _ => rng.unit() * 100.0,
            })
            .collect()
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
    fn sparse_solves_match_the_dense_reference_bit_for_bit() {
        let mut rng = Rng(0x0dd_b1a5_e5ee_d001);
        let mut work = Vec::new();
        let mut cases = 0;
        for n in [1usize, 2, 3, 7, 16, 40] {
            for family in 0..4 {
                for _ in 0..6 {
                    let a = random_matrix(&mut rng, n, family);
                    let sparse = LuFactors::factorize(n, a.clone()).unwrap();
                    let dense = dense_reference::factorize(n, &a);
                    assert_eq!(sparse.perm, dense.perm);
                    for _ in 0..4 {
                        let b = random_rhs(&mut rng, n);
                        let what = format!("n={n} family={family}");

                        let (mut xs, mut xd) = (b.clone(), b.clone());
                        sparse.solve_in_place(&mut xs, &mut work);
                        dense.solve_in_place(&mut xd);
                        assert_same_bits(&xs, &xd, &format!("{what} A x = b"));

                        let (mut ys, mut yd) = (b.clone(), b.clone());
                        sparse.solve_transpose_in_place(&mut ys, &mut work);
                        dense.solve_transpose_in_place(&mut yd);
                        assert_same_bits(&ys, &yd, &format!("{what} Aᵀ y = b"));
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 4 * 6 * 4);
    }
}
