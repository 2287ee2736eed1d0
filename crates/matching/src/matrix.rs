//! Dense nonnegative integer matrices with the row/column-sum bookkeeping
//! needed by the Birkhoff–von Neumann decomposition.
//!
//! Coflow demand matrices in the paper are `m × m` matrices of nonnegative
//! integers (`d_ij` = data units to move from ingress `i` to egress `j`).
//! The quantities that drive the SPAA'15 algorithms are *row sums* (load on
//! an ingress port), *column sums* (load on an egress port) and their maximum
//! `ρ(D)` (Eq. (18) of the paper).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub, SubAssign};

/// A dense `m × m` matrix of nonnegative integers (`u64` data units).
///
/// Row index = ingress port, column index = egress port. The representation
/// is row-major and deliberately simple: the matrices in this problem are at
/// most a few hundred ports wide, and dense storage keeps the inner loops of
/// the decomposition branch-free and cache-friendly.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMatrix {
    m: usize,
    data: Vec<u64>,
}

impl IntMatrix {
    /// Creates an all-zero `m × m` matrix.
    pub fn zeros(m: usize) -> Self {
        IntMatrix {
            m,
            data: vec![0; m * m],
        }
    }

    /// Creates a matrix from row-major data. Panics if `data.len() != m * m`.
    pub fn from_rows(m: usize, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), m * m, "row-major data must have m*m entries");
        IntMatrix { m, data }
    }

    /// Creates a matrix from a nested array literal, e.g.
    /// `IntMatrix::from_nested(&[[1, 2], [2, 1]])`.
    pub fn from_nested<const N: usize>(rows: &[[u64; N]; N]) -> Self {
        let mut data = Vec::with_capacity(N * N);
        for row in rows {
            data.extend_from_slice(row);
        }
        IntMatrix { m: N, data }
    }

    /// Creates a diagonal matrix with the given diagonal entries.
    ///
    /// Diagonal coflows are exactly the concurrent-open-shop instances of
    /// Appendix A of the paper.
    pub fn diagonal(diag: &[u64]) -> Self {
        let m = diag.len();
        let mut out = Self::zeros(m);
        for (i, &d) in diag.iter().enumerate() {
            out[(i, i)] = d;
        }
        out
    }

    /// Creates an identity-pattern permutation matrix scaled by `q`.
    pub fn scaled_permutation(perm: &Permutation, q: u64) -> Self {
        let mut out = Self::zeros(perm.len());
        for (i, j) in perm.pairs() {
            out[(i, j)] = q;
        }
        out
    }

    /// The dimension `m` (number of ingress = egress ports).
    #[inline]
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Raw row-major entries.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.m..(i + 1) * self.m]
    }

    /// Sum of row `i` (total demand on ingress port `i`).
    pub fn row_sum(&self, i: usize) -> u64 {
        self.row(i).iter().sum()
    }

    /// All row sums.
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.m).map(|i| self.row_sum(i)).collect()
    }

    /// All column sums.
    pub fn col_sums(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.m];
        for i in 0..self.m {
            for (j, s) in sums.iter_mut().enumerate() {
                *s += self[(i, j)];
            }
        }
        sums
    }

    /// Total of all entries (the total work of the coflow).
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Number of nonzero entries — the paper's `M0` width statistic used to
    /// filter sparse coflows in the experiments.
    pub fn nonzero_count(&self) -> usize {
        self.data.iter().filter(|&&d| d > 0).count()
    }

    /// `ρ(D)` from Eq. (18): the maximum over all row sums and column sums.
    ///
    /// This is a universal lower bound on the number of matching slots needed
    /// to clear the coflow alone, and by Lemma 4 it is achievable.
    ///
    /// ```
    /// use coflow_matching::IntMatrix;
    /// let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
    /// assert_eq!(d.load(), 3); // every row and column sums to 3
    /// ```
    pub fn load(&self) -> u64 {
        let row_max = (0..self.m).map(|i| self.row_sum(i)).max().unwrap_or(0);
        let col_max = self.col_sums().into_iter().max().unwrap_or(0);
        row_max.max(col_max)
    }

    /// True if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&d| d == 0)
    }

    /// True if all row sums and all column sums equal `target`.
    pub fn is_doubly_balanced(&self, target: u64) -> bool {
        (0..self.m).all(|i| self.row_sum(i) == target)
            && self.col_sums().into_iter().all(|s| s == target)
    }

    /// Entrywise `self >= other` (used to check that the augmented matrix
    /// dominates the original in BvN Step 1).
    pub fn dominates(&self, other: &IntMatrix) -> bool {
        assert_eq!(self.m, other.m);
        self.data.iter().zip(&other.data).all(|(a, b)| a >= b)
    }

    /// Entrywise saturating subtraction, `max(self - other, 0)`.
    pub fn saturating_sub(&self, other: &IntMatrix) -> IntMatrix {
        assert_eq!(self.m, other.m);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        IntMatrix { m: self.m, data }
    }

    /// Iterator over `(i, j, value)` for the nonzero entries.
    pub fn nonzero_entries(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let m = self.m;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(move |(idx, &v)| (idx / m, idx % m, v))
    }
}

impl Index<(usize, usize)> for IntMatrix {
    type Output = u64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &u64 {
        &self.data[i * self.m + j]
    }
}

impl IndexMut<(usize, usize)> for IntMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut u64 {
        &mut self.data[i * self.m + j]
    }
}

impl Add for &IntMatrix {
    type Output = IntMatrix;
    fn add(self, rhs: &IntMatrix) -> IntMatrix {
        assert_eq!(self.m, rhs.m, "matrix dimensions must agree");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        IntMatrix { m: self.m, data }
    }
}

impl AddAssign<&IntMatrix> for IntMatrix {
    fn add_assign(&mut self, rhs: &IntMatrix) {
        assert_eq!(self.m, rhs.m, "matrix dimensions must agree");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl Sub for &IntMatrix {
    type Output = IntMatrix;
    fn sub(self, rhs: &IntMatrix) -> IntMatrix {
        assert_eq!(self.m, rhs.m, "matrix dimensions must agree");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        IntMatrix { m: self.m, data }
    }
}

impl SubAssign<&IntMatrix> for IntMatrix {
    fn sub_assign(&mut self, rhs: &IntMatrix) {
        assert_eq!(self.m, rhs.m, "matrix dimensions must agree");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMatrix {}x{} [", self.m, self.m)?;
        for i in 0..self.m {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

/// A permutation of `{0, …, m-1}` interpreted as a perfect matching between
/// ingress ports (positions) and egress ports (values).
///
/// `perm[i] = j` means ingress `i` is matched to egress `j` in this slot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// Builds a permutation from the ingress→egress map, checking that it is
    /// a bijection.
    pub fn new(map: Vec<usize>) -> Self {
        let m = map.len();
        let mut seen = vec![false; m];
        for &j in &map {
            assert!(j < m, "permutation image out of range");
            assert!(!seen[j], "permutation image repeated: not a bijection");
            seen[j] = true;
        }
        Permutation { map }
    }

    /// The identity permutation on `m` elements.
    pub fn identity(m: usize) -> Self {
        Permutation {
            map: (0..m).collect(),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the permutation is on zero elements.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The egress port matched to ingress `i`.
    #[inline]
    pub fn image(&self, i: usize) -> usize {
        self.map[i]
    }

    /// Iterator over matched `(ingress, egress)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.map.iter().copied().enumerate()
    }

    /// The underlying map slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matrix_loads() {
        // Figure 1 of the paper: D = [[1,2],[2,1]] has all row/col sums 3.
        let d = IntMatrix::from_nested(&[[1, 2], [2, 1]]);
        assert_eq!(d.load(), 3);
        assert_eq!(d.total(), 6);
        assert_eq!(d.nonzero_count(), 4);
        assert!(d.is_doubly_balanced(3));
    }

    #[test]
    fn row_col_sums() {
        let d = IntMatrix::from_nested(&[[9, 0, 9], [0, 9, 0], [9, 0, 9]]);
        assert_eq!(d.row_sums(), vec![18, 9, 18]);
        assert_eq!(d.col_sums(), vec![18, 9, 18]);
        assert_eq!(d.load(), 18);
        assert!(!d.is_doubly_balanced(18));
    }

    #[test]
    fn diagonal_builder() {
        let d = IntMatrix::diagonal(&[3, 1, 4]);
        assert_eq!(d[(0, 0)], 3);
        assert_eq!(d[(2, 2)], 4);
        assert_eq!(d[(0, 1)], 0);
        assert_eq!(d.load(), 4);
    }

    #[test]
    fn arithmetic_and_domination() {
        let a = IntMatrix::from_nested(&[[1, 2], [3, 4]]);
        let b = IntMatrix::from_nested(&[[1, 1], [1, 1]]);
        let sum = &a + &b;
        assert_eq!(sum[(1, 1)], 5);
        assert!(sum.dominates(&a));
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let sat = b.saturating_sub(&a);
        assert_eq!(sat[(0, 0)], 0);
        assert_eq!(sat[(0, 1)], 0);
    }

    #[test]
    fn permutation_checks_bijection() {
        let p = Permutation::new(vec![1, 0, 2]);
        assert_eq!(p.image(0), 1);
        let m = IntMatrix::scaled_permutation(&p, 5);
        assert_eq!(m[(0, 1)], 5);
        assert_eq!(m[(1, 0)], 5);
        assert_eq!(m[(2, 2)], 5);
        assert_eq!(m.total(), 15);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn permutation_rejects_repeats() {
        let _ = Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn nonzero_entries_iterates_in_row_major_order() {
        let d = IntMatrix::from_nested(&[[0, 2], [3, 0]]);
        let entries: Vec<_> = d.nonzero_entries().collect();
        assert_eq!(entries, vec![(0, 1, 2), (1, 0, 3)]);
    }
}
