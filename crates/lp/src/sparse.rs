//! Compressed sparse column (CSC) matrices for the simplex engine.
//!
//! The revised simplex method only ever needs *columns* of the constraint
//! matrix (entering-column FTRANs, reduced-cost dot products), so CSC is the
//! natural storage. Construction goes through [`TripletBuilder`] which
//! accepts entries in any order and consolidates duplicates.

// Index-based loops are deliberate in these numeric kernels: they mirror
// the textbook algorithms and keep row/column index arithmetic explicit.
#![allow(clippy::needless_range_loop)]

/// Builder that accumulates `(row, col, value)` triplets.
#[derive(Clone, Debug, Default)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for an `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`. Duplicate coordinates are summed when
    /// the matrix is finalized. Zero values are ignored.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {} out of range {}", row, self.rows);
        assert!(col < self.cols, "col {} out of range {}", col, self.cols);
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Number of triplets pushed so far (before duplicate consolidation).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into CSC form, sorting and summing duplicates.
    pub fn build(mut self) -> CscMatrix {
        self.entries.sort_unstable_by_key(|a| (a.1, a.0));
        let mut col_ptr = vec![0usize; self.cols + 1];
        let mut row_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        let mut iter = self.entries.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if v != 0.0 {
                row_idx.push(r);
                values.push(v);
                col_ptr[c + 1] += 1;
            }
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

/// An immutable CSC sparse matrix.
#[derive(Clone, Debug)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        TripletBuilder::new(rows, cols).build()
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The nonzeros of column `j` as parallel `(row_indices, values)` slices.
    #[inline]
    pub fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn column_dot(&self, j: usize, v: &[f64]) -> f64 {
        let (idx, vals) = self.column(j);
        idx.iter().zip(vals).map(|(&i, &a)| a * v[i]).sum()
    }

    /// Scatters column `j` into a dense vector: `out[i] += scale * a_ij`.
    #[inline]
    pub fn scatter_column(&self, j: usize, scale: f64, out: &mut [f64]) {
        let (idx, vals) = self.column(j);
        for (&i, &a) in idx.iter().zip(vals) {
            out[i] += scale * a;
        }
    }

    /// Dense `y = A x` (used in verification, not in the simplex hot path).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            if x[j] != 0.0 {
                self.scatter_column(j, x[j], &mut y);
            }
        }
        y
    }

    /// Dense `y = Aᵀ x` (row-space products for dual checks).
    pub fn mul_transpose_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows);
        (0..self.cols).map(|j| self.column_dot(j, x)).collect()
    }

    /// Value at `(i, j)` (binary search within the column).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (idx, vals) = self.column(j);
        match idx.binary_search(&i) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut b = TripletBuilder::new(3, 2);
        b.push(0, 0, 1.0);
        b.push(2, 0, 2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.5);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn duplicates_cancelling_to_zero_are_dropped() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, -1.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn mat_vec_products() {
        // A = [[1, 2], [0, 3]]
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 2.0);
        b.push(1, 1, 3.0);
        let m = b.build();
        assert_eq!(m.mul_dense(&[1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.mul_transpose_dense(&[1.0, 1.0]), vec![1.0, 5.0]);
    }

    #[test]
    fn column_views() {
        let mut b = TripletBuilder::new(4, 3);
        b.push(3, 1, 4.0);
        b.push(0, 1, 1.0);
        let m = b.build();
        let (idx, vals) = m.column(1);
        assert_eq!(idx, &[0, 3]);
        assert_eq!(vals, &[1.0, 4.0]);
        let (idx0, _) = m.column(0);
        assert!(idx0.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(5, 0, 1.0);
    }
}
