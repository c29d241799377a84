//! Dense matrices over GF(2) and Gaussian-elimination based solvers.

use crate::{BitVec, Gf2Error};
use std::fmt;

/// A dense matrix over GF(2), stored as a vector of packed [`BitVec`] rows.
///
/// The matrix type is the workhorse of the PropHunt suite: parity-check matrices,
/// logical-observable matrices, circuit-level detector matrices and their submatrices
/// are all `BitMatrix` values. All mutating linear algebra (elimination, rank, solving)
/// operates on copies so the original matrices remain usable.
///
/// # Example
///
/// ```
/// use prophunt_gf2::BitMatrix;
///
/// let m = BitMatrix::from_rows_u8(&[&[1, 1, 0], &[0, 1, 1]]);
/// assert_eq!(m.rank(), 2);
/// // [1, 0, 1] = row0 + row1 is in the row space; [1, 0, 0] is not.
/// assert!(m.row_space_contains(&prophunt_gf2::BitVec::from_u8(&[1, 0, 1])));
/// assert!(!m.row_space_contains(&prophunt_gf2::BitVec::from_u8(&[1, 0, 0])));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(cols); rows],
            cols,
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from rows of `0`/`1` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows_u8(rows: &[&[u8]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let rows: Vec<BitVec> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.len(), cols, "all rows must have the same length");
                BitVec::from_u8(r)
            })
            .collect();
        BitMatrix { rows, cols }
    }

    /// Builds a matrix from owned [`BitVec`] rows.
    ///
    /// `cols` must be supplied explicitly so that a matrix with zero rows still knows its
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `cols`.
    pub fn from_rows(rows: Vec<BitVec>, cols: usize) -> Self {
        for r in &rows {
            assert_eq!(r.len(), cols, "row length must equal cols");
        }
        BitMatrix { rows, cols }
    }

    /// Returns the number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Returns the number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no rows or no columns.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() || self.cols == 0
    }

    /// Returns the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.rows[r].get(c)
    }

    /// Sets the entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.rows[r].set(c, value);
    }

    /// Returns a reference to row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.rows[r]
    }

    /// Returns an iterator over the rows.
    pub fn rows_iter(&self) -> impl Iterator<Item = &BitVec> {
        self.rows.iter()
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the number of columns.
    pub fn push_row(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.cols, "row length must equal cols");
        self.rows.push(row);
    }

    /// Returns column `c` as a [`BitVec`] of length `num_rows`.
    pub fn column(&self, c: usize) -> BitVec {
        let mut v = BitVec::zeros(self.num_rows());
        for (i, row) in self.rows.iter().enumerate() {
            if row.get(c) {
                v.set(i, true);
            }
        }
        v
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.num_rows());
        for (i, row) in self.rows.iter().enumerate() {
            for j in row.ones() {
                t.set(j, i, true);
            }
        }
        t
    }

    /// Horizontally concatenates `self` and `other` (`[self | other]`).
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &BitMatrix) -> Result<BitMatrix, Gf2Error> {
        if self.num_rows() != other.num_rows() {
            return Err(Gf2Error::DimensionMismatch {
                left: self.num_rows(),
                right: other.num_rows(),
            });
        }
        let rows = self
            .rows
            .iter()
            .zip(other.rows.iter())
            .map(|(a, b)| a.concat(b))
            .collect();
        Ok(BitMatrix {
            rows,
            cols: self.cols + other.cols,
        })
    }

    /// Vertically concatenates `self` and `other` (`[self; other]`).
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &BitMatrix) -> Result<BitMatrix, Gf2Error> {
        if self.cols != other.cols {
            return Err(Gf2Error::DimensionMismatch {
                left: self.cols,
                right: other.cols,
            });
        }
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(BitMatrix {
            rows,
            cols: self.cols,
        })
    }

    /// Returns the submatrix given by the listed rows and columns (in the given order).
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> BitMatrix {
        let rows = row_idx
            .iter()
            .map(|&r| self.rows[r].select(col_idx))
            .collect();
        BitMatrix {
            rows,
            cols: col_idx.len(),
        }
    }

    /// Returns the submatrix keeping all rows but only the listed columns.
    pub fn select_columns(&self, col_idx: &[usize]) -> BitMatrix {
        let rows = self.rows.iter().map(|r| r.select(col_idx)).collect();
        BitMatrix {
            rows,
            cols: col_idx.len(),
        }
    }

    /// Returns the matrix–vector product `self * v` over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.num_cols()`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        let mut out = BitVec::zeros(self.num_rows());
        for (i, row) in self.rows.iter().enumerate() {
            if row.dot(v) {
                out.set(i, true);
            }
        }
        out
    }

    /// Returns the matrix product `self * other` over GF(2).
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::DimensionMismatch`] if `self.num_cols() != other.num_rows()`.
    pub fn mul(&self, other: &BitMatrix) -> Result<BitMatrix, Gf2Error> {
        if self.cols != other.num_rows() {
            return Err(Gf2Error::DimensionMismatch {
                left: self.cols,
                right: other.num_rows(),
            });
        }
        let mut out = BitMatrix::zeros(self.num_rows(), other.num_cols());
        for (i, row) in self.rows.iter().enumerate() {
            for k in row.ones() {
                out.rows[i].xor_assign_with(&other.rows[k]);
            }
        }
        Ok(out)
    }

    /// Returns `true` if every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.rows.iter().all(BitVec::is_zero)
    }

    /// Computes the row-echelon form together with pivot-column bookkeeping.
    ///
    /// The result retains the full reduced rows (reduced row-echelon form) so it can be
    /// reused for rank queries, row-space membership tests and solving.
    pub fn row_echelon(&self) -> RowEchelon {
        let mut rows = self.rows.clone();
        let mut pivot_cols = Vec::new();
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            // Find a row at or below `pivot_row` with a one in this column.
            let Some(found) = (pivot_row..rows.len()).find(|&r| rows[r].get(col)) else {
                continue;
            };
            rows.swap(pivot_row, found);
            let pivot = rows[pivot_row].clone();
            for (r, row) in rows.iter_mut().enumerate() {
                if r != pivot_row && row.get(col) {
                    row.xor_assign_with(&pivot);
                }
            }
            pivot_cols.push(col);
            pivot_row += 1;
            if pivot_row == rows.len() {
                break;
            }
        }
        RowEchelon {
            rows,
            cols: self.cols,
            pivot_cols,
        }
    }

    /// Returns the rank of the matrix.
    pub fn rank(&self) -> usize {
        self.row_echelon().rank()
    }

    /// Returns `true` if `v` lies in the row space of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.num_cols()`.
    pub fn row_space_contains(&self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.cols, "row_space_contains length mismatch");
        self.row_echelon().reduces_to_zero(v)
    }

    /// Returns `true` if every row of `other` lies in the row space of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn row_space_contains_all(&self, other: &BitMatrix) -> bool {
        assert_eq!(self.cols, other.cols, "column count mismatch");
        let ech = self.row_echelon();
        other.rows_iter().all(|r| ech.reduces_to_zero(r))
    }

    /// Returns a basis of the kernel (null space) `{x : self * x = 0}` as matrix rows.
    pub fn kernel_basis(&self) -> BitMatrix {
        let ech = self.row_echelon();
        let pivot_set: std::collections::HashSet<usize> = ech.pivot_cols.iter().copied().collect();
        let free_cols: Vec<usize> = (0..self.cols).filter(|c| !pivot_set.contains(c)).collect();
        let mut basis_rows = Vec::with_capacity(free_cols.len());
        for &free in &free_cols {
            let mut x = BitVec::zeros(self.cols);
            x.set(free, true);
            // Back-substitute: pivot variable value = entry of the reduced row at `free`.
            for (pi, &pcol) in ech.pivot_cols.iter().enumerate() {
                if ech.rows[pi].get(free) {
                    x.set(pcol, true);
                }
            }
            basis_rows.push(x);
        }
        BitMatrix {
            rows: basis_rows,
            cols: self.cols,
        }
    }

    /// Solves `self * x = b`, returning one solution if any exists.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.num_rows()`.
    pub fn solve(&self, b: &BitVec) -> Option<BitVec> {
        assert_eq!(b.len(), self.num_rows(), "solve dimension mismatch");
        // Eliminate on the augmented matrix [self | b].
        let mut rows: Vec<(BitVec, bool)> = self
            .rows
            .iter()
            .cloned()
            .zip((0..self.num_rows()).map(|i| b.get(i)))
            .collect();
        let mut pivots: Vec<(usize, usize)> = Vec::new(); // (row, col)
        let mut pivot_row = 0usize;
        for col in 0..self.cols {
            let Some(found) = (pivot_row..rows.len()).find(|&r| rows[r].0.get(col)) else {
                continue;
            };
            rows.swap(pivot_row, found);
            let (pivot_vec, pivot_b) = rows[pivot_row].clone();
            for (r, (row, rb)) in rows.iter_mut().enumerate() {
                if r != pivot_row && row.get(col) {
                    row.xor_assign_with(&pivot_vec);
                    *rb ^= pivot_b;
                }
            }
            pivots.push((pivot_row, col));
            pivot_row += 1;
            if pivot_row == rows.len() {
                break;
            }
        }
        // Inconsistent if any zero row has a nonzero right-hand side.
        for (row, rb) in rows.iter().skip(pivot_row) {
            if *rb && row.is_zero() {
                return None;
            }
        }
        let mut x = BitVec::zeros(self.cols);
        for &(r, c) in &pivots {
            if rows[r].1 {
                x.set(c, true);
            }
        }
        // Verify (cheap) to guard against inconsistent systems whose contradiction row
        // still has stray entries beyond the processed columns.
        if &self.mul_vec(&x) == b {
            Some(x)
        } else {
            None
        }
    }

    /// Returns a matrix whose rows are a basis of the row space of `self`.
    pub fn row_basis(&self) -> BitMatrix {
        let ech = self.row_echelon();
        let rank = ech.rank();
        BitMatrix {
            rows: ech.rows[..rank].to_vec(),
            cols: self.cols,
        }
    }

    /// Returns the density of ones (for diagnostics).
    pub fn density(&self) -> f64 {
        if self.num_rows() == 0 || self.cols == 0 {
            return 0.0;
        }
        let ones: usize = self.rows.iter().map(BitVec::weight).sum();
        ones as f64 / (self.num_rows() * self.cols) as f64
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.num_rows(), self.cols)?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        write!(f, "]")
    }
}

/// The result of Gaussian elimination on a [`BitMatrix`].
///
/// Produced by [`BitMatrix::row_echelon`]; caches the reduced rows and pivot columns so
/// that repeated row-space membership queries against the same matrix are cheap.
#[derive(Clone, Debug)]
pub struct RowEchelon {
    rows: Vec<BitVec>,
    cols: usize,
    pivot_cols: Vec<usize>,
}

impl RowEchelon {
    /// Returns the rank (number of pivots).
    pub fn rank(&self) -> usize {
        self.pivot_cols.len()
    }

    /// Returns the number of columns of the original matrix.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if `v` reduces to zero against the echelon rows, i.e. if `v` lies
    /// in the row space of the original matrix.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the matrix's column count.
    pub fn reduces_to_zero(&self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.cols, "length mismatch");
        let mut w = v.clone();
        for (pi, &pcol) in self.pivot_cols.iter().enumerate() {
            if w.get(pcol) {
                w.xor_assign_with(&self.rows[pi]);
            }
        }
        w.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn identity_has_full_rank() {
        let m = BitMatrix::identity(17);
        assert_eq!(m.rank(), 17);
        assert!(m.kernel_basis().num_rows() == 0);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = BitMatrix::from_rows_u8(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        // row2 = row0 + row1
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = BitMatrix::from_rows_u8(&[&[1, 0, 1, 1], &[0, 1, 0, 0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().num_rows(), 4);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = BitMatrix::from_rows_u8(&[&[1, 1, 0], &[0, 1, 1]]);
        let v = BitVec::from_u8(&[1, 1, 1]);
        let out = m.mul_vec(&v);
        assert_eq!(out.to_u8_vec(), vec![0, 0]);
        let v2 = BitVec::from_u8(&[1, 0, 0]);
        assert_eq!(m.mul_vec(&v2).to_u8_vec(), vec![1, 0]);
    }

    #[test]
    fn matmul_against_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = random_matrix(&mut rng, 8, 13, 0.4);
        let id = BitMatrix::identity(13);
        assert_eq!(m.mul(&id).unwrap(), m);
        let idl = BitMatrix::identity(8);
        assert_eq!(idl.mul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_dimension_mismatch_is_error() {
        let a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(Gf2Error::DimensionMismatch { .. })));
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = BitMatrix::from_rows_u8(&[&[1, 0], &[0, 1]]);
        let b = BitMatrix::from_rows_u8(&[&[1, 1], &[1, 1]]);
        let h = a.hstack(&b).unwrap();
        assert_eq!((h.num_rows(), h.num_cols()), (2, 4));
        assert!(h.get(0, 2) && h.get(0, 3));
        let v = a.vstack(&b).unwrap();
        assert_eq!((v.num_rows(), v.num_cols()), (4, 2));
        assert!(a.vstack(&BitMatrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&BitMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn kernel_vectors_are_annihilated() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let m = random_matrix(&mut rng, 6, 12, 0.35);
            let k = m.kernel_basis();
            assert_eq!(k.num_rows(), 12 - m.rank());
            for row in k.rows_iter() {
                assert!(m.mul_vec(row).is_zero());
            }
            // Kernel basis itself has full rank.
            assert_eq!(k.rank(), k.num_rows());
        }
    }

    #[test]
    fn solve_finds_solutions_and_detects_inconsistency() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut solved = 0;
        let mut unsolved = 0;
        for _ in 0..50 {
            let m = random_matrix(&mut rng, 7, 9, 0.4);
            let mut b = BitVec::zeros(7);
            for i in 0..7 {
                if rng.gen_bool(0.5) {
                    b.set(i, true);
                }
            }
            match m.solve(&b) {
                Some(x) => {
                    assert_eq!(m.mul_vec(&x), b);
                    solved += 1;
                }
                None => {
                    // Verify inconsistency: b must not be in the column space.
                    let aug = m
                        .hstack(&BitMatrix::from_rows(
                            b.to_u8_vec()
                                .iter()
                                .map(|&v| BitVec::from_u8(&[v]))
                                .collect(),
                            1,
                        ))
                        .unwrap();
                    assert!(aug.rank() > m.rank());
                    unsolved += 1;
                }
            }
        }
        assert!(solved > 0);
        assert!(unsolved > 0, "expected at least one inconsistent system");
    }

    #[test]
    fn row_space_membership() {
        let m = BitMatrix::from_rows_u8(&[&[1, 1, 0, 0], &[0, 0, 1, 1]]);
        assert!(m.row_space_contains(&BitVec::from_u8(&[1, 1, 1, 1])));
        assert!(!m.row_space_contains(&BitVec::from_u8(&[1, 0, 0, 0])));
        assert!(m.row_space_contains(&BitVec::zeros(4)));
        let sub = BitMatrix::from_rows_u8(&[&[1, 1, 1, 1]]);
        assert!(m.row_space_contains_all(&sub));
        let not_sub = BitMatrix::from_rows_u8(&[&[1, 1, 1, 1], &[0, 1, 0, 0]]);
        assert!(!m.row_space_contains_all(&not_sub));
    }

    #[test]
    fn row_basis_spans_same_space() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = random_matrix(&mut rng, 10, 8, 0.4);
        let basis = m.row_basis();
        assert_eq!(basis.num_rows(), m.rank());
        assert!(m.row_space_contains_all(&basis));
        assert!(basis.row_space_contains_all(&m));
    }

    #[test]
    fn submatrix_and_columns() {
        let m = BitMatrix::from_rows_u8(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 0]]);
        let s = m.submatrix(&[0, 2], &[0, 2]);
        assert_eq!(s, BitMatrix::from_rows_u8(&[&[1, 1], &[1, 0]]));
        assert_eq!(m.column(2).ones().collect::<Vec<_>>(), vec![0, 1]);
        let sc = m.select_columns(&[1]);
        assert_eq!(sc.num_cols(), 1);
        assert_eq!(sc.column(0).ones().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = BitMatrix::zeros(1, 2);
        assert!(format!("{m:?}").contains("BitMatrix 1x2"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_rank_bounded(seed in any::<u64>(), rows in 1usize..12, cols in 1usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_matrix(&mut rng, rows, cols, 0.4);
            let r = m.rank();
            prop_assert!(r <= rows.min(cols));
            prop_assert_eq!(r, m.transpose().rank());
        }

        #[test]
        fn prop_rank_nullity(seed in any::<u64>(), rows in 1usize..12, cols in 1usize..14) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_matrix(&mut rng, rows, cols, 0.45);
            prop_assert_eq!(m.rank() + m.kernel_basis().num_rows(), cols);
        }

        #[test]
        fn prop_linear_combinations_in_rowspace(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_matrix(&mut rng, 6, 10, 0.4);
            // Random combination of rows must be in the row space.
            let mut v = BitVec::zeros(10);
            for row in m.rows_iter() {
                if rng.gen_bool(0.5) {
                    v.xor_assign_with(row);
                }
            }
            prop_assert!(m.row_space_contains(&v));
        }
    }
}
