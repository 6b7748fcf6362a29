//! Dense row-major matrices over `f64`.

use crate::{LinalgError, Lu, Result, Vector};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// The value the dot products of [`Matrix::matvec`] start summing from:
/// `-0.0`, the start value of std's `Iterator::sum` for `f64`.  It is the
/// additive identity for every `f64` (`-0.0 + 0.0` is `+0.0`), so a sum
/// of products that are all `-0.0` stays `-0.0`; starting from `+0.0`
/// would flip that sign.  Kernels that must agree bit for bit with
/// [`Matrix::matvec`] start here too.
pub const DOT_START: f64 = -0.0;

/// Number of rows [`Matrix::matvec_into`] advances together, one
/// independent accumulator each.
const ROW_BLOCK: usize = 8;

/// A dense, row-major matrix of `f64` entries.
///
/// # Examples
///
/// ```
/// use vrl_linalg::{Matrix, Vector};
///
/// let a = Matrix::identity(2);
/// let v = Vector::from_slice(&[1.0, 2.0]);
/// assert_eq!(a.matvec(&v).as_slice(), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an all-zero matrix of shape `rows x cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a `rows x cols` matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns true when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows a row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies a column into a new [`Vector`].
    pub fn column(&self, j: usize) -> Vector {
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A v`.
    ///
    /// Runs [`Matrix::matvec_into`], so both produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        // Not `vec![0.0; rows]`: its zeroed allocation (calloc) costs more
        // than the whole product on 2x2 to 4x4 matrices.
        let mut out = Vec::with_capacity(self.rows);
        out.resize(self.rows, 0.0);
        self.matvec_into(v.as_slice(), &mut out);
        Vector::from_vec(out)
    }

    /// Matrix-vector product `A v` written into a caller-provided slice,
    /// allocation-free.
    ///
    /// Rows go eight at a time: one accumulator per row,
    /// each advanced once per input element, so the rows' add chains run
    /// side by side instead of one after another.  The remaining rows run
    /// one at a time.  Either way row `i` sums `a[i][k] * v[k]` in `k`
    /// order starting from [`DOT_START`], exactly as
    /// `row.iter().zip(v).map(|(a, b)| a * b).sum::<f64>()` does, so the
    /// result does not depend on where a row falls in a block.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output length mismatch");
        let cols = self.cols;
        let blocked = self.rows - self.rows % ROW_BLOCK;
        for (block, outs) in out[..blocked].chunks_exact_mut(ROW_BLOCK).enumerate() {
            let base = block * ROW_BLOCK * cols;
            let rows: [&[f64]; ROW_BLOCK] =
                std::array::from_fn(|r| &self.data[base + r * cols..base + (r + 1) * cols]);
            let mut acc = [DOT_START; ROW_BLOCK];
            for (k, &x) in v.iter().enumerate() {
                for r in 0..ROW_BLOCK {
                    acc[r] += rows[r][k] * x;
                }
            }
            outs.copy_from_slice(&acc);
        }
        for (i, slot) in out.iter_mut().enumerate().skip(blocked) {
            *slot = self
                .row(i)
                .iter()
                .zip(v)
                .fold(DOT_START, |acc, (a, b)| acc + a * b);
        }
    }

    /// Vector-matrix product `vᵀ A`, returned as a vector of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &Vector) -> Vector {
        assert_eq!(v.len(), self.rows, "vecmat dimension mismatch");
        Vector::from_fn(self.cols, |j| {
            (0..self.rows).map(|i| v[i] * self[(i, j)]).sum()
        })
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Entry-wise scaling by `k`.
    pub fn scaled(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += k * other` (entry-wise).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, k: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Returns true when `|self[(i,j)] - self[(j,i)]| <= tol` for all entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes the matrix: `(A + Aᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrized(&self) -> Matrix {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            0.5 * (self[(i, j)] + self[(j, i)])
        })
    }

    /// Solves `A x = b` using LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square `A`,
    /// [`LinalgError::DimensionMismatch`] when `b` has the wrong length, and
    /// [`LinalgError::Singular`] when `A` is (numerically) singular.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        Lu::new(self)?.solve(b)
    }

    /// Computes the inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Matrix::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        Lu::new(self)?.inverse()
    }

    /// Determinant via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn determinant(&self) -> Result<f64> {
        match Lu::new(self) {
            Ok(lu) => Ok(lu.determinant()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Quadratic form `xᵀ A x`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `x` has the wrong length.
    pub fn quadratic_form(&self, x: &Vector) -> f64 {
        assert!(self.is_square(), "quadratic form requires a square matrix");
        x.dot(&self.matvec(x))
    }

    /// Returns `Aᵀ A`.
    pub fn gram(&self) -> Matrix {
        self.transpose()
            .matmul(self)
            .expect("gram dimensions always agree")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "matrix index out of range");
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix product dimension mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, k: f64) -> Matrix {
        self.scaled(k)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1).as_slice(), &[2.0, 4.0]);
        assert!(m.is_square());
        assert_eq!(Matrix::identity(3).trace(), 3.0);
        assert_eq!(
            Matrix::from_diagonal(&[2.0, 5.0]).determinant().unwrap(),
            10.0
        );
        let f = Matrix::from_row_major(2, 3, vec![0.0; 6]);
        assert_eq!(f.shape(), (2, 3));
        assert!(!f.is_square());
    }

    #[test]
    fn matvec_and_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(a.matvec(&v).as_slice(), &[3.0, 7.0]);
        let mut out = [0.0; 2];
        a.matvec_into(v.as_slice(), &mut out);
        assert_eq!(out, [3.0, 7.0]);
        assert_eq!(a.vecmat(&v).as_slice(), &[4.0, 6.0]);
        let b = Matrix::identity(2);
        assert_eq!(a.matmul(&b).unwrap(), a);
        let c = &a * &a;
        assert_eq!(c[(0, 0)], 7.0);
        assert_eq!(c[(1, 1)], 22.0);
        assert!(matches!(
            a.matmul(&Matrix::zeros(3, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_symmetry_and_norms() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let at = a.transpose();
        assert_eq!(at[(0, 1)], 3.0);
        assert!(!a.is_symmetric(1e-12));
        assert!(a.symmetrized().is_symmetric(1e-12));
        assert!(approx(a.frobenius_norm(), 30.0_f64.sqrt()));
        assert_eq!(a.norm_inf(), 4.0);
        assert_eq!(a.gram(), at.matmul(&a).unwrap());
    }

    #[test]
    fn solve_and_inverse() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!(a.matvec(&x).distance(&b) < 1e-10);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!((&prod - &Matrix::identity(3)).frobenius_norm() < 1e-10);
        let singular = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            singular.solve(&Vector::zeros(2)),
            Err(LinalgError::Singular)
        ));
        assert_eq!(singular.determinant().unwrap(), 0.0);
    }

    #[test]
    fn quadratic_form_and_helpers() {
        let q = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
        let x = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(q.quadratic_form(&x), 14.0);
        let mut m = Matrix::zeros(2, 2);
        m.axpy(2.0, &Matrix::identity(2));
        assert_eq!(m.trace(), 4.0);
        assert_eq!(m.map(|x| x + 1.0)[(0, 1)], 1.0);
        assert_eq!((&m * 0.5)[(0, 0)], 1.0);
        let s = format!("{}", Matrix::identity(1));
        assert!(s.contains("1.000000"));
    }

    #[test]
    fn blocked_matvec_matches_the_iterator_sum_bitwise() {
        // A small LCG keeps the draws deterministic: the top two bits
        // make one draw in four `+0.0` and one `-0.0`, the others take
        // the bits below them as a value in [-2, 2).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match state >> 62 {
                0 => 0.0,
                1 => -0.0,
                _ => (((state << 2) >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0,
            }
        };
        for rows in 1..=17 {
            for cols in 1..=9 {
                for _ in 0..8 {
                    let a = Matrix::from_fn(rows, cols, |_, _| draw());
                    let v = Vector::from_fn(cols, |_| draw());
                    let mut out = vec![f64::NAN; rows];
                    a.matvec_into(v.as_slice(), &mut out);
                    let product = a.matvec(&v);
                    for i in 0..rows {
                        let reference: f64 =
                            a.row(i).iter().zip(v.iter()).map(|(x, y)| x * y).sum();
                        assert_eq!(
                            out[i].to_bits(),
                            reference.to_bits(),
                            "{rows}x{cols} row {i}"
                        );
                        assert_eq!(
                            product[i].to_bits(),
                            out[i].to_bits(),
                            "{rows}x{cols} row {i}"
                        );
                    }
                }
            }
        }
        // Rows that are all `+0.0` times a negative vector sum to `-0.0`.
        let a = Matrix::zeros(9, 2);
        let out = a.matvec(&Vector::from_slice(&[-1.0, -2.0]));
        assert!(out.iter().all(|x| x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_panics_on_mismatch() {
        let _ = Matrix::identity(2).matvec(&Vector::zeros(3));
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(entries in proptest::collection::vec(-1e3..1e3f64, 9)) {
            let m = Matrix::from_row_major(3, 3, entries);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_identity_is_neutral(entries in proptest::collection::vec(-1e3..1e3f64, 9)) {
            let m = Matrix::from_row_major(3, 3, entries);
            let i = Matrix::identity(3);
            prop_assert!((&m.matmul(&i).unwrap() - &m).frobenius_norm() < 1e-9);
            prop_assert!((&i.matmul(&m).unwrap() - &m).frobenius_norm() < 1e-9);
        }

        #[test]
        fn prop_matmul_associativity(a in proptest::collection::vec(-10.0..10.0f64, 4),
                                      b in proptest::collection::vec(-10.0..10.0f64, 4),
                                      c in proptest::collection::vec(-10.0..10.0f64, 4)) {
            let ma = Matrix::from_row_major(2, 2, a);
            let mb = Matrix::from_row_major(2, 2, b);
            let mc = Matrix::from_row_major(2, 2, c);
            let left = ma.matmul(&mb).unwrap().matmul(&mc).unwrap();
            let right = ma.matmul(&mb.matmul(&mc).unwrap()).unwrap();
            prop_assert!((&left - &right).frobenius_norm() < 1e-6);
        }

        #[test]
        fn prop_solve_recovers_solution(entries in proptest::collection::vec(-5.0..5.0f64, 9),
                                         xs in proptest::collection::vec(-5.0..5.0f64, 3)) {
            // Make the system well conditioned by diagonal dominance.
            let mut m = Matrix::from_row_major(3, 3, entries);
            for i in 0..3 { m[(i, i)] += 20.0; }
            let x = Vector::from_slice(&xs);
            let b = m.matvec(&x);
            let solved = m.solve(&b).unwrap();
            prop_assert!(solved.distance(&x) < 1e-6);
        }
    }
}
