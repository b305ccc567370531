//! Dense complex matrices.
//!
//! [`CMatrix`] is a row-major dense matrix of [`Complex64`] sized for the
//! small linear-algebra problems in this workspace (antenna covariance
//! matrices are 3×3; spatial smoothing uses 2×2 subarrays). It provides the
//! products, Hermitian transpose and norms required by the MUSIC estimator.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::complex::Complex64;

/// A dense, row-major complex matrix.
///
/// ```
/// use mpdf_rfmath::matrix::CMatrix;
/// use mpdf_rfmath::complex::Complex64;
///
/// let eye = CMatrix::identity(3);
/// let a = CMatrix::from_fn(3, 3, |r, c| Complex64::new((r + c) as f64, 0.0));
/// assert_eq!(&eye * &a, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut m = CMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Extracts the principal submatrix selecting `idx` rows and the same
    /// columns — the spatial covariance of a reduced antenna subset.
    ///
    /// # Panics
    /// Panics if `idx` is empty or any index is out of range.
    pub fn principal_submatrix(&self, idx: &[usize]) -> Self {
        assert!(!idx.is_empty(), "cannot select an empty submatrix");
        for &i in idx {
            assert!(
                i < self.rows && i < self.cols,
                "submatrix index {i} out of range for {}x{}",
                self.rows,
                self.cols
            );
        }
        CMatrix::from_fn(idx.len(), idx.len(), |r, c| self[(idx[r], idx[c])])
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex64]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a column vector (`n × 1`) from a slice.
    pub fn col_vector(data: &[Complex64]) -> Self {
        CMatrix::from_rows(data.len(), 1, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major view of the underlying data.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Returns the `r`-th row as a vector of entries.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[Complex64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the `c`-th column as an owned vector.
    ///
    /// # Panics
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<Complex64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Hermitian (conjugate) transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Matrix trace (sum of diagonal entries).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest off-diagonal modulus; the Jacobi sweep convergence measure.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn max_off_diagonal(&self) -> f64 {
        assert!(self.is_square(), "off-diagonal scan requires square matrix");
        let mut m = 0.0f64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r != c {
                    m = m.max(self[(r, c)].norm());
                }
            }
        }
        m
    }

    /// True when `‖A − Aᴴ‖_F ≤ tol·‖A‖_F` (Hermitian up to `tol`).
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let diff = self - &self.hermitian();
        diff.frobenius_norm() <= tol * self.frobenius_norm().max(1.0)
    }

    /// Computes `A · v` for a vector `v` given as a slice.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .map(|(&a, &x)| a * x)
                    .sum::<Complex64>()
            })
            .collect()
    }

    /// Computes the quadratic form `vᴴ A v` (real for Hermitian `A`).
    ///
    /// Runs allocation-free: the angle scan of the MUSIC pseudospectrum
    /// evaluates this once per grid point, so no intermediate `A·v`
    /// vector is materialized.
    ///
    /// # Panics
    /// Panics if `v.len() != cols` or the matrix is not square.
    pub fn quadratic_form(&self, v: &[Complex64]) -> Complex64 {
        assert!(self.is_square(), "quadratic form requires square matrix");
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        let mut acc = Complex64::ZERO;
        for (r, &vr) in v.iter().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut row_acc = Complex64::ZERO;
            for (&a, &vc) in row.iter().zip(v) {
                row_acc += a * vc;
            }
            acc += vr.conj() * row_acc;
        }
        acc
    }

    /// Extracts the square submatrix of size `k` starting at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the block extends past the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, k: usize) -> CMatrix {
        assert!(
            r0 + k <= self.rows && c0 + k <= self.cols,
            "block out of bounds"
        );
        CMatrix::from_fn(k, k, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Outer product `u · vᴴ` of two vectors.
    pub fn outer(u: &[Complex64], v: &[Complex64]) -> CMatrix {
        CMatrix::from_fn(u.len(), v.len(), |r, c| u[r] * v[c].conj())
    }

    /// In-place rank-1 update `A += u · vᴴ`.
    ///
    /// This is the covariance accumulator's hot path: one call per array
    /// snapshot, with no temporary matrix allocated (unlike
    /// [`CMatrix::outer`] + [`Add`]).
    ///
    /// # Panics
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn axpy_outer(&mut self, u: &[Complex64], v: &[Complex64]) {
        assert_eq!(u.len(), self.rows, "outer-update row length mismatch");
        assert_eq!(v.len(), self.cols, "outer-update column length mismatch");
        let mut idx = 0;
        for &ur in u {
            for &vc in v {
                self.data[idx] += ur * vc.conj();
                idx += 1;
            }
        }
    }

    /// Multiplies every entry by a real scalar in place (the
    /// non-allocating sibling of [`CMatrix::scale`]).
    pub fn scale_in_place(&mut self, k: f64) {
        for z in &mut self.data {
            *z = z.scale(k);
        }
    }

    /// Resets every entry to zero, keeping the allocation — lets hot
    /// loops reuse one accumulator matrix across iterations.
    pub fn set_zero(&mut self) {
        for z in &mut self.data {
            *z = Complex64::ZERO;
        }
    }

    /// In-place elementwise sum `A += B` (the non-allocating sibling of
    /// the `&A + &B` operator; entries see the identical addition).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_in_place(&mut self, rhs: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in addition"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place scaled accumulation `A += k·B` — one fused pass instead
    /// of `&A + &B.scale(k)`'s two temporaries; each entry still sees the
    /// identical `a + b.scale(k)` arithmetic.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, k: f64, rhs: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in scaled accumulation"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b.scale(k);
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in addition"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in subtraction"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree in product"
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>24}", self[(r, c)].to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = CMatrix::from_fn(3, 3, |r, c| Complex64::new(r as f64, c as f64));
        let i = CMatrix::identity(3);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn product_matches_hand_computation() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0), c(0.0, 0.0)]);
        let b = CMatrix::from_rows(2, 2, &[c(0.0, 1.0), c(1.0, 0.0), c(1.0, 0.0), c(0.0, -1.0)]);
        let p = &a * &b;
        assert_eq!(p[(0, 0)], c(0.0, 2.0));
        assert_eq!(p[(0, 1)], c(2.0, 0.0));
        assert_eq!(p[(1, 0)], c(0.0, 2.0));
        assert_eq!(p[(1, 1)], c(2.0, 0.0));
    }

    #[test]
    fn hermitian_transpose_conjugates() {
        let a = CMatrix::from_rows(
            2,
            3,
            &[
                c(1.0, 2.0),
                c(3.0, -1.0),
                c(0.0, 0.5),
                c(-1.0, 0.0),
                c(2.0, 2.0),
                c(4.0, -4.0),
            ],
        );
        let h = a.hermitian();
        assert_eq!(h.rows(), 3);
        assert_eq!(h.cols(), 2);
        assert_eq!(h[(0, 0)], c(1.0, -2.0));
        assert_eq!(h[(2, 1)], c(4.0, 4.0));
        // (AB)ᴴ = Bᴴ Aᴴ
        let b = CMatrix::from_fn(3, 2, |r, cc| c(r as f64 - 1.0, cc as f64));
        let lhs = (&a * &b).hermitian();
        let rhs = &b.hermitian() * &a.hermitian();
        assert!((&lhs - &rhs).frobenius_norm() < 1e-12);
    }

    #[test]
    fn quadratic_form_of_hermitian_is_real() {
        // A = v vᴴ + I is Hermitian positive definite.
        let v = [c(1.0, 1.0), c(0.0, -2.0), c(0.5, 0.0)];
        let a = &CMatrix::outer(&v, &v) + &CMatrix::identity(3);
        assert!(a.is_hermitian(1e-12));
        let x = [c(0.3, 0.1), c(-1.0, 0.7), c(0.0, 2.0)];
        let q = a.quadratic_form(&x);
        assert!(q.im.abs() < 1e-12);
        assert!(q.re > 0.0);
    }

    #[test]
    fn mul_vec_agrees_with_matrix_product() {
        let a = CMatrix::from_fn(3, 3, |r, cc| c((r * 3 + cc) as f64, 1.0));
        let v = [c(1.0, 0.0), c(0.0, 1.0), c(-1.0, -1.0)];
        let av = a.mul_vec(&v);
        let vm = CMatrix::col_vector(&v);
        let p = &a * &vm;
        for (i, &x) in av.iter().enumerate() {
            assert!((x - p[(i, 0)]).norm() < 1e-12);
        }
    }

    #[test]
    fn block_extracts_submatrix() {
        let a = CMatrix::from_fn(4, 4, |r, cc| c((r * 4 + cc) as f64, 0.0));
        let b = a.block(1, 2, 2);
        assert_eq!(b[(0, 0)], c(6.0, 0.0));
        assert_eq!(b[(1, 1)], c(11.0, 0.0));
    }

    #[test]
    fn trace_and_norm() {
        let a = CMatrix::from_rows(2, 2, &[c(1.0, 1.0), c(0.0, 0.0), c(0.0, 0.0), c(2.0, -1.0)]);
        assert_eq!(a.trace(), c(3.0, 0.0));
        assert!((a.frobenius_norm() - (2.0f64 + 5.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn max_off_diagonal_finds_peak() {
        let mut a = CMatrix::identity(3);
        a[(0, 2)] = c(0.0, 4.0);
        assert!((a.max_off_diagonal() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn product_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = CMatrix::zeros(0, 3);
    }

    #[test]
    fn axpy_outer_matches_outer_plus_add() {
        let u = [c(1.0, 0.5), c(0.0, 1.0), c(-0.7, 0.2)];
        let v = [c(2.0, -0.3), c(0.4, 1.1), c(0.0, -1.0)];
        let mut acc = CMatrix::identity(3);
        let expect = &CMatrix::identity(3) + &CMatrix::outer(&u, &v);
        acc.axpy_outer(&u, &v);
        assert!((&acc - &expect).frobenius_norm() < 1e-15);
    }

    #[test]
    fn add_in_place_matches_operator_add() {
        let a = CMatrix::from_fn(2, 3, |r, cc| c(r as f64 + 0.5, cc as f64 - 1.0));
        let b = CMatrix::from_fn(2, 3, |r, cc| c(cc as f64 * 0.3, r as f64 * -0.7));
        let mut acc = a.clone();
        acc.add_in_place(&b);
        assert_eq!(acc, &a + &b);
    }

    #[test]
    fn axpy_matches_add_of_scaled() {
        let a = CMatrix::from_fn(2, 2, |r, cc| c(r as f64 + 0.5, cc as f64 - 1.0));
        let b = CMatrix::from_fn(2, 2, |r, cc| c(cc as f64 * 0.3, r as f64 * -0.7));
        let mut acc = a.clone();
        acc.axpy(0.37, &b);
        assert_eq!(acc, &a + &b.scale(0.37));
    }

    #[test]
    fn set_zero_clears_all_entries() {
        let mut a = CMatrix::from_fn(2, 2, |r, cc| c(r as f64 + 1.0, cc as f64 + 1.0));
        a.set_zero();
        assert_eq!(a, CMatrix::zeros(2, 2));
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = CMatrix::from_fn(2, 3, |r, cc| c(r as f64 + 0.5, cc as f64 - 1.0));
        let mut b = a.clone();
        b.scale_in_place(0.37);
        assert_eq!(b, a.scale(0.37));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn axpy_outer_shape_mismatch_panics() {
        let mut a = CMatrix::zeros(2, 2);
        a.axpy_outer(&[c(1.0, 0.0)], &[c(1.0, 0.0), c(0.0, 1.0)]);
    }

    #[test]
    fn outer_product_rank_one() {
        let u = [c(1.0, 0.0), c(0.0, 1.0)];
        let v = [c(2.0, 0.0), c(0.0, -1.0)];
        let m = CMatrix::outer(&u, &v);
        assert_eq!(m[(0, 0)], c(2.0, 0.0));
        assert_eq!(m[(0, 1)], c(0.0, 1.0));
        assert_eq!(m[(1, 0)], c(0.0, 2.0));
        assert_eq!(m[(1, 1)], c(-1.0, 0.0));
    }

    #[test]
    fn principal_submatrix_selects_rows_and_cols() {
        let m = CMatrix::from_fn(3, 3, |r, cc| c((10 * r + cc) as f64, 0.0));
        let s = m.principal_submatrix(&[0, 2]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        assert_eq!(s[(0, 0)], c(0.0, 0.0));
        assert_eq!(s[(0, 1)], c(2.0, 0.0));
        assert_eq!(s[(1, 0)], c(20.0, 0.0));
        assert_eq!(s[(1, 1)], c(22.0, 0.0));
        // Full selection is the identity operation.
        assert_eq!(m.principal_submatrix(&[0, 1, 2]), m);
    }

    #[test]
    #[should_panic(expected = "empty submatrix")]
    fn principal_submatrix_rejects_empty_selection() {
        CMatrix::identity(3).principal_submatrix(&[]);
    }
}
