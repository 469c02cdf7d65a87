//! Row-major dense `f32` matrix.

/// A dense, row-major matrix of `f32`.
///
/// All shape mismatches are programming errors and panic with a message that
/// names the offending operation and both shapes; see the "Panics" section
/// on each method.
///
/// # Example
///
/// ```
/// use baffle_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "Matrix::from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Creates a matrix whose entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major view of the underlying data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major view of the underlying data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Matrix::row: row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "Matrix::row_mut: row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Borrowed view of the row range `r0..r1` — no copy. The chunked
    /// evaluation path hands these to the forward pass instead of
    /// cloning each chunk into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > self.rows()`.
    #[inline]
    pub fn view_rows(&self, r0: usize, r1: usize) -> MatrixView<'_> {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "Matrix::view_rows: range {r0}..{r1} out of bounds for {} rows",
            self.rows
        );
        MatrixView {
            rows: r1 - r0,
            cols: self.cols,
            data: &self.data[r0 * self.cols..r1 * self.cols],
        }
    }

    /// Borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        self.view_rows(0, self.rows)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Dispatches into the 8-wide kernel of [`crate::gemm`], which
    /// row-bands large products across the shared worker pool
    /// ([`crate::pool`]); the result is bit-identical to the naive
    /// serial triple loop for every shape and thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul: shape mismatch {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::gemm::nn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
        out
    }

    /// Matrix product `self * otherᵀ` without materialising the
    /// transpose at the API level; large products pack `otherᵀ` once
    /// internally to reach the 8-wide kernel (see [`crate::gemm::nt`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_nt: shape mismatch {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        crate::gemm::nt(self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data);
        out
    }

    /// Matrix product `selfᵀ * other` without materialising the
    /// transpose (see [`crate::gemm::tn`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_tn: shape mismatch ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        crate::gemm::tn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
        out
    }

    /// Adds `other` entrywise in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, "add_assign", |a, b| a + b);
    }

    /// Subtracts `other` entrywise in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, "sub_assign", |a, b| a - b);
    }

    /// Entrywise (Hadamard) product in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        self.zip_assign(other, "hadamard_assign", |a, b| a * b);
    }

    fn zip_assign(&mut self, other: &Matrix, op: &str, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Matrix::{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns a copy with every entry mapped through `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every entry in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Adds the row vector `bias` to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(
            bias.len(),
            self.cols,
            "Matrix::add_row_broadcast: bias length {} != cols {}",
            bias.len(),
            self.cols
        );
        for row in self.data.chunks_exact_mut(self.cols) {
            for (a, &b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Sums the rows into a single vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// Index of the maximum entry in each row (ties resolve to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold(
                        (0, f32::NEG_INFINITY),
                        |(bi, bv), (i, &v)| {
                            if v > bv {
                                (i, v)
                            } else {
                                (bi, bv)
                            }
                        },
                    )
                    .0
            })
            .collect()
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Whether every entry is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Copies the rows with the given indices into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// Reshapes `self` to `rows × cols`, reusing the existing allocation
    /// whenever its capacity suffices (the steady-state case in the
    /// training loop, where batch shapes repeat across steps).
    ///
    /// The contents afterwards are **unspecified**: callers must
    /// overwrite (or zero-fill) every entry before reading. Every
    /// `_into` kernel on this type does exactly that.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with a copy of `other`, reusing the allocation
    /// when possible — the allocation-free replacement for
    /// `*self = other.clone()` in buffer-reusing hot paths.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize_for_overwrite(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// [`Matrix::matmul`] into a caller-owned output buffer: `out` is
    /// reshaped (allocation-free at steady state), zero-filled and
    /// handed to the same [`crate::gemm::nn`] dispatcher, so the result
    /// is bit-identical to the allocating form for every shape, kernel
    /// tier and thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "Matrix::matmul_into: shape mismatch {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_for_overwrite(self.rows, other.cols);
        out.data.fill(0.0);
        crate::gemm::nn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// [`Matrix::matmul_nt`] into a caller-owned output buffer; see
    /// [`Matrix::matmul_into`] for the reuse and bit-exactness contract.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "Matrix::matmul_nt_into: shape mismatch {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_for_overwrite(self.rows, other.rows);
        out.data.fill(0.0);
        crate::gemm::nt(self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data);
    }

    /// [`Matrix::matmul_tn`] into a caller-owned output buffer; see
    /// [`Matrix::matmul_into`] for the reuse and bit-exactness contract.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "Matrix::matmul_tn_into: shape mismatch ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_for_overwrite(self.cols, other.cols);
        out.data.fill(0.0);
        crate::gemm::tn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// [`Matrix::map`] into a caller-owned output buffer (every entry of
    /// `out` is overwritten with `f` of the corresponding entry).
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Matrix) {
        out.resize_for_overwrite(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// [`Matrix::select_rows`] into a caller-owned output buffer.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_for_overwrite(indices.len(), self.cols);
        for (dst, &i) in out.data.chunks_exact_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(i));
        }
    }

    /// [`Matrix::sum_rows`] into a caller-owned vector (cleared, resized
    /// to `cols` and accumulated from zero — bit-identical to the
    /// allocating form).
    pub fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
    }
}

/// A borrowed, row-major view of a contiguous row range of a
/// [`Matrix`] (see [`Matrix::view_rows`]). Supports exactly the
/// operations the evaluation hot path needs — products and row access —
/// without owning or copying the data.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major view of the underlying data.
    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        assert!(r < self.rows, "MatrixView::row: row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self * other` — same kernels and bit-exactness
    /// contract as [`Matrix::matmul`], so evaluating a row range
    /// through a view is bit-identical to copying the rows out first.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "MatrixView::matmul: shape mismatch {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        crate::gemm::nn(self.rows, self.cols, other.cols, self.data, &other.data, &mut out.data);
        out
    }

    /// Copies the viewed rows into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.to_vec() }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix index ({r}, {c}) out of bounds for shape {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix index ({r}, {c}) out of bounds for shape {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_ROWS: usize = 8;
        for (i, row) in self.rows_iter().enumerate().take(MAX_ROWS) {
            writeln!(f, "  row {i}: {row:?}")?;
        }
        if self.rows > MAX_ROWS {
            writeln!(f, "  ... ({} more rows)", self.rows - MAX_ROWS)?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (2 * r + c) as f32);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    /// Regression for the old `a == 0.0 { continue }` fast path, which
    /// silently turned `0 × ∞` into `0` instead of `NaN` in `matmul` /
    /// `matmul_tn`: IEEE-754 non-finite inputs must propagate.
    #[test]
    fn matmul_propagates_nan_from_zero_times_infinity() {
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f32::INFINITY], &[1.0]]);
        assert!(a.matmul(&b)[(0, 0)].is_nan(), "matmul: 0·∞ + 1·1 must be NaN");

        let at = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(at.matmul_tn(&b)[(0, 0)].is_nan(), "matmul_tn: 0·∞ + 1·1 must be NaN");

        let bt = Matrix::from_rows(&[&[f32::INFINITY, 1.0]]);
        assert!(a.matmul_nt(&bt)[(0, 0)].is_nan(), "matmul_nt: 0·∞ + 1·1 must be NaN");
    }

    #[test]
    fn matmul_propagates_infinity_and_nan_inputs() {
        let a = Matrix::from_rows(&[&[2.0]]);
        let inf = Matrix::from_rows(&[&[f32::INFINITY]]);
        assert_eq!(a.matmul(&inf)[(0, 0)], f32::INFINITY);
        let nan = Matrix::from_rows(&[&[f32::NAN]]);
        assert!(a.matmul(&nan)[(0, 0)].is_nan());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 31 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -2.0]);
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, -2.0]);
        }
    }

    #[test]
    fn sum_rows_known() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.sum_rows(), vec![9.0, 12.0]);
    }

    #[test]
    fn argmax_rows_ties_resolve_first() {
        let m = Matrix::from_rows(&[&[1.0, 3.0, 3.0], &[5.0, 2.0, 1.0]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_copies_in_order() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0], &[0.0], &[2.0]]));
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        a.add_assign(&b);
        assert_eq!(a, Matrix::from_rows(&[&[4.0, 6.0]]));
        a.sub_assign(&b);
        assert_eq!(a, Matrix::from_rows(&[&[1.0, 2.0]]));
        a.hadamard_assign(&b);
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 8.0]]));
        a.scale_assign(0.5);
        assert_eq!(a, Matrix::from_rows(&[&[1.5, 4.0]]));
    }

    #[test]
    fn map_and_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.map(|x| x * 2.0), Matrix::from_rows(&[&[6.0, 8.0]]));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f32::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Matrix::default());
        assert!(!s.is_empty());
    }

    #[test]
    fn view_rows_borrows_without_copying() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let v = m.view_rows(1, 4);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(0), m.row(1));
        assert_eq!(v.as_slice().as_ptr(), m.row(1).as_ptr(), "view must borrow, not copy");
        assert_eq!(v.to_matrix(), m.select_rows(&[1, 2, 3]));
        assert_eq!(m.view().to_matrix(), m);
    }

    #[test]
    fn view_matmul_is_bit_identical_to_copied_rows() {
        let x = Matrix::from_fn(6, 4, |r, c| (r as f32 - 2.5) * 0.25 + c as f32);
        let w = Matrix::from_fn(4, 3, |r, c| 0.125 * (r as f32 + 1.0) - c as f32);
        let v = x.view_rows(2, 5);
        let got = v.matmul(&w);
        let want = x.select_rows(&[2, 3, 4]).matmul(&w);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_rows_out_of_bounds_panics() {
        let _ = Matrix::zeros(2, 2).view_rows(1, 3);
    }

    #[test]
    fn into_kernels_are_bit_identical_to_allocating_forms() {
        let a = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let b = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.19).cos());
        let bt = Matrix::from_fn(6, 4, |r, c| ((r + 3 * c) as f32 * 0.23).sin());
        let a2 = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f32 * 0.41).cos());

        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_nt_into(&bt, &mut out);
        assert_eq!(out, a.matmul_nt(&bt));
        a.matmul_tn_into(&a2, &mut out);
        assert_eq!(out, a.matmul_tn(&a2));
        a.map_into(|x| x * 2.0 - 1.0, &mut out);
        assert_eq!(out, a.map(|x| x * 2.0 - 1.0));
        a.select_rows_into(&[4, 0, 2], &mut out);
        assert_eq!(out, a.select_rows(&[4, 0, 2]));
        let mut sums = vec![7.0; 11]; // stale, wrong-sized contents
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, a.sum_rows());
    }

    #[test]
    fn into_kernels_reuse_the_allocation_at_steady_state() {
        let a = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f32);
        let mut out = Matrix::default();
        a.matmul_into(&a, &mut out);
        let ptr = out.as_slice().as_ptr();
        let cap = out.data.capacity();
        a.matmul_into(&a, &mut out);
        assert_eq!(out.as_slice().as_ptr(), ptr, "same-shape reuse must not reallocate");
        // Shrinking shapes keep the allocation too.
        a.select_rows_into(&[1, 2], &mut out);
        assert_eq!(out.data.capacity(), cap);
        assert_eq!(out.shape(), (2, 6));
    }

    #[test]
    fn copy_from_matches_clone() {
        let a = Matrix::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.5);
        let mut b = Matrix::zeros(9, 9);
        b.copy_from(&a);
        assert_eq!(b, a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_into_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
    }
}
