//! A minimal dense row-major matrix used by the simplex tableau.

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reshapes to a zero-filled `rows × cols` matrix, keeping the
    /// allocation when it is large enough.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to an element.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] += value;
    }

    /// A view of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        debug_assert!(row < self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Performs the row operation `row[target] -= factor * row[source]`.
    ///
    /// This is the elementary operation of Gaussian elimination / simplex
    /// pivoting. `target` and `source` must differ.
    pub fn row_axpy(&mut self, target: usize, source: usize, factor: f64) {
        assert_ne!(target, source, "row_axpy requires distinct rows");
        if factor == 0.0 {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = if target < source {
            (target, source)
        } else {
            (source, target)
        };
        let (first, second) = self.data.split_at_mut(hi * cols);
        let lo_row = &mut first[lo * cols..lo * cols + cols];
        let hi_row = &mut second[..cols];
        if target < source {
            for (t, s) in lo_row.iter_mut().zip(hi_row.iter()) {
                *t -= factor * *s;
            }
        } else {
            for (t, s) in hi_row.iter_mut().zip(lo_row.iter()) {
                *t -= factor * *s;
            }
        }
    }

    /// Divides every element of a row by `divisor`.
    pub fn scale_row(&mut self, row: usize, divisor: f64) {
        for value in self.row_mut(row) {
            *value /= divisor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 0.0);
        m.set(1, 2, 5.0);
        m.add(1, 2, 1.5);
        assert_eq!(m.get(1, 2), 6.5);
        assert_eq!(m.row(1), &[0.0, 0.0, 6.5]);
        m.reset(3, 1);
        assert_eq!((m.rows(), m.cols()), (3, 1));
        assert_eq!(m.row(2), &[0.0]);
    }

    #[test]
    fn row_axpy_both_directions() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 3.0);
        m.set(1, 1, 4.0);
        // row1 -= 2 * row0 -> [1, 0]
        m.row_axpy(1, 0, 2.0);
        assert_eq!(m.row(1), &[1.0, 0.0]);
        // row0 -= 1 * row1 -> [0, 2]
        m.row_axpy(0, 1, 1.0);
        assert_eq!(m.row(0), &[0.0, 2.0]);
        // factor 0 is a no-op
        m.row_axpy(0, 1, 0.0);
        assert_eq!(m.row(0), &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_axpy_same_row_panics() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_axpy(0, 0, 1.0);
    }

    #[test]
    fn scale_row_divides() {
        let mut m = DenseMatrix::zeros(1, 3);
        m.set(0, 0, 2.0);
        m.set(0, 1, 4.0);
        m.set(0, 2, 6.0);
        m.scale_row(0, 2.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }
}
