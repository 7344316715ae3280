//! Small integer vectors and matrices.
//!
//! The array-processor design techniques of Kung ("VLSI Array Processors",
//! the paper's reference \[4\]) express mappings as integer matrix operators:
//! a *processor-assignment matrix* `P` maps a dependence-graph node
//! `v` to the processor `P^T·v`, and a *scheduling vector* `s` maps it to the
//! execution time `s^T·v`. This module provides the tiny exact integer
//! linear algebra needed to apply and compose those operators.

use crate::error::MappingError;
use std::fmt;

/// A dense integer vector of small dimension (2 or 3 in this paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IVec {
    elements: Vec<i64>,
}

impl IVec {
    /// Creates a vector from its elements.
    pub fn new(elements: Vec<i64>) -> Self {
        IVec { elements }
    }

    /// A convenience constructor for 2-D vectors.
    pub fn of2(x: i64, y: i64) -> Self {
        IVec::new(vec![x, y])
    }

    /// A convenience constructor for 3-D vectors.
    pub fn of3(x: i64, y: i64, z: i64) -> Self {
        IVec::new(vec![x, y, z])
    }

    /// The dimension of the vector.
    pub fn dim(&self) -> usize {
        self.elements.len()
    }

    /// Returns element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn at(&self, i: usize) -> i64 {
        self.elements[i]
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.elements
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if the dimensions differ.
    pub fn dot(&self, other: &IVec) -> Result<i64, MappingError> {
        if self.dim() != other.dim() {
            return Err(MappingError::DimensionMismatch {
                context: "dot product",
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self
            .elements
            .iter()
            .zip(other.elements.iter())
            .map(|(a, b)| a * b)
            .sum())
    }
}

impl fmt::Display for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<i64>> for IVec {
    fn from(elements: Vec<i64>) -> Self {
        IVec::new(elements)
    }
}

/// A dense integer matrix stored in row-major order.
///
/// Matrices follow the paper's convention: an assignment matrix `P` with
/// `rows = dim(node)` and `cols = dim(processor space)` maps a node `v` to
/// `P^T · v` (see [`IMat::apply_transposed`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    elements: Vec<i64>,
}

impl IMat {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        IMat {
            rows,
            cols,
            elements: data,
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0; n * n];
        for i in 0..n {
            data[i * n + i] = 1;
        }
        IMat::from_rows(n, n, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, row: usize, col: usize) -> i64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.elements[row * self.cols + col]
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> IMat {
        let mut data = vec![0; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                data[c * self.rows + r] = self.at(r, c);
            }
        }
        IMat::from_rows(self.cols, self.rows, data)
    }

    /// Matrix × vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if `v.dim() != cols`.
    pub fn apply(&self, v: &IVec) -> Result<IVec, MappingError> {
        if v.dim() != self.cols {
            return Err(MappingError::DimensionMismatch {
                context: "matrix-vector product",
                expected: self.cols,
                actual: v.dim(),
            });
        }
        Ok(IVec::new(
            (0..self.rows)
                .map(|r| (0..self.cols).map(|c| self.at(r, c) * v.at(c)).sum())
                .collect(),
        ))
    }

    /// The paper's assignment convention: `v_new = P^T · v_old`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if `v.dim() != rows`.
    pub fn apply_transposed(&self, v: &IVec) -> Result<IVec, MappingError> {
        self.transpose().apply(v)
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if the inner dimensions
    /// differ.
    pub fn matmul(&self, other: &IMat) -> Result<IMat, MappingError> {
        if self.cols != other.rows {
            return Err(MappingError::DimensionMismatch {
                context: "matrix product",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut data = vec![0; self.rows * other.cols];
        for r in 0..self.rows {
            for c in 0..other.cols {
                data[r * other.cols + c] =
                    (0..self.cols).map(|k| self.at(r, k) * other.at(k, c)).sum();
            }
        }
        Ok(IMat::from_rows(self.rows, other.cols, data))
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>3}", self.at(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// The paper's mapping operators (Section 3), as published.
pub mod paper {
    use super::IMat;
    use super::IVec;

    /// `P1` — eq. 4: maps the 3-D node `(f, a, n)` onto the 2-D processor
    /// space `(f, a)` (folds the integration dimension `n`).
    pub fn p1() -> IMat {
        IMat::from_rows(3, 2, vec![1, 0, 0, 1, 0, 0])
    }

    /// `s1` — eq. 4: schedules plane `n` at time `n`.
    pub fn s1() -> IVec {
        IVec::of3(0, 0, 1)
    }

    /// `P2` — eq. 5: maps the 2-D node `(f, a)` onto the 1-D processor
    /// array indexed by `a` (time-multiplexes the frequencies `f`).
    pub fn p2() -> IMat {
        IMat::from_rows(2, 1, vec![0, 1])
    }

    /// `s2` — eq. 5: schedules frequency `f` at time `f`.
    pub fn s2() -> IVec {
        IVec::of2(1, 0)
    }

    /// `P2a1` — eq. 6: removes the absolute-time dependence of the
    /// *conjugated-value* (dotted-line) flow.
    pub fn p2a1() -> IMat {
        IMat::from_rows(2, 2, vec![0, 0, 1, 1])
    }

    /// `P2a2` — eq. 6: removes the absolute-time dependence of the
    /// *non-conjugated-value* (solid-line) flow.
    pub fn p2a2() -> IMat {
        IMat::from_rows(2, 2, vec![0, 0, -1, 1])
    }

    /// `P2b` — eq. 7: the final (trivial) projection onto the processor
    /// array.
    pub fn p2b() -> IMat {
        IMat::from_rows(2, 1, vec![0, 1])
    }
}

#[cfg(test)]
mod tests {
    use super::paper;
    use super::*;

    #[test]
    fn vector_basics() {
        let v = IVec::of3(1, -2, 3);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.at(1), -2);
        assert_eq!(v.as_slice(), &[1, -2, 3]);
        assert_eq!(v.to_string(), "(1, -2, 3)");
        let w: IVec = vec![4, 5, 6].into();
        assert_eq!(v.dot(&w).unwrap(), 4 - 10 + 18);
        assert!(v.dot(&IVec::of2(1, 2)).is_err());
    }

    #[test]
    fn matrix_construction_and_indexing() {
        let m = IMat::from_rows(2, 3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.at(0, 2), 3);
        assert_eq!(m.at(1, 0), 4);
        assert!(m.to_string().contains('4'));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn matrix_construction_rejects_bad_length() {
        let _ = IMat::from_rows(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn identity_and_transpose() {
        let id = IMat::identity(3);
        let v = IVec::of3(7, -1, 2);
        assert_eq!(id.apply(&v).unwrap(), v);
        let m = IMat::from_rows(2, 3, vec![1, 2, 3, 4, 5, 6]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.at(2, 0), 3);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn apply_and_matmul() {
        let m = IMat::from_rows(2, 2, vec![0, 1, -1, 0]); // 90-degree rotation
        let v = IVec::of2(3, 4);
        assert_eq!(m.apply(&v).unwrap(), IVec::of2(4, -3));
        let m2 = m.matmul(&m).unwrap(); // rotation by 180 degrees = -I
        assert_eq!(m2, IMat::from_rows(2, 2, vec![-1, 0, 0, -1]));
        assert!(m.apply(&IVec::of3(1, 2, 3)).is_err());
        assert!(m.matmul(&IMat::from_rows(3, 1, vec![1, 2, 3])).is_err());
    }

    #[test]
    fn paper_p1_s1_fold_the_n_dimension() {
        // v_old = (f, a, n); v_new = P1^T v_old = (f, a); t = s1^T v_old = n.
        let node = IVec::of3(5, -3, 7);
        let assigned = paper::p1().apply_transposed(&node).unwrap();
        assert_eq!(assigned, IVec::of2(5, -3));
        assert_eq!(paper::s1().dot(&node).unwrap(), 7);
        // Edge displacement (0,0,1) maps to (0,0): integration stays local.
        let edge = IVec::of3(0, 0, 1);
        assert_eq!(
            paper::p1().apply_transposed(&edge).unwrap(),
            IVec::of2(0, 0)
        );
    }

    #[test]
    fn paper_p2_s2_time_multiplex_frequencies() {
        // v_old = (f, a); processor = a; time = f.
        let node = IVec::of2(5, -3);
        assert_eq!(
            paper::p2().apply_transposed(&node).unwrap(),
            IVec::new(vec![-3])
        );
        assert_eq!(paper::s2().dot(&node).unwrap(), 5);
    }

    #[test]
    fn paper_two_stage_mapping_equals_single_stage() {
        // The paper notes P2b^T·P2a1^T = P2^T and P2b^T·P2a2^T = P2^T.
        let lhs1 = paper::p2b()
            .transpose()
            .matmul(&paper::p2a1().transpose())
            .unwrap();
        let lhs2 = paper::p2b()
            .transpose()
            .matmul(&paper::p2a2().transpose())
            .unwrap();
        let rhs = paper::p2().transpose();
        assert_eq!(lhs1, rhs);
        assert_eq!(lhs2, rhs);
    }

    #[test]
    fn paper_p2a_matrices_remove_absolute_time() {
        // After P2a1^T the conjugate flow maps (f, a) to (Δt, processor)
        // = (a, a): the delay depends only on the processor position, not on
        // the absolute time f — one processor hop per clock from -M to +M.
        let node = IVec::of2(4, 1); // f = 4, a = 1
        let mapped = paper::p2a1().apply_transposed(&node).unwrap();
        assert_eq!(mapped, IVec::of2(1, 1));
        // The direct flow maps to (-a, a): delay decreases with a, i.e. the
        // flow runs from top-right to bottom-left as the paper describes.
        let mapped2 = paper::p2a2().apply_transposed(&node).unwrap();
        assert_eq!(mapped2, IVec::of2(-1, 1));
        // Absolute time is removed: a different frequency maps identically.
        let other_f = IVec::of2(-2, 1);
        assert_eq!(
            paper::p2a1().apply_transposed(&other_f).unwrap(),
            IVec::of2(1, 1)
        );
    }
}
