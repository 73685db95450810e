//! Coordinate-list builder: the interchange representation all formats
//! construct from and convert back to.

use crate::scalar::Scalar;
use crate::FormatError;

/// A matrix under construction: explicit `(row, col, value)` entries.
///
/// `Triplets` is the hub of all format conversions: every concrete format
/// implements `from_triplets` and `to_triplets`, making any-to-any
/// conversion a two-step round trip.
#[derive(Clone, Debug, PartialEq)]
pub struct Triplets<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// An empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Triplets<T> {
        Triplets {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Builds from a slice of entries. Duplicate positions are summed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range; use
    /// [`try_from_entries`](Self::try_from_entries) for untrusted input.
    pub fn from_entries(nrows: usize, ncols: usize, entries: &[(usize, usize, T)]) -> Triplets<T> {
        match Triplets::try_from_entries(nrows, ncols, entries) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`from_entries`](Self::from_entries) with out-of-range
    /// coordinates reported as a [`FormatError`] — the entry point for
    /// entries that came from outside the process.
    pub fn try_from_entries(
        nrows: usize,
        ncols: usize,
        entries: &[(usize, usize, T)],
    ) -> Result<Triplets<T>, FormatError> {
        let mut t = Triplets::new(nrows, ncols);
        for &(r, c, v) in entries {
            t.try_push(r, c, v)?;
        }
        t.normalize();
        Ok(t)
    }

    /// Appends one entry (duplicates allowed until [`normalize`](Self::normalize)).
    ///
    /// # Panics
    /// Panics if the coordinate is out of range; use
    /// [`try_push`](Self::try_push) for untrusted input.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        if let Err(e) = self.try_push(r, c, v) {
            panic!("{e}");
        }
    }

    /// [`push`](Self::push) with out-of-range coordinates reported as a
    /// [`FormatError`] instead of a panic.
    pub fn try_push(&mut self, r: usize, c: usize, v: T) -> Result<(), FormatError> {
        if r >= self.nrows || c >= self.ncols {
            return Err(FormatError::EntryOutOfRange {
                r,
                c,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.push((r, c, v));
        Ok(())
    }

    /// Sorts entries row-major and sums duplicates. Zero values are kept:
    /// a stored zero is a *structural* nonzero, as in all classic sparse
    /// packages.
    pub fn normalize(&mut self) {
        self.entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut out: Vec<(usize, usize, T)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => out.push((r, c, v)),
            }
        }
        self.entries = out;
    }

    /// The distinct stored positions, sorted row-major — the structure
    /// [`normalize`](Self::normalize) would leave, without the values.
    pub(crate) fn sorted_positions(&self) -> Vec<(usize, usize)> {
        let mut pos: Vec<(usize, usize)> = self.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        pos.sort_unstable();
        pos.dedup();
        pos
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (after normalization, distinct positions).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The entries, sorted row-major if [`normalize`](Self::normalize) has
    /// run since the last `push`.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Random-access read (linear scan; builder convenience only).
    pub fn get(&self, r: usize, c: usize) -> T {
        self.entries
            .iter()
            .find(|&&(er, ec, _)| er == r && ec == c)
            .map(|&(_, _, v)| v)
            .unwrap_or(T::ZERO)
    }

    /// Materializes the enveloping dense matrix, row-major.
    pub fn to_dense_rows(&self) -> Vec<Vec<T>> {
        let mut d = vec![vec![T::ZERO; self.ncols]; self.nrows];
        for &(r, c, v) in &self.entries {
            d[r][c] += v;
        }
        d
    }

    /// Applies `f` to every stored value.
    pub fn map_values(&mut self, f: impl Fn(T) -> T) {
        for e in &mut self.entries {
            e.2 = f(e.2);
        }
    }

    /// Keeps only entries satisfying the position predicate.
    pub fn retain_positions(&mut self, f: impl Fn(usize, usize) -> bool) {
        self.entries.retain(|&(r, c, _)| f(r, c));
    }

    /// The transpose.
    pub fn transposed(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.ncols, self.nrows);
        for &(r, c, v) in &self.entries {
            t.push(c, r, v);
        }
        t.normalize();
        t
    }

    /// Extracts the lower triangle (including the diagonal), ensuring a
    /// structurally-full diagonal by inserting `diag_fill` where the
    /// diagonal is missing. This is the standard preparation of a
    /// triangular-solve operand.
    pub fn lower_triangle_full_diag(&self, diag_fill: T) -> Triplets<T> {
        let n = self.nrows.min(self.ncols);
        let mut t = Triplets::new(self.nrows, self.ncols);
        let mut have_diag = vec![false; n];
        for &(r, c, v) in &self.entries {
            if r >= c {
                if r == c {
                    have_diag[r] = true;
                }
                t.push(r, c, v);
            }
        }
        for (i, have) in have_diag.iter().enumerate() {
            if !have {
                t.push(i, i, diag_fill);
            }
        }
        t.normalize();
        t
    }

    /// Number of stored entries in each row.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for &(r, _, _) in &self.entries {
            counts[r] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_normalize() {
        let t = Triplets::from_entries(3, 3, &[(2, 1, 5.0), (0, 0, 1.0), (2, 1, 2.0)]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(2, 1), 7.0);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 1), 0.0);
        assert_eq!(t.entries(), &[(0, 0, 1.0), (2, 1, 7.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut t = Triplets::<f64>::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn dense_roundtrip() {
        let t = Triplets::from_entries(2, 3, &[(0, 2, 4.0), (1, 0, -1.0)]);
        let d = t.to_dense_rows();
        assert_eq!(d, vec![vec![0.0, 0.0, 4.0], vec![-1.0, 0.0, 0.0]]);
    }

    #[test]
    fn transpose() {
        let t = Triplets::from_entries(2, 3, &[(0, 2, 4.0), (1, 0, -1.0)]);
        let tt = t.transposed();
        assert_eq!(tt.nrows(), 3);
        assert_eq!(tt.ncols(), 2);
        assert_eq!(tt.get(2, 0), 4.0);
        assert_eq!(tt.get(0, 1), -1.0);
    }

    #[test]
    fn lower_triangle() {
        let t = Triplets::from_entries(3, 3, &[(0, 1, 9.0), (1, 0, 2.0), (2, 2, 3.0), (2, 0, 4.0)]);
        let l = t.lower_triangle_full_diag(1.0);
        assert_eq!(l.get(0, 1), 0.0); // upper dropped
        assert_eq!(l.get(1, 0), 2.0);
        assert_eq!(l.get(2, 2), 3.0); // existing diagonal kept
        assert_eq!(l.get(0, 0), 1.0); // missing diagonal filled
        assert_eq!(l.get(1, 1), 1.0);
        assert_eq!(l.nnz(), 5);
    }

    #[test]
    fn structural_zeros_kept() {
        let t = Triplets::from_entries(2, 2, &[(0, 1, 0.0)]);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn row_counts() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (0, 2, 1.0), (2, 1, 1.0)]);
        assert_eq!(t.row_counts(), vec![2, 0, 1]);
    }

    #[test]
    fn map_and_retain() {
        let mut t = Triplets::from_entries(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        t.map_values(|v| v * 10.0);
        assert_eq!(t.get(1, 1), 20.0);
        t.retain_positions(|r, c| r == c && r == 0);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn generic_f32() {
        let t = Triplets::<f32>::from_entries(1, 1, &[(0, 0, 2.5f32)]);
        assert_eq!(t.get(0, 0), 2.5f32);
    }
}
