//! Instance structure analysis: the numbers a format/plan advisor needs.
//!
//! SpComp-style structure-aware compilation (see PAPERS.md) picks storage
//! and enumeration order from the *sparsity structure of the instance*,
//! not from hand-written workload guesses. [`StructureFeatures`] distills
//! a [`Triplets`] (or any [`AnyFormat`]) into the features that drive
//! those choices: density, bandwidth and row profile, structural
//! symmetry, diagonal fill, triangularity, the dominant block shape
//! (via [`crate::blocks`]), and the level-schedule depth of the lower
//! triangle. Everything is deterministic, so derived cost-model inputs
//! hash stably into plan-cache keys.

use crate::blocks::{discover_sorted, report, BlockReport};
use crate::convert::AnyFormat;
use crate::scalar::Scalar;
use crate::Triplets;

/// Largest block edge probed by [`StructureFeatures::block`] discovery.
pub const BLOCK_PROBE_MAX: usize = 8;
/// Minimum fill a discovered block shape must clear.
pub const BLOCK_PROBE_MIN_FILL: f64 = 0.9;

/// Structural summary of one sparse instance.
///
/// Computed from the sorted, distinct positions (a sort that is linear
/// on already-normalized input): one pass over the rows gives the
/// profile, triangularity, level schedule and symmetry (each mirror is a
/// binary search within its row), and the block-shape probe adds at most
/// one pass per probed shape, usually far less. Nothing is hashed and no
/// values are copied. All scores are in `[0, 1]` unless noted.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureFeatures {
    /// Rows of the enveloping dense matrix.
    pub nrows: usize,
    /// Columns of the enveloping dense matrix.
    pub ncols: usize,
    /// Stored (structural) entries.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`; 0 for an empty shape.
    pub density: f64,
    /// Mean stored entries per row (over all rows).
    pub avg_row_nnz: f64,
    /// Largest stored-entry count of any row.
    pub max_row_nnz: usize,
    /// `max |r - c|` over stored entries.
    pub bandwidth: usize,
    /// Mean row span `last - first + 1` over nonempty rows — the
    /// profile/skyline width, tighter than `2 * bandwidth + 1` for
    /// locally banded patterns.
    pub profile: f64,
    /// Fraction of off-diagonal entries whose mirror `(c, r)` is also
    /// stored; 1.0 when there are no off-diagonal entries.
    pub symmetry: f64,
    /// Stored diagonal positions over `min(nrows, ncols)`; 1.0 when the
    /// diagonal is vacuous (a zero-sized shape).
    pub diag_fill: f64,
    /// Every stored entry satisfies `r >= c`.
    pub lower_triangular: bool,
    /// Every stored entry satisfies `r <= c`.
    pub upper_triangular: bool,
    /// Dominant block shape (largest `r x c` up to [`BLOCK_PROBE_MAX`]
    /// with fill ≥ [`BLOCK_PROBE_MIN_FILL`]); `block.fill` at that shape
    /// is the block score.
    pub block: BlockReport,
    /// Longest dependency chain of the strictly-lower entries — the
    /// number of sequential waves a level-scheduled triangular solve
    /// needs. 0 for an empty matrix, 1 when rows have no lower deps.
    pub level_depth: usize,
}

impl StructureFeatures {
    /// Analyzes a triplet instance.
    pub fn of_triplets<T: Scalar>(t: &Triplets<T>) -> StructureFeatures {
        let pos = t.sorted_positions();
        let (nrows, ncols, nnz) = (t.nrows(), t.ncols(), pos.len());
        let cells = nrows as f64 * ncols as f64;
        let min_dim = nrows.min(ncols);

        // Row `r` occupies `pos[row_ptr[r]..row_ptr[r + 1]]`, sorted by
        // column.
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _) in &pos {
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let row = |r: usize| &pos[row_ptr[r]..row_ptr[r + 1]];

        // Level of each row in the strictly-lower dependence DAG. Rows
        // are visited in order, so when row `r` is processed every
        // dependency row `c < r` already has its final level — one pass
        // suffices.
        let mut level = vec![0usize; nrows];
        let mut level_depth = 0usize;
        let mut max_row_nnz = 0usize;
        let mut profile_sum = 0.0;
        let mut nonempty = 0usize;
        let mut bandwidth = 0usize;
        let mut diag = 0usize;
        let mut off_diag = 0usize;
        let mut mirrored = 0usize;
        let mut lower = true;
        let mut upper = true;
        for r in 0..nrows {
            let entries = row(r);
            let (Some(&(_, first)), Some(&(_, last))) = (entries.first(), entries.last()) else {
                continue;
            };
            max_row_nnz = max_row_nnz.max(entries.len());
            nonempty += 1;
            profile_sum += (last - first + 1) as f64;
            level[r] = 1;
            for &(_, c) in entries {
                bandwidth = bandwidth.max(r.abs_diff(c));
                if r == c {
                    diag += 1;
                } else {
                    off_diag += 1;
                    // The mirror `(c, r)`: a binary search in row `c`.
                    if c < nrows && row(c).binary_search(&(c, r)).is_ok() {
                        mirrored += 1;
                    }
                    if r < c {
                        lower = false;
                    } else {
                        upper = false;
                    }
                }
                if c < r {
                    level[r] = level[r].max(level[c] + 1);
                }
            }
            level_depth = level_depth.max(level[r]);
        }

        StructureFeatures {
            nrows,
            ncols,
            nnz,
            density: if cells > 0.0 { nnz as f64 / cells } else { 0.0 },
            avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
            max_row_nnz,
            bandwidth,
            profile: if nonempty > 0 {
                profile_sum / nonempty as f64
            } else {
                0.0
            },
            symmetry: if off_diag > 0 {
                mirrored as f64 / off_diag as f64
            } else {
                1.0
            },
            diag_fill: if min_dim > 0 {
                diag as f64 / min_dim as f64
            } else {
                1.0
            },
            lower_triangular: lower,
            upper_triangular: upper,
            block: discover_sorted(&pos, nrows, ncols, BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL)
                .unwrap_or(report(1, 1, nnz, nnz)),
            level_depth,
        }
    }

    /// Analyzes any concrete format by way of its triplet image.
    pub fn of_format<T: Scalar>(f: &AnyFormat<T>) -> StructureFeatures {
        StructureFeatures::of_triplets(&f.to_triplets())
    }

    /// True when every diagonal position of a square instance is stored —
    /// the precondition for the `FullDiagonal` stored guarantee.
    pub fn full_diagonal(&self) -> bool {
        self.nrows == self.ncols && self.nrows > 0 && (self.diag_fill - 1.0).abs() < 1e-12
    }

    /// Block score: the fill of the discovered dominant block shape
    /// (1.0 = perfectly blocked at `block.r x block.c`).
    pub fn block_score(&self) -> f64 {
        self.block.fill
    }
}

/// Features of a sparse *vector*, treated as an `n x 1` instance so the
/// same [`StructureFeatures`] vocabulary (and the same cost-model
/// derivation) applies to the vector operands of dot-product workloads.
pub fn vector_features<T: Scalar>(n: usize, entries: &[(usize, T)]) -> StructureFeatures {
    let mut t = Triplets::new(n, 1);
    for &(i, v) in entries {
        t.push(i, 0, v);
    }
    StructureFeatures::of_triplets(&t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn banded_features() {
        let f = StructureFeatures::of_triplets(&gen::banded(64, 3, 7));
        assert_eq!((f.nrows, f.ncols), (64, 64));
        assert_eq!(f.bandwidth, 3);
        assert!((f.symmetry - 1.0).abs() < 1e-12);
        assert!(f.full_diagonal());
        assert!(!f.lower_triangular && !f.upper_triangular);
        // Interior rows span the full 7-wide band.
        assert!(f.profile > 6.0 && f.profile <= 7.0, "profile {}", f.profile);
    }

    #[test]
    fn lower_triangle_features_and_level_depth() {
        let l = gen::can_1072_like().lower_triangle_full_diag(1.0);
        let f = StructureFeatures::of_triplets(&l);
        assert!(f.lower_triangular && !f.upper_triangular);
        assert!(f.full_diagonal());
        // A connected lower triangle has a nontrivial wave schedule.
        assert!(f.level_depth > 1 && f.level_depth <= 1072);
    }

    #[test]
    fn fem_blocked_recovers_block_score() {
        let t = gen::fem_blocked(16 * 4, 4, 2, 1.0, 11);
        let f = StructureFeatures::of_triplets(&t);
        assert_eq!((f.block.r, f.block.c), (4, 4));
        assert!((f.block_score() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_features_shape() {
        let f = vector_features(100, &gen::sparse_vector(100, 30, 5));
        assert_eq!((f.nrows, f.ncols, f.nnz), (100, 1, 30));
        assert!((f.density - 0.3).abs() < 1e-12);
    }
}
