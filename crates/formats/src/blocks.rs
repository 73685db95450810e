//! Block-structure discovery: find the dominant block size (for BSR) or
//! the natural block strips (for VBR) of a [`Triplets`] instance, with a
//! fill-in ratio report.
//!
//! Blocked storage trades index overhead for dense fill-in: an `r x c`
//! blocking stores `touched-blocks * r * c` cells to cover `nnz` actual
//! entries, so the useful figure of merit is the *fill* `nnz / cells`
//! (1.0 = every stored block fully dense). Discovery scores every
//! candidate block shape and keeps the largest one whose fill clears a
//! threshold — the shape a FEM assembly with that element size would
//! produce scores exactly 1.0.

use crate::scalar::Scalar;
use crate::Triplets;

/// Fill report for one candidate block shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockReport {
    /// Block height.
    pub r: usize,
    /// Block width.
    pub c: usize,
    /// Stored cells under this blocking (`touched blocks * r * c`).
    pub stored_cells: usize,
    /// Actual entry count of the source matrix.
    pub source_nnz: usize,
    /// `source_nnz / stored_cells` — 1.0 means perfectly blocked.
    pub fill: f64,
}

/// Computes the fill report for one block shape.
///
/// # Panics
/// Panics if `r`/`c` are zero or do not divide the matrix shape.
pub fn block_fill<T: Scalar>(t: &Triplets<T>, r: usize, c: usize) -> BlockReport {
    assert!(r > 0 && c > 0, "block shape must be nonzero");
    assert!(
        t.nrows().is_multiple_of(r) && t.ncols().is_multiple_of(c),
        "block shape {r}x{c} must divide the matrix shape {}x{}",
        t.nrows(),
        t.ncols()
    );
    let pos = t.sorted_positions();
    let mut mark = vec![0; t.ncols() / c];
    let blocks = count_blocks(&pos, r, c, &mut mark, f64::NEG_INFINITY);
    report(r, c, blocks, pos.len())
}

/// Finds the dominant block size: the largest-area `r x c` (with
/// `r, c <= max`, both dividing the matrix shape) whose fill is at least
/// `min_fill`. Ties on area prefer the squarer (then taller) shape. The
/// `1 x 1` blocking has fill 1.0 by construction, so a result always
/// exists when `min_fill <= 1.0`.
pub fn discover_block_size<T: Scalar>(t: &Triplets<T>, max: usize, min_fill: f64) -> BlockReport {
    let pos = t.sorted_positions();
    discover_sorted(&pos, t.nrows(), t.ncols(), max, min_fill)
        .unwrap_or_else(|| report(1, 1, t.nnz(), t.nnz()))
}

/// [`discover_block_size`] over the sorted, distinct positions of an
/// `nrows x ncols` matrix; `None` when no shape clears `min_fill`.
///
/// Each shape costs at most one pass over `pos`, and usually much less:
/// a shape whose `(area, squareness)` cannot beat the best one so far is
/// not counted at all, and counting stops once the fill has dropped
/// below `min_fill` — it only falls as more blocks turn up.
pub(crate) fn discover_sorted(
    pos: &[(usize, usize)],
    nrows: usize,
    ncols: usize,
    max: usize,
    min_fill: f64,
) -> Option<BlockReport> {
    // Squarer shapes win area ties: minimize |r - c|.
    let rank = |r: usize, c: usize| (r * c, usize::MAX - r.abs_diff(c), r);
    let nnz = pos.len();
    let mut mark = vec![0; ncols];
    let mut best: Option<BlockReport> = None;
    for r in 1..=max.min(nrows.max(1)) {
        if !nrows.is_multiple_of(r) {
            continue;
        }
        for c in 1..=max.min(ncols.max(1)) {
            if !ncols.is_multiple_of(c) {
                continue;
            }
            if best.is_some_and(|b| rank(b.r, b.c) >= rank(r, c)) {
                continue;
            }
            let blocks = count_blocks(pos, r, c, &mut mark[..ncols / c], min_fill);
            let rep = report(r, c, blocks, nnz);
            if rep.fill + 1e-12 < min_fill {
                continue;
            }
            best = Some(rep);
        }
    }
    best
}

/// Distinct `r x c` blocks the row-major sorted, distinct `pos` touch.
/// Counting stops as soon as the fill drops below `min_fill`, since more
/// blocks can only lower it; the partial count then fails the same test.
/// `mark` (length `ncols / c`) is scratch: `mark[block column]` holds the
/// last block row seen there, which suffices because block rows arrive
/// in order.
fn count_blocks(
    pos: &[(usize, usize)],
    r: usize,
    c: usize,
    mark: &mut [usize],
    min_fill: f64,
) -> usize {
    mark.fill(usize::MAX);
    let mut blocks = 0usize;
    let (mut last_row, mut br) = (usize::MAX, 0);
    for &(row, col) in pos {
        if row != last_row {
            (last_row, br) = (row, row / r);
        }
        let bc = col / c;
        if mark[bc] != br {
            mark[bc] = br;
            blocks += 1;
            if report(r, c, blocks, pos.len()).fill + 1e-12 < min_fill {
                break;
            }
        }
    }
    blocks
}

/// The report of `blocks` touched `r x c` blocks covering `source_nnz`
/// entries.
pub(crate) fn report(r: usize, c: usize, blocks: usize, source_nnz: usize) -> BlockReport {
    let stored_cells = blocks * r * c;
    BlockReport {
        r,
        c,
        stored_cells,
        source_nnz,
        fill: if stored_cells == 0 {
            1.0
        } else {
            source_nnz as f64 / stored_cells as f64
        },
    }
}

/// Finds the natural VBR strips of a matrix: maximal runs of consecutive
/// rows with identical column support form the row strips, and likewise
/// (on row support) for the column strips — the classic CSR→VBR
/// agglomeration. Returns `(rpntr, cpntr)` partitions; on a matrix
/// assembled from dense variable-size blocks this recovers the planted
/// strips exactly.
pub fn discover_strips<T: Scalar>(t: &Triplets<T>) -> (Vec<usize>, Vec<usize>) {
    let mut t = t.clone();
    t.normalize();
    let mut row_support: Vec<Vec<usize>> = vec![Vec::new(); t.nrows()];
    let mut col_support: Vec<Vec<usize>> = vec![Vec::new(); t.ncols()];
    for &(r, c, _) in t.entries() {
        row_support[r].push(c);
        col_support[c].push(r);
    }
    // Entries are row-major sorted, so row supports are sorted already;
    // column supports need a sort.
    for s in &mut col_support {
        s.sort_unstable();
    }
    let strips = |support: &[Vec<usize>]| {
        let n = support.len();
        let mut p = vec![0usize];
        for i in 1..n {
            if support[i] != support[i - 1] {
                p.push(i);
            }
        }
        if n > 0 {
            p.push(n);
        } else {
            p.push(0);
            // Degenerate empty dimension still needs a 2-entry partition
            // shape; callers with 0-sized matrices should not build VBR.
        }
        p
    };
    (strips(&row_support), strips(&col_support))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn fill_report_counts_cells() {
        let t = Triplets::from_entries(4, 4, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
        let rep = block_fill(&t, 2, 2);
        // Entries touch blocks (0,0) and (1,1) → 8 stored cells.
        assert_eq!(rep.stored_cells, 8);
        assert_eq!(rep.source_nnz, 3);
        assert!((rep.fill - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_planted_block_size() {
        for &bs in &[2usize, 3, 4] {
            let t = gen::fem_blocked(8 * bs, bs, 2, 1.0, 7);
            let rep = discover_block_size(&t, 8, 0.9);
            assert_eq!((rep.r, rep.c), (bs, bs), "planted {bs}x{bs}");
            assert!((rep.fill - 1.0).abs() < 1e-12, "dense blocks fill 1.0");
        }
    }

    #[test]
    fn scattered_matrix_falls_back_to_1x1() {
        let t = gen::random_sparse(24, 24, 40, 3);
        let rep = discover_block_size(&t, 8, 0.9);
        assert_eq!((rep.r, rep.c), (1, 1));
        assert!((rep.fill - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_planted_strips() {
        // Two dense blocks: rows {0,1} x cols {0,1,2}, rows {2,3,4} x
        // cols {3,4}.
        let mut t = Triplets::new(5, 5);
        for r in 0..2 {
            for c in 0..3 {
                t.push(r, c, 1.0 + (r * 3 + c) as f64);
            }
        }
        for r in 2..5 {
            for c in 3..5 {
                t.push(r, c, 10.0 + (r * 2 + c) as f64);
            }
        }
        let (rp, cp) = discover_strips(&t);
        assert_eq!(rp, vec![0, 2, 5]);
        assert_eq!(cp, vec![0, 3, 5]);
    }

    #[test]
    fn strip_discovery_feeds_vbr() {
        let t = gen::fem_blocked(12, 3, 2, 1.0, 11);
        let (rp, cp) = discover_strips(&t);
        let v = crate::Vbr::from_triplets(&t, &rp, &cp);
        let r = v.validate();
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(v.to_triplets().entries(), {
            let mut s = t.clone();
            s.normalize();
            s.entries().to_vec()
        });
    }
}
