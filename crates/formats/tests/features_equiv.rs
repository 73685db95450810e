//! Equivalence of the structure analyzer with a hash-set reference.
//!
//! `StructureFeatures` values hash into plan-cache keys (and persisted
//! plan directories), so the sorted-position analyzer must reproduce the
//! straightforward one bit for bit. The reference below clones and
//! normalizes the triplets, finds mirrors in a `HashSet` of positions,
//! and counts the blocks of every candidate shape in a fresh `HashSet`.

use bernoulli_formats::features::{BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL};
use bernoulli_formats::{
    block_fill, discover_block_size, gen, vector_features, BlockReport, StructureFeatures, Triplets,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn oracle_block_fill(t: &Triplets<f64>, r: usize, c: usize) -> BlockReport {
    let mut t = t.clone();
    t.normalize();
    let mut blocks: HashSet<(usize, usize)> = HashSet::new();
    for &(row, col, _) in t.entries() {
        blocks.insert((row / r, col / c));
    }
    let stored_cells = blocks.len() * r * c;
    let source_nnz = t.nnz();
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

fn oracle_discover(t: &Triplets<f64>, max: usize, min_fill: f64) -> BlockReport {
    let mut best: Option<BlockReport> = None;
    for r in 1..=max.min(t.nrows().max(1)) {
        if !t.nrows().is_multiple_of(r) {
            continue;
        }
        for c in 1..=max.min(t.ncols().max(1)) {
            if !t.ncols().is_multiple_of(c) {
                continue;
            }
            let rep = oracle_block_fill(t, r, c);
            if rep.fill + 1e-12 < min_fill {
                continue;
            }
            let area = |b: &BlockReport| b.r * b.c;
            let tie = |b: &BlockReport| (usize::MAX - b.r.abs_diff(b.c), b.r);
            match &best {
                Some(b) if (area(b), tie(b)) >= (area(&rep), tie(&rep)) => {}
                _ => best = Some(rep),
            }
        }
    }
    best.unwrap_or(BlockReport {
        r: 1,
        c: 1,
        stored_cells: t.nnz(),
        source_nnz: t.nnz(),
        fill: 1.0,
    })
}

fn oracle_features(t: &Triplets<f64>) -> StructureFeatures {
    let mut t = t.clone();
    t.normalize();
    let (nrows, ncols, nnz) = (t.nrows(), t.ncols(), t.nnz());
    let cells = nrows as f64 * ncols as f64;
    let min_dim = nrows.min(ncols);
    let positions: HashSet<(usize, usize)> = t.entries().iter().map(|&(r, c, _)| (r, c)).collect();
    let mut row_nnz = vec![0usize; nrows];
    let mut row_first = vec![usize::MAX; nrows];
    let mut row_last = vec![0usize; nrows];
    let mut level = vec![0usize; nrows];
    let (mut bandwidth, mut diag, mut off_diag, mut mirrored) = (0usize, 0usize, 0usize, 0usize);
    let (mut lower, mut upper) = (true, true);
    for &(r, c, _) in t.entries() {
        row_nnz[r] += 1;
        row_first[r] = row_first[r].min(c);
        row_last[r] = row_last[r].max(c);
        bandwidth = bandwidth.max(r.abs_diff(c));
        if r == c {
            diag += 1;
        } else {
            off_diag += 1;
            if positions.contains(&(c, r)) {
                mirrored += 1;
            }
            if r < c {
                lower = false;
            } else {
                upper = false;
            }
        }
        if level[r] == 0 {
            level[r] = 1;
        }
        if c < r {
            level[r] = level[r].max(level[c] + 1);
        }
    }
    let mut profile_sum = 0.0;
    let mut nonempty = 0usize;
    for r in 0..nrows {
        if row_nnz[r] > 0 {
            nonempty += 1;
            profile_sum += (row_last[r] - row_first[r] + 1) as f64;
        }
    }
    StructureFeatures {
        nrows,
        ncols,
        nnz,
        density: if cells > 0.0 { nnz as f64 / cells } else { 0.0 },
        avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
        max_row_nnz: row_nnz.iter().copied().max().unwrap_or(0),
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
        block: oracle_discover(&t, BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL),
        level_depth: level.iter().copied().max().unwrap_or(0),
    }
}

/// The report with its fill replaced by the bit pattern, so `==` is
/// bitwise.
fn block_bits(b: &BlockReport) -> (usize, usize, usize, usize, u64) {
    (b.r, b.c, b.stored_cells, b.source_nnz, b.fill.to_bits())
}

fn assert_features_bitwise(got: &StructureFeatures, want: &StructureFeatures, what: &str) {
    let ints = |f: &StructureFeatures| {
        (
            f.nrows,
            f.ncols,
            f.nnz,
            f.max_row_nnz,
            f.bandwidth,
            f.lower_triangular,
            f.upper_triangular,
            f.level_depth,
        )
    };
    let floats = |f: &StructureFeatures| {
        [f.density, f.avg_row_nnz, f.profile, f.symmetry, f.diag_fill].map(f64::to_bits)
    };
    assert_eq!(ints(got), ints(want), "{what}: integer features");
    assert_eq!(floats(got), floats(want), "{what}: f64 features (bits)");
    assert_eq!(
        block_bits(&got.block),
        block_bits(&want.block),
        "{what}: block"
    );
}

/// Features, block discovery at a few thresholds, and the fill of every
/// shape up to 8x8 that divides the matrix, all against the reference.
fn check(t: &Triplets<f64>, what: &str) {
    assert_features_bitwise(
        &StructureFeatures::of_triplets(t),
        &oracle_features(t),
        what,
    );
    for (max, min_fill) in [(8, 0.9), (4, 0.5), (8, 0.0), (3, 1.0), (8, 1.5), (0, 0.9)] {
        assert_eq!(
            block_bits(&discover_block_size(t, max, min_fill)),
            block_bits(&oracle_discover(t, max, min_fill)),
            "{what}: discover_block_size(max {max}, min_fill {min_fill})"
        );
    }
    for r in (1..=8).filter(|r| t.nrows().is_multiple_of(*r)) {
        for c in (1..=8).filter(|c| t.ncols().is_multiple_of(*c)) {
            assert_eq!(
                block_bits(&block_fill(t, r, c)),
                block_bits(&oracle_block_fill(t, r, c)),
                "{what}: block_fill {r}x{c}"
            );
        }
    }
}

/// Pushes `raw` positions (reduced modulo the shape) in the given,
/// unsorted order; repeated positions stay as duplicates.
fn unsorted(nrows: usize, ncols: usize, raw: &[(usize, usize)]) -> Triplets<f64> {
    let mut t = Triplets::new(nrows, ncols);
    if nrows > 0 && ncols > 0 {
        for (k, &(r, c)) in raw.iter().enumerate() {
            t.push(r % nrows, c % ncols, k as f64 - 3.5);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unsorted_pushes_with_duplicates_match_the_reference(
        nrows in 0usize..=25,
        ncols in 0usize..=25,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..120),
    ) {
        let t = unsorted(nrows, ncols, &raw);
        check(&t, &format!("{nrows}x{ncols}, {} pushes", raw.len()));
    }

    #[test]
    fn mirrored_pushes_match_the_reference(
        n in 1usize..=24,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000), 0..80),
        keep in 0usize..4,
    ) {
        // Mostly-symmetric patterns: each position with its mirror,
        // except every fourth one (offset by `keep`).
        let mut both = Vec::new();
        for (k, &(r, c)) in raw.iter().enumerate() {
            both.push((r, c));
            if k % 4 != keep {
                both.push((c, r));
            }
        }
        check(&unsorted(n, n, &both), &format!("{n}x{n} near-symmetric"));
    }
}

#[test]
fn empty_rows_columns_and_degenerate_shapes() {
    check(&Triplets::new(0, 0), "0x0");
    check(&Triplets::new(0, 7), "0x7");
    check(&Triplets::new(5, 0), "5x0");
    check(&Triplets::new(12, 12), "empty 12x12");
    // Rows 1, 4 and columns 0, 5 stay empty.
    let raw = [(0, 1), (2, 3), (3, 2), (5, 4), (2, 3), (0, 1), (3, 3)];
    check(&unsorted(6, 6, &raw), "empty rows and columns");
    for n in [1usize, 7, 12, 97, 5000] {
        let v = vector_features(n, &gen::sparse_vector(n, n.min(40), n as u64));
        let mut t = Triplets::new(n, 1);
        for &(i, x) in &gen::sparse_vector(n, n.min(40), n as u64) {
            t.push(i, 0, x);
        }
        assert_features_bitwise(&v, &oracle_features(&t), &format!("vector {n}x1"));
        check(&t, &format!("{n}x1"));
    }
}

#[test]
fn shapes_with_few_divisors() {
    for (m, n) in [
        (13, 17),
        (17, 13),
        (23, 46),
        (2, 31),
        (31, 2),
        (49, 35),
        (64, 7),
    ] {
        check(
            &gen::random_sparse(m, n, m * n / 3, (m * n) as u64),
            &format!("random {m}x{n}"),
        );
    }
}

#[test]
fn generated_families() {
    for fill in [1.0, 0.9, 0.6] {
        for block in [2usize, 3, 4, 8] {
            let t = gen::fem_blocked(12 * block, block, 1, fill, 7);
            check(&t, &format!("fem_blocked {block}x{block} fill {fill}"));
        }
    }
    // The banded lower triangles a triangular-solve request is timed on,
    // some off-diagonal entries dropped.
    for (n, drop) in [(240usize, 0usize), (243, 17), (250, 63), (255, 40)] {
        let full = gen::banded(n, 3, n as u64).lower_triangle_full_diag(1.0);
        let mut off = 0;
        let kept: Vec<(usize, usize, f64)> = full
            .entries()
            .iter()
            .copied()
            .filter(|&(i, j, _)| {
                off += usize::from(i != j);
                i == j || off > drop
            })
            .collect();
        check(
            &Triplets::from_entries(n, n, &kept),
            &format!("banded ts {n}"),
        );
    }
    for (m, n, nnz) in [(240, 255, 1300), (256, 256, 1343), (48, 48, 2304)] {
        check(
            &gen::random_sparse(m, n, nnz, 5),
            &format!("random {m}x{n}"),
        );
    }
    // The paper's input: features only (the full sweep is slow unoptimized).
    let can = gen::can_1072_like();
    for (t, what) in [
        (can.lower_triangle_full_diag(1.0), "can_1072 lower"),
        (can, "can_1072"),
    ] {
        assert_features_bitwise(
            &StructureFeatures::of_triplets(&t),
            &oracle_features(&t),
            what,
        );
    }
    check(&gen::poisson2d(12), "poisson2d");
    check(
        &gen::structurally_symmetric(96, 700, 12, 21),
        "structurally_symmetric",
    );
}
