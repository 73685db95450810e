//! `exec`: steady-state calls to kernels compiled and loaded during
//! set-up, each next to its hand-written baseline. An op is one
//! interleaved round over every cell.

use crate::cells::{BuildCtx, Cell, CellSpec, Kind, RoundRunner};
use crate::common::{
    builds, kernel_cache_deltas, mvm_csr, setup_passes, Ctx, Outcome, Sidecar, Stores,
};
use crate::spans::Tracer;
use bernoulli_formats::{gen, Triplets};
use bernoulli_synth::Session;
use std::time::Instant;

struct State {
    // Field order is drop order: kernels before the session and stores.
    cells: Vec<Cell>,
    stores: Stores,
    _session: Session,
}

/// CSR array bytes of a matrix (values, column indices, row pointers).
fn csr_bytes(t: &Triplets<f64>) -> f64 {
    16.0 * t.nnz() as f64 + 8.0 * (t.nrows() + 1) as f64
}

/// Replicas of `seed` needed for CSR arrays of 1.25 × the LLC.
fn factor(seed: &Triplets<f64>, llc: usize) -> usize {
    ((1.25 * llc as f64 / csr_bytes(seed)).ceil() as usize).max(2)
}

fn spec(name: &'static str, kind: Kind, fmt: &'static str) -> CellSpec<'static> {
    CellSpec {
        name,
        kind,
        fmt,
        generic: false,
        par_lanes: 0,
    }
}

fn setup(ctx: &Ctx, pass: usize, tr: &Tracer) -> Result<State, String> {
    let session = Session::new().with_threads(ctx.nproc);
    let stores = ctx.stores(&format!("exec-store-{pass}"));
    let b = BuildCtx {
        session: &session,
        stores: &stores.stores,
        tr,
        seed: ctx.seed,
    };
    let can = gen::can_1072_like();
    let lower = can.lower_triangle_full_diag(1.0);
    let fem = gen::fem_blocked(1536, 4, 3, 1.0, ctx.seed);
    let mut cells = Vec::new();
    for (name, fmt) in [
        ("ts-csr-can1072", "csr"),
        ("ts-csc-can1072", "csc"),
        ("ts-jad-can1072", "jad"),
    ] {
        let mut s = spec(name, Kind::Ts, fmt);
        s.generic = true;
        cells.push(s.build(&lower, &b)?);
    }
    cells.push(spec("mvm-csr-can1072", Kind::Mvm, "csr").build(&can, &b)?);
    cells.push(spec("mvm-ell-can1072", Kind::Mvm, "ell").build(&can, &b)?);
    cells.push(spec("mvm-bsr-fem", Kind::Mvm, "bsr4x4").build(&fem, &b)?);
    cells.push(spec("mvm-csr-fem", Kind::Mvm, "csr").build(&fem, &b)?);
    let (fa, fl) = (factor(&can, ctx.llc_bytes), factor(&lower, ctx.llc_bytes));
    {
        let big = gen::scale(&can, fa, ctx.seed);
        if pass == 0 {
            println!(
                "mvm-csr-large: can_1072 x{fa}, n {} nnz {}, CSR arrays {:.1} MiB vs LLC {:.1} MiB",
                big.nrows(),
                big.nnz(),
                csr_bytes(&big) / 1048576.0,
                ctx.llc_bytes as f64 / 1048576.0
            );
        }
        let mut s = spec("mvm-csr-large", Kind::Mvm, "csr");
        s.par_lanes = ctx.nproc;
        cells.push(s.build(&big, &b)?);
    }
    {
        let big = gen::scale(&lower, fl, ctx.seed ^ 0x5EED);
        if pass == 0 {
            println!(
                "ts-csr-large: lower can_1072 x{fl}, n {} nnz {}, CSR arrays {:.1} MiB vs LLC {:.1} MiB",
                big.nrows(),
                big.nnz(),
                csr_bytes(&big) / 1048576.0,
                ctx.llc_bytes as f64 / 1048576.0
            );
        }
        cells.push(spec("ts-csr-large", Kind::Ts, "csr").build(&big, &b)?);
    }
    Ok(State {
        cells,
        stores,
        _session: session,
    })
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kc0 = bernoulli_synth::kernel_cache_stats();
    let st = setup_passes(ctx, &mut out, |pass| setup(ctx, pass, tr))?;
    let csr = mvm_csr(&st.cells);
    let mut side = Sidecar::new(
        ctx,
        None,
        &st.stores.dirs[0],
        csr.loaded[0].artifact_path(),
        tr.on(),
    );
    let mut rounds = RoundRunner::new(&st.cells);
    let deadline = ctx.deadline();
    let t0 = Instant::now();
    while rounds.res.round_secs.len() < 3 || Instant::now() < deadline {
        rounds.step(tr);
        side.tick(tr);
    }
    let window = t0.elapsed().as_secs_f64() - side.spent;
    out.ops(&rounds.res.round_secs, window);
    out.kernels(&st.cells, &rounds.res);
    side.finish(&mut out, tr, csr, &st.stores.stores[0]);
    if tr.on() {
        kernel_cache_deltas(&mut out, kc0);
        let b: Vec<f64> = st.cells.iter().flat_map(|c| c.build_secs.clone()).collect();
        builds(&mut out, &b);
        let convert: f64 = tr.durations("formats.convert").iter().sum();
        out.layer(
            "formats.convert_ms",
            convert * 1e3 / ctx.setup_passes as f64,
        );
        out.span_median("synth.bind_us", tr, "synth.bind", 1e6);
        out.span_median("synth.search_ms", tr, "synth.search", 1e3);
    }
    Ok(out)
}
