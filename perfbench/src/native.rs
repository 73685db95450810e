//! `native`: one caller; each op makes a kernel ready from cold —
//! compile, then load into a fresh kernel store (emit, `rustc`,
//! checksum, dlopen, validate) — and makes its first call, checked.

use crate::cells::{bitwise, call_loaded, close, hand, load_kernel, prepare, reference, Kind, Mat};
use crate::common::{builds, kernel_cache_deltas, setup_passes, Ctx, Outcome, Probe, Sidecar};
use crate::measure::Rng;
use crate::spans::Tracer;
use bernoulli_formats::gen;
use bernoulli_synth::{KernelStore, Session};
use std::time::Instant;

/// (operation, format) pairs an op draws from: every pair with a
/// hand-written baseline to hold the first call to.
const PAIRS: &[(Kind, &str)] = &[
    (Kind::Mvm, "csr"),
    (Kind::Mvm, "csc"),
    (Kind::Mvm, "coo"),
    (Kind::Mvm, "dia"),
    (Kind::Mvm, "ell"),
    (Kind::Mvm, "jad"),
    (Kind::Mvmt, "csr"),
    (Kind::Mvmt, "csc"),
    (Kind::Ts, "csr"),
    (Kind::Ts, "csc"),
    (Kind::Ts, "jad"),
];

/// A pair's operand with its input, reference and hand-written output.
struct Operand {
    kind: Kind,
    fmt: &'static str,
    mat: Mat,
    input: Vec<f64>,
    reference: Vec<f64>,
    hand_out: Vec<f64>,
}

struct State {
    probe: Probe,
    operands: Vec<Operand>,
    session: Session,
}

fn setup(ctx: &Ctx, pass: usize, tr: &Tracer) -> Result<State, String> {
    let session = Session::new().with_threads(ctx.nproc);
    let probe = Probe::build(ctx, &session, &format!("native-probe-{pass}"), tr)?;
    let can = gen::can_1072_like();
    let lower = can.lower_triangle_full_diag(1.0);
    let mut operands = Vec::new();
    for (i, &(kind, fmt)) in PAIRS.iter().enumerate() {
        let t = if kind == Kind::Ts { &lower } else { &can };
        let mat = {
            let _s = tr.span("formats.convert", 0);
            Mat::build(fmt, t)
        };
        let input = gen::dense_vector(t.nrows(), ctx.seed ^ (i as u64 + 1));
        let reference = reference(kind, t, &input);
        let mut hand_out = vec![0.0; reference.len()];
        prepare(kind, &input, &mut hand_out);
        hand(kind, &mat, &input, &mut hand_out).ok_or("pair without a hand-written kernel")?;
        operands.push(Operand {
            kind,
            fmt,
            mat,
            input,
            reference,
            hand_out,
        });
    }
    Ok(State {
        probe,
        operands,
        session,
    })
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kc0 = bernoulli_synth::kernel_cache_stats();
    let st = setup_passes(ctx, &mut out, |pass| setup(ctx, pass, tr))?;
    let mut rng = Rng::stream(ctx.seed, 400);
    let mut lat = Vec::new();
    let mut build_secs = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let csr = st.probe.mvm_csr();
    let mut side = Sidecar::new(
        ctx,
        Some(&st.probe.cells),
        &st.probe.stores.dirs[0],
        csr.loaded[0].artifact_path(),
        tr.on(),
    );
    let deadline = ctx.deadline();
    let t0 = Instant::now();
    let mut order: Vec<usize> = Vec::new();
    while attempted < 5 || Instant::now() < deadline {
        // Every pair once per cycle, in a seeded order.
        if order.is_empty() {
            order = (0..st.operands.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let o = &st.operands[order.pop().expect("order refilled above")];
        let id = attempted;
        attempted += 1;
        let dir = ctx.dir(&format!("native-op-{id}"));
        let store = KernelStore::at(&dir);
        let mut y = vec![0.0; o.reference.len()];
        prepare(o.kind, &o.input, &mut y);
        let start = Instant::now();
        let res = {
            let _op = tr.span("op", id);
            load_kernel(&st.session, &store, o.kind, o.fmt, tr, id).map(|(_, k, secs)| {
                let _s = tr.span("compiled.call", id);
                let called = call_loaded(&k, o.kind, &o.mat, &o.input, &mut y);
                (called, k.from_cache(), secs)
            })
        };
        let secs = start.elapsed().as_secs_f64();
        match res {
            Ok((true, from_cache, load)) if close(&y, &o.reference) && bitwise(&y, &o.hand_out) => {
                lat.push(secs);
                if !from_cache {
                    build_secs.push(load);
                }
            }
            Ok(_) => {
                failed += 1;
                eprintln!(
                    "{}/{}: first call gave a wrong result",
                    o.kind.name(),
                    o.fmt
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("native op {id}: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        side.tick(tr);
    }
    let window = t0.elapsed().as_secs_f64() - side.spent;
    out.attempted += attempted;
    out.failed += failed;
    out.ops(&lat, window);
    side.finish(&mut out, tr, csr, &st.probe.stores.stores[0]);
    if tr.on() {
        builds(&mut out, &build_secs);
        kernel_cache_deltas(&mut out, kc0);
        out.span_median("synth.bind_us", tr, "synth.bind", 1e6);
        out.span_median("synth.search_ms", tr, "synth.search", 1e3);
    }
    Ok(out)
}
