//! `compile`: one caller on one long-lived `Session`; every request is
//! a plan-cache key the session has never seen, run through parse →
//! analyze → bind → compile → emit, with no `rustc`.

use crate::common::{kernel_cache_deltas, poly_deltas, setup_passes, Ctx, Outcome, Probe, Sidecar};
use crate::measure::Rng;
use crate::requests::{Request, RequestStream};
use crate::spans::Tracer;
use bernoulli_synth::{Session, SynthOptions};
use std::time::Instant;

/// At most this many requests are re-compiled after the window by a
/// fresh sequential session and compared byte for byte.
pub const MAX_CHECKS: usize = 24;
/// One request in this many is sampled for that check.
pub const CHECK_ONE_IN: u64 = 8;

struct State {
    probe: Probe,
    session: Session,
}

/// Compiles `req` on a fresh single-threaded session and emits it: the
/// reference the sampled requests are held to.
pub fn sequential_emit(req: &Request) -> Result<String, String> {
    let s = Session::with_options(SynthOptions {
        parallel: false,
        stats: req.stats(),
        ..SynthOptions::default()
    });
    let p = s.parse(req.prog.text()).map_err(|e| e.to_string())?;
    let views = req.views();
    let bound = s.bind(&p, &views).map_err(|e| e.to_string())?;
    let k = s.compile(&bound).map_err(|e| e.to_string())?;
    k.emit("kernel").map_err(|e| e.to_string())
}

/// One request through every stage, each call a span; returns the
/// emitted source and the search report.
fn op(
    session: &Session,
    req: &Request,
    opts: &SynthOptions,
    tr: &Tracer,
    id: u64,
) -> Result<(String, bernoulli_synth::SearchReport), String> {
    let _op = tr.span("op", id);
    let p = {
        let _s = tr.span("ir.parse", id);
        session.parse(req.prog.text())
    }
    .map_err(|e| e.to_string())?;
    {
        let _s = tr.span("ir.analyze", id);
        std::hint::black_box(session.analyze(&p));
    }
    let views = req.views();
    let bound = {
        let _s = tr.span("synth.bind", id);
        session.bind(&p, &views)
    }
    .map_err(|e| e.to_string())?;
    let k = {
        let _s = tr.span("synth.search", id);
        session.compile_with(&bound, opts)
    }
    .map_err(|e| e.to_string())?;
    let src = {
        let _s = tr.span("synth.emit", id);
        k.emit("kernel")
    }
    .map_err(|e| e.to_string())?;
    Ok((src, k.report().clone()))
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kc0 = bernoulli_synth::kernel_cache_stats();
    let st = setup_passes(ctx, &mut out, |pass| {
        let session = Session::new().with_threads(ctx.nproc);
        let probe = Probe::build(ctx, &session, &format!("compile-probe-{pass}"), tr)?;
        Ok(State { probe, session })
    })?;
    let session = &st.session;
    let mut stream = RequestStream::new(ctx.seed, 0);
    let mut pick = Rng::stream(ctx.seed, 100);
    let poly0 = session.poly_cache_stats();
    let mut lat = Vec::new();
    let mut samples: Vec<(Request, String)> = Vec::new();
    let (mut examined, mut pruned, mut kept, mut searched) = (0usize, 0usize, 0usize, 0usize);
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
    let mut id = 0u64;
    while id < 10 || Instant::now() < deadline {
        let req = stream.next().expect("request streams are endless");
        let opts = SynthOptions {
            stats: req.stats(),
            ..session.options().clone()
        };
        let start = Instant::now();
        let res = op(session, &req, &opts, tr, id);
        let secs = start.elapsed().as_secs_f64();
        match res {
            Ok((src, rep)) => {
                lat.push(secs);
                if rep.plan_cache_hit {
                    failed += 1;
                    eprintln!("request {id} ({}) hit the plan cache", req.label());
                }
                examined += rep.examined;
                pruned += rep.pruned;
                kept += rep.candidates.len();
                searched += 1;
                if samples.len() < MAX_CHECKS && pick.below(CHECK_ONE_IN) == 0 {
                    samples.push((req, src));
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("request {id} ({}) failed: {e}", req.label());
            }
        }
        id += 1;
        side.tick(tr);
    }
    let window = t0.elapsed().as_secs_f64() - side.spent;
    out.attempted += id;
    out.ops(&lat, window);
    if tr.on() {
        poly_deltas(&mut out, poly0, session.poly_cache_stats());
    }
    for (req, src) in &samples {
        match sequential_emit(req) {
            Ok(want) if &want == src => {}
            Ok(_) => {
                failed += 1;
                eprintln!(
                    "{}: plan differs from a fresh sequential compile",
                    req.label()
                );
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: fresh sequential compile failed: {e}", req.label());
            }
        }
    }
    println!(
        "checked {} sampled plans against fresh sequential compiles",
        samples.len()
    );
    out.failed += failed;
    side.finish(&mut out, tr, csr, &st.probe.stores.stores[0]);
    if tr.on() {
        let n = searched.max(1) as f64;
        out.layer("synth.search.examined", examined as f64 / n);
        out.layer("synth.search.pruned", pruned as f64 / n);
        out.layer("synth.search.kept", kept as f64 / n);
        out.span_median("ir.parse_us", tr, "ir.parse", 1e6);
        out.span_median("ir.analyze_us", tr, "ir.analyze", 1e6);
        out.span_median("synth.bind_us", tr, "synth.bind", 1e6);
        out.span_median("synth.search_ms", tr, "synth.search", 1e3);
        out.span_median("synth.emit_us", tr, "synth.emit", 1e6);
        kernel_cache_deltas(&mut out, kc0);
    }
    Ok(out)
}
