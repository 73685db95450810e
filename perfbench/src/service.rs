//! `service`: `nproc` callers on one `Service` with a persistent plan
//! cache. Requests are a skewed draw from a key pool larger than the
//! in-memory plan cache; every `PAIR_EVERY`-th op the callers meet and
//! ask for the same never-seen key — a TS over CSR, the paper's running
//! example — at the same time. Every other op picks its
//! (program, format) pair uniformly and then one of the pair's
//! `PER_PAIR` instances by a Zipf draw, so the skew is over instances
//! and every seed sends the same mix of programs.

use crate::common::{kernel_cache_deltas, poly_deltas, setup_passes, Ctx, Outcome, Probe, Sidecar};
use crate::compile::{sequential_emit, CHECK_ONE_IN, MAX_CHECKS};
use crate::measure::{median, Rng};
use crate::requests::{pair_count, Prog, Request, RequestStream};
use crate::spans::Tracer;
use bernoulli_synth::{CacheMode, CompiledKernel, Service, ServiceConfig, Session};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Keys per (program, format) pair: 26 pairs × 10 = 260 keys in the
/// pool, while the in-memory plan cache holds 128.
const PER_PAIR: usize = 10;
/// Zipf exponent of the draw among a pair's keys.
const SKEW: f64 = 1.1;
/// Each caller's every `PAIR_EVERY`-th op is a same-key arrival.
const PAIR_EVERY: usize = 32;

struct State {
    probe: Probe,
    service: Service,
    pool: Vec<Request>,
    /// Pool indices of each pair's keys, in pool order.
    by_pair: Vec<Vec<usize>>,
    /// Never-seen keys for the same-key arrivals, drawn on demand from
    /// the stream the pool came from. All are TS over CSR, so misses
    /// cost about the same and the tail percentile, which falls among
    /// them, does not jump between programs of very different search
    /// cost from run to run.
    fresh: Mutex<(RequestStream, Vec<std::sync::Arc<Request>>)>,
    _session: Session,
}

impl State {
    fn fresh(&self, i: usize) -> std::sync::Arc<Request> {
        let mut g = self.fresh.lock().expect("fresh-key list lock");
        while g.1.len() <= i {
            let r = g.0.next().expect("request streams are endless");
            g.1.push(std::sync::Arc::new(r));
        }
        std::sync::Arc::clone(&g.1[i])
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Miss,
}

/// One request: features → parse → bind → `Service::compile_with`.
fn op(svc: &Service, req: &Request, tr: &Tracer, id: u64) -> Result<CompiledKernel, String> {
    let _op = tr.span("op", id);
    let stats = {
        let _s = tr.span("formats.features", id);
        req.stats()
    };
    let p = {
        let _s = tr.span("ir.parse", id);
        svc.parse(req.prog.text())
    }
    .map_err(|e| e.to_string())?;
    let views = req.views();
    let bound = {
        let _s = tr.span("synth.bind", id);
        svc.bind(&p, &views)
    }
    .map_err(|e| e.to_string())?;
    let opts = bernoulli_synth::SynthOptions {
        stats,
        ..svc.config().opts.clone()
    };
    let _s = tr.span("service.compile", id);
    svc.compile_with(&bound, &opts, None)
        .map_err(|e| e.to_string())
}

/// Cumulative Zipf weights over the pool.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(SKEW);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

#[derive(Default)]
struct CallerLog {
    lat: Vec<(f64, Tier)>,
    failed: u64,
    attempted: u64,
    samples: Vec<(
        Option<usize>,
        Option<std::sync::Arc<Request>>,
        CompiledKernel,
    )>,
    examined: usize,
    pruned: usize,
    kept: usize,
    searched: usize,
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let kc0 = bernoulli_synth::kernel_cache_stats();
    let st = setup_passes(ctx, &mut out, |pass| {
        // Each pass starts from cold process-wide polyhedral memos, so
        // every pass does the same work.
        bernoulli_polyhedra::clear_caches();
        let session = Session::new().with_threads(ctx.nproc);
        let probe = Probe::build(ctx, &session, &format!("service-probe-{pass}"), tr)?;
        let service = Service::new(ServiceConfig {
            max_inflight: ctx.nproc,
            max_queue: 64,
            threads: Some(ctx.nproc),
            persist_dir: Some(ctx.dir(&format!("service-plans-{pass}"))),
            cache_mode: CacheMode::Shared,
            ..ServiceConfig::default()
        });
        let mut stream = RequestStream::new(ctx.seed, 0);
        let pool: Vec<Request> = stream.by_ref().take(PER_PAIR * pair_count()).collect();
        let mut by_pair: Vec<Vec<usize>> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        for (i, r) in pool.iter().enumerate() {
            let l = r.label();
            match labels.iter().position(|x| *x == l) {
                Some(p) => by_pair[p].push(i),
                None => {
                    labels.push(l);
                    by_pair.push(vec![i]);
                }
            }
        }
        // Warm every pool key: searched once, written to disk.
        for (i, req) in pool.iter().enumerate() {
            op(&service, req, tr, i as u64).map_err(|e| format!("warming {}: {e}", req.label()))?;
        }
        Ok(State {
            probe,
            service,
            pool,
            by_pair,
            fresh: Mutex::new((stream.only(Prog::Ts, "csr"), Vec::new())),
            _session: session,
        })
    })?;
    let svc = &st.service;
    let s0 = svc.stats();
    let p0 = svc.plan_cache_stats();
    let d0 = svc.persist_stats().unwrap_or_default();
    let poly0 = bernoulli_polyhedra::cache_stats();
    let cdf = zipf_cdf(PER_PAIR);
    let barrier = Barrier::new(ctx.nproc);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let csr = st.probe.mvm_csr();
    let side = Mutex::new(Sidecar::new(
        ctx,
        Some(&st.probe.cells),
        &st.probe.stores.dirs[0],
        csr.loaded[0].artifact_path(),
        tr.on(),
    ));
    let deadline = ctx.deadline();
    let seed = ctx.seed;
    let t0 = Instant::now();
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|c| {
                let (st, cdf, barrier, stop, side) = (&st, &cdf, &barrier, &stop, &side);
                s.spawn(move || {
                    let mut rng = Rng::stream(seed, 200 + c as u64);
                    let mut pick = Rng::stream(seed, 300 + c as u64);
                    let mut log = CallerLog::default();
                    for j in 0.. {
                        let id = ((c as u64) << 40) | j as u64;
                        let (key, fresh) = if j % PAIR_EVERY == PAIR_EVERY - 1 {
                            // The leader runs the sidecar while the other
                            // callers wait at the second barrier.
                            if barrier.wait().is_leader() {
                                side.lock().expect("sidecar lock").tick(tr);
                                if Instant::now() >= deadline {
                                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                                }
                            }
                            barrier.wait();
                            if stop.load(std::sync::atomic::Ordering::SeqCst) {
                                break;
                            }
                            (None, Some(st.fresh(j / PAIR_EVERY)))
                        } else {
                            let keys = &st.by_pair[rng.below(st.by_pair.len() as u64) as usize];
                            let u = rng.unit();
                            let k = cdf.partition_point(|&w| w < u).min(keys.len() - 1);
                            (Some(keys[k]), None)
                        };
                        let req: &Request = match (&key, &fresh) {
                            (Some(k), _) => &st.pool[*k],
                            (None, Some(f)) => f,
                            (None, None) => unreachable!("every op has a key"),
                        };
                        log.attempted += 1;
                        let start = Instant::now();
                        let res = op(&st.service, req, tr, id);
                        let secs = start.elapsed().as_secs_f64();
                        match res {
                            Ok(k) => {
                                let r = k.report();
                                let tier = if r.plan_cache_disk_hit {
                                    Tier::Disk
                                } else if r.plan_cache_hit {
                                    Tier::Memory
                                } else {
                                    log.examined += r.examined;
                                    log.pruned += r.pruned;
                                    log.kept += r.candidates.len();
                                    log.searched += 1;
                                    Tier::Miss
                                };
                                log.lat.push((secs, tier));
                                if log.samples.len() < MAX_CHECKS / 2
                                    && pick.below(CHECK_ONE_IN * 4) == 0
                                {
                                    log.samples.push((key, fresh, k));
                                }
                            }
                            Err(e) => {
                                log.failed += 1;
                                eprintln!("service request {} failed: {e}", req.label());
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service caller thread"))
            .collect()
    });
    let side = side.into_inner().expect("sidecar lock");
    let window = t0.elapsed().as_secs_f64() - side.spent;
    let (s1, p1, d1) = (
        svc.stats(),
        svc.plan_cache_stats(),
        svc.persist_stats().unwrap_or_default(),
    );
    let submitted = s1.submitted - s0.submitted;
    let hits = p1.hits - p0.hits;
    let misses = p1.misses - p0.misses;
    let coalesced = s1.coalesced - s0.coalesced;
    let gap = submitted as i64 - (hits + misses + coalesced) as i64;
    println!(
        "service accounting: submitted {submitted} = plan hits {hits} + misses {misses} + coalesced {coalesced} {} gap {gap}",
        if gap == 0 { "with" } else { "MISMATCH:" }
    );
    let lat: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lat.iter().map(|x| x.0))
        .collect();
    out.ops(&lat, window);
    let tier = |t: Tier| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.lat.iter().filter(|x| x.1 == t).map(|x| x.0))
            .collect()
    };
    let (mem, disk, miss) = (tier(Tier::Memory), tier(Tier::Disk), tier(Tier::Miss));
    let q = |v: &[f64], p: f64| crate::measure::quantile(v, p) * 1e3;
    println!(
        "service tiers: {} memory hits (p50 {:.3} ms), {} disk hits (p50 {:.3} ms), \
         {} misses or coalesced (p50 {:.3} ms, p90 {:.3} ms)",
        mem.len(),
        q(&mem, 0.5),
        disk.len(),
        q(&disk, 0.5),
        miss.len(),
        q(&miss, 0.5),
        q(&miss, 0.9)
    );
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    out.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    let mut checked = 0;
    for l in &logs {
        for (key, fresh, k) in &l.samples {
            let req: &Request = match (key, fresh) {
                (Some(i), _) => &st.pool[*i],
                (None, Some(f)) => f,
                (None, None) => continue,
            };
            checked += 1;
            let got = k.emit("kernel").map_err(|e| e.to_string());
            match (got, sequential_emit(req)) {
                (Ok(a), Ok(b)) if a == b => {}
                (a, b) => {
                    failed += 1;
                    eprintln!(
                        "{}: service plan differs from a fresh sequential compile ({} / {})",
                        req.label(),
                        a.is_ok(),
                        b.is_ok()
                    );
                }
            }
        }
    }
    println!("checked {checked} sampled plans against fresh sequential compiles");
    out.failed += failed;
    side.finish(&mut out, tr, csr, &st.probe.stores.stores[0]);
    if tr.on() {
        let ops = lat.len().max(1) as f64;
        out.layer("service.hit_us", median(&mem) * 1e6);
        out.layer("service.disk_hit_us", median(&disk) * 1e6);
        out.layer("service.miss_ms", median(&miss) * 1e3);
        out.layer(
            "service.plan_hit_ratio",
            (mem.len() + disk.len()) as f64 / ops,
        );
        out.layer("service.coalesced", coalesced as f64);
        out.layer("service.searches", (s1.searches - s0.searches) as f64);
        out.layer("service.persist_writes", (d1.writes - d0.writes) as f64);
        out.layer("service.accounting_gap", gap as f64);
        let searched: usize = logs.iter().map(|l| l.searched).sum();
        let n = searched.max(1) as f64;
        out.layer(
            "synth.search.examined",
            logs.iter().map(|l| l.examined).sum::<usize>() as f64 / n,
        );
        out.layer(
            "synth.search.pruned",
            logs.iter().map(|l| l.pruned).sum::<usize>() as f64 / n,
        );
        out.layer(
            "synth.search.kept",
            logs.iter().map(|l| l.kept).sum::<usize>() as f64 / n,
        );
        poly_deltas(&mut out, poly0, bernoulli_polyhedra::cache_stats());
        out.span_median("formats.features_us", tr, "formats.features", 1e6);
        out.span_median("ir.parse_us", tr, "ir.parse", 1e6);
        out.span_median("synth.bind_us", tr, "synth.bind", 1e6);
        kernel_cache_deltas(&mut out, kc0);
    }
    Ok(out)
}
