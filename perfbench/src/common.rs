//! What every workload shares: the run context, the outcome it
//! reports, repeated set-up, and the sidecar of kernel rounds and
//! restart children interleaved with its ops.

use crate::cells::{
    self, call_probes, BuildCtx, Cell, CellSpec, Kind, Restarter, Restarts, RoundRunner, Rounds,
};
use crate::measure::{geomean, median, tail};
use crate::metrics::GENERIC_CELLS;
use crate::spans::Tracer;
use bernoulli_formats::gen;
use bernoulli_synth::{KernelStore, Session};
use std::cell::Cell as Flag;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shares of the run the sidecar keeps for rounds over the probe cells
/// (every workload but exec) and for restart children; the workload's
/// own ops get the rest.
pub const PROBE_SHARE: f64 = 0.25;
pub const RESTART_SHARE: f64 = 0.15;

/// Path-length step between kernel layouts (see [`Ctx::store_dir`]).
const LAYOUT_PAD: usize = 12;
/// Layouts every timed kernel is built and run in.
pub const KERNEL_LAYOUTS: usize = 3;

pub struct Ctx {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Fresh per-run directory inside the checkout; removed at exit.
    pub tmp: PathBuf,
    pub nproc: usize,
    /// Last-level cache size the host reports, in bytes.
    pub llc_bytes: usize,
    pub process_start: Instant,
    /// Set-up passes whose median is `setup_s`.
    pub setup_passes: usize,
    pub first_setup: Flag<bool>,
}

impl Ctx {
    /// A fresh directory under the run's temp dir.
    pub fn dir(&self, name: &str) -> PathBuf {
        let d = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create a directory under the run's temp dir");
        d
    }

    /// A fresh kernel-store directory. `rustc` embeds the path of the
    /// kernel source it builds — the store directory plus a name with
    /// this process's id — in the kernel, and the path's length shifts
    /// the kernel's code layout, which moves its speed by up to a half.
    /// Padding the name to a fixed length (relative to the working
    /// directory, whatever the pid) gives every run the same layouts;
    /// `layout` picks one of several.
    pub fn store_dir(&self, name: &str, layout: usize) -> PathBuf {
        let pid_digits = std::process::id().to_string().len();
        let pad = "_".repeat(LAYOUT_PAD * (layout + 1) - pid_digits.min(LAYOUT_PAD));
        self.dir(&format!("{name}{pad}"))
    }

    /// One fresh store per kernel layout, named after `name`.
    pub fn stores(&self, name: &str) -> Stores {
        let dirs: Vec<PathBuf> = (0..KERNEL_LAYOUTS)
            .map(|l| self.store_dir(name, l))
            .collect();
        Stores {
            stores: dirs.iter().map(KernelStore::at).collect(),
            dirs,
        }
    }

    /// When a window opened now must close.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Kernel stores, one per layout; the first also serves restarts.
pub struct Stores {
    pub dirs: Vec<PathBuf>,
    pub stores: Vec<KernelStore>,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.insert(name.to_string(), v);
    }

    /// Median span duration of `span`, scaled (1e3 for ms, 1e6 for µs).
    pub fn span_median(&mut self, name: &str, tr: &Tracer, span: &str, scale: f64) {
        let d = tr.durations(span);
        if !d.is_empty() {
            self.layer(name, median(&d) * scale);
        }
    }

    /// `ops_per_s`, `latency_p50_ms` and `latency_tail_ms` from op
    /// latencies (seconds) over a window of `window_s`.
    pub fn ops(&mut self, lat: &[f64], window_s: f64) {
        let t = tail(lat);
        println!(
            "ops {} in {window_s:.3} s; tail is p{} with {} of {} samples beyond it",
            lat.len(),
            t.percentile,
            t.beyond,
            t.samples
        );
        self.e2e.insert("ops_per_s", lat.len() as f64 / window_s);
        self.e2e.insert("latency_p50_ms", median(lat) * 1e3);
        self.e2e.insert("latency_tail_ms", t.value * 1e3);
    }

    /// `mflops_geomean` and `synth_vs_hand` plus the per-cell layer
    /// metrics from interleaved rounds over `cells`.
    pub fn kernels(&mut self, cells: &[Cell], r: &Rounds) {
        self.attempted += r.batches;
        self.failed += r.failed;
        let mut loaded = Vec::new();
        let mut ratios = Vec::new();
        for (c, s) in cells.iter().zip(&r.cells) {
            let lm = cells::mflops(c, &s.loaded);
            loaded.push(lm);
            ratios.push(median(&s.ratio));
            self.layer(&format!("blas.loaded_mflops.{}", c.name), lm);
            self.layer(
                &format!("blas.hand_mflops.{}", c.name),
                cells::mflops(c, &s.hand),
            );
            if GENERIC_CELLS.contains(&c.name.as_str()) {
                self.layer(
                    &format!("blas.generic_mflops.{}", c.name),
                    cells::mflops(c, &s.generic),
                );
            }
            if !s.par.is_empty() {
                let pm = cells::mflops(c, &s.par);
                loaded.push(pm);
                self.layer(&format!("pool.par_mflops.{}", c.name), pm);
                let (seq, par) = (cells::fast_time(&s.loaded), cells::fast_time(&s.par));
                self.layer("pool.par_speedup", seq / par);
                self.layer(
                    &format!("blas.computed_gb_per_s.{}", c.name),
                    c.bytes / seq / 1e9,
                );
            }
            println!(
                "cell {:<16} loaded {:9.1} hand {:9.1} MFLOP/s  hand/loaded {:.3}  ({} rounds, kernel {})",
                c.name,
                lm,
                cells::mflops(c, &s.hand),
                median(&s.ratio),
                s.ratio.len(),
                c.loaded[0]
                    .artifact_path()
                    .file_name()
                    .map_or("?".into(), |f| f.to_string_lossy())
            );
        }
        self.e2e.insert("mflops_geomean", geomean(&loaded));
        self.e2e.insert("synth_vs_hand", geomean(&ratios));
    }
}

/// Runs `setup` `ctx.setup_passes` times and keeps the last state;
/// `setup_s` is the median pass. The first pass in a process is timed
/// from process start, so it includes everything before it.
pub fn setup_passes<S>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<S, String> {
    let mut state = None;
    let mut times = Vec::new();
    for pass in 0..ctx.setup_passes {
        drop(state.take());
        let t0 = if ctx.first_setup.replace(false) {
            ctx.process_start
        } else {
            Instant::now()
        };
        state = Some(setup(pass)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    println!("setup passes (s): {times:?}");
    out.e2e.insert("setup_s", median(&times));
    Ok(state.expect("at least one set-up pass"))
}

/// The two can_1072-like cells every workload but exec times alongside
/// its own ops: the paper's TS on CSR and the CSR product, loaded into
/// a store of their own.
pub struct Probe {
    pub stores: Stores,
    pub cells: Vec<Cell>,
}

pub const PROBE_CELLS: [CellSpec<'static>; 2] = [
    CellSpec {
        name: "ts-csr-can1072",
        kind: Kind::Ts,
        fmt: "csr",
        generic: true,
        par_lanes: 0,
    },
    CellSpec {
        name: "mvm-csr-can1072",
        kind: Kind::Mvm,
        fmt: "csr",
        generic: false,
        par_lanes: 0,
    },
];

impl Probe {
    pub fn build(ctx: &Ctx, session: &Session, dir: &str, tr: &Tracer) -> Result<Probe, String> {
        let stores = ctx.stores(dir);
        let can = gen::can_1072_like();
        let lower = can.lower_triangle_full_diag(1.0);
        let b = BuildCtx {
            session,
            stores: &stores.stores,
            tr,
            seed: ctx.seed,
        };
        let cells = vec![
            PROBE_CELLS[0].build(&lower, &b)?,
            PROBE_CELLS[1].build(&can, &b)?,
        ];
        Ok(Probe { stores, cells })
    }

    pub fn mvm_csr(&self) -> &Cell {
        mvm_csr(&self.cells)
    }
}

pub fn mvm_csr(cells: &[Cell]) -> &Cell {
    cells
        .iter()
        .find(|c| c.name == "mvm-csr-can1072")
        .expect("every workload has the can_1072 CSR product cell")
}

/// Work interleaved with a workload's own ops — rounds over the probe
/// cells and restart children — each kept at its share of the time
/// since the window opened. Interleaving makes every metric sample the
/// whole run: the host's speed drifts over seconds, and a phase run at
/// the end would see only the last few of them.
pub struct Sidecar<'a> {
    probe: Option<RoundRunner<'a>>,
    restarter: Restarter<'a>,
    start: Instant,
    probe_s: f64,
    restart_s: f64,
    /// Seconds spent in the sidecar; the workload's window excludes them.
    pub spent: f64,
}

impl<'a> Sidecar<'a> {
    /// `probe`: cells to run rounds over (none for exec, whose own ops
    /// are rounds); restarts load the CSR product kernel `artifact`
    /// from `store`.
    pub fn new(
        ctx: &Ctx,
        probe: Option<&'a [Cell]>,
        store: &'a Path,
        artifact: &'a Path,
        trace: bool,
    ) -> Sidecar<'a> {
        Sidecar {
            probe: probe.map(RoundRunner::new),
            restarter: Restarter {
                store,
                artifact,
                seed: ctx.seed,
                trace,
                r: Restarts::default(),
            },
            start: Instant::now(),
            probe_s: 0.0,
            restart_s: 0.0,
            spent: 0.0,
        }
    }

    /// Catches up on whatever is behind its share of the elapsed time.
    pub fn tick(&mut self, tr: &Tracer) {
        let elapsed = self.start.elapsed().as_secs_f64();
        if let Some(p) = &mut self.probe {
            while self.probe_s < PROBE_SHARE * elapsed {
                let s = p.step(tr);
                self.probe_s += s;
                self.spent += s;
            }
        }
        if self.restart_s < RESTART_SHARE * elapsed {
            let s = self.restarter.one();
            self.restart_s += s;
            self.spent += s;
        }
    }

    /// Tops up to the minimum sample counts and reports the kernel and
    /// restart metrics; when tracing, also the in-process layer probes
    /// on `cell`, the CSR product kernel loaded from `store`.
    pub fn finish(mut self, out: &mut Outcome, tr: &Tracer, cell: &Cell, store: &KernelStore) {
        if let Some(p) = &mut self.probe {
            while p.res.round_secs.len() < 3 {
                p.step(tr);
            }
            out.kernels(p.cells(), &p.res);
            if tr.on() {
                let b: Vec<f64> = p
                    .cells()
                    .iter()
                    .flat_map(|c| c.build_secs.clone())
                    .collect();
                builds(out, &b);
            }
        }
        while self.restarter.r.ms.len() < 7 && self.restarter.r.attempted < 20 {
            self.restarter.one();
        }
        let r = &self.restarter.r;
        println!(
            "restart children: {} run, {} failed, median {:.2} ms",
            r.attempted,
            r.failed,
            median(&r.ms)
        );
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.e2e.insert("restart_ms", median(&r.ms));
        if tr.on() {
            out.layer("kernel_cache.verify_us", median(&r.verify_us));
            out.layer("kernel_cache.dlopen_us", median(&r.dlopen_us));
            out.layer("compiled.validate_ms", median(&r.validate_ms));
            let p = call_probes(cell, store, tr);
            out.layer("compiled.load_memo_us", p.load_memo_us);
            out.layer("compiled.call_us", p.call_us);
            out.layer("interp.mflops", p.interp_mflops);
        }
    }
}

/// Process-wide kernel-cache counters as deltas from `before`.
pub fn kernel_cache_deltas(out: &mut Outcome, before: bernoulli_synth::KernelCacheStats) {
    let now = bernoulli_synth::kernel_cache_stats();
    out.layer(
        "kernel_cache.builds",
        (now.compiles - before.compiles) as f64,
    );
    out.layer("kernel_cache.hits", (now.hits - before.hits) as f64);
    println!(
        "kernel cache (delta): {} builds, {} hits, {} misses, {} errors, {} corrupt, {} quarantined, {} coalesced",
        now.compiles - before.compiles,
        now.hits - before.hits,
        now.misses - before.misses,
        now.errors - before.errors,
        now.corrupt - before.corrupt,
        now.quarantined - before.quarantined,
        now.coalesced - before.coalesced
    );
}

/// Polyhedral memo-cache deltas.
pub fn poly_deltas(
    out: &mut Outcome,
    before: bernoulli_polyhedra::CacheStats,
    now: bernoulli_polyhedra::CacheStats,
) {
    let eh = now.empty_hits - before.empty_hits;
    let em = now.empty_misses - before.empty_misses;
    let fh = now.fm_hits - before.fm_hits;
    let fm = now.fm_misses - before.fm_misses;
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    out.layer("polyhedra.empty_queries", (eh + em) as f64);
    out.layer("polyhedra.empty_hit_rate", rate(eh, em));
    out.layer("polyhedra.fm_queries", (fh + fm) as f64);
    out.layer("polyhedra.fm_hit_rate", rate(fh, fm));
}

/// Median kernel build time over loads that ran `rustc`.
pub fn builds(out: &mut Outcome, build_secs: &[f64]) {
    if !build_secs.is_empty() {
        out.layer("kernel_cache.build_ms", median(build_secs) * 1e3);
    }
}
