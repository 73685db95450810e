//! Kernel cells: one synthesized kernel, loaded as native code, next to
//! the hand-written baseline for the same (operation, format, input),
//! and the interleaved rounds that time them. Also the restart probe: a
//! fresh process of this binary that loads a kernel from a populated
//! store and makes its first validated call.

use crate::measure::{median, quantile, round_order};
use crate::spans::Tracer;
use bernoulli_blas::{generic_rhs, handwritten as hw, par};
use bernoulli_formats::formats::bsr::bsr_format_view;
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{gen, Bsr, Coo, Csc, Csr, Dia, Ell, Jad, Triplets};
use bernoulli_synth::{
    CompiledKernel, KernelArg, KernelBackend, KernelStore, LoadError, LoadedKernel, Session,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Output placements cycled through by the rounds, `LAYOUT_STEP`
/// doubles (512 bytes) apart: together they cover one 4 KiB page.
const LAYOUTS: usize = 8;
const LAYOUT_STEP: usize = 64;

/// Work per timed batch, in stored entries touched: small inputs get
/// several calls per batch so each sample is well above timer noise.
const BATCH_NNZ: usize = 200_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Mvm,
    Mvmt,
    Ts,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mvm => "mvm",
            Kind::Mvmt => "mvmt",
            Kind::Ts => "ts",
        }
    }
}

/// The synthesis view for `fmt` (`bsrRxC` for any block shape).
pub fn view(kind: Kind, fmt: &str) -> FormatView {
    match parse_bsr(fmt) {
        Some((r, c)) => bsr_format_view(r, c),
        None => bernoulli_blas::synth::view_for(kind.name(), fmt),
    }
}

fn parse_bsr(fmt: &str) -> Option<(usize, usize)> {
    let (r, c) = fmt.strip_prefix("bsr")?.split_once('x')?;
    Some((r.parse().ok()?, c.parse().ok()?))
}

pub enum Mat {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Coo(Coo<f64>),
    Dia(Dia<f64>),
    Ell(Ell<f64>),
    Jad(Jad<f64>),
    Bsr(Bsr<f64>),
}

impl Mat {
    pub fn build(fmt: &str, t: &Triplets<f64>) -> Mat {
        if let Some((r, c)) = parse_bsr(fmt) {
            return Mat::Bsr(Bsr::from_triplets(t, r, c));
        }
        match fmt {
            "csr" => Mat::Csr(Csr::from_triplets(t)),
            "csc" => Mat::Csc(Csc::from_triplets(t)),
            "coo" => Mat::Coo(Coo::from_triplets(t)),
            "dia" => Mat::Dia(Dia::from_triplets(t)),
            "ell" => Mat::Ell(Ell::from_triplets(t)),
            "jad" => Mat::Jad(Jad::from_triplets(t)),
            other => panic!("no benchmark cell for format {other}"),
        }
    }

    fn arg(&self) -> KernelArg<'_> {
        match self {
            Mat::Csr(m) => KernelArg::Csr(black_box(m)),
            Mat::Csc(m) => KernelArg::Csc(black_box(m)),
            Mat::Coo(m) => KernelArg::Coo(black_box(m)),
            Mat::Dia(m) => KernelArg::Dia(black_box(m)),
            Mat::Ell(m) => KernelArg::Ell(black_box(m)),
            Mat::Jad(m) => KernelArg::Jad(black_box(m)),
            Mat::Bsr(m) => KernelArg::Bsr(black_box(m)),
        }
    }
}

/// Runs the hand-written baseline; `None` when the repository has none
/// for this pair.
pub fn hand(kind: Kind, m: &Mat, x: &[f64], out: &mut [f64]) -> Option<()> {
    match (kind, m) {
        (Kind::Mvm, Mat::Csr(a)) => hw::mvm_csr(a, x, out),
        (Kind::Mvm, Mat::Csc(a)) => hw::mvm_csc(a, x, out),
        (Kind::Mvm, Mat::Coo(a)) => hw::mvm_coo(a, x, out),
        (Kind::Mvm, Mat::Dia(a)) => hw::mvm_dia(a, x, out),
        (Kind::Mvm, Mat::Ell(a)) => hw::mvm_ell(a, x, out),
        (Kind::Mvm, Mat::Jad(a)) => hw::mvm_jad(a, x, out),
        (Kind::Mvm, Mat::Bsr(a)) => hw::mvm_bsr(a, x, out),
        (Kind::Mvmt, Mat::Csr(a)) => hw::mvmt_csr(a, x, out),
        (Kind::Mvmt, Mat::Csc(a)) => hw::mvmt_csc(a, x, out),
        (Kind::Ts, Mat::Csr(l)) => hw::ts_csr(l, out),
        (Kind::Ts, Mat::Csc(l)) => hw::ts_csc(l, out),
        (Kind::Ts, Mat::Jad(l)) => hw::ts_jad(l, out),
        _ => return None,
    }
    Some(())
}

/// The generic multi-right-hand-side code (NIST Fortran style) with one
/// right-hand side, for the triangular-solve cells.
fn generic(m: &Mat, out: &mut [f64]) -> Option<()> {
    match m {
        Mat::Csr(l) => generic_rhs::ts_csr_multi(l, out, 1),
        Mat::Csc(l) => generic_rhs::ts_csc_multi(l, out, 1),
        Mat::Jad(l) => generic_rhs::ts_jad_multi(l, out, 1),
        _ => return None,
    }
    Some(())
}

/// Reference result computed straight from the triplets, independent
/// of the compiler and of every format: `A·x`, `Aᵀ·x`, or the forward
/// substitution `L⁻¹·b`.
pub fn reference(kind: Kind, t: &Triplets<f64>, x: &[f64]) -> Vec<f64> {
    match kind {
        Kind::Mvm => {
            let mut y = vec![0.0; t.nrows()];
            for &(r, c, v) in t.entries() {
                y[r] += v * x[c];
            }
            y
        }
        Kind::Mvmt => {
            let mut y = vec![0.0; t.ncols()];
            for &(r, c, v) in t.entries() {
                y[c] += v * x[r];
            }
            y
        }
        Kind::Ts => {
            let n = t.nrows();
            let mut diag = vec![0.0; n];
            let mut below: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
            for &(r, c, v) in t.entries() {
                if r == c {
                    diag[r] = v;
                } else if r > c {
                    below[r].push((c, v));
                }
            }
            let mut b = x.to_vec();
            for i in 0..n {
                let s: f64 = below[i].iter().map(|&(c, v)| v * b[c]).sum();
                b[i] = (b[i] - s) / diag[i];
            }
            b
        }
    }
}

/// True when `got` matches the reference to within rounding.
pub fn close(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    got.iter()
        .zip(want)
        .all(|(a, b)| (a - b).abs() <= 1e-9 * scale)
}

pub fn bitwise(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compiles `kind` over `fmt` on `session` and makes it ready in
/// `store`, recording the public calls as spans. Anything but a
/// `Validated` backend is an error. Also returns the seconds spent
/// making the kernel ready (emit, build or fetch, dlopen, validate).
pub fn load_kernel(
    session: &Session,
    store: &KernelStore,
    kind: Kind,
    fmt: &str,
    tr: &Tracer,
    req: u64,
) -> Result<(CompiledKernel, LoadedKernel, f64), String> {
    let (p, mat) = bernoulli_blas::synth::spec_for(kind.name());
    let bound = {
        let _s = tr.span("synth.bind", req);
        session.bind(&p, &[(mat, view(kind, fmt))])
    }
    .map_err(|e| format!("{}/{fmt}: bind: {e}", kind.name()))?;
    let compiled = {
        let _s = tr.span("synth.search", req);
        session.compile(&bound)
    }
    .map_err(|e| format!("{}/{fmt}: compile: {e}", kind.name()))?;
    let t0 = Instant::now();
    let backend = {
        let _s = tr.span("compiled.load", req);
        compiled.backend_in(store)
    };
    let secs = t0.elapsed().as_secs_f64();
    match backend {
        KernelBackend::Validated(k) => Ok((compiled, k, secs)),
        KernelBackend::Compiled(_) => Err(format!(
            "{}/{fmt}: native kernel was not validated",
            kind.name()
        )),
        KernelBackend::Interpreted { reason } => Err(format!(
            "{}/{fmt}: fell back to the interpreter: {reason}",
            kind.name()
        )),
    }
}

/// Calls a loaded kernel once: `out` must already hold the initial
/// output (zeros, or the right-hand side for a solve).
pub fn call_loaded(k: &LoadedKernel, kind: Kind, m: &Mat, x: &[f64], out: &mut [f64]) -> bool {
    let (rows, cols) = dims(m);
    let r = match kind {
        Kind::Ts => k.run(&[rows as i64], &mut [m.arg(), KernelArg::Out(out)]),
        Kind::Mvm | Kind::Mvmt => k.run(
            &[rows as i64, cols as i64],
            &mut [m.arg(), KernelArg::In(x), KernelArg::Out(out)],
        ),
    };
    r.is_ok()
}

fn dims(m: &Mat) -> (usize, usize) {
    match m {
        Mat::Csr(a) => (a.nrows, a.ncols),
        Mat::Csc(a) => (a.nrows, a.ncols),
        Mat::Coo(a) => (a.nrows, a.ncols),
        Mat::Dia(a) => (a.nrows, a.ncols),
        Mat::Ell(a) => (a.nrows, a.ncols),
        Mat::Jad(a) => (a.nrows, a.ncols),
        Mat::Bsr(a) => (a.nrows, a.ncols),
    }
}

/// Resets `out` to the initial output of one call.
pub fn prepare(kind: Kind, input: &[f64], out: &mut [f64]) {
    match kind {
        Kind::Ts => out.copy_from_slice(input),
        Kind::Mvm | Kind::Mvmt => out.fill(0.0),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Loaded,
    Hand,
    Generic,
    Par,
}

impl Variant {
    fn span(self) -> &'static str {
        match self {
            Variant::Loaded => "compiled.call",
            Variant::Hand => "blas.hand",
            Variant::Generic => "blas.generic",
            Variant::Par => "pool.par_loaded",
        }
    }
}

/// One timed kernel: the loaded kernel and its baselines on one input.
pub struct Cell {
    pub name: String,
    pub kind: Kind,
    pub mat: Mat,
    /// `x` for a product, the right-hand side `b` for a solve.
    pub input: Vec<f64>,
    pub reference: Vec<f64>,
    /// Output of the hand-written kernel; the loaded kernel must match
    /// it bit for bit.
    pub hand_out: Vec<f64>,
    pub flops: f64,
    /// Bytes a product must move at least once (matrix arrays, `x`,
    /// and `y` read and written), for the computed bandwidth.
    pub bytes: f64,
    pub calls: usize,
    pub compiled: CompiledKernel,
    /// The kernel built once per store of [`BuildCtx::stores`]: the
    /// same code under different layouts, used in turn by the rounds.
    pub loaded: Vec<LoadedKernel>,
    /// Seconds to make each kernel ready that ran `rustc`.
    pub build_secs: Vec<f64>,
    pub variants: Vec<Variant>,
    pub par_lanes: usize,
}

/// What to build: a cell name, operation, format and whether to also
/// time the generic code and the parallel driver.
pub struct CellSpec<'a> {
    pub name: &'a str,
    pub kind: Kind,
    pub fmt: &'a str,
    pub generic: bool,
    pub par_lanes: usize,
}

pub struct BuildCtx<'a> {
    pub session: &'a Session,
    /// One store per kernel layout (see `Ctx::store_dir`).
    pub stores: &'a [KernelStore],
    pub tr: &'a Tracer,
    pub seed: u64,
}

impl CellSpec<'_> {
    pub fn build(&self, t: &Triplets<f64>, b: &BuildCtx) -> Result<Cell, String> {
        let mat = {
            let _s = b.tr.span("formats.convert", 0);
            Mat::build(self.fmt, t)
        };
        let vec_len = if self.kind == Kind::Mvmt {
            t.nrows()
        } else {
            t.ncols()
        };
        let salt = self
            .name
            .bytes()
            .fold(0u64, |h, c| h.wrapping_mul(131) ^ c as u64);
        let input = gen::dense_vector(vec_len, b.seed ^ salt);
        let reference = reference(self.kind, t, &input);
        let mut hand_out = vec![0.0; reference.len()];
        prepare(self.kind, &input, &mut hand_out);
        hand(self.kind, &mat, &input, &mut hand_out)
            .ok_or_else(|| format!("{}: no hand-written kernel", self.name))?;
        let mut compiled = None;
        let mut loaded = Vec::new();
        let mut build_secs = Vec::new();
        for store in b.stores {
            let (c, k, secs) = load_kernel(b.session, store, self.kind, self.fmt, b.tr, 0)?;
            if !k.from_cache() {
                build_secs.push(secs);
            }
            compiled = Some(c);
            loaded.push(k);
        }
        let compiled = compiled.ok_or("no kernel store to build into")?;
        let (rows, cols) = (t.nrows() as f64, t.ncols() as f64);
        let nnz = t.nnz();
        let mut variants = vec![Variant::Loaded, Variant::Hand];
        if self.generic {
            variants.push(Variant::Generic);
        }
        if self.par_lanes > 0 {
            variants.push(Variant::Par);
        }
        Ok(Cell {
            name: self.name.to_string(),
            kind: self.kind,
            mat,
            input,
            reference,
            hand_out,
            flops: 2.0 * nnz as f64,
            bytes: 16.0 * nnz as f64 + 8.0 * (rows + 1.0) + 8.0 * cols + 16.0 * rows,
            calls: (BATCH_NNZ / nnz.max(1)).max(1),
            build_secs,
            compiled,
            loaded,
            variants,
            par_lanes: self.par_lanes,
        })
    }
}

impl Cell {
    /// Runs one batch of `variant`, loaded kernels in `layout`; returns
    /// seconds per call and whether the output was right.
    fn batch(&self, v: Variant, layout: usize, out: &mut [f64]) -> (f64, bool) {
        let k = &self.loaded[layout % self.loaded.len()];
        let t0 = Instant::now();
        let mut ok = true;
        for _ in 0..self.calls {
            prepare(self.kind, &self.input, out);
            ok &= match v {
                Variant::Loaded => call_loaded(k, self.kind, &self.mat, &self.input, out),
                Variant::Hand => hand(self.kind, &self.mat, &self.input, out).is_some(),
                Variant::Generic => generic(&self.mat, out).is_some(),
                Variant::Par => match &self.mat {
                    Mat::Csr(a) => {
                        par::par_loaded_mvm_csr(k, a, &self.input, out, self.par_lanes).is_ok()
                    }
                    _ => false,
                },
            };
            black_box(&mut *out);
        }
        let secs = t0.elapsed().as_secs_f64() / self.calls as f64;
        // The generic code sums in its own order, so it is held to the
        // reference only; every other path must equal the hand-written
        // kernel bit for bit (the loaded ≡ hand claim).
        ok &=
            close(out, &self.reference) && (v == Variant::Generic || bitwise(out, &self.hand_out));
        (secs, ok)
    }
}

/// Per-call seconds of each variant of one cell, one sample per round,
/// and the per-round hand/loaded ratio.
#[derive(Default)]
pub struct CellSamples {
    pub loaded: Vec<f64>,
    pub hand: Vec<f64>,
    pub generic: Vec<f64>,
    pub par: Vec<f64>,
    pub ratio: Vec<f64>,
}

pub struct Rounds {
    pub round_secs: Vec<f64>,
    pub cells: Vec<CellSamples>,
    pub batches: u64,
    pub failed: u64,
}

/// Interleaved rounds over a set of cells, one [`step`](Self::step) at
/// a time: each round runs one batch of every (cell, variant) slot, in
/// an order that reverses every round.
pub struct RoundRunner<'a> {
    cells: &'a [Cell],
    slots: Vec<(usize, Variant)>,
    /// Output buffers, each long enough to start at any of `LAYOUTS`
    /// offsets. Rounds cycle through the kernel layouts and, within
    /// that, through the offsets, so no run is stuck with one lucky or
    /// unlucky placement of code or output.
    outs: Vec<Vec<f64>>,
    pub res: Rounds,
}

impl<'a> RoundRunner<'a> {
    pub fn new(cells: &'a [Cell]) -> RoundRunner<'a> {
        RoundRunner {
            cells,
            slots: cells
                .iter()
                .enumerate()
                .flat_map(|(i, c)| c.variants.iter().map(move |&v| (i, v)))
                .collect(),
            outs: cells
                .iter()
                .map(|c| vec![0.0; c.reference.len() + LAYOUTS * LAYOUT_STEP])
                .collect(),
            res: Rounds {
                round_secs: Vec::new(),
                cells: cells.iter().map(|_| CellSamples::default()).collect(),
                batches: 0,
                failed: 0,
            },
        }
    }

    pub fn cells(&self) -> &'a [Cell] {
        self.cells
    }

    /// Runs one round; returns its wall time in seconds.
    pub fn step(&mut self, tr: &Tracer) -> f64 {
        let round = self.res.round_secs.len();
        let cells = self.cells;
        let t0 = Instant::now();
        let mut loaded_t = vec![0.0; cells.len()];
        let mut hand_t = vec![0.0; cells.len()];
        for s in round_order(self.slots.len(), round) {
            let (ci, v) = self.slots[s];
            let (secs, ok) = {
                let _s = tr.span(v.span(), round as u64);
                let c = &cells[ci];
                let off = (round / c.loaded.len() % LAYOUTS) * LAYOUT_STEP;
                let n = c.reference.len();
                c.batch(v, round, &mut self.outs[ci][off..off + n])
            };
            self.res.batches += 1;
            if !ok {
                self.res.failed += 1;
                eprintln!("wrong output: {} {:?} (round {round})", cells[ci].name, v);
            }
            let cs = &mut self.res.cells[ci];
            match v {
                Variant::Loaded => {
                    cs.loaded.push(secs);
                    loaded_t[ci] = secs;
                }
                Variant::Hand => {
                    cs.hand.push(secs);
                    hand_t[ci] = secs;
                }
                Variant::Generic => cs.generic.push(secs),
                Variant::Par => cs.par.push(secs),
            }
        }
        for ci in 0..cells.len() {
            self.res.cells[ci].ratio.push(hand_t[ci] / loaded_t[ci]);
        }
        let secs = t0.elapsed().as_secs_f64();
        self.res.round_secs.push(secs);
        secs
    }
}

/// Which per-call time a kernel's speed is reported at: the fastest
/// decile of its rounds. The host's speed drifts by up to a quarter
/// over seconds (other tenants on the same cores); the fast decile is
/// what the kernel does when the host lets it, and it moves far less
/// from run to run than the median.
pub const FAST: f64 = 0.1;

/// The per-call time a cell's speed is reported at.
pub fn fast_time(samples: &[f64]) -> f64 {
    quantile(samples, FAST)
}

/// MFLOP/s of a cell at its fast-decile per-call time.
pub fn mflops(cell: &Cell, samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    cell.flops / fast_time(samples) / 1e6
}

/// Layer probes on a loaded CSR product kernel: the memoized warm load,
/// the call overhead on a tiny instance, and the interpreter's speed.
pub struct CallProbes {
    pub load_memo_us: f64,
    pub call_us: f64,
    pub interp_mflops: f64,
}

pub fn call_probes(cell: &Cell, store: &KernelStore, tr: &Tracer) -> CallProbes {
    let mut memo = Vec::new();
    for i in 0..20 {
        let _s = tr.span("compiled.load_memo", i);
        let t0 = Instant::now();
        black_box(cell.compiled.load_in(store).is_ok());
        memo.push(t0.elapsed().as_secs_f64());
    }
    let tiny = Csr::from_triplets(&gen::tridiagonal(4));
    let x = [1.0, 2.0, 3.0, 4.0];
    let mut y = [0.0; 4];
    let mut calls = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        for _ in 0..500 {
            y.fill(0.0);
            let args = &mut [
                KernelArg::Csr(black_box(&tiny)),
                KernelArg::In(&x),
                KernelArg::Out(&mut y),
            ];
            black_box(cell.loaded[0].run(&[4, 4], args).is_ok());
        }
        calls.push(t0.elapsed().as_secs_f64() / 500.0);
    }
    let interp = KernelBackend::Interpreted {
        reason: LoadError::Emit(bernoulli_synth::EmitError("interpreter probe".into())),
    };
    let mut out = vec![0.0; cell.reference.len()];
    let mut runs = Vec::new();
    for i in 0..3 {
        let _s = tr.span("interp.run", i);
        prepare(cell.kind, &cell.input, &mut out);
        let (rows, cols) = dims(&cell.mat);
        let t0 = Instant::now();
        let ok = cell
            .compiled
            .run_with(
                &interp,
                &[rows as i64, cols as i64],
                &mut [
                    cell.mat.arg(),
                    KernelArg::In(&cell.input),
                    KernelArg::Out(&mut out),
                ],
            )
            .is_ok();
        runs.push(t0.elapsed().as_secs_f64());
        if !ok || !close(&out, &cell.reference) {
            eprintln!("interpreter probe gave a wrong result on {}", cell.name);
        }
    }
    CallProbes {
        load_memo_us: median(&memo) * 1e6,
        call_us: median(&calls) * 1e6,
        interp_mflops: cell.flops / median(&runs) / 1e6,
    }
}

/// What the restart children reported.
#[derive(Default)]
pub struct Restarts {
    pub ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub verify_us: Vec<f64>,
    pub dlopen_us: Vec<f64>,
    pub validate_ms: Vec<f64>,
}

/// Runs restart children one at a time. Each is a fresh process of
/// this binary that loads the CSR product kernel from the populated
/// store; its wall time from spawn to exit is one `restart_ms` sample.
pub struct Restarter<'a> {
    pub store: &'a Path,
    pub artifact: &'a Path,
    pub seed: u64,
    pub trace: bool,
    pub r: Restarts,
}

impl Restarter<'_> {
    /// Runs one child; returns the seconds it took.
    pub fn one(&mut self) -> f64 {
        let exe = std::env::current_exe().expect("path of the running benchmark binary");
        let r = &mut self.r;
        r.attempted += 1;
        let t0 = Instant::now();
        let out = std::process::Command::new(&exe)
            .arg("--restart-child")
            .arg(self.store)
            .arg(self.artifact)
            .arg(self.seed.to_string())
            .arg(if self.trace { "1" } else { "0" })
            .stderr(std::process::Stdio::inherit())
            .output();
        let secs = t0.elapsed().as_secs_f64();
        let line = match &out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).to_string(),
            Ok(o) => {
                eprintln!("restart child exited with {}", o.status);
                String::new()
            }
            Err(e) => {
                eprintln!("restart child did not start: {e}");
                String::new()
            }
        };
        let field = |k: &str| -> Option<f64> {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(k)?.strip_prefix('=')?.parse().ok())
        };
        if field("ok") != Some(1.0) {
            r.failed += 1;
            eprintln!("restart child failed: {}", line.trim());
            return secs;
        }
        r.ms.push(secs * 1e3);
        if self.trace {
            r.verify_us.extend(field("verify_us"));
            r.dlopen_us.extend(field("dlopen_us"));
            r.validate_ms.extend(field("validate_ms"));
        }
        secs
    }
}

/// Body of a restart child: compile the CSR product kernel, load it
/// from the populated store (checksum, dlopen, validation), make the
/// first call on a small seeded input and check it. Prints one line of
/// `key=value` fields; `ok=1` only if the kernel came from the store,
/// was validated, and its output matched.
pub fn restart_child(store: &Path, artifact: &Path, seed: u64, trace: bool) {
    let store = KernelStore::at(store);
    let mut fields = Vec::new();
    if trace {
        // Cold costs first, while neither the checksum nor the library
        // has been touched by this process.
        let t0 = Instant::now();
        let verified = store.verify(artifact).is_ok();
        fields.push(format!("verify_us={}", t0.elapsed().as_secs_f64() * 1e6));
        let t0 = Instant::now();
        let lib = bernoulli_kernel_cache::Library::open(artifact);
        fields.push(format!("dlopen_us={}", t0.elapsed().as_secs_f64() * 1e6));
        if !verified || lib.is_err() {
            println!("ok=0 artifact_unusable=1");
            return;
        }
    }
    let session = Session::new().with_threads(1);
    let (p, mat) = bernoulli_blas::synth::spec_for("mvm");
    let loaded = session
        .bind(&p, &[(mat, view(Kind::Mvm, "csr"))])
        .and_then(|b| session.compile(&b));
    let compiled = match loaded {
        Ok(k) => k,
        Err(e) => {
            println!("ok=0 compile_error=1 # {e}");
            return;
        }
    };
    let (k, validated) = match compiled.backend_in(&store) {
        KernelBackend::Validated(k) => (k, true),
        KernelBackend::Compiled(k) => (k, false),
        KernelBackend::Interpreted { reason } => {
            println!("ok=0 interpreted=1 # {reason}");
            return;
        }
    };
    let t = gen::banded(256, 4, seed);
    let a = Mat::Csr(Csr::from_triplets(&t));
    let x = gen::dense_vector(256, seed ^ 1);
    let mut y = vec![0.0; 256];
    let called = call_loaded(&k, Kind::Mvm, &a, &x, &mut y);
    let mut want = vec![0.0; 256];
    hand(Kind::Mvm, &a, &x, &mut want);
    let right = called && close(&y, &reference(Kind::Mvm, &t, &x)) && bitwise(&y, &want);
    let ok = validated && k.from_cache() && right;
    if trace {
        // Validation cost, from outside: warm loads with the probe on
        // (memo cleared) against warm loads with it off.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            bernoulli_synth::clear_kernel_validation_memo();
            let t0 = Instant::now();
            black_box(compiled.load_in(&store).is_ok());
            on.push(t0.elapsed().as_secs_f64());
            bernoulli_synth::set_kernel_validation(false);
            let t0 = Instant::now();
            black_box(compiled.load_in(&store).is_ok());
            off.push(t0.elapsed().as_secs_f64());
            bernoulli_synth::set_kernel_validation(true);
        }
        fields.push(format!(
            "validate_ms={}",
            (median(&on) - median(&off)) * 1e3
        ));
    }
    println!(
        "ok={} from_cache={} validated={validated} right={right} {}",
        u8::from(ok),
        k.from_cache(),
        fields.join(" ")
    );
}
