//! The staged compiler driver: a long-lived [`Session`] owning every
//! piece of shared state the synthesis pipeline accumulates — the
//! worker pool, the polyhedral memo caches, the whole-search plan
//! cache, and the search options — behind the four-stage API the
//! paper's pipeline implies:
//!
//! ```text
//! parse(text)          -> Program        (syntax + semantic checks)
//! analyze(&Program)    -> DepReport      (dependence classes, §3)
//! bind(&Program, fmts) -> BoundProblem   (views checked against decls)
//! compile(&Bound)      -> CompiledKernel (ranked candidates, §4)
//! ```
//!
//! A [`CompiledKernel`] can then be [`interpret`](CompiledKernel::interpret)-ed
//! against real formats or [`emit`](CompiledKernel::emit)-ted to Rust
//! source. Because the session owns its caches, warm/cold behavior is
//! explicit: a second identical `compile` on the *same* session hits
//! the plan cache (visible in [`SearchReport::plan_cache_hit`]), while
//! a fresh session starts cold — no process-global state involved.
//! Every failure a caller can trigger surfaces as a typed
//! [`SynthError`]; nothing on these paths panics.
//!
//! The session is the one compile core:
//! [`Service`](crate::service::Service) wraps a session and adds only
//! admission control, request accounting and single-flight coalescing.

use crate::compiled::{KernelArg, KernelBackend, LoadError, LoadedKernel};
use crate::config::ConfigError;
use crate::interp::{run_plan, ExecEnv, RunStats};
use crate::persist::PersistentPlanCache;
use crate::plan::Plan;
use crate::search::{
    plan_cache_key, run_search, Candidate, PlanCache, PlanCacheStats, SearchReport, SynthError,
    SynthOptions,
};
use crate::service::{CacheMode, ServiceConfig};
use bernoulli_formats::view::FormatView;
use bernoulli_govern::{Budget, CancelToken};
use bernoulli_ir::{analyze, parse_program, ArrayKind, DepClass, Program};
use bernoulli_polyhedra::PolyCaches;
use bernoulli_pool::Pool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A long-lived compiler object: create once, compile many kernels.
///
/// Reusing one session across compiles is what makes repeated
/// synthesis fast — the plan cache returns identical requests without
/// searching, and the polyhedral memo caches accelerate even cold
/// searches over structurally similar systems. Dropping the session
/// drops all of that state.
pub struct Session {
    opts: SynthOptions,
    /// A pool this session owns; `None` fans out on the process-global
    /// pool (sized by `BERNOULLI_THREADS`).
    pool: Option<Arc<Pool>>,
    plan_cache: PlanCache,
    /// Optional on-disk plan-cache tier behind `plan_cache`.
    persist: Option<PersistentPlanCache>,
    /// Installed for every compile; the process-wide shared tier when a
    /// [`Service`](crate::service::Service) runs in
    /// [`CacheMode::Shared`](crate::service::CacheMode::Shared).
    poly_caches: Arc<PolyCaches>,
    /// Compiles that ran a search (neither plan-cache tier served them).
    searches: AtomicU64,
    /// Per-compile wall-clock limit (armed afresh at each `compile`).
    budget_deadline: Option<Duration>,
    /// Per-compile ceiling on abstract polyhedral operations.
    budget_ops: Option<u64>,
    /// Lazily created by [`Session::cancel_token`]; observed by every
    /// budget this session arms afterwards.
    cancel: OnceLock<CancelToken>,
}

impl Session {
    /// A session with default [`SynthOptions`], searching on the shared
    /// worker pool.
    pub fn new() -> Session {
        Session::with_options(SynthOptions::default())
    }

    /// A session with explicit search options.
    pub fn with_options(opts: SynthOptions) -> Session {
        Session {
            opts,
            pool: None,
            plan_cache: PlanCache::new(),
            persist: None,
            poly_caches: Arc::new(PolyCaches::new()),
            searches: AtomicU64::new(0),
            budget_deadline: None,
            budget_ops: None,
            cancel: OnceLock::new(),
        }
    }

    /// Gives the session its own worker pool of `nthreads` threads
    /// instead of the shared one.
    pub fn with_threads(mut self, nthreads: usize) -> Session {
        self.pool = Some(Arc::new(Pool::new(nthreads)));
        self
    }

    /// The session a [`Service`](crate::service::Service) wraps: the
    /// configured options, pool and op ceiling, plus a persistent
    /// plan-cache tier and the polyhedral caches `cfg.cache_mode` picks.
    pub(crate) fn for_service(cfg: &ServiceConfig) -> Session {
        Session {
            pool: cfg.threads.map(|n| Arc::new(Pool::new(n))),
            persist: cfg.persist_dir.as_ref().map(PersistentPlanCache::new),
            poly_caches: match cfg.cache_mode {
                CacheMode::Shared => Arc::clone(bernoulli_polyhedra::shared_tier()),
                CacheMode::Isolated => Arc::new(PolyCaches::new()),
            },
            budget_ops: cfg.op_budget,
            ..Session::with_options(cfg.opts.clone())
        }
    }

    /// Caps each `compile` at `limit` of wall-clock time. When the
    /// deadline passes mid-search, the compile degrades gracefully: it
    /// returns the best fully-verified plan found so far (or the
    /// guaranteed-legal baseline plan), with
    /// [`SearchReport::degraded`] set — see the crate docs on resource
    /// governance. The clock is re-armed at the start of every compile.
    pub fn with_deadline(mut self, limit: Duration) -> Session {
        self.budget_deadline = Some(limit);
        self
    }

    /// Caps each `compile` at `max_ops` abstract polyhedral operations
    /// (cf. isl's `max_operations`). Bounds the worst-case exponential
    /// blowup of Fourier–Motzkin elimination on adversarial programs;
    /// exhaustion degrades the search the same way a deadline does.
    pub fn with_op_budget(mut self, max_ops: u64) -> Session {
        self.budget_ops = Some(max_ops);
        self
    }

    /// A cancellation token observed by every subsequent `compile` on
    /// this session. Calling [`CancelToken::cancel`] (from any thread)
    /// makes an in-flight compile stop at its next budget check and
    /// return [`SynthError::Deadline`] with a `Cancelled` cause; unlike
    /// deadline/op exhaustion, cancellation does not run the baseline
    /// fallback — the caller asked for *stop*, not *best effort*.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.get_or_init(CancelToken::new).clone()
    }

    /// The budget a compile with `deadline` runs under, if any limit is
    /// configured. A fresh [`Budget`] per compile: deadlines re-arm, op
    /// counts reset.
    fn arm_budget(&self, deadline: Option<Duration>) -> Option<Arc<Budget>> {
        let cancel = self.cancel.get();
        if deadline.is_none() && self.budget_ops.is_none() && cancel.is_none() {
            return None;
        }
        let mut b = Budget::unlimited();
        if let Some(limit) = deadline {
            b = b.with_deadline(limit);
        }
        if let Some(ops) = self.budget_ops {
            b = b.with_max_ops(ops);
        }
        if let Some(tok) = cancel {
            b = b.with_cancel(tok.clone());
        }
        Some(Arc::new(b))
    }

    /// The session's search options.
    pub fn options(&self) -> &SynthOptions {
        &self.opts
    }

    /// Mutable access to the search options (takes effect on the next
    /// [`compile`](Session::compile)).
    pub fn options_mut(&mut self) -> &mut SynthOptions {
        &mut self.opts
    }

    /// Stage 1 — parse *and semantically validate* program text.
    pub fn parse(&self, text: &str) -> Result<Program, SynthError> {
        let p = parse_program(text)?;
        p.validate()?;
        Ok(p)
    }

    /// Stage 2 — dependence analysis (paper §3): the dependence classes
    /// legality will be checked against. Infallible on a validated
    /// program; offered on the session so drivers can inspect or log
    /// the classes between parsing and binding.
    pub fn analyze(&self, p: &Program) -> DepReport {
        DepReport {
            classes: analyze(p),
        }
    }

    /// Stage 3 — bind a format view to each sparse matrix, checking the
    /// views against the program's declarations: every bound name must
    /// be a declared array, and the view's dense rank must match the
    /// array kind (2 for matrices, 1 for vectors).
    pub fn bind(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        bind_problem(p, views)
    }

    /// Stage 4 — run the search (§4.2–4.3) with the session's options,
    /// pool and caches, returning the ranked candidates as an
    /// executable/emit-able [`CompiledKernel`].
    pub fn compile(&self, problem: &BoundProblem) -> Result<CompiledKernel, SynthError> {
        self.compile_with(problem, &self.opts)
    }

    /// [`compile`](Session::compile) with per-call option overrides
    /// (the session still supplies pool and caches). Used by the
    /// experiment drivers that sweep search knobs.
    pub fn compile_with(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
    ) -> Result<CompiledKernel, SynthError> {
        self.compile_keyed(problem, opts, problem.cache_key(opts), self.budget_deadline)
    }

    /// The compile core behind [`Session::compile_with`] and
    /// [`Service::compile_with`](crate::service::Service::compile_with):
    /// installs this session's polyhedral caches and a budget armed
    /// from `deadline`, the op ceiling and the cancel token (the guards
    /// restore the previous installs even on panic), searches behind
    /// the plan-cache tiers under `cache_key` (which must be
    /// [`BoundProblem::cache_key`] of `opts`), and assembles the kernel.
    pub(crate) fn compile_keyed(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
        cache_key: String,
        deadline: Option<Duration>,
    ) -> Result<CompiledKernel, SynthError> {
        let _poly = bernoulli_polyhedra::install_scoped(Arc::clone(&self.poly_caches));
        // An unlimited compile installs no budget and pays zero
        // governance overhead.
        let _budget = self
            .arm_budget(deadline)
            .map(|b| bernoulli_govern::install_scoped(Some(b)));
        let pool = opts.parallel.then(|| match &self.pool {
            Some(p) => &**p,
            None => Pool::global(),
        });
        let view_map: HashMap<String, FormatView> = problem.views.iter().cloned().collect();
        let report = run_search(
            &problem.program,
            &view_map,
            opts,
            pool,
            &cache_key,
            &self.plan_cache,
            self.persist.as_ref(),
        )?;
        if !report.plan_cache_hit {
            self.searches.fetch_add(1, Ordering::Relaxed);
        }
        if report.candidates.is_empty() {
            return Err(SynthError::NoLegalPlan {
                reasons: report.reasons,
            });
        }
        Ok(CompiledKernel {
            program: problem.program.clone(),
            view_map,
            report,
            cache_key,
        })
    }

    /// Structure-aware selection: analyze the instance bound to
    /// `matrix`, derive the cost-model statistics from the measured
    /// structure, compile `p` against every candidate format in
    /// `formats` (or [`crate::advise::DEFAULT_ADVISOR_FORMATS`] when
    /// empty), and return the `(format, plan)` pairs ranked by
    /// predicted cost together with the feature snapshot.
    ///
    /// Each candidate compile is an ordinary [`Session::compile_with`]
    /// run — same pool, caches, budget, and plan-cache keys — so a
    /// repeated `advise` on the same instance is served warm.
    pub fn advise(
        &self,
        p: &Program,
        matrix: &str,
        t: &bernoulli_formats::Triplets<f64>,
        formats: &[&str],
    ) -> Result<crate::advise::Advice, SynthError> {
        crate::advise::advise_core(p, matrix, t, formats, |bound, stats| {
            let mut opts = self.opts.clone();
            opts.stats = stats.clone();
            Ok(self.compile_with(bound, &opts))
        })
    }

    /// Hit/miss totals of this session's whole-search plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Hit/miss totals of this session's polyhedral memo caches.
    pub fn poly_cache_stats(&self) -> bernoulli_polyhedra::CacheStats {
        self.poly_caches.stats()
    }

    /// Compiles that ran a search: neither plan-cache tier served them.
    pub(crate) fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// The persistent plan-cache tier, if one is configured.
    pub(crate) fn persist(&self) -> Option<&PersistentPlanCache> {
        self.persist.as_ref()
    }

    /// Drops every cached search result and polyhedral memo this
    /// session accumulated (cold-start measurements).
    pub fn clear_caches(&self) {
        self.plan_cache.clear();
        self.poly_caches.clear();
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

/// Stage-3 validation behind [`Session::bind`] and the advisor: every
/// bound name must be a declared array, and the view's dense rank must
/// match the array kind (2 for matrices, 1 for vectors).
pub(crate) fn bind_problem(
    p: &Program,
    views: &[(&str, FormatView)],
) -> Result<BoundProblem, SynthError> {
    p.validate()?;
    for (name, view) in views {
        let decl = p.array(name).ok_or_else(|| SynthError::UnknownMatrix {
            name: name.to_string(),
        })?;
        let need = match decl.kind {
            ArrayKind::Matrix => 2,
            ArrayKind::Vector => 1,
        };
        if view.dense_attrs.len() != need {
            return Err(SynthError::Config(ConfigError(format!(
                "view {:?} for array {name:?} has {} dense attrs, \
                 but the array is declared with {need} dimension(s)",
                view.name,
                view.dense_attrs.len()
            ))));
        }
    }
    Ok(BoundProblem {
        program: p.clone(),
        views: views
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect(),
    })
}

/// The dependence classes of a program (stage 2 output).
#[derive(Clone, Debug)]
pub struct DepReport {
    /// Non-empty dependence classes, one per (source, destination,
    /// array) with a satisfiable constraint system.
    pub classes: Vec<DepClass>,
}

impl DepReport {
    /// Human-readable one-liners, one per class.
    pub fn describe(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.describe()).collect()
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// A validated (program, format views) pair ready to compile (stage 3
/// output). Binding is cheap; the expensive search happens in
/// [`Session::compile`].
#[derive(Clone, Debug)]
pub struct BoundProblem {
    program: Program,
    views: Vec<(String, FormatView)>,
}

impl BoundProblem {
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn views(&self) -> &[(String, FormatView)] {
        &self.views
    }

    /// The plan-cache key of compiling this problem under `opts`. The
    /// same key names the kernel's on-disk artifact (plus ABI/toolchain
    /// salt added by the kernel store): identical compiles reload
    /// identical binaries, across processes.
    pub(crate) fn cache_key(&self, opts: &SynthOptions) -> String {
        plan_cache_key(&self.program, &self.views, opts)
    }
}

/// The outcome of a successful search: ranked candidates plus the
/// search accounting, tied to the program and views they were compiled
/// for so the kernel can run or emit itself without re-supplying
/// context.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    program: Program,
    view_map: HashMap<String, FormatView>,
    report: SearchReport,
    /// Logical identity of this compile (program + views + options);
    /// also keys the on-disk kernel artifact cache.
    cache_key: String,
}

impl CompiledKernel {
    /// The cheapest legal, zero-safe candidate.
    pub fn best(&self) -> &Candidate {
        // Internal invariant: `Session::compile` errors with
        // `NoLegalPlan` instead of constructing an empty kernel.
        &self.report.candidates[0]
    }

    /// The best candidate's lowered plan.
    pub fn plan(&self) -> &Plan {
        &self.best().plan
    }

    /// The best candidate's estimated cost (Fig. 11 model).
    pub fn cost(&self) -> f64 {
        self.best().cost
    }

    /// All surviving candidates, cheapest first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.report.candidates
    }

    /// The full search accounting (examined/pruned counts, rejection
    /// reasons, and whether the whole result came from the plan cache).
    pub fn report(&self) -> &SearchReport {
        &self.report
    }

    /// True iff this kernel was served from the session's plan cache
    /// without searching.
    pub fn from_cache(&self) -> bool {
        self.report.plan_cache_hit
    }

    /// The program this kernel was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The format views the kernel was compiled against.
    pub fn views(&self) -> &HashMap<String, FormatView> {
        &self.view_map
    }

    /// Executes the best plan against the environment (dynamic cursor
    /// API); unbound or mismatched operands surface as
    /// [`SynthError::Plan`].
    pub fn interpret(&self, env: &mut ExecEnv) -> Result<RunStats, SynthError> {
        Ok(run_plan(self.plan(), env)?)
    }

    /// Executes the `i`-th ranked candidate's plan (cost-model
    /// validation sweeps every candidate, not just the best).
    pub fn interpret_candidate(&self, i: usize, env: &mut ExecEnv) -> Result<RunStats, SynthError> {
        let c = self.report.candidates.get(i).ok_or_else(|| {
            SynthError::Plan(crate::interp::PlanError(format!(
                "candidate index {i} out of range ({} candidates)",
                self.report.candidates.len()
            )))
        })?;
        Ok(run_plan(&c.plan, env)?)
    }

    /// The logical cache key of this compile (program + views +
    /// options). The kernel store salts it with ABI version, generated
    /// source, and toolchain identity to name on-disk artifacts.
    pub fn cache_key(&self) -> &str {
        &self.cache_key
    }

    /// Compiles the best plan to native code at runtime and loads it:
    /// the emitted kernel is written as a self-contained cdylib crate,
    /// built with `rustc` through the default on-disk artifact store
    /// (warm artifacts skip the build entirely), and loaded behind the
    /// stable `extern "C"` ABI of [`crate::compiled`].
    pub fn load(&self) -> Result<LoadedKernel, LoadError> {
        self.load_in(&bernoulli_kernel_cache::KernelStore::default_store())
    }

    /// [`load`](CompiledKernel::load) against an explicit artifact
    /// store (tests and benchmarks point this at scratch directories).
    pub fn load_in(
        &self,
        store: &bernoulli_kernel_cache::KernelStore,
    ) -> Result<LoadedKernel, LoadError> {
        crate::compiled::load_kernel(
            &self.program,
            self.plan(),
            &self.view_map,
            &self.cache_key,
            store,
        )
    }

    /// The execution backend for this kernel: native loaded code when
    /// the host can build it, otherwise the interpreter together with
    /// the typed reason ([`LoadError`]) native loading was impossible.
    /// Never fails — degradation is part of the contract.
    pub fn backend(&self) -> KernelBackend {
        self.backend_in(&bernoulli_kernel_cache::KernelStore::default_store())
    }

    /// [`backend`](CompiledKernel::backend) against an explicit
    /// artifact store.
    pub fn backend_in(&self, store: &bernoulli_kernel_cache::KernelStore) -> KernelBackend {
        match self.load_in(store) {
            Ok(k) if k.validated() => KernelBackend::Validated(k),
            Ok(k) => KernelBackend::Compiled(k),
            Err(reason) => KernelBackend::Interpreted { reason },
        }
    }

    /// Runs the kernel through whichever backend was selected, with
    /// the *same positional call convention* on both: `params` in
    /// program order, one [`KernelArg`] per declared array. The two
    /// paths are interchangeable — the equivalence tests in
    /// `bernoulli-blas` hold them bitwise-identical.
    pub fn run_with(
        &self,
        backend: &KernelBackend,
        params: &[i64],
        args: &mut [KernelArg<'_>],
    ) -> Result<(), SynthError> {
        match backend {
            KernelBackend::Validated(k) | KernelBackend::Compiled(k) => Ok(k.run(params, args)?),
            KernelBackend::Interpreted { .. } => {
                crate::compiled::interp_positional(&self.program, self.plan(), params, args)
            }
        }
    }

    /// Specializes the best plan to a self-contained Rust module
    /// (the paper's compiler-instantiated code, Fig. 9).
    pub fn emit(&self, fn_name: &str) -> Result<String, SynthError> {
        Ok(crate::emit::emit_module(
            &self.program,
            self.plan(),
            &self.view_map,
            fn_name,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::{Csr, SparseView, Triplets};

    const MVM: &str = "
        program mvm(M, N) {
          in matrix A[M][N];
          in vector x[N];
          inout vector y[M];
          for i in 0..M {
            for j in 0..N {
              y[i] = y[i] + A[i][j] * x[j];
            }
          }
        }
    ";

    fn csr() -> Csr {
        Csr::from_triplets(&Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
        ))
    }

    #[test]
    fn staged_pipeline_end_to_end() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let deps = s.analyze(&p);
        assert!(!deps.is_empty(), "{:?}", deps.describe());
        let a = csr();
        let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
        let kernel = s.compile(&bound).unwrap();
        assert!(!kernel.from_cache());
        assert!(kernel.cost() > 0.0);

        let mut env = ExecEnv::new();
        env.set_param("M", 3).set_param("N", 3);
        env.bind_sparse("A", &a);
        env.bind_vec("x", vec![1.0, 2.0, 3.0]);
        env.bind_vec("y", vec![0.0; 3]);
        kernel.interpret(&mut env).unwrap();
        assert_eq!(env.take_vec("y"), vec![2.0, 3.0, 8.0]);

        let src = kernel.emit("mvm_csr").unwrap();
        assert!(src.contains("pub fn mvm_csr"), "{src}");
    }

    #[test]
    fn second_identical_compile_hits_session_plan_cache() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let a = csr();
        let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
        let first = s.compile(&bound).unwrap();
        assert!(!first.from_cache());
        let second = s.compile(&bound).unwrap();
        assert!(second.from_cache(), "second identical compile must hit");
        assert_eq!(first.cost(), second.cost());
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Session caches are independent: a fresh session starts cold.
        let fresh = Session::new();
        let b2 = fresh.bind(&p, &[("A", a.format_view())]).unwrap();
        assert!(!fresh.compile(&b2).unwrap().from_cache());
        // The polyhedral work accrued to the sessions' own caches.
        let poly = s.poly_cache_stats();
        assert!(poly.empty_hits + poly.empty_misses > 0, "{poly:?}");
    }

    #[test]
    fn bind_rejects_unknown_matrix_and_rank_mismatch() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let a = csr();
        match s.bind(&p, &[("B", a.format_view())]) {
            Err(SynthError::UnknownMatrix { name }) => assert_eq!(name, "B"),
            other => panic!("expected UnknownMatrix, got {other:?}"),
        }
        // A 2-d view bound to the 1-d vector x: rank disagreement.
        match s.bind(&p, &[("x", a.format_view())]) {
            Err(SynthError::Config(e)) => assert!(e.0.contains("dense attrs"), "{e}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_and_invalid_programs() {
        let s = Session::new();
        match s.parse("program p( {") {
            Err(SynthError::InvalidProgram(bernoulli_ir::IrError::Parse(e))) => {
                assert!(e.line >= 1)
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Syntactically fine, semantically invalid (undeclared array).
        match s.parse("program p(N) { for i in 0..N { z[i] = 1; } }") {
            Err(SynthError::InvalidProgram(bernoulli_ir::IrError::Validate(e))) => {
                assert!(e.0.contains("\"z\""), "{e}")
            }
            other => panic!("expected validate error, got {other:?}"),
        }
    }
}
