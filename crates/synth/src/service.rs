//! A multi-tenant compile server: concurrent [`compile`](Service::compile)
//! calls from many threads multiplexed over one shared worker pool and
//! shared caches (S38).
//!
//! A [`Service`] wraps one [`Session`] — the compile core that owns the
//! pool, the plan cache and the polyhedral caches, and arms each
//! compile's budget — and is built to be shared: it is `Send + Sync`,
//! wrap it in an `Arc` and hand clones to as many client threads as
//! you like. On top of the session it adds:
//!
//! 1. **Cache tiers.** All requests share the session's whole-search
//!    plan cache, optionally backed by a *persistent* plan cache
//!    ([`PersistentPlanCache`](crate::persist::PersistentPlanCache))
//!    that warm-starts searches across process restarts. [`CacheMode`]
//!    picks the polyhedral memo caches: the process-wide tier
//!    ([`bernoulli_polyhedra::shared_tier`]) or the service's own.
//! 2. **Admission control.** In-flight compiles are bounded
//!    ([`ServiceConfig::max_inflight`]); excess requests wait in a
//!    strict FIFO queue of bounded depth ([`ServiceConfig::max_queue`]).
//!    A full queue sheds load with [`ServiceError::Overloaded`]; a
//!    request whose deadline expires while still queued is rejected
//!    with [`ServiceError::QueueDeadline`] rather than admitted late.
//!    FIFO tickets make admission fair: no request can starve behind
//!    later arrivals.
//! 3. **Per-request budgets.** The session arms each admitted compile
//!    a fresh [`Budget`](bernoulli_govern::Budget) from the *remaining*
//!    deadline (queue wait is charged against the request, not
//!    forgiven) plus the configured op ceiling, so one adversarial
//!    program degrades itself instead of the tenancy.
//! 4. **Single-flight coalescing.** Concurrent compiles of the same
//!    plan-cache key share one search (and hence one kernel build
//!    downstream): the first request leads, the rest wait and receive
//!    the leader's result — or its typed error — without re-searching.
//!    Degraded results are never shared (each request's budget is its
//!    own), and requests with plan caching disabled never coalesce.
//!
//! Determinism is preserved under concurrency: compiles taken through
//! the service produce byte-identical plans and emitted source to the
//! same compiles run sequentially on a fresh session (the concurrency
//! suite in `tests/` holds this). Nothing on these paths panics.

use crate::persist::PersistStats;
use crate::search::{PlanCacheStats, SynthError, SynthOptions};
use crate::session::{BoundProblem, CompiledKernel, DepReport, Session};
use bernoulli_formats::view::FormatView;
use bernoulli_govern::flight::{Flights, Flown};
use bernoulli_ir::Program;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Which polyhedral memo caches the service's compiles use. (The
/// whole-search *plan* cache always belongs to the service; this mode
/// governs the fine-grained polyhedral memos only.) Both modes give
/// identical compiler output; only hit rates differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Read and write the process-wide shared tier (the default).
    /// Maximum reuse across tenants; safe because cached decisions are
    /// keyed by canonicalized constraint systems and are
    /// input-deterministic.
    #[default]
    Shared,
    /// Caches private to this service instance, exactly as a
    /// [`Session`] has; nothing read from or written to the shared
    /// tier. For tenants that must not observe cross-tenant cache
    /// effects.
    Isolated,
}

/// Configuration for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum compiles running concurrently. Further requests queue.
    pub max_inflight: usize,
    /// Maximum requests waiting for admission; a full queue sheds new
    /// arrivals with [`ServiceError::Overloaded`].
    pub max_queue: usize,
    /// Deadline applied to [`Service::compile`] requests (queue wait
    /// included). `None`: wait and search without time limit.
    pub default_deadline: Option<Duration>,
    /// Per-compile ceiling on abstract polyhedral operations (see
    /// [`Budget::with_max_ops`](bernoulli_govern::Budget::with_max_ops)).
    pub op_budget: Option<u64>,
    /// `Some(n)`: the service owns a private `n`-thread worker pool.
    /// `None`: searches fan out on the process-global pool.
    pub threads: Option<usize>,
    /// Directory for the persistent plan cache; `None` disables
    /// persistence.
    pub persist_dir: Option<PathBuf>,
    /// Polyhedral-memo sharing mode for requests (see [`CacheMode`]).
    pub cache_mode: CacheMode,
    /// Search options used by [`Service::compile`].
    pub opts: SynthOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_inflight: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queue: 64,
            default_deadline: None,
            op_budget: None,
            threads: None,
            persist_dir: None,
            cache_mode: CacheMode::Shared,
            opts: SynthOptions::default(),
        }
    }
}

/// Why a service request failed. Admission rejections (`Overloaded`,
/// `QueueDeadline`) are *sticky shed signals*: the compile never ran,
/// so retrying against a less-loaded service is always safe.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission queue was full; the request was shed immediately.
    Overloaded {
        /// Compiles running when the request was shed.
        inflight: usize,
        /// Requests already queued when the request was shed.
        queued: usize,
    },
    /// The request's deadline expired while it was still waiting in
    /// the admission queue; it was never admitted.
    QueueDeadline {
        /// How long the request waited before being rejected.
        waited_ms: u64,
    },
    /// The compile itself failed after admission.
    Synth(SynthError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { inflight, queued } => write!(
                f,
                "service overloaded: {inflight} compile(s) in flight, \
                 {queued} queued; request shed"
            ),
            ServiceError::QueueDeadline { waited_ms } => write!(
                f,
                "request deadline expired after {waited_ms} ms in the \
                 admission queue; compile never started"
            ),
            ServiceError::Synth(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Synth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthError> for ServiceError {
    fn from(e: SynthError) -> ServiceError {
        ServiceError::Synth(e)
    }
}

/// FIFO admission state: `next_ticket` is handed to the next arrival,
/// `next_served` is the ticket at the head of the queue. A waiter may
/// start iff its ticket is at the head *and* an in-flight slot is
/// free, which is exactly first-come-first-served.
struct AdmState {
    inflight: usize,
    queued: usize,
    next_ticket: u64,
    next_served: u64,
    /// Tickets whose owners gave up (deadline) before being served;
    /// `next_served` skips over them.
    abandoned: BTreeSet<u64>,
}

/// Bounded-concurrency FIFO admission gate. Public so the admission
/// behavior (shedding, deadlines, fairness) is testable directly,
/// without driving full compiles through a [`Service`].
pub struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
    max_inflight: usize,
    max_queue: usize,
}

/// An admitted request's slot; dropping it releases the slot and wakes
/// queued waiters.
pub struct AdmissionPermit<'a> {
    adm: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.adm.lock();
        st.inflight = st.inflight.saturating_sub(1);
        drop(st);
        self.adm.cv.notify_all();
    }
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent holders with
    /// at most `max_queue` waiters. Both floors are clamped to 1/0
    /// sensibly: `max_inflight == 0` would deadlock, so it is raised
    /// to 1.
    pub fn new(max_inflight: usize, max_queue: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmState {
                inflight: 0,
                queued: 0,
                next_ticket: 0,
                next_served: 0,
                abandoned: BTreeSet::new(),
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_queue,
        }
    }

    /// Poison-tolerant lock: admission state stays usable even if a
    /// panic unwound through a holder (counter updates are atomic with
    /// respect to the lock; there is no partially-applied state).
    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Skips `next_served` past tickets whose owners abandoned the
    /// queue, so the head position always names a live waiter (or the
    /// next future arrival).
    fn advance(st: &mut AdmState) {
        while st.abandoned.remove(&st.next_served) {
            st.next_served += 1;
        }
    }

    /// Waits for an in-flight slot, FIFO-fair, shedding instead of
    /// waiting when the queue is full and giving up at `deadline`.
    /// Returns a permit whose `Drop` releases the slot.
    pub fn acquire(&self, deadline: Option<Instant>) -> Result<AdmissionPermit<'_>, ServiceError> {
        let enqueued_at = Instant::now();
        let mut st = self.lock();
        // Fast path: a free slot and nobody queued ahead of us.
        if st.inflight < self.max_inflight && st.queued == 0 {
            st.inflight += 1;
            return Ok(AdmissionPermit { adm: self });
        }
        if st.queued >= self.max_queue {
            bernoulli_trace::counter!("service.shed_overloaded");
            return Err(ServiceError::Overloaded {
                inflight: st.inflight,
                queued: st.queued,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queued += 1;
        loop {
            if st.next_served == ticket && st.inflight < self.max_inflight {
                st.queued -= 1;
                st.next_served += 1;
                Self::advance(&mut st);
                st.inflight += 1;
                drop(st);
                // Another waiter may now be at the head with a slot
                // still free (max_inflight > 1): let it re-check.
                self.cv.notify_all();
                return Ok(AdmissionPermit { adm: self });
            }
            match deadline {
                None => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Give up: mark the ticket abandoned so the
                        // head position can move past it.
                        st.queued = st.queued.saturating_sub(1);
                        st.abandoned.insert(ticket);
                        Self::advance(&mut st);
                        drop(st);
                        self.cv.notify_all();
                        bernoulli_trace::counter!("service.shed_deadline");
                        return Err(ServiceError::QueueDeadline {
                            waited_ms: enqueued_at.elapsed().as_millis() as u64,
                        });
                    }
                    let (g, _timeout) = self
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = g;
                }
            }
        }
    }

    /// Compiles currently holding slots.
    pub fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Requests currently waiting for admission.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }
}

/// Monotonic request accounting, all updated lock-free.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_deadline: AtomicU64,
    degraded: AtomicU64,
    peak_inflight: AtomicU64,
    coalesced: AtomicU64,
}

/// A point-in-time snapshot of a service's request accounting
/// ([`Service::stats`]). Once the service is quiescent:
///
/// - `submitted = admitted + shed_overloaded + shed_deadline`;
/// - `admitted = completed + failed`;
/// - with plan caching on, every admitted request is exactly one of a
///   plan-cache hit, a plan-cache miss, or a coalesced follower (which
///   never touches the cache): `hits + misses + coalesced = admitted`,
///   with `hits`/`misses` from [`Service::plan_cache_stats`]. When
///   nothing was shed, that is `submitted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that entered [`Service::compile`].
    pub submitted: u64,
    /// Requests that passed admission and ran a search.
    pub admitted: u64,
    /// Admitted requests that returned a kernel.
    pub completed: u64,
    /// Admitted requests that returned a [`SynthError`].
    pub failed: u64,
    /// Requests shed because the queue was full.
    pub shed_overloaded: u64,
    /// Requests whose deadline expired while queued.
    pub shed_deadline: u64,
    /// Completed requests whose search degraded (budget exhaustion
    /// mid-search; the kernel is still correct, see the governance
    /// docs).
    pub degraded: u64,
    /// High-water mark of concurrent in-flight compiles.
    pub peak_inflight: u64,
    /// Genuine searches executed: compiles that neither a plan-cache
    /// tier served nor were coalesced onto another request's in-flight
    /// search (counted by the service's session).
    pub searches: u64,
    /// Requests served by waiting on another request's in-flight
    /// search of the same plan-cache key (single-flight coalescing)
    /// instead of searching themselves.
    pub coalesced: u64,
}

/// A `Send + Sync` compile server: wrap in an `Arc`, share across
/// threads, call [`compile`](Service::compile) concurrently. See the
/// module docs for the tenancy model.
pub struct Service {
    cfg: ServiceConfig,
    session: Session,
    admission: Admission,
    counters: Counters,
    /// In-flight compiles by plan-cache key (single-flight coalescing).
    flights: Flights<String, Result<CompiledKernel, SynthError>>,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Service {
        Service {
            session: Session::for_service(&cfg),
            admission: Admission::new(cfg.max_inflight, cfg.max_queue),
            counters: Counters::default(),
            flights: Flights::default(),
            cfg,
        }
    }

    /// A service with [`ServiceConfig::default`].
    pub fn with_defaults() -> Service {
        Service::new(ServiceConfig::default())
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Stage 1 — [`Session::parse`].
    pub fn parse(&self, text: &str) -> Result<Program, SynthError> {
        self.session.parse(text)
    }

    /// Stage 2 — [`Session::analyze`].
    pub fn analyze(&self, p: &Program) -> DepReport {
        self.session.analyze(p)
    }

    /// Stage 3 — [`Session::bind`].
    pub fn bind(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        self.session.bind(p, views)
    }

    /// Structure-aware selection on the service: the multi-tenant
    /// mirror of [`Session::advise`]. Every candidate compile is a
    /// normal admitted request (counted, queued, deadline-checked); a
    /// per-candidate synthesis failure skips that format, while a
    /// service-level rejection (shed load, expired queue deadline)
    /// aborts the whole advice.
    pub fn advise(
        &self,
        p: &Program,
        matrix: &str,
        t: &bernoulli_formats::Triplets<f64>,
        formats: &[&str],
    ) -> Result<crate::advise::Advice, ServiceError> {
        crate::advise::advise_core(p, matrix, t, formats, |bound, stats| {
            let mut opts = self.cfg.opts.clone();
            opts.stats = stats.clone();
            match self.compile_with(bound, &opts, self.cfg.default_deadline) {
                Ok(k) => Ok(Ok(k)),
                Err(ServiceError::Synth(e)) => Ok(Err(e)),
                Err(fatal) => Err(fatal),
            }
        })
    }

    /// Stage 4 — compile under the service's configured options,
    /// deadline, and cache mode. Safe to call from many threads at
    /// once; admission control applies (see the module docs).
    pub fn compile(&self, problem: &BoundProblem) -> Result<CompiledKernel, ServiceError> {
        self.compile_with(problem, &self.cfg.opts, self.cfg.default_deadline)
    }

    /// [`compile`](Service::compile) with per-request option overrides
    /// and an explicit deadline. The deadline covers the *whole*
    /// request: time spent waiting in the admission queue is deducted
    /// from the search budget, and a request still queued at its
    /// deadline is rejected with [`ServiceError::QueueDeadline`].
    pub fn compile_with(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
        deadline: Option<Duration>,
    ) -> Result<CompiledKernel, ServiceError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let absolute = deadline.map(|d| Instant::now() + d);
        let permit = self.admission.acquire(absolute).inspect_err(|e| {
            // Admission fails only by shedding: overload or queue deadline.
            let shed = match e {
                ServiceError::Overloaded { .. } => &self.counters.shed_overloaded,
                _ => &self.counters.shed_deadline,
            };
            shed.fetch_add(1, Ordering::Relaxed);
        })?;
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.counters
            .peak_inflight
            .fetch_max(self.admission.inflight() as u64, Ordering::Relaxed);
        let result = self.compile_coalesced(problem, opts, absolute);
        drop(permit);
        match &result {
            Ok(k) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                if k.report().degraded {
                    self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result.map_err(ServiceError::Synth)
    }

    /// Single-flight compile: concurrent requests for the same
    /// plan-cache key share one compile. The first request in leads
    /// and compiles on the session; followers wait and receive the
    /// leader's kernel — or its typed error — cloned. A leader whose
    /// search *degraded* under its own budget keeps the degraded kernel
    /// for itself and declines to share it: followers race for
    /// leadership again, as they do when a leader unwinds. A follower
    /// whose deadline expires while waiting compiles itself under its
    /// (expired) budget, so deadline accounting stays identical to the
    /// sequential path. With plan caching off, requests for one key are
    /// deliberately independent (load generators rely on this to
    /// measure genuine search throughput).
    fn compile_coalesced(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
        deadline: Option<Instant>,
    ) -> Result<CompiledKernel, SynthError> {
        let key = problem.cache_key(opts);
        let compile = |key: String| {
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            self.session.compile_keyed(problem, opts, key, remaining)
        };
        if !opts.cache_plans {
            return compile(key);
        }
        loop {
            let flown = self.flights.run(
                &key,
                deadline,
                || compile(key.clone()),
                |result| match result {
                    Ok(k) if k.report().degraded => None,
                    other => Some(other.clone()),
                },
            );
            match flown {
                Flown::Led(result) => return result,
                Flown::Shared(result) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    bernoulli_trace::counter!("service.searches_coalesced");
                    return result;
                }
                Flown::TimedOut => return compile(key),
                Flown::Abandoned => {}
            }
        }
    }

    /// A point-in-time snapshot of the request accounting.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            shed_overloaded: self.counters.shed_overloaded.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            peak_inflight: self.counters.peak_inflight.load(Ordering::Relaxed),
            searches: self.session.searches(),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss totals of the service-shared whole-search plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.session.plan_cache_stats()
    }

    /// Hit/miss/write totals of the persistent plan cache, if one is
    /// configured.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.session.persist().map(|p| p.stats())
    }

    /// The service's admission gate: compiles running
    /// ([`Admission::inflight`]) and waiting ([`Admission::queued`]).
    /// Exposed so operators (and the admission-control tests) can
    /// observe or occupy slots directly — holding a permit from here
    /// deterministically forces subsequent requests onto the queue/shed
    /// paths.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_is_send_and_sync() {
        assert_send_sync::<Service>();
        assert_send_sync::<Arc<Service>>();
    }

    #[test]
    fn admission_fast_path_and_release() {
        let adm = Admission::new(2, 4);
        let a = adm.acquire(None).ok();
        let b = adm.acquire(None).ok();
        assert!(a.is_some() && b.is_some());
        assert_eq!(adm.inflight(), 2);
        drop(a);
        assert_eq!(adm.inflight(), 1);
        drop(b);
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn admission_sheds_when_queue_full() {
        // One slot, zero queue depth: a second concurrent request is
        // shed immediately with the typed overload error.
        let adm = Admission::new(1, 0);
        let held = adm.acquire(None).ok();
        assert!(held.is_some());
        match adm.acquire(Some(Instant::now())) {
            Err(ServiceError::Overloaded { inflight, queued }) => {
                assert_eq!((inflight, queued), (1, 0));
            }
            other => {
                drop(other);
                unreachable!("expected Overloaded");
            }
        };
    }

    #[test]
    fn admission_queue_deadline_expires() {
        let adm = Admission::new(1, 4);
        let held = adm.acquire(None).ok();
        assert!(held.is_some());
        let start = Instant::now();
        match adm.acquire(Some(Instant::now() + Duration::from_millis(30))) {
            Err(ServiceError::QueueDeadline { waited_ms }) => {
                assert!(start.elapsed() >= Duration::from_millis(30));
                // Tolerance: the reported wait covers at least the
                // requested deadline, minus scheduler slop.
                assert!(waited_ms >= 20, "waited_ms = {waited_ms}");
            }
            other => {
                drop(other);
                unreachable!("expected QueueDeadline");
            }
        }
        // The abandoned ticket must not block later arrivals.
        drop(held);
        assert!(adm
            .acquire(Some(Instant::now() + Duration::from_secs(5)))
            .is_ok());
    }

    #[test]
    fn admission_is_fifo_fair() {
        // Release the only slot repeatedly; queued waiters must be
        // served in arrival order (tickets are strictly FIFO).
        let adm = Arc::new(Admission::new(1, 16));
        let held = adm.acquire(None).ok();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..6 {
            let gate = Arc::clone(&adm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = gate.acquire(Some(Instant::now() + Duration::from_secs(30)));
                if permit.is_ok() {
                    order.lock().unwrap_or_else(|e| e.into_inner()).push(i);
                }
                // Hold briefly so successors observe the slot cycling.
                std::thread::sleep(Duration::from_millis(1));
            }));
            // Arrival order must match spawn order for the FIFO
            // assertion to be meaningful: wait until thread i is
            // actually queued before spawning thread i+1.
            while adm.queued() < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for h in handles {
            let _ = h.join();
        }
        let served = order.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(served, vec![0, 1, 2, 3, 4, 5], "admission must be FIFO");
        assert_eq!(adm.inflight(), 0);
        assert_eq!(adm.queued(), 0);
    }
}
