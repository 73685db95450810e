//! Runtime kernel compilation and on-disk artifact caching.
//!
//! The synthesizer's emitter produces Rust source; this crate turns that
//! source into *running machine code* at runtime: it drives `rustc` to a
//! `cdylib`, caches the built shared object on disk keyed by everything
//! the binary depends on (source text, compiler version, target triple,
//! optimization flags), and loads it through a minimal `dlopen` wrapper.
//! A warm cache — including a *restarted process* — skips the compile
//! entirely and loads in microseconds.
//!
//! Design constraints:
//!
//! - **No external crates.** Dynamic loading uses the `dlopen`/`dlsym`/
//!   `dlclose` symbols the platform C runtime already links on Unix
//!   (`std` itself depends on them); on other platforms every entry
//!   point returns [`KernelCacheError::Unsupported`] so callers can fall
//!   back to their interpreter.
//! - **Typed failures.** A missing compiler, a failed build, a missing
//!   symbol — each is a distinct [`KernelCacheError`] variant; nothing
//!   on these paths panics.
//! - **Observable.** Hits/misses/compiles are counted process-wide
//!   ([`stats`]) and mirrored as `kernel.*` trace counters when the
//!   `trace` feature is enabled.
//! - **Self-healing.** Every artifact is published with a checksum
//!   sidecar and verified on warm hits: a truncated or bit-rotted
//!   shared object is a typed [`KernelCacheError::Corrupt`], evicted,
//!   and rebuilt — never dlopened. Artifacts that misbehave *after*
//!   loading (failed differential validation, bad ABI status) can be
//!   [`KernelStore::quarantine`]d: they are evicted and never rebuilt
//!   or re-loaded until the compiler identity changes. The `rustc`
//!   child runs under a wall-clock timeout (killed and reaped on
//!   expiry), transient failures are retried with backoff, and a
//!   per-store circuit breaker short-circuits to
//!   [`KernelCacheError::CircuitOpen`] after repeated infrastructure
//!   failures so callers fall back to their interpreter without paying
//!   full `rustc` latency per request. Concurrent builders of the same
//!   artifact are coalesced: one compiles, the rest wait and share the
//!   result (or the leader's typed error).
//! - **Small artifacts.** A kernel `cdylib` statically links `std`, and
//!   without stripping it carries `std`'s debuginfo along: ~4.3 MB for
//!   a few KB of kernel source. Every first warm hit in a process reads
//!   and checksums the whole file, so builds strip debuginfo (not
//!   symbols); see `RUSTC_FLAGS`. Panics inside a kernel are still
//!   caught in-library and exports still resolve.
//!
//! The cache directory defaults to `bernoulli-kernel-cache` under the
//! system temp dir and is overridable with `BERNOULLI_KERNEL_CACHE`
//! (CI lanes point this at a persisted directory to carry artifacts
//! across runs). `BERNOULLI_RUSTC` overrides the compiler binary, which
//! doubles as the fallback-path test hook: pointing it at a nonexistent
//! file makes every build report [`KernelCacheError::CompilerUnavailable`].
//! `BERNOULLI_RUSTC_TIMEOUT_MS` overrides the default 60 s build
//! timeout. With the `faults` feature, the `kernel.rustc` and
//! `kernel.dlopen` sites of [`bernoulli_govern::faults`] inject typed
//! failures into the build and load paths for chaos testing.

use bernoulli_govern::flight::{Flights, Flown};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable overriding the `rustc` binary used for kernel
/// builds (also the test hook for the no-compiler fallback path).
pub const RUSTC_ENV: &str = "BERNOULLI_RUSTC";

/// Environment variable overriding the artifact cache directory.
pub const CACHE_DIR_ENV: &str = "BERNOULLI_KERNEL_CACHE";

/// Environment variable overriding the `rustc` wall-clock timeout, in
/// milliseconds ([`DEFAULT_BUILD_TIMEOUT`] otherwise).
pub const RUSTC_TIMEOUT_ENV: &str = "BERNOULLI_RUSTC_TIMEOUT_MS";

/// Default wall-clock ceiling on one `rustc` child. Generous — kernel
/// crates build in well under a second — so only a wedged compiler or
/// a saturated host ever trips it.
pub const DEFAULT_BUILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Build attempts per [`KernelStore::get_or_build`] call: transient
/// failures (spawn errors, I/O trouble, timeouts) are retried with
/// backoff this many times in total before the typed error surfaces.
const BUILD_ATTEMPTS: u32 = 3;

/// Consecutive *infrastructure* build failures (timeouts, I/O, a
/// vanished compiler — not source rejections) that trip a store's
/// circuit breaker.
const BREAKER_TRIP: u32 = 3;

/// How long a tripped breaker short-circuits builds before letting one
/// probe attempt through (half-open).
const BREAKER_COOLDOWN: Duration = Duration::from_secs(10);

/// Why a kernel could not be compiled, cached, or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelCacheError {
    /// No usable `rustc` on this host (not in `PATH`, or the
    /// `BERNOULLI_RUSTC` override does not run).
    CompilerUnavailable { detail: String },
    /// `rustc` ran and rejected the kernel source.
    CompileFailed { stderr: String },
    /// The `rustc` child exceeded the wall-clock build timeout and was
    /// killed (and reaped).
    Timeout { ms: u64 },
    /// Filesystem trouble around the cache directory.
    Io { detail: String },
    /// An on-disk artifact failed checksum verification against its
    /// sidecar (truncated, bit-rotted, or the sidecar is missing). The
    /// artifact is evicted; the caller's build transparently rebuilds.
    Corrupt { detail: String },
    /// The artifact is on the store's quarantine list (it previously
    /// failed differential validation or returned a bad ABI status)
    /// and will not be rebuilt or re-loaded until the compiler
    /// identity changes.
    Quarantined { artifact: String },
    /// The store's circuit breaker is open after repeated
    /// infrastructure build failures; the build was short-circuited so
    /// the caller can fall back to its interpreter without paying
    /// `rustc` latency.
    CircuitOpen { failures: u32 },
    /// The built artifact exists but the dynamic loader refused it.
    LoadFailed { detail: String },
    /// The library loaded but does not export the requested symbol.
    SymbolMissing { symbol: String },
    /// Dynamic loading is not implemented for this platform.
    Unsupported { detail: String },
}

impl std::fmt::Display for KernelCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelCacheError::CompilerUnavailable { detail } => {
                write!(f, "no usable rustc for kernel compilation: {detail}")
            }
            KernelCacheError::CompileFailed { stderr } => {
                write!(f, "kernel compilation failed: {stderr}")
            }
            KernelCacheError::Timeout { ms } => {
                write!(
                    f,
                    "kernel compilation timed out after {ms} ms (rustc killed)"
                )
            }
            KernelCacheError::Io { detail } => write!(f, "kernel cache I/O error: {detail}"),
            KernelCacheError::Corrupt { detail } => {
                write!(f, "kernel artifact failed checksum verification: {detail}")
            }
            KernelCacheError::Quarantined { artifact } => {
                write!(
                    f,
                    "kernel artifact {artifact} is quarantined (failed validation \
                     or returned a bad ABI status under this compiler)"
                )
            }
            KernelCacheError::CircuitOpen { failures } => {
                write!(
                    f,
                    "kernel build circuit breaker open after {failures} consecutive \
                     infrastructure failures; build short-circuited"
                )
            }
            KernelCacheError::LoadFailed { detail } => {
                write!(f, "loading kernel artifact failed: {detail}")
            }
            KernelCacheError::SymbolMissing { symbol } => {
                write!(f, "kernel artifact exports no symbol {symbol:?}")
            }
            KernelCacheError::Unsupported { detail } => {
                write!(f, "runtime kernel loading unsupported here: {detail}")
            }
        }
    }
}

impl std::error::Error for KernelCacheError {}

/// The compiler identity every cached artifact is keyed under.
#[derive(Clone, Debug)]
pub struct RustcInfo {
    /// The binary that was probed (`rustc` or the `BERNOULLI_RUSTC`
    /// override).
    pub binary: String,
    /// Full `rustc -vV` version line, e.g. `rustc 1.75.0 (…)`.
    pub version: String,
    /// Host target triple reported by `rustc -vV`.
    pub triple: String,
}

/// Probes the kernel compiler once per process (memoized, including the
/// failure). The binary is `$BERNOULLI_RUSTC` when set, else `rustc`
/// from `PATH`.
pub fn rustc_info() -> Result<&'static RustcInfo, KernelCacheError> {
    static INFO: OnceLock<Result<RustcInfo, KernelCacheError>> = OnceLock::new();
    INFO.get_or_init(probe_rustc).as_ref().map_err(Clone::clone)
}

fn probe_rustc() -> Result<RustcInfo, KernelCacheError> {
    let binary = std::env::var(RUSTC_ENV).unwrap_or_else(|_| "rustc".to_string());
    let out = Command::new(&binary).arg("-vV").output().map_err(|e| {
        KernelCacheError::CompilerUnavailable {
            detail: format!("running {binary:?} -vV: {e}"),
        }
    })?;
    if !out.status.success() {
        return Err(KernelCacheError::CompilerUnavailable {
            detail: format!("{binary:?} -vV exited with {}", out.status),
        });
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut version = String::new();
    let mut triple = String::new();
    for line in text.lines() {
        if let Some(h) = line.strip_prefix("host: ") {
            triple = h.trim().to_string();
        } else if version.is_empty() && line.starts_with("rustc ") {
            version = line.trim().to_string();
        }
    }
    if version.is_empty() || triple.is_empty() {
        return Err(KernelCacheError::CompilerUnavailable {
            detail: format!("unparseable {binary:?} -vV output: {text:?}"),
        });
    }
    Ok(RustcInfo {
        binary,
        version,
        triple,
    })
}

/// Hit/miss/compile totals of the process-wide artifact cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCacheStats {
    /// Builds served from an existing on-disk artifact.
    pub hits: u64,
    /// Builds that had to invoke `rustc`.
    pub misses: u64,
    /// Successful `rustc` invocations.
    pub compiles: u64,
    /// Failed `rustc` invocations (bad source or I/O).
    pub errors: u64,
    /// Warm hits whose artifact failed checksum verification (evicted
    /// and rebuilt).
    pub corrupt: u64,
    /// Artifacts placed on a quarantine list.
    pub quarantined: u64,
    /// Build attempts retried after a transient failure.
    pub retries: u64,
    /// Builds served by waiting on another in-flight build of the same
    /// artifact instead of compiling (single-flight coalescing).
    pub coalesced: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static COMPILES: AtomicU64 = AtomicU64::new(0);
static ERRORS: AtomicU64 = AtomicU64::new(0);
static CORRUPT: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static COALESCED: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime artifact-cache totals (all [`KernelStore`]s).
pub fn stats() -> KernelCacheStats {
    KernelCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        compiles: COMPILES.load(Ordering::Relaxed),
        errors: ERRORS.load(Ordering::Relaxed),
        corrupt: CORRUPT.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
        retries: RETRIES.load(Ordering::Relaxed),
        coalesced: COALESCED.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide totals (benchmark isolation).
pub fn stats_reset() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    COMPILES.store(0, Ordering::Relaxed);
    ERRORS.store(0, Ordering::Relaxed);
    CORRUPT.store(0, Ordering::Relaxed);
    QUARANTINED.store(0, Ordering::Relaxed);
    RETRIES.store(0, Ordering::Relaxed);
    COALESCED.store(0, Ordering::Relaxed);
}

/// Artifacts whose checksum has verified clean this process (paths).
/// Verification runs once per artifact per process; warm loads after
/// the first skip the re-read, keeping the steady-state hit path at
/// its original cost.
fn verified() -> &'static Mutex<HashSet<PathBuf>> {
    static V: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    V.get_or_init(|| Mutex::new(HashSet::new()))
}

/// One in-flight build per artifact path (single-flight coalescing).
fn flights() -> &'static Flights<PathBuf, Result<(), KernelCacheError>> {
    static F: OnceLock<Flights<PathBuf, Result<(), KernelCacheError>>> = OnceLock::new();
    F.get_or_init(Flights::default)
}

/// Per-directory circuit-breaker state (process-wide: stores are cheap
/// value types, so the breaker must outlive any one instance).
struct Breaker {
    consecutive: u32,
    open_until: Option<Instant>,
}

fn breakers() -> &'static Mutex<HashMap<PathBuf, Breaker>> {
    static B: OnceLock<Mutex<HashMap<PathBuf, Breaker>>> = OnceLock::new();
    B.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A compiled artifact on disk, ready to [`Library::open`].
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Path of the built shared object.
    pub path: PathBuf,
    /// True when the artifact was already on disk (no `rustc` run).
    pub from_cache: bool,
}

/// A directory of compiled kernel artifacts.
///
/// Artifacts are content-addressed: the file name is a 64-bit FNV-1a
/// hash over the caller's logical key, the full kernel source, the
/// compiler version/target triple, and the optimization flags — any
/// change to any of them lands in a different file, so stale artifacts
/// can never be loaded (they are merely never referenced again).
#[derive(Clone, Debug)]
pub struct KernelStore {
    dir: PathBuf,
    timeout: Duration,
}

/// Optimization flags baked into every kernel build (and its cache
/// key). Deliberately the generic target, not `target-cpu=native`:
/// on the irregular CSR workloads the host-tuned code generation was
/// measured ~2x *slower* than generic (gather-heavy vectorization of
/// short, variable-length rows), and generic artifacts also stay
/// valid if the cache directory migrates between hosts.
///
/// `strip=debuginfo` drops the debuginfo of the statically linked
/// `std` (`debuginfo=0` only covers the kernel crate itself): a CSR
/// MVM artifact shrinks from ~4.3 MB to ~0.4 MB, which cuts the
/// checksum read every fresh process pays on its first warm hit
/// (~12 → ~1.2 ms) and the link step of every build. `.text`,
/// `.dynsym` (what `dlsym` resolves) and `.eh_frame` (what the
/// in-library `catch_unwind` unwinds through) are untouched, and so is
/// `.symtab`, so profilers still name kernel functions — which is why
/// this is not `strip=symbols`.
const RUSTC_FLAGS: &[&str] = &[
    "--edition=2021",
    "--crate-type=cdylib",
    "-C",
    "opt-level=3",
    "-C",
    "codegen-units=1",
    "-C",
    "debuginfo=0",
    "-C",
    "strip=debuginfo",
];

impl KernelStore {
    /// The store at the default location: `$BERNOULLI_KERNEL_CACHE`, or
    /// `bernoulli-kernel-cache` under the system temp directory.
    pub fn default_store() -> KernelStore {
        let dir = std::env::var_os(CACHE_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("bernoulli-kernel-cache"));
        KernelStore {
            dir,
            timeout: env_timeout(),
        }
    }

    /// A store rooted at an explicit directory (created on first build).
    pub fn at(dir: impl Into<PathBuf>) -> KernelStore {
        KernelStore {
            dir: dir.into(),
            timeout: env_timeout(),
        }
    }

    /// Same store, with an explicit `rustc` wall-clock timeout (tests
    /// use this instead of racing on the process environment).
    pub fn with_timeout(mut self, timeout: Duration) -> KernelStore {
        self.timeout = timeout;
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path a (key, source) pair would cache under, if the
    /// compiler is usable (the hash covers compiler identity).
    pub fn artifact_path(&self, key: &str, source: &str) -> Result<PathBuf, KernelCacheError> {
        let info = rustc_info()?;
        let mut h = Fnv::new();
        h.write(key.as_bytes());
        h.write(b"\x00");
        h.write(source.as_bytes());
        h.write(b"\x00");
        h.write(info.version.as_bytes());
        h.write(b"\x00");
        h.write(info.triple.as_bytes());
        for f in RUSTC_FLAGS {
            h.write(b"\x00");
            h.write(f.as_bytes());
        }
        let ext = std::env::consts::DLL_EXTENSION;
        Ok(self.dir.join(format!("k{:016x}.{ext}", h.finish())))
    }

    /// Returns the cached artifact for (key, source), compiling it
    /// first when absent. Warm hits are verified against the checksum
    /// sidecar (once per artifact per process); a corrupt artifact is
    /// evicted and transparently rebuilt. Quarantined artifacts are
    /// refused outright. Concurrent builders of the same artifact are
    /// coalesced: one invokes `rustc`, the rest wait and share the
    /// outcome (publication itself is an atomic `rename`, so even
    /// cross-process races stay benign).
    pub fn get_or_build(&self, key: &str, source: &str) -> Result<Artifact, KernelCacheError> {
        let path = self.artifact_path(key, source)?;
        if self.is_quarantined(&path) {
            QUARANTINED.fetch_add(1, Ordering::Relaxed);
            bernoulli_trace::counter!("kernel.quarantine_refusals");
            return Err(KernelCacheError::Quarantined {
                artifact: path.display().to_string(),
            });
        }
        if path.is_file() {
            match self.verify(&path) {
                Ok(()) => {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    bernoulli_trace::counter!("kernel.cache_hits");
                    return Ok(Artifact {
                        path,
                        from_cache: true,
                    });
                }
                Err(KernelCacheError::Corrupt { .. }) => {
                    // Evicted by verify(); fall through to a rebuild.
                }
                Err(e) => return Err(e),
            }
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
        bernoulli_trace::counter!("kernel.cache_misses");
        self.build_coalesced(key, source, &path)?;
        Ok(Artifact {
            path,
            from_cache: false,
        })
    }

    /// Verifies an on-disk artifact against its checksum sidecar.
    ///
    /// Success is memoized per path for the life of the process, so the
    /// steady-state warm-load path pays the artifact re-read exactly
    /// once. On failure (missing sidecar, length or hash mismatch) the
    /// artifact and its sidecars are evicted and a typed
    /// [`KernelCacheError::Corrupt`] is returned.
    pub fn verify(&self, path: &Path) -> Result<(), KernelCacheError> {
        if lock(verified()).contains(path) {
            return Ok(());
        }
        let detail = match check_sidecar(path) {
            Ok(()) => {
                lock(verified()).insert(path.to_path_buf());
                return Ok(());
            }
            Err(d) => d,
        };
        CORRUPT.fetch_add(1, Ordering::Relaxed);
        bernoulli_trace::counter!("kernel.corrupt_evictions");
        evict(path);
        Err(KernelCacheError::Corrupt { detail })
    }

    // --- quarantine -------------------------------------------------

    fn quarantine_file(&self) -> PathBuf {
        self.dir.join("quarantine.list")
    }

    /// The quarantine list's header line: a fingerprint of the compiler
    /// identity. A list written under a different rustc is stale —
    /// artifact hashes cover compiler identity, so the named artifacts
    /// can never be produced again — and is ignored (then overwritten).
    fn rustc_fingerprint() -> Option<String> {
        let info = rustc_info().ok()?;
        let mut h = Fnv::new();
        h.write(info.version.as_bytes());
        h.write(b"\x00");
        h.write(info.triple.as_bytes());
        Some(format!("rustc:{:016x}", h.finish()))
    }

    fn quarantine_stems(&self) -> Vec<String> {
        let Some(fp) = Self::rustc_fingerprint() else {
            return Vec::new();
        };
        let Ok(text) = std::fs::read_to_string(self.quarantine_file()) else {
            return Vec::new();
        };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(fp.as_str()) {
            return Vec::new(); // stale compiler identity
        }
        lines
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect()
    }

    /// True when the artifact is on this store's quarantine list under
    /// the current compiler identity.
    pub fn is_quarantined(&self, path: &Path) -> bool {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return false;
        };
        self.quarantine_stems().iter().any(|s| s == stem)
    }

    /// Quarantines an artifact: evicts it from disk and records it in
    /// the store's persisted quarantine list so it is never rebuilt or
    /// re-loaded until the compiler identity changes. Callers invoke
    /// this when a *loaded* kernel misbehaves (failed differential
    /// validation, bad ABI status) — checksum corruption is handled
    /// automatically by [`KernelStore::verify`].
    pub fn quarantine(&self, path: &Path) {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return;
        };
        let Some(fp) = Self::rustc_fingerprint() else {
            return;
        };
        let mut stems = self.quarantine_stems();
        if !stems.iter().any(|s| s == stem) {
            stems.push(stem.to_string());
            QUARANTINED.fetch_add(1, Ordering::Relaxed);
            bernoulli_trace::counter!("kernel.quarantines");
        }
        let mut text = fp;
        for s in &stems {
            text.push('\n');
            text.push_str(s);
        }
        text.push('\n');
        let _ = std::fs::create_dir_all(&self.dir);
        let _ = std::fs::write(self.quarantine_file(), text);
        evict(path);
        lock(verified()).remove(path);
    }

    /// Clears the store's quarantine list (test isolation).
    pub fn clear_quarantine(&self) {
        let _ = std::fs::remove_file(self.quarantine_file());
    }

    // --- circuit breaker --------------------------------------------

    /// True when this store's circuit breaker is currently open.
    pub fn breaker_tripped(&self) -> bool {
        let mut map = lock(breakers());
        match map.get_mut(&self.dir) {
            Some(b) => match b.open_until {
                Some(t) => Instant::now() < t,
                None => false,
            },
            None => false,
        }
    }

    /// Resets this store's circuit breaker (test isolation).
    pub fn breaker_reset(&self) {
        lock(breakers()).remove(&self.dir);
    }

    /// Returns an error when the breaker is open. After the cooldown the
    /// breaker goes half-open: exactly one build is let through as a
    /// probe (the next failure re-trips, a success resets).
    fn breaker_check(&self) -> Result<(), KernelCacheError> {
        let mut map = lock(breakers());
        let Some(b) = map.get_mut(&self.dir) else {
            return Ok(());
        };
        if let Some(t) = b.open_until {
            if Instant::now() < t {
                return Err(KernelCacheError::CircuitOpen {
                    failures: b.consecutive,
                });
            }
            b.open_until = None; // half-open: admit one probe
        }
        Ok(())
    }

    fn breaker_failure(&self) {
        let mut map = lock(breakers());
        let b = map.entry(self.dir.clone()).or_insert(Breaker {
            consecutive: 0,
            open_until: None,
        });
        b.consecutive += 1;
        if b.consecutive >= BREAKER_TRIP {
            b.open_until = Some(Instant::now() + BREAKER_COOLDOWN);
            bernoulli_trace::counter!("kernel.breaker_trips");
        }
    }

    fn breaker_success(&self) {
        lock(breakers()).remove(&self.dir);
    }

    // --- building ---------------------------------------------------

    /// Single-flight wrapper around [`KernelStore::build`]: concurrent
    /// builders of the same artifact path share one `rustc` run. The
    /// leader publishes its outcome (typed error included) to every
    /// waiter; a panicking leader publishes an `Io` error rather than
    /// wedging followers.
    fn build_coalesced(
        &self,
        key: &str,
        source: &str,
        path: &Path,
    ) -> Result<(), KernelCacheError> {
        let build = || self.build(key, source, path);
        let flown = flights().run(&path.to_path_buf(), None, build, |r| Some(r.clone()));
        let shared = match flown {
            Flown::Led(result) => return result,
            Flown::Shared(result) => result,
            // No deadline, and this leader always shares: the flight
            // was abandoned by a leader unwinding out of `build`.
            Flown::Abandoned | Flown::TimedOut => Err(KernelCacheError::Io {
                detail: "kernel build leader panicked".to_string(),
            }),
        };
        COALESCED.fetch_add(1, Ordering::Relaxed);
        bernoulli_trace::counter!("kernel.builds_coalesced");
        shared
    }

    /// Builds with breaker short-circuit, bounded retry with backoff
    /// for transient failures, and failure classification:
    ///
    /// - `CompileFailed` is a deterministic source rejection — no
    ///   retry, and it does *not* count toward the breaker.
    /// - `Timeout` / `Io` are transient infrastructure failures —
    ///   retried with backoff, then counted toward the breaker.
    /// - `CompilerUnavailable` is memoized by [`rustc_info`] and costs
    ///   nothing to re-report — no retry, no breaker (the breaker
    ///   exists to avoid paying `rustc` latency, which this path never
    ///   does).
    fn build(&self, key: &str, source: &str, path: &Path) -> Result<(), KernelCacheError> {
        self.breaker_check()?;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let err = match self.build_once(key, source, path) {
                Ok(()) => {
                    self.breaker_success();
                    return Ok(());
                }
                Err(e) => e,
            };
            let transient = matches!(
                err,
                KernelCacheError::Timeout { .. } | KernelCacheError::Io { .. }
            );
            if transient && attempt < BUILD_ATTEMPTS {
                RETRIES.fetch_add(1, Ordering::Relaxed);
                bernoulli_trace::counter!("kernel.build_retries");
                std::thread::sleep(Duration::from_millis(10 * (1 << (attempt - 1))));
                continue;
            }
            ERRORS.fetch_add(1, Ordering::Relaxed);
            if transient {
                self.breaker_failure();
            }
            return Err(err);
        }
    }

    fn build_once(&self, key: &str, source: &str, path: &Path) -> Result<(), KernelCacheError> {
        bernoulli_trace::span!("kernel.compile");
        if bernoulli_govern::faults::fail("kernel.rustc") {
            return Err(KernelCacheError::Io {
                detail: "injected fault at kernel.rustc (chaos test)".to_string(),
            });
        }
        let info = rustc_info()?;
        std::fs::create_dir_all(&self.dir).map_err(|e| KernelCacheError::Io {
            detail: format!("creating {:?}: {e}", self.dir),
        })?;
        let pid = std::process::id();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("kernel");
        let src_path = self.dir.join(format!("{stem}.{pid}.rs"));
        let tmp_out = self.dir.join(format!("{stem}.{pid}.tmp"));
        let cleanup = |p: &Path| {
            let _ = std::fs::remove_file(p);
        };
        std::fs::write(&src_path, source).map_err(|e| KernelCacheError::Io {
            detail: format!("writing {src_path:?}: {e}"),
        })?;
        let mut child = match Command::new(&info.binary)
            .args(RUSTC_FLAGS)
            .arg(format!("--crate-name={stem}"))
            .arg("-o")
            .arg(&tmp_out)
            .arg(&src_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                cleanup(&src_path);
                return Err(KernelCacheError::CompilerUnavailable {
                    detail: format!("running {:?}: {e}", info.binary),
                });
            }
        };
        // Drain stderr on a helper thread so a chatty compiler can
        // never deadlock against a full pipe. rustc's stderr reaches
        // EOF when it exits, so the drain's EOF signal doubles as the
        // exit notification: the build blocks on it, bounded by the
        // deadline, instead of polling.
        let stderr_pipe = child.stderr.take();
        let (eof_tx, eof_rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut buf = Vec::new();
            if let Some(mut pipe) = stderr_pipe {
                use std::io::Read;
                let _ = pipe.read_to_end(&mut buf);
            }
            let _ = eof_tx.send(());
            buf
        });
        let deadline = Instant::now() + self.timeout;
        let waited = match eof_rx.recv_timeout(self.timeout) {
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            _ => reap_by(&mut child, deadline),
        };
        let status = match waited {
            Ok(Some(status)) => status,
            failed => {
                // Kill and reap: wait() after kill() collects the
                // zombie even when the kill races exit.
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                cleanup(&src_path);
                cleanup(&tmp_out);
                return Err(match failed {
                    Err(e) => KernelCacheError::Io {
                        detail: format!("waiting on rustc: {e}"),
                    },
                    _ => {
                        bernoulli_trace::counter!("kernel.build_timeouts");
                        KernelCacheError::Timeout {
                            ms: self.timeout.as_millis() as u64,
                        }
                    }
                });
            }
        };
        let stderr_bytes = drain.join().unwrap_or_default();
        if !status.success() {
            cleanup(&src_path);
            cleanup(&tmp_out);
            bernoulli_trace::counter!("kernel.compile_errors");
            let mut stderr = String::from_utf8_lossy(&stderr_bytes).to_string();
            const MAX: usize = 4000;
            if stderr.len() > MAX {
                let mut cut = MAX;
                while !stderr.is_char_boundary(cut) {
                    cut -= 1;
                }
                stderr.truncate(cut);
                stderr.push_str(" …[truncated]");
            }
            return Err(KernelCacheError::CompileFailed { stderr });
        }
        // Checksum the built bytes and publish the sidecar *before* the
        // artifact itself: a loader that sees the artifact always sees
        // its sidecar too.
        let bytes = std::fs::read(&tmp_out).map_err(|e| {
            cleanup(&src_path);
            cleanup(&tmp_out);
            KernelCacheError::Io {
                detail: format!("reading built artifact {tmp_out:?}: {e}"),
            }
        })?;
        let sum = format!("{:016x} {}\n", content_hash(&bytes), bytes.len());
        std::fs::write(sidecar_path(path), sum).map_err(|e| {
            cleanup(&src_path);
            cleanup(&tmp_out);
            KernelCacheError::Io {
                detail: format!("writing checksum sidecar for {path:?}: {e}"),
            }
        })?;
        // Keep the source next to the artifact for debuggability; the
        // rename publishes the artifact atomically.
        let _ = std::fs::rename(&src_path, path.with_extension("rs"));
        let meta = format!("{}\n{}\n{key}\n", info.version, info.triple);
        let _ = std::fs::write(path.with_extension("meta"), meta);
        std::fs::rename(&tmp_out, path).map_err(|e| {
            cleanup(&tmp_out);
            KernelCacheError::Io {
                detail: format!("publishing {path:?}: {e}"),
            }
        })?;
        lock(verified()).insert(path.to_path_buf());
        COMPILES.fetch_add(1, Ordering::Relaxed);
        bernoulli_trace::counter!("kernel.compiles");
        Ok(())
    }
}

/// Collects the exit status of a child that has already closed its
/// stderr, giving up (`Ok(None)`) at `deadline`. The close normally
/// lands an instant before exit, so this returns on the first or
/// second look; the bound only matters for a compiler override that
/// closes stderr and then hangs.
fn reap_by(child: &mut Child, deadline: Instant) -> std::io::Result<Option<ExitStatus>> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The `rustc` wall-clock timeout from `BERNOULLI_RUSTC_TIMEOUT_MS`, or
/// [`DEFAULT_BUILD_TIMEOUT`].
fn env_timeout() -> Duration {
    std::env::var(RUSTC_TIMEOUT_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_BUILD_TIMEOUT)
}

/// The checksum sidecar next to an artifact: `<stem>.sum`, containing
/// `"{fnv64:016x} {byte_len}\n"` over the artifact bytes.
fn sidecar_path(path: &Path) -> PathBuf {
    path.with_extension("sum")
}

/// Compares an artifact against its sidecar. `Err(detail)` on any
/// mismatch (including an unreadable artifact or missing sidecar).
fn check_sidecar(path: &Path) -> Result<(), String> {
    let sum = std::fs::read_to_string(sidecar_path(path))
        .map_err(|e| format!("{path:?}: missing/unreadable checksum sidecar: {e}"))?;
    let mut parts = sum.split_whitespace();
    let (Some(want_hash), Some(want_len)) = (parts.next(), parts.next()) else {
        return Err(format!("{path:?}: malformed checksum sidecar {sum:?}"));
    };
    let bytes = std::fs::read(path).map_err(|e| format!("{path:?}: unreadable artifact: {e}"))?;
    if want_len != bytes.len().to_string() {
        return Err(format!(
            "{path:?}: length mismatch (sidecar says {want_len}, artifact is {})",
            bytes.len()
        ));
    }
    let got = format!("{:016x}", content_hash(&bytes));
    if want_hash != got {
        return Err(format!(
            "{path:?}: content hash mismatch (sidecar {want_hash}, artifact {got})"
        ));
    }
    Ok(())
}

/// Removes an artifact and all its sidecars from disk.
fn evict(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(sidecar_path(path));
    let _ = std::fs::remove_file(path.with_extension("meta"));
    let _ = std::fs::remove_file(path.with_extension("rs"));
    lock(verified()).remove(path);
}

/// FNV-1a, 64-bit: tiny, stable across processes (unlike `DefaultHasher`,
/// whose output is explicitly unspecified between runs — useless for
/// naming on-disk artifacts).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable 64-bit content hash (FNV-1a) — exposed so callers can build
/// logical cache keys from large inputs without embedding them whole.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Dynamic loading
// ---------------------------------------------------------------------

#[cfg(unix)]
mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    // The C runtime's dynamic loader. `std` already links the symbols
    // on every Unix target, so no extra dependency is introduced.
    extern "C" {
        pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlclose(handle: *mut c_void) -> c_int;
        pub fn dlerror() -> *mut c_char;
    }

    pub const RTLD_NOW: c_int = 2;

    /// The most recent `dlerror()` message, if any.
    pub fn last_error() -> String {
        // Safety: dlerror returns either null or a NUL-terminated string
        // owned by the loader, valid until the next dl* call on this
        // thread.
        unsafe {
            let p = dlerror();
            if p.is_null() {
                "unknown dl error".to_string()
            } else {
                std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
            }
        }
    }
}

/// A loaded shared object. The handle stays open for the lifetime of
/// the value (function pointers resolved from it are only valid while
/// it — or a clone of the owning `Arc` — is alive) and is closed on
/// drop.
#[derive(Debug)]
pub struct Library {
    #[cfg(unix)]
    handle: *mut std::os::raw::c_void,
    path: PathBuf,
}

// Safety: the handle is an opaque token; `dlsym`/`dlclose` are
// thread-safe per POSIX, and the library exposes no interior mutability.
unsafe impl Send for Library {}
unsafe impl Sync for Library {}

impl Library {
    /// Opens a shared object with immediate symbol resolution.
    #[cfg(unix)]
    pub fn open(path: &Path) -> Result<Library, KernelCacheError> {
        if bernoulli_govern::faults::fail("kernel.dlopen") {
            return Err(KernelCacheError::LoadFailed {
                detail: "injected fault at kernel.dlopen (chaos test)".to_string(),
            });
        }
        let cpath = std::ffi::CString::new(path.as_os_str().as_encoded_bytes()).map_err(|_| {
            KernelCacheError::LoadFailed {
                detail: format!("path {path:?} contains a NUL byte"),
            }
        })?;
        // Safety: cpath is a valid NUL-terminated string; RTLD_NOW is a
        // valid mode.
        let handle = unsafe { dl::dlopen(cpath.as_ptr(), dl::RTLD_NOW) };
        if handle.is_null() {
            return Err(KernelCacheError::LoadFailed {
                detail: dl::last_error(),
            });
        }
        Ok(Library {
            handle,
            path: path.to_path_buf(),
        })
    }

    /// Unsupported off-Unix: callers fall back to their interpreter.
    #[cfg(not(unix))]
    pub fn open(path: &Path) -> Result<Library, KernelCacheError> {
        let _ = path;
        Err(KernelCacheError::Unsupported {
            detail: "dlopen-based loading is only wired up for Unix targets".to_string(),
        })
    }

    /// Resolves an exported symbol to a raw address.
    ///
    /// The address is only meaningful while this `Library` is alive;
    /// callers transmuting it to a function pointer must keep the
    /// library (or its owning `Arc`) alive for as long as the pointer.
    #[cfg(unix)]
    pub fn symbol(&self, name: &str) -> Result<*const (), KernelCacheError> {
        let cname = std::ffi::CString::new(name).map_err(|_| KernelCacheError::SymbolMissing {
            symbol: name.to_string(),
        })?;
        // Safety: handle is a live dlopen handle; cname is NUL-terminated.
        let p = unsafe { dl::dlsym(self.handle, cname.as_ptr()) };
        if p.is_null() {
            return Err(KernelCacheError::SymbolMissing {
                symbol: name.to_string(),
            });
        }
        Ok(p as *const ())
    }

    #[cfg(not(unix))]
    pub fn symbol(&self, name: &str) -> Result<*const (), KernelCacheError> {
        Err(KernelCacheError::SymbolMissing {
            symbol: name.to_string(),
        })
    }

    /// The artifact this library was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Library {
    fn drop(&mut self) {
        #[cfg(unix)]
        // Safety: handle came from dlopen and is closed exactly once.
        unsafe {
            dl::dlclose(self.handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_input_sensitive() {
        // FNV-1a reference value for "a".
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(content_hash(b"kernel-1"), content_hash(b"kernel-2"));
    }

    #[test]
    fn open_missing_artifact_is_a_typed_error() {
        let err = Library::open(Path::new("/nonexistent/bernoulli-kernel.so"))
            .expect_err("missing file must not open");
        match err {
            KernelCacheError::LoadFailed { .. } | KernelCacheError::Unsupported { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn store_paths_are_deterministic_and_distinct() {
        // Only meaningful when a compiler is present (the hash covers
        // its identity); skip quietly otherwise.
        let Ok(_) = rustc_info() else { return };
        let s = KernelStore::at("/tmp/bernoulli-kc-test");
        let a = s.artifact_path("k1", "fn a() {}").unwrap();
        let b = s.artifact_path("k1", "fn a() {}").unwrap();
        let c = s.artifact_path("k1", "fn b() {}").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn compile_failure_is_typed_and_counted() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-fail-{}", std::process::id()));
        let s = KernelStore::at(&dir);
        let before = stats().errors;
        let err = s
            .get_or_build("bad", "this is not rust")
            .expect_err("garbage source must fail");
        assert!(
            matches!(err, KernelCacheError::CompileFailed { .. }),
            "{err:?}"
        );
        assert!(stats().errors > before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const ADD_SRC: &str =
        "#[no_mangle]\npub extern \"C\" fn kc_test_add2(a: i64, b: i64) -> i64 { a + b }\n";

    #[test]
    fn corrupt_artifact_is_evicted_and_rebuilt() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = KernelStore::at(&dir);
        let a = s.get_or_build("corrupt", ADD_SRC).unwrap();
        assert!(!a.from_cache);
        // Truncate the artifact behind the cache's back and clear the
        // in-process verification memo (a fresh process would start
        // with it empty).
        std::fs::write(&a.path, b"garbage").unwrap();
        lock(verified()).remove(&a.path);
        let before = stats().corrupt;
        let again = s.get_or_build("corrupt", ADD_SRC).unwrap();
        assert!(
            !again.from_cache,
            "corrupt artifact must be rebuilt, not served"
        );
        assert!(stats().corrupt > before);
        // The rebuilt artifact must verify and load.
        s.verify(&again.path).unwrap();
        let lib = Library::open(&again.path).unwrap();
        assert!(lib.symbol("kc_test_add2").is_ok());
        drop(lib);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_typed_corrupt_error() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = KernelStore::at(&dir);
        let a = s.get_or_build("verify", ADD_SRC).unwrap();
        s.verify(&a.path).unwrap();
        std::fs::write(&a.path, b"truncated").unwrap();
        lock(verified()).remove(&a.path);
        let err = s.verify(&a.path).expect_err("tampered artifact must fail");
        assert!(matches!(err, KernelCacheError::Corrupt { .. }), "{err:?}");
        assert!(!a.path.exists(), "corrupt artifact must be evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_blocks_rebuild_until_compiler_changes() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = KernelStore::at(&dir);
        let a = s.get_or_build("quar", ADD_SRC).unwrap();
        s.quarantine(&a.path);
        assert!(!a.path.exists(), "quarantined artifact must be evicted");
        assert!(s.is_quarantined(&a.path));
        let err = s
            .get_or_build("quar", ADD_SRC)
            .expect_err("quarantined artifact must not be rebuilt");
        assert!(
            matches!(err, KernelCacheError::Quarantined { .. }),
            "{err:?}"
        );
        // A quarantine list written under a different compiler identity
        // is stale and ignored.
        let listing = std::fs::read_to_string(s.quarantine_file()).unwrap();
        let stale = listing.replacen("rustc:", "rustc:0", 1);
        std::fs::write(s.quarantine_file(), stale).unwrap();
        assert!(!s.is_quarantined(&a.path));
        let rebuilt = s.get_or_build("quar", ADD_SRC).unwrap();
        assert!(!rebuilt.from_cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_timeout_kills_rustc_and_is_typed() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-tmo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = KernelStore::at(&dir).with_timeout(Duration::from_millis(1));
        s.breaker_reset();
        let err = s
            .get_or_build("tmo", ADD_SRC)
            .expect_err("1 ms is not enough to build anything");
        assert!(
            matches!(err, KernelCacheError::Timeout { ms: 1 }),
            "{err:?}"
        );
        // Timeouts are infrastructure failures: retried (BUILD_ATTEMPTS
        // total), then counted toward the breaker, which trips after
        // BREAKER_TRIP consecutive failures.
        for _ in 1..BREAKER_TRIP {
            let _ = s.get_or_build("tmo", ADD_SRC);
        }
        assert!(s.breaker_tripped());
        let err = s
            .get_or_build("tmo", ADD_SRC)
            .expect_err("open breaker must short-circuit");
        assert!(
            matches!(err, KernelCacheError::CircuitOpen { .. }),
            "{err:?}"
        );
        // A healthy store with the same directory recovers after reset.
        s.breaker_reset();
        let ok = KernelStore::at(&dir).get_or_build("tmo", ADD_SRC).unwrap();
        assert!(!ok.from_cache);
        s.breaker_reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_builds_of_one_artifact_coalesce() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let compiles_before = stats().compiles;
        let s = KernelStore::at(&dir);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let s = s.clone();
                    scope.spawn(move || s.get_or_build("flight", ADD_SRC))
                })
                .collect();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        assert_eq!(
            stats().compiles - compiles_before,
            1,
            "8 concurrent builders must share exactly one rustc run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_load_call_roundtrip_and_warm_hit() {
        let Ok(_) = rustc_info() else { return };
        let dir = std::env::temp_dir().join(format!("bernoulli-kc-ok-{}", std::process::id()));
        let s = KernelStore::at(&dir);
        let src =
            "#[no_mangle]\npub extern \"C\" fn kc_test_add(a: i64, b: i64) -> i64 { a + b }\n";
        let a1 = s.get_or_build("roundtrip", src).unwrap();
        assert!(!a1.from_cache);
        let a2 = s.get_or_build("roundtrip", src).unwrap();
        assert!(a2.from_cache, "second build must hit the artifact cache");
        let lib = Library::open(&a1.path).unwrap();
        let sym = lib.symbol("kc_test_add").unwrap();
        // Safety: the symbol was just built with exactly this signature,
        // and `lib` outlives the call.
        let f: extern "C" fn(i64, i64) -> i64 = unsafe { std::mem::transmute(sym) };
        assert_eq!(f(20, 22), 42);
        assert!(lib.symbol("no_such_symbol").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
