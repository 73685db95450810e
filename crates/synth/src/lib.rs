//! The Bernoulli sparse code synthesizer — the paper's primary
//! contribution.
//!
//! Given a dense-matrix [`Program`](bernoulli_ir::Program) and a
//! [`FormatView`](bernoulli_formats::FormatView) for each sparse matrix,
//! this crate produces efficient *data-centric* sparse code. The pipeline
//! follows the paper §3–4:
//!
//! 1. **Configuration** ([`config`]): choose a perspective (`⊕`) per
//!    sparse reference and split statements over aggregation (`∪`) chains;
//!    compute each reference's *sparse data space* by rewriting dense
//!    coordinates through the view's `map`/`perm` transforms.
//! 2. **Product space** ([`spaces`]): form the Cartesian product of
//!    statement iteration and data spaces; enumerate candidate dimension
//!    orders under the data-centric and format-structure heuristics
//!    (§4.3).
//! 3. **Embeddings** ([`embed`]): affine functions mapping every statement
//!    instance into the product space, built by pedigree matching (the
//!    common-enumeration heuristic) with before/after offset repairs.
//! 4. **Legality and directions** ([`legal`]): one recursive procedure per
//!    dependence class both verifies that lexicographic enumeration
//!    preserves the dependence and computes the set of dimensions that
//!    must be enumerated in increasing order (§4.1); associative
//!    reduction self-dependences may be relaxed.
//! 5. **Redundancy and common enumerations** ([`groups`]): redundant
//!    dimensions are detected by rank computation on the `G` matrix
//!    (Fig. 7) and fused with the non-redundant dimension they follow.
//! 6. **Lowering** ([`lower`]): emit an *enumeration-based plan* — the
//!    paper's pseudocode of Figs. 5/8 — choosing per group between level
//!    enumeration, interval enumeration plus search, and merge/hash joins,
//!    with residual guards simplified through the polyhedral machinery.
//! 7. **Zero safety** ([`zero`]): verify that restricting execution to
//!    stored entries preserves semantics (annihilation or coverage).
//! 8. **Cost and search** ([`cost`], [`search`]): estimate each candidate
//!    with the Fig. 11 cost model and return the cheapest legal plan.
//!
//! Plans can be executed directly against real formats ([`interp`]) or
//! specialized into Rust source code ([`emit`]), the analogue of the
//! paper's compiler-instantiated C++ (Fig. 9).

#![allow(clippy::needless_range_loop, clippy::type_complexity)]
pub mod advise;
pub mod compiled;
pub mod config;
pub mod cost;
pub mod embed;
pub mod emit;
pub mod farkas_embed;
pub mod groups;
pub mod interp;
pub mod legal;
pub mod lower;
pub mod persist;
pub mod plan;
pub mod search;
pub mod service;
pub mod session;
pub mod spaces;
pub mod zero;

pub use advise::{view_for_features, Advice, AdviceEntry, DEFAULT_ADVISOR_FORMATS};
pub use compiled::{
    clear_kernel_validation_memo, kernel_validation_enabled, set_kernel_validation, KernelArg,
    KernelBackend, KernelCallError, KernelSig, LoadError, LoadedKernel, RawOut,
};
pub use config::{Config, ConfigError, RefInst, StmtCopy};
pub use cost::{cost_floor, WorkloadStats};
pub use emit::{emit_module, emit_rust, emit_rust_ranged, range_splittable, EmitError};
pub use interp::{run_plan, ExecEnv, PlanError, RunStats};
pub use persist::{PersistStats, PersistentPlanCache, DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES};
pub use plan::{Plan, Step};
pub use search::{Candidate, PlanCacheStats, SearchReport, SynthError, SynthOptions};
pub use service::{
    Admission, AdmissionPermit, CacheMode, Service, ServiceConfig, ServiceError, ServiceStats,
};
pub use session::{BoundProblem, CompiledKernel, DepReport, Session};

// Resource-governance vocabulary (budgets, deadlines, cancellation) so
// callers can drive `Session::with_deadline` & co. without naming the
// `bernoulli-govern` crate directly.
pub use bernoulli_govern::{Budget, BudgetError, CancelToken};

// Kernel artifact-cache vocabulary so callers can inspect the compiled
// path (`CompiledKernel::load` & co.) without naming the
// `bernoulli-kernel-cache` crate directly.
pub use bernoulli_kernel_cache::{
    rustc_info, stats as kernel_cache_stats, stats_reset as kernel_cache_stats_reset,
    KernelCacheError, KernelCacheStats, KernelStore, RustcInfo,
};
