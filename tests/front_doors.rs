//! The two front doors share one compile core: for the same bound
//! problem, a [`Service`] (in either cache mode) and a fresh [`Session`]
//! give the same kernel identity — the cache key that names both the
//! persisted plan and the native artifact — the same plan and emitted
//! source, and the same search accounting.

use bernoulli::blas::synth::{spec_for, view_for};
use bernoulli::prelude::*;

/// (cache key, plan text, emitted module, examined, pruned).
fn identity(k: &CompiledKernel) -> (String, String, String, usize, usize) {
    (
        k.cache_key().to_string(),
        k.plan().to_string(),
        k.emit("kernel").expect("emission must succeed"),
        k.report().examined,
        k.report().pruned,
    )
}

#[test]
fn service_and_session_agree_on_identity() {
    for (k, f) in [("mvm", "csr"), ("ts", "jad")] {
        let (p, mat) = spec_for(k);
        let session = Session::new();
        let bound = session.bind(&p, &[(mat, view_for(k, f))]).unwrap();
        let reference = identity(&session.compile(&bound).unwrap());
        for mode in [CacheMode::Shared, CacheMode::Isolated] {
            let svc = Service::new(ServiceConfig {
                cache_mode: mode,
                ..ServiceConfig::default()
            });
            let kernel = svc.compile(&bound).unwrap();
            assert!(!kernel.from_cache(), "a fresh service searches");
            assert_eq!(identity(&kernel), reference, "{k}/{f} under {mode:?}");
        }
    }
}
