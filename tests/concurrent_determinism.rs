//! Concurrency must not change compiler output (S38): N client threads
//! driving the same workloads through one shared [`Service`] produce
//! plans and emitted source byte-identical to a sequential
//! fresh-session baseline — at every worker-pool size, under every
//! cache mode.

use bernoulli::blas::synth::{spec_for, view_for};
use bernoulli::prelude::*;
use std::sync::Arc;

/// The determinism workload matrix: five structurally distinct
/// (kernel, format) pairs exercising level enumeration (csr/csc),
/// jagged-diagonal permutations (jad), and triangular-solve legality.
const WORKLOADS: &[(&str, &str)] = &[
    ("mvm", "csr"),
    ("mvm", "jad"),
    ("ts", "csr"),
    ("ts", "jad"),
    ("mvmt", "csc"),
];

/// (best-plan text, emitted module) for one workload — the byte-level
/// identity we hold fixed across execution strategies.
fn fingerprint(kernel: &CompiledKernel, name: &str) -> (String, String) {
    (
        kernel.plan().to_string(),
        kernel.emit(name).expect("emission must succeed"),
    )
}

/// Sequential baseline: a fresh single-tenant session per workload, so
/// no cache tier or pool interaction can influence the result.
fn sequential_baseline() -> Vec<(String, String)> {
    WORKLOADS
        .iter()
        .map(|&(k, f)| {
            let session = Session::new();
            let (p, mat) = spec_for(k);
            let bound = session.bind(&p, &[(mat, view_for(k, f))]).unwrap();
            let kernel = session.compile(&bound).unwrap();
            fingerprint(&kernel, &format!("{k}_{f}"))
        })
        .collect()
}

/// Drives `clients` threads through one shared service, each compiling
/// every workload (rotated so distinct workloads overlap in flight),
/// and asserts every result matches the baseline byte-for-byte.
fn check_concurrent(svc: Service, clients: usize, baseline: &[(String, String)]) {
    let svc = Arc::new(svc);
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::new();
            for i in 0..WORKLOADS.len() {
                // Rotate the order per client: thread c starts at
                // workload c, so different searches run concurrently.
                let (k, f) = WORKLOADS[(i + c) % WORKLOADS.len()];
                let (p, mat) = spec_for(k);
                let bound = svc.bind(&p, &[(mat, view_for(k, f))]).unwrap();
                let kernel = svc.compile(&bound).unwrap();
                out.push((
                    (i + c) % WORKLOADS.len(),
                    fingerprint(&kernel, &format!("{k}_{f}")),
                ));
            }
            out
        }));
    }
    for h in handles {
        for (w, got) in h.join().expect("client thread panicked") {
            assert_eq!(
                got, baseline[w],
                "workload {:?} diverged from the sequential baseline",
                WORKLOADS[w]
            );
        }
    }
}

#[test]
fn concurrent_compiles_match_sequential_baseline_at_every_pool_size() {
    let baseline = sequential_baseline();
    // Pool sizes 1/2/4 cover serial fan-out, minimal parallelism, and
    // oversubscription of the search relative to client threads.
    for threads in [1, 2, 4] {
        let svc = Service::new(ServiceConfig {
            threads: Some(threads),
            ..ServiceConfig::default()
        });
        check_concurrent(svc, 4, &baseline);
    }
}

#[test]
fn concurrent_compiles_deterministic_under_every_cache_mode() {
    let baseline = sequential_baseline();
    for mode in [CacheMode::Shared, CacheMode::Isolated] {
        let svc = Service::new(ServiceConfig {
            threads: Some(2),
            cache_mode: mode,
            ..ServiceConfig::default()
        });
        check_concurrent(svc, 3, &baseline);
    }
}

#[test]
fn shared_global_pool_service_is_deterministic() {
    // The default configuration: searches fan out on the process-global
    // pool (sized by BERNOULLI_THREADS), shared by all clients.
    let baseline = sequential_baseline();
    check_concurrent(Service::with_defaults(), 4, &baseline);
}
