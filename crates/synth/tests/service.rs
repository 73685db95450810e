//! The multi-tenant compile service (S38): end-to-end compiles through
//! [`Service`], shared-plan-cache behavior under concurrency, typed
//! admission-control rejections with exact accounting, and warm-start
//! through the persistent plan cache across "restarts" (fresh services
//! over the same directory).

use bernoulli_formats::{Csr, SparseView, Triplets};
use bernoulli_synth::{
    CacheMode, ExecEnv, PersistentPlanCache, Service, ServiceConfig, ServiceError,
};
use std::sync::Arc;
use std::time::Duration;

const MVM: &str = r#"
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
"#;

fn csr() -> Csr {
    Csr::from_triplets(&Triplets::from_entries(
        3,
        3,
        &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
    ))
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bernoulli-service-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn service_compiles_end_to_end() {
    let svc = Service::with_defaults();
    let p = svc.parse(MVM).unwrap();
    assert!(!svc.analyze(&p).is_empty());
    let a = csr();
    let bound = svc.bind(&p, &[("A", a.format_view())]).unwrap();
    let kernel = svc.compile(&bound).unwrap();
    assert!(kernel.cost() > 0.0);

    let mut env = ExecEnv::new();
    env.set_param("M", 3).set_param("N", 3);
    env.bind_sparse("A", &a);
    env.bind_vec("x", vec![1.0, 2.0, 3.0]);
    env.bind_vec("y", vec![0.0; 3]);
    kernel.interpret(&mut env).unwrap();
    assert_eq!(env.take_vec("y"), vec![2.0, 3.0, 8.0]);

    let stats = svc.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.peak_inflight, 1);
}

#[test]
fn concurrent_clients_share_the_plan_cache() {
    let svc = Arc::new(Service::with_defaults());
    let p = svc.parse(MVM).unwrap();
    let a = csr();
    let bound = Arc::new(svc.bind(&p, &[("A", a.format_view())]).unwrap());

    const CLIENTS: usize = 8;
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let svc = Arc::clone(&svc);
        let bound = Arc::clone(&bound);
        handles.push(std::thread::spawn(move || {
            let k = svc.compile(&bound).unwrap();
            (k.plan().to_string(), k.emit("kernel").unwrap())
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Every client sees byte-identical output regardless of which
    // thread searched and which hit the cache.
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    let pc = svc.plan_cache_stats();
    let stats = svc.stats();
    assert_eq!(stats.submitted, CLIENTS as u64);
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(stats.shed_overloaded + stats.shed_deadline, 0);
    // Every request is a plan-cache hit, a miss, or a coalesced
    // follower that never touched the cache (see `ServiceStats`).
    assert_eq!(
        pc.hits + pc.misses + stats.coalesced,
        stats.submitted,
        "{pc:?} {stats:?}"
    );
    assert!(pc.misses >= 1, "{pc:?}");
}

#[test]
fn isolated_mode_matches_shared_mode_output() {
    let mut reference = None;
    for mode in [CacheMode::Shared, CacheMode::Isolated] {
        let svc = Service::new(ServiceConfig {
            cache_mode: mode,
            ..ServiceConfig::default()
        });
        let p = svc.parse(MVM).unwrap();
        let bound = svc.bind(&p, &[("A", csr().format_view())]).unwrap();
        let k = svc.compile(&bound).unwrap();
        let out = (k.plan().to_string(), k.emit("kernel").unwrap());
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "cache mode {mode:?} changed the result"),
        }
    }
}

#[test]
fn overload_and_queue_deadline_shed_with_exact_accounting() {
    let svc = Service::new(ServiceConfig {
        max_inflight: 1,
        max_queue: 0,
        ..ServiceConfig::default()
    });
    let p = svc.parse(MVM).unwrap();
    let bound = svc.bind(&p, &[("A", csr().format_view())]).unwrap();

    // Occupy the only slot, deterministically forcing the shed paths.
    let opts = svc.config().opts.clone();
    let permit = svc.admission().acquire(None).unwrap();
    match svc.compile(&bound) {
        Err(ServiceError::Overloaded { inflight, queued }) => {
            assert_eq!((inflight, queued), (1, 0));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    match svc.compile_with(&bound, &opts, Some(Duration::from_millis(20))) {
        // max_queue = 0: even a deadline-carrying request sheds as
        // Overloaded rather than queueing.
        Err(ServiceError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(permit);

    // Queue depth 1: a request with an already-tight deadline queues,
    // then times out while the slot is held.
    let svc2 = Service::new(ServiceConfig {
        max_inflight: 1,
        max_queue: 1,
        ..ServiceConfig::default()
    });
    let bound2 = svc2.bind(&p, &[("A", csr().format_view())]).unwrap();
    let permit = svc2.admission().acquire(None).unwrap();
    let t0 = std::time::Instant::now();
    match svc2.compile_with(&bound2, &opts, Some(Duration::from_millis(40))) {
        Err(ServiceError::QueueDeadline { waited_ms }) => {
            assert!(t0.elapsed() >= Duration::from_millis(40));
            assert!(waited_ms >= 30, "waited_ms = {waited_ms}");
        }
        other => panic!("expected QueueDeadline, got {other:?}"),
    }
    drop(permit);
    // The slot is free and the abandoned ticket skipped: compiles work.
    assert!(svc2.compile(&bound2).is_ok());

    let s = svc.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.shed_overloaded, 2);
    assert_eq!(
        s.admitted + s.shed_overloaded + s.shed_deadline,
        s.submitted
    );
    let s2 = svc2.stats();
    assert_eq!(s2.submitted, 2);
    assert_eq!(s2.shed_deadline, 1);
    assert_eq!(s2.completed, 1);
    assert_eq!(
        s2.admitted + s2.shed_overloaded + s2.shed_deadline,
        s2.submitted
    );
}

#[test]
fn persistent_cache_warm_starts_a_fresh_service() {
    let dir = scratch_dir("warm");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    // Cold service: searches, then persists the result.
    let cold = Service::new(cfg());
    let p = cold.parse(MVM).unwrap();
    let bound = cold.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_cold = cold.compile(&bound).unwrap();
    assert!(!k_cold.report().plan_cache_hit);
    let ps = cold.persist_stats().unwrap();
    assert_eq!(ps.writes, 1, "{ps:?}");
    assert_eq!(ps.errors, 0, "{ps:?}");

    // "Restarted" service over the same directory: the search is
    // served from disk, promoted into the in-memory cache, and the
    // result is byte-identical.
    let warm = Service::new(cfg());
    let bound2 = warm.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_warm = warm.compile(&bound2).unwrap();
    assert!(k_warm.report().plan_cache_hit);
    assert!(k_warm.report().plan_cache_disk_hit);
    assert_eq!(k_warm.plan().to_string(), k_cold.plan().to_string());
    assert_eq!(k_warm.emit("f").unwrap(), k_cold.emit("f").unwrap());
    assert_eq!(k_warm.cost(), k_cold.cost());
    // A second identical compile hits the promoted in-memory entry.
    let k3 = warm.compile(&bound2).unwrap();
    assert!(k3.report().plan_cache_hit && !k3.report().plan_cache_disk_hit);

    // The stored entry round-trips the emitted kernel source exactly.
    let store = PersistentPlanCache::new(&dir);
    let (plans, emitted) = store.load_with_source(k_cold.cache_key()).unwrap();
    assert_eq!(plans[0], k_cold.plan().to_string());
    assert_eq!(emitted, k_cold.emit("kernel").unwrap());
    assert_eq!(store.last_error(), None);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blocked_plans_persist_and_restore_through_the_service_tier() {
    use bernoulli_formats::{discover_strips, gen, Bsr, Vbr};

    let dir = scratch_dir("blocked");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let t = gen::fem_blocked(24, 2, 2, 1.0, 7);
    let bsr = Bsr::from_triplets(&t, 2, 2);
    let (rp, cp) = discover_strips(&t);
    let vbr = Vbr::from_triplets(&t, &rp, &cp);

    for view in [bsr.format_view(), vbr.format_view()] {
        let cold = Service::new(cfg());
        let p = cold.parse(MVM).unwrap();
        let bound = cold.bind(&p, &[("A", view.clone())]).unwrap();
        let k_cold = cold.compile(&bound).unwrap();
        assert!(!k_cold.report().plan_cache_hit, "{}", view.name);

        // Restarted service over the same directory: the blocked plan
        // warm-starts from disk and is byte-identical.
        let warm = Service::new(cfg());
        let bound2 = warm.bind(&p, &[("A", view.clone())]).unwrap();
        let k_warm = warm.compile(&bound2).unwrap();
        assert!(k_warm.report().plan_cache_hit, "{}", view.name);
        assert!(k_warm.report().plan_cache_disk_hit, "{}", view.name);
        assert_eq!(k_warm.plan().to_string(), k_cold.plan().to_string());
        assert_eq!(k_warm.emit("f").unwrap(), k_cold.emit("f").unwrap());

        // The stored entry round-trips the emitted source exactly.
        let store = PersistentPlanCache::new(&dir);
        let (plans, emitted) = store.load_with_source(k_cold.cache_key()).unwrap();
        assert_eq!(plans[0], k_cold.plan().to_string());
        assert_eq!(emitted, k_cold.emit("kernel").unwrap());
        assert_eq!(store.last_error(), None);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_persistent_entries_degrade_to_cold_compiles() {
    let dir = scratch_dir("corrupt");
    let cfg = || ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let cold = Service::new(cfg());
    let p = cold.parse(MVM).unwrap();
    let bound = cold.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k_cold = cold.compile(&bound).unwrap();

    // Truncate every stored entry.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        std::fs::write(&path, "(bernoulli-plan-cache 1 truncated").unwrap();
    }

    let warm = Service::new(cfg());
    let bound2 = warm.bind(&p, &[("A", csr().format_view())]).unwrap();
    let k = warm.compile(&bound2).unwrap();
    // The corrupt entry behaves as a miss: a full (correct) search ran.
    assert!(!k.report().plan_cache_hit);
    assert_eq!(k.plan().to_string(), k_cold.plan().to_string());
    let ps = warm.persist_stats().unwrap();
    assert_eq!(ps.errors, 1, "{ps:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
