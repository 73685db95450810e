//! The metric names and units the benchmark reports; `BENCHMARK.json`
//! at the repository root lists the same names (checked by a test).

/// End-to-end metrics, reported by every workload with tracing off.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("mflops_geomean", "MFLOP/s"),
    ("synth_vs_hand", "ratio"),
    ("restart_ms", "ms"),
];

/// Cells with a loaded kernel and a hand-written baseline.
pub const CELLS: &[&str] = &[
    "ts-csr-can1072",
    "ts-csc-can1072",
    "ts-jad-can1072",
    "mvm-csr-can1072",
    "mvm-ell-can1072",
    "mvm-bsr-fem",
    "mvm-csr-fem",
    "mvm-csr-large",
    "ts-csr-large",
];

/// Cells that also time the generic multi-right-hand-side code.
pub const GENERIC_CELLS: &[&str] = &["ts-csr-can1072", "ts-csc-can1072", "ts-jad-can1072"];

const LAYERS: &[(&str, &str)] = &[
    ("ir.parse_us", "us"),
    ("ir.analyze_us", "us"),
    ("synth.bind_us", "us"),
    ("synth.search_ms", "ms"),
    ("synth.search.examined", "count"),
    ("synth.search.pruned", "count"),
    ("synth.search.kept", "count"),
    ("synth.emit_us", "us"),
    ("polyhedra.empty_queries", "count"),
    ("polyhedra.empty_hit_rate", "ratio"),
    ("polyhedra.fm_queries", "count"),
    ("polyhedra.fm_hit_rate", "ratio"),
    ("formats.features_us", "us"),
    ("formats.convert_ms", "ms"),
    ("service.hit_us", "us"),
    ("service.disk_hit_us", "us"),
    ("service.miss_ms", "ms"),
    ("service.plan_hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.searches", "count"),
    ("service.persist_writes", "count"),
    ("service.accounting_gap", "count"),
    ("kernel_cache.build_ms", "ms"),
    ("kernel_cache.builds", "count"),
    ("kernel_cache.hits", "count"),
    ("kernel_cache.verify_us", "us"),
    ("kernel_cache.dlopen_us", "us"),
    ("compiled.validate_ms", "ms"),
    ("compiled.load_memo_us", "us"),
    ("compiled.call_us", "us"),
    ("interp.mflops", "MFLOP/s"),
    ("blas.computed_gb_per_s.mvm-csr-large", "GB/s"),
    ("pool.par_mflops.mvm-csr-large", "MFLOP/s"),
    ("pool.par_speedup", "ratio"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
];

/// Every per-layer metric, in report order.
pub fn layers() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for c in CELLS {
        out.push((format!("blas.loaded_mflops.{c}"), "MFLOP/s"));
        out.push((format!("blas.hand_mflops.{c}"), "MFLOP/s"));
    }
    for c in GENERIC_CELLS {
        out.push((format!("blas.generic_mflops.{c}"), "MFLOP/s"));
    }
    for (n, _) in E2E {
        out.push((format!("trace.overhead.{n}"), "ratio"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split('{')
                .skip(1)
                .map(|o| {
                    let get = |k: &str| {
                        let i = o.find(&format!("\"{k}\"")).expect(k) + k.len() + 2;
                        let v = &o[i..];
                        let v = &v[v.find('"').unwrap() + 1..];
                        v[..v.find('"').unwrap()].to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = layers()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        let all = E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layers())
            .collect::<Vec<_>>();
        let mut seen = std::collections::HashSet::new();
        for (n, u) in &all {
            assert!(n.len() <= 64 && seen.insert(n.clone()), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(all.len() - E2E.len() <= 128);
    }
}
