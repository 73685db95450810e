//! The repository's benchmark: four seeded workloads driven through the
//! public API, each output checked against a reference that does not
//! come from the compiler. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <exec|compile|service|native> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (and tracing overhead) with
//! `--trace 1`.

mod cells;
mod common;
mod compile;
mod exec;
mod measure;
mod metrics;
mod native;
mod requests;
mod service;
mod spans;

use common::{Ctx, Outcome};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: &[&str] = &["exec", "compile", "service", "native"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {val}: out of range"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Removes the run's temp dir (kernel stores, plan caches, `rustc`
/// scratch) however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Bytes in an `lscpu` size such as `105 MiB (1 instance)`.
fn parse_size(s: &str) -> Option<usize> {
    let mut w = s.split_whitespace();
    let n: f64 = w.next()?.parse().ok()?;
    let mult = match w.next()? {
        "B" => 1.0,
        "KiB" | "K" => 1024.0,
        "MiB" | "M" => 1048576.0,
        "GiB" | "G" => 1073741824.0,
        _ => return None,
    };
    Some((n * mult) as usize)
}

/// Host fingerprint; returns the last-level cache size in bytes.
fn fingerprint(a: &Args, nproc: usize, rustc: &str) -> usize {
    let lscpu = command_line("lscpu", &[]).unwrap_or_default();
    let field = |k: &str| {
        lscpu.lines().find_map(|l| {
            l.strip_prefix(k)?
                .strip_prefix(':')
                .map(|v| v.trim().to_string())
        })
    };
    let model = field("Model name").unwrap_or_else(|| "unknown".into());
    let l2 = field("L2 cache").unwrap_or_else(|| "unknown".into());
    let l3 = field("L3 cache").unwrap_or_else(|| "none".into());
    let llc = parse_size(&l3)
        .or_else(|| parse_size(&l2))
        .unwrap_or(32 << 20);
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("host: nproc {nproc}, cpu {model}, L2 {l2}, L3 {l3}, pool lanes {nproc}");
    println!("rustc: {rustc}; commit: {commit}");
    llc
}

fn run_workload(name: &str, ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    match name {
        "exec" => exec::run(ctx, tr),
        "compile" => compile::run(ctx, tr),
        "service" => service::run(ctx, tr),
        "native" => native::run(ctx, tr),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Cost of recording one span, in nanoseconds.
fn span_cost_ns() -> f64 {
    let t = Tracer::new(true);
    let n = 100_000;
    let t0 = Instant::now();
    for i in 0..n {
        let _s = t.span("calibrate", i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

fn json_metrics(values: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A restart child: `--restart-child <store> <artifact> <seed> <0|1>`.
    if let [flag, store, artifact, seed, trace] = argv.as_slice() {
        if flag == "--restart-child" {
            let Ok(seed) = seed.parse() else {
                eprintln!("--restart-child: bad seed {seed:?}");
                return ExitCode::from(2);
            };
            cells::restart_child(Path::new(store), Path::new(artifact), seed, trace == "1");
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cwd = std::env::current_dir().expect("current directory");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    // Relative, and of the same length in every run: kernel stores live
    // under it, and their paths end up inside the kernels `rustc`
    // builds (see `Ctx::store_dir`).
    let tmp = TempDir(
        Path::new(".bench_tmp").join(format!("run-{:010}-{stamp:020}", std::process::id())),
    );
    let scratch = cwd.join(&tmp.0).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    // Before any thread exists: keep `rustc`'s scratch files and any
    // default kernel store inside the run's directory, and size the
    // process-wide pool to the host.
    std::env::set_var("TMPDIR", &scratch);
    std::env::set_var("BERNOULLI_KERNEL_CACHE", tmp.0.join("default-kernel-store"));
    std::env::set_var(bernoulli_pool::THREADS_ENV, nproc.to_string());
    let rustc = match bernoulli_synth::rustc_info() {
        Ok(r) => r.version.clone(),
        Err(e) => {
            eprintln!("rustc is required to build kernels and is unusable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let llc_bytes = fingerprint(&args, nproc, &rustc);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tmp: tmp.0.clone(),
        nproc,
        llc_bytes,
        process_start,
        setup_passes: 3,
        first_setup: std::cell::Cell::new(true),
    };

    let mut values: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed, complete);
    if !args.trace {
        let out = match run_workload(&args.workload, &ctx, &Tracer::new(false)) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        complete = metrics::E2E.iter().all(|(n, _)| out.e2e.contains_key(n));
        for &(n, u) in metrics::E2E {
            values.push((n.to_string(), out.e2e.get(n).copied().unwrap_or(0.0), u));
        }
        (attempted, failed) = (out.attempted, out.failed);
    } else {
        // Half the time untraced, half traced: the ratio of the two
        // runs' end-to-end metrics is the tracing overhead.
        ctx.seconds = args.seconds / 2.0;
        ctx.setup_passes = 1;
        // Both halves time set-up from their own start, so their
        // `setup_s` compare like for like.
        ctx.first_setup.set(false);
        let plain = Tracer::new(false);
        let tracer = Tracer::new(true);
        let runs = run_workload(&args.workload, &ctx, &plain)
            .and_then(|a| Ok((a, run_workload(&args.workload, &ctx, &tracer)?)));
        let (base, traced) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        let mut layers = traced.layers.clone();
        for &(n, _) in metrics::E2E {
            let (a, b) = (base.e2e.get(n), traced.e2e.get(n));
            if let (Some(a), Some(b)) = (a, b) {
                println!("tracing overhead {n}: untraced {a:.6} traced {b:.6}");
                layers.insert(format!("trace.overhead.{n}"), b / a);
            }
        }
        layers.insert("trace.spans".into(), tracer.len() as f64);
        layers.insert("trace.span_cost_ns".into(), span_cost_ns());
        println!("span self time (count, total s, self s):");
        for (name, t) in tracer.totals() {
            println!(
                "  {name:<22} {:>8} {:>12.6} {:>12.6}",
                t.count, t.total_s, t.self_s
            );
        }
        let path = cwd
            .join(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans written to {} ({} dropped)",
                path.display(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
        complete = true;
        for (n, u) in metrics::layers() {
            let v = layers.get(&n).copied().unwrap_or(0.0);
            values.push((n, v, u));
        }
        (attempted, failed) = (
            base.attempted + traced.attempted,
            base.failed + traced.failed,
        );
    }
    for (n, v, u) in &values {
        println!("metric {n} = {v} {u}");
    }
    let finite = values.iter().all(|(_, v, _)| v.is_finite());
    for (_, v, _) in &mut values {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    let correct = failed == 0 && complete && finite && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(&values)
    );
    ExitCode::SUCCESS
}
