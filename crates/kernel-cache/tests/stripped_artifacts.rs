//! Artifacts are built with `-C strip=debuginfo`. These tests pin what
//! stripping must keep: a panic inside the library is still caught by
//! its own `catch_unwind` (the unwind tables survive), exported symbols
//! still resolve, and the checksum sidecar still describes the file.
//! They also pin what it must drop: `std`'s debuginfo, which would put
//! a trivial artifact back over 1 MiB.
//!
//! Each test skips quietly when the host has no `rustc`.

use bernoulli_kernel_cache::{rustc_info, KernelStore, Library};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-strip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ADD_SRC: &str =
    "#[no_mangle]\npub extern \"C\" fn kc_test_add(a: i64, b: i64) -> i64 { a + b }\n";

#[test]
fn stripped_artifact_is_small_and_its_sidecar_matches() {
    if rustc_info().is_err() {
        return;
    }
    let dir = scratch("size");
    let store = KernelStore::at(&dir);
    let a = store.get_or_build("strip-size", ADD_SRC).unwrap();
    let len = std::fs::metadata(&a.path).unwrap().len();
    // Unstripped, this artifact is ~4 MB of std debuginfo.
    assert!(
        len < 1 << 20,
        "kc_test_add artifact is {len} bytes: std debuginfo is back"
    );
    let sum = std::fs::read_to_string(a.path.with_extension("sum")).unwrap();
    let recorded: u64 = sum.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(recorded, len, "sidecar {sum:?} does not describe the file");
    store.verify(&a.path).unwrap();
    let lib = Library::open(&a.path).unwrap();
    let sym = lib.symbol("kc_test_add").unwrap();
    // Safety: the symbol was just built with exactly this signature, and
    // `lib` outlives the call.
    let f: extern "C" fn(i64, i64) -> i64 = unsafe { std::mem::transmute(sym) };
    assert_eq!(f(40, 2), 42);
    drop(lib);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mirrors the generated kernels' entry points: the body runs under
/// `catch_unwind` and a panic becomes status 1.
const PANIC_SRC: &str = "#[no_mangle]
pub extern \"C\" fn kc_test_index(i: usize) -> i32 {
    let v = [1.0f64, 2.0, 3.0];
    let r = std::panic::catch_unwind(|| std::hint::black_box(&v)[std::hint::black_box(i)]);
    if r.is_ok() { 0 } else { 1 }
}
";

#[test]
fn in_library_panic_is_caught_in_stripped_artifact() {
    if rustc_info().is_err() {
        return;
    }
    let dir = scratch("panic");
    let store = KernelStore::at(&dir);
    let a = store.get_or_build("strip-panic", PANIC_SRC).unwrap();
    let lib = Library::open(&a.path).unwrap();
    let sym = lib.symbol("kc_test_index").unwrap();
    // Safety: built with exactly this signature; `lib` outlives the calls.
    let f: extern "C" fn(usize) -> i32 = unsafe { std::mem::transmute(sym) };
    assert_eq!(f(1), 0);
    // An out-of-range index panics inside the library; the library's
    // own catch_unwind must catch it (an abort would end this process).
    assert_eq!(f(7), 1);
    assert_eq!(f(usize::MAX), 1);
    // The library is still usable after a caught panic.
    assert_eq!(f(2), 0);
    drop(lib);
    let _ = std::fs::remove_dir_all(&dir);
}
