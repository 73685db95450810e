//! Seeded compile requests: a program from the paper's kernel set, a
//! format for its sparse operands, and a fresh instance whose measured
//! structure sets the cost-model statistics. Every request in a stream
//! has a plan-cache key no earlier request in the stream had.

use crate::measure::Rng;
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{gen, vector_features, StructureFeatures, Triplets};
use bernoulli_synth::WorkloadStats;
use std::collections::HashSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Prog {
    Mvm,
    Mvmt,
    Ts,
    Spdot,
    RowSums,
}

pub const PROGS: [Prog; 5] = [Prog::Mvm, Prog::Mvmt, Prog::Ts, Prog::Spdot, Prog::RowSums];

/// Number of (program, format) pairs requests are drawn over.
pub fn pair_count() -> usize {
    PROGS.iter().map(|p| p.formats().len()).sum()
}

impl Prog {
    pub fn name(self) -> &'static str {
        match self {
            Prog::Mvm => "mvm",
            Prog::Mvmt => "mvmt",
            Prog::Ts => "ts",
            Prog::Spdot => "spdot",
            Prog::RowSums => "rowsums",
        }
    }

    /// Formats (views of the sparse operands) each program is drawn with.
    pub fn formats(self) -> &'static [&'static str] {
        match self {
            Prog::Mvm => &[
                "csr", "csc", "coo", "dia", "ell", "jad", "sky", "bsr2x2", "vbr",
            ],
            Prog::Mvmt => &["csr", "csc", "coo", "bsr2x2", "vbr"],
            Prog::Ts => &["csr", "csc", "jad", "dia", "sky"],
            Prog::Spdot => &["merge", "hash"],
            Prog::RowSums => &["csr", "csc", "coo", "ell", "jad"],
        }
    }

    /// The high-level, dense specification a user writes.
    pub fn text(self) -> &'static str {
        match self {
            Prog::Mvm => {
                "program mvm(M, N) {
                  in matrix A[M][N]; in vector x[N]; inout vector y[M];
                  for i in 0..M { for j in 0..N { y[i] = y[i] + A[i][j] * x[j]; } }
                }"
            }
            Prog::Mvmt => {
                "program mvmt(M, N) {
                  in matrix A[M][N]; in vector x[M]; inout vector y[N];
                  for i in 0..M { for j in 0..N { y[j] = y[j] + A[i][j] * x[i]; } }
                }"
            }
            Prog::Ts => {
                "program ts(N) {
                  in matrix L[N][N]; inout vector b[N];
                  for j in 0..N {
                    b[j] = b[j] / L[j][j];
                    for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; }
                  }
                }"
            }
            Prog::Spdot => {
                "program spdot(N) {
                  in vector x[N]; in vector y[N]; inout vector s[1];
                  for i in 0..N { s[0] = s[0] + x[i] * y[i]; }
                }"
            }
            Prog::RowSums => {
                "program rowsums(M, N) {
                  in matrix A[M][N]; inout vector r[M];
                  for i in 0..M { for j in 0..N { r[i] = r[i] + A[i][j]; } }
                }"
            }
        }
    }
}

/// The operands a request's statistics are measured from.
pub enum Instance {
    Matrix(Triplets<f64>),
    Vectors(usize, Vec<(usize, f64)>, Vec<(usize, f64)>),
}

pub struct Request {
    pub prog: Prog,
    pub fmt: &'static str,
    pub inst: Instance,
}

impl Request {
    pub fn label(&self) -> String {
        format!("{}-{}", self.prog.name(), self.fmt)
    }

    /// Format views bound to the program's sparse operands.
    pub fn views(&self) -> Vec<(&'static str, FormatView)> {
        match self.prog {
            Prog::Spdot => {
                let y = if self.fmt == "hash" {
                    hashvec_format_view()
                } else {
                    sparsevec_format_view()
                };
                vec![("x", sparsevec_format_view()), ("y", y)]
            }
            Prog::Ts => vec![("L", bernoulli_blas::synth::view_for("ts", self.fmt))],
            _ => vec![("A", bernoulli_blas::synth::view_for("mvm", self.fmt))],
        }
    }

    /// Cost-model statistics measured from the instance.
    pub fn stats(&self) -> WorkloadStats {
        match &self.inst {
            Instance::Matrix(t) => {
                let name = if self.prog == Prog::Ts { "L" } else { "A" };
                WorkloadStats::from_features(&[(name, &StructureFeatures::of_triplets(t))])
            }
            Instance::Vectors(n, x, y) => WorkloadStats::from_features(&[
                ("x", &vector_features(*n, x)),
                ("y", &vector_features(*n, y)),
            ]),
        }
    }

    /// The instance quantities the statistics depend on; two requests
    /// with equal program, format and shape get the same plan-cache key.
    fn shape(&self) -> (usize, usize, usize, usize) {
        match &self.inst {
            Instance::Matrix(t) => (t.nrows(), t.ncols(), t.nnz(), 0),
            Instance::Vectors(n, x, y) => (*n, 0, x.len(), y.len()),
        }
    }
}

/// What makes two requests' plan-cache keys equal.
type Key = (Prog, &'static str, (usize, usize, usize, usize));

/// An endless, seeded stream of requests with distinct keys: the same
/// seed and stream number give the same requests in the same order.
/// (program, format) pairs come in cycles that visit every pair once in
/// a seeded order, so every stream has the same mix of work and only
/// the order and the instances depend on the seed.
pub struct RequestStream {
    rng: Rng,
    /// The (program, format) pairs each cycle visits.
    pairs: Vec<(Prog, &'static str)>,
    cycle: Vec<(Prog, &'static str)>,
    seen: HashSet<Key>,
}

impl RequestStream {
    pub fn new(seed: u64, stream: u64) -> RequestStream {
        RequestStream {
            rng: Rng::stream(seed, stream),
            pairs: PROGS
                .iter()
                .flat_map(|&p| p.formats().iter().map(move |&f| (p, f)))
                .collect(),
            cycle: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// From here on, only requests for `prog` over `fmt`; keys stay
    /// distinct from every earlier request of the stream.
    pub fn only(mut self, prog: Prog, fmt: &'static str) -> RequestStream {
        self.pairs = vec![(prog, fmt)];
        self.cycle.clear();
        self
    }

    fn draw(&mut self, prog: Prog, fmt: &'static str) -> Request {
        let r = &mut self.rng;
        let seed = r.next_u64();
        let inst = match prog {
            // Shapes vary just enough for thousands of distinct keys
            // per (program, format), and too little for the seed to
            // change how much work a request is.
            Prog::Mvm | Prog::Mvmt | Prog::RowSums => {
                let m = 240 + r.below(16) as usize;
                let n = 240 + r.below(16) as usize;
                let nnz = 1280 + r.below(64) as usize;
                Instance::Matrix(gen::random_sparse(m, n, nnz, seed))
            }
            Prog::Ts => {
                // A banded lower triangle with a few off-diagonal
                // entries dropped.
                let n = 240 + r.below(16) as usize;
                let drop = r.below(64) as usize;
                let full = gen::banded(n, 3, seed).lower_triangle_full_diag(1.0);
                let mut off = 0;
                let kept: Vec<(usize, usize, f64)> = full
                    .entries()
                    .iter()
                    .copied()
                    .filter(|&(i, j, _)| {
                        off += usize::from(i != j);
                        i == j || off > drop
                    })
                    .collect();
                Instance::Matrix(Triplets::from_entries(n, n, &kept))
            }
            Prog::Spdot => {
                let n = 4000 + r.below(2000) as usize;
                let nx = 120 + r.below(8) as usize;
                let ny = 120 + r.below(8) as usize;
                Instance::Vectors(
                    n,
                    gen::sparse_vector(n, nx, seed),
                    gen::sparse_vector(n, ny, seed ^ 1),
                )
            }
        };
        Request { prog, fmt, inst }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.cycle.is_empty() {
            self.cycle = self.pairs.clone();
            for i in (1..self.cycle.len()).rev() {
                self.cycle.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        let (prog, fmt) = self.cycle.pop().expect("cycle refilled above");
        loop {
            let req = self.draw(prog, fmt);
            if self.seen.insert((prog, fmt, req.shape())) {
                return Some(req);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64, stream: u64, n: usize) -> Vec<(String, (usize, usize, usize, usize))> {
        RequestStream::new(seed, stream)
            .take(n)
            .map(|r| (r.label(), r.shape()))
            .collect()
    }

    #[test]
    fn a_seed_gives_an_identical_request_stream() {
        assert_eq!(keys(42, 0, 200), keys(42, 0, 200));
        assert_ne!(keys(42, 0, 50), keys(43, 0, 50));
        assert_ne!(keys(42, 0, 50), keys(42, 1, 50));
    }

    #[test]
    fn keys_never_repeat_and_cover_every_program() {
        let k = keys(7, 0, 400);
        let distinct: HashSet<_> = k.iter().collect();
        assert_eq!(distinct.len(), k.len());
        for p in PROGS {
            assert!(k
                .iter()
                .any(|(l, _)| l.starts_with(&format!("{}-", p.name()))));
        }
    }

    #[test]
    fn stats_follow_the_instance() {
        let r = RequestStream::new(3, 0).next().unwrap();
        let s = r.stats();
        let (a, b, _, _) = r.shape();
        assert!(s.default_n >= a.max(b) as f64 || r.prog == Prog::Spdot);
    }
}
