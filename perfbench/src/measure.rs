//! Seeded randomness and the summary statistics every metric is built
//! from: medians, the tail-percentile rule, geometric means and the
//! alternating order of interleaved rounds.

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same request stream on every host and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one independent sub-stream of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ stream.rotate_left(32));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Median of the samples (mean of the middle pair for even counts);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of the samples; `0.0` for none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail latency reported next to the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Integer percentile the value stands for (100 = the maximum, used
    /// only when fewer than 11 samples exist).
    pub percentile: u32,
    pub value: f64,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
    pub samples: usize,
}

/// The highest integer percentile that still has at least ten samples
/// beyond it (nearest-rank definition). With fewer than eleven samples
/// no percentile qualifies and the maximum is reported as percentile
/// 100 with the true (smaller) count beyond it.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    for p in (1..100u32).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if rank <= n && n - rank >= 10 {
            return Tail {
                percentile: p,
                value: v[rank - 1],
                beyond: n - rank,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100,
        value: v.last().copied().unwrap_or(0.0),
        beyond: 0,
        samples: n,
    }
}

/// Geometric mean of positive values; `0.0` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The order in which round `round` visits `slots` slots: forward on
/// even rounds, backward on odd ones, so no slot always runs right
/// after the same neighbour or always first in a round.
pub fn round_order(slots: usize, round: usize) -> Vec<usize> {
    if round.is_multiple_of(2) {
        (0..slots).collect()
    } else {
        (0..slots).rev().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        // p90 has rank 90 and exactly ten samples (91..=100) beyond it;
        // p91 would leave only nine.
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90, 90.0, 10, 100)
        );

        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));

        let v: Vec<f64> = (1..=33).map(f64::from).collect();
        let t = tail(&v);
        assert!(t.beyond >= 10);
        let next = ((t.percentile as usize + 1) * 33).div_ceil(100);
        assert!(33 - next < 10, "p{} + 1 would still qualify", t.percentile);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100, 5.0, 0, 3)
        );
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.percentile, t.value, t.beyond), (9, 0.0, 10));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[3.0], 0.1), 3.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rounds_alternate_direction() {
        assert_eq!(round_order(3, 0), vec![0, 1, 2]);
        assert_eq!(round_order(3, 1), vec![2, 1, 0]);
        assert_eq!(round_order(3, 2), vec![0, 1, 2]);
        // Over any two consecutive rounds every slot runs once in each
        // half of the round.
        let mut firsts = [0usize; 4];
        for r in 0..2 {
            for (pos, s) in round_order(4, r).into_iter().enumerate() {
                if pos < 2 {
                    firsts[s] += 1;
                }
            }
        }
        assert_eq!(firsts, [1, 1, 1, 1]);
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7 && (0.0..1.0).contains(&r.unit())));
    }
}
