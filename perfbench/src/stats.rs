//! Order statistics, seeded ordering and the failed-operation ledger.

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in percent) of a sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a latency tail is reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples above its nearest rank, or `None` when even the median has
/// fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// A deterministic permutation of `0..n` drawn from `seed` (SplitMix64
/// driving a Fisher-Yates shuffle).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records `ops` operations named `what`, all failed when `problems`
    /// is non-empty.
    pub fn record(&mut self, what: &str, ops: u64, problems: &[String]) {
        self.attempted += ops;
        if !problems.is_empty() {
            self.failed += ops;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }
}

/// A problem string when `got != want`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Option<String> {
    (got != want).then(|| format!("{what} {got:?} != {want:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(320), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(60, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
        assert_eq!(a, permutation(60, 7));
        assert_ne!(a, permutation(60, 8));
    }

    #[test]
    fn ledger_counts_every_op_of_a_failed_check() {
        let mut l = Ledger::default();
        l.record("job a", 1, &[]);
        l.record("phase b", 40, &["report differs".to_string()]);
        l.record("job c", 1, &[expect_eq("checksum", 1, 2).unwrap()]);
        assert_eq!((l.attempted, l.failed), (42, 41));
        assert_eq!(l.failures.len(), 2);
        assert!(l.failures[1].contains("checksum 1 != 2"));
        assert_eq!(expect_eq("x", 3, 3), None);
    }
}
