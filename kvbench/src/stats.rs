//! Percentiles and the rate ladder.

/// The percentiles a summary may report, in hundredths of a percent.
const PERCENTILES: [u64; 5] = [5000, 9000, 9900, 9990, 9999];

/// The p99 commit latency every ladder rung must meet, in ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// Commands per chunk of the commit latencies: enough for ten samples
/// beyond p99.
pub const COMMIT_CHUNK: usize = 1000;

/// The reported latencies are this percentile, over chunks, of each
/// chunk's percentile (hundredths of a percent): the lower decile, which
/// reads the intervals the host left the VM alone (see README.md).
pub const OVER_CHUNKS: u64 = 1000;

/// Each ladder rung runs this many times faster than the one below.
pub const LADDER_STEP: f64 = 1.25;

/// The index of the `pct`-th percentile (hundredths of a percent) of
/// `n` sorted samples, by nearest rank.
fn rank(n: usize, pct: u64) -> usize {
    let n = n as u64;
    ((pct * n).div_ceil(10_000)).max(1) as usize - 1
}

/// The value at percentile `pct` (hundredths of a percent) of the
/// ascending `sorted`; `NaN` when empty.
pub fn percentile(sorted: &[f64], pct: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct)]
}

/// The highest of the reportable percentiles (hundredths of a percent)
/// that has at least ten of `n` samples beyond it.
pub fn highest_supported(n: usize) -> Option<u64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - 1 - rank(n, p) >= 10)
}

/// A timing distribution: its sample count, median, p99 and its
/// highest supported percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The 99th percentile (read with care when `tail_pct` < 9900).
    pub p99: f64,
    /// The highest percentile with ten samples beyond it, in hundredths
    /// of a percent; 0 if there is none.
    pub tail_pct: u64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order).
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let tail_pct = highest_supported(samples.len()).unwrap_or(0);
        Summary {
            n: samples.len(),
            p50: percentile(&samples, 5000),
            p99: percentile(&samples, 9900),
            tail_pct,
            tail: percentile(&samples, tail_pct.max(5000)),
        }
    }
}

/// Percentile `over`, across `samples` (in arrival order) cut into
/// equal runs of at least `chunk` samples, of each run's percentile
/// `pct` (both in hundredths of a percent). A stall that hits a few
/// runs moves this less than it moves the percentile of the whole.
pub fn chunked(samples: &[f64], chunk: usize, pct: u64, over: u64) -> f64 {
    let m = (samples.len() / chunk.max(1)).max(1);
    let mut per_chunk: Vec<f64> = (0..m)
        .map(|k| {
            let mut c = samples[k * samples.len() / m..(k + 1) * samples.len() / m].to_vec();
            c.sort_by(f64::total_cmp);
            percentile(&c, pct)
        })
        .collect();
    per_chunk.sort_by(f64::total_cmp);
    percentile(&per_chunk, over)
}

/// A rung's p99 commit latency: the median over chunks of each chunk's
/// p99, so a lone host stall does not fail the rung but a tail over the
/// limit in most of it does.
pub fn rung_p99(commit_ms: &[f64]) -> f64 {
    chunked(commit_ms, COMMIT_CHUNK, 9900, 5000)
}

/// Whether a rung meets the limit: every command it sent committed
/// before its drain ended, and its [`rung_p99`] is within
/// [`LATENCY_LIMIT_MS`]. A growing backlog fails the drain.
pub fn rung_passes(commit_ms: &[f64], all_committed: bool) -> bool {
    all_committed && rung_p99(commit_ms) <= LATENCY_LIMIT_MS
}

/// Climbs the rate ladder `nominal × LADDER_STEP^k`, `k = 0..max_rungs`,
/// running rung `k` through `passes(k, rate)`; stops at the first
/// failing rung and returns the highest rate that passed.
pub fn ladder(
    nominal: f64,
    max_rungs: usize,
    mut passes: impl FnMut(usize, f64) -> bool,
) -> Option<f64> {
    let mut best = None;
    for k in 0..max_rungs {
        let rate = nominal * LADDER_STEP.powi(k as i32);
        if !passes(k, rate) {
            break;
        }
        best = Some(rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(5000));
        assert_eq!(highest_supported(99), Some(5000));
        assert_eq!(highest_supported(100), Some(9000));
        assert_eq!(highest_supported(999), Some(9000));
        assert_eq!(highest_supported(1000), Some(9900));
        assert_eq!(highest_supported(10_000), Some(9990));
        assert_eq!(highest_supported(100_000), Some(9999));
        for n in 1..3000 {
            if let Some(p) = highest_supported(n) {
                assert!(n - 1 - rank(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(samples.into_iter().rev().collect());
        assert_eq!((s.n, s.p50, s.p99), (1000, 500.0, 990.0));
        assert_eq!((s.tail_pct, s.tail), (9900, 990.0));
    }

    #[test]
    fn chunked_percentiles_take_the_median_chunk() {
        // Three chunks of 100; the middle one is slow throughout, the
        // last has one stall that p99 of 100 samples does not reach.
        let mut v: Vec<f64> = (0..100).map(|_| 1.0).collect();
        v.extend((0..100).map(|_| 9.0));
        v.extend((0..100).map(|i| if i == 99 { 50.0 } else { 2.0 }));
        assert_eq!(chunked(&v, 100, 5000, 5000), 2.0);
        assert_eq!(chunked(&v, 100, 9900, 5000), 2.0);
        assert_eq!(chunked(&v, 300, 9900, 5000), 9.0);
        // The lower decile over chunks reads the fastest chunk here.
        assert_eq!(chunked(&v, 100, 5000, 1000), 1.0);
        assert_eq!(chunked(&v, 100, 5000, 9000), 9.0);
        // Fewer samples than one chunk: the whole is one chunk.
        assert_eq!(chunked(&v[..50], 100, 5000, 5000), 1.0);
        assert!(chunked(&[], 100, 5000, 5000).is_nan());
    }

    #[test]
    fn the_ladder_stops_at_the_first_failing_rung() {
        let mut tried = Vec::new();
        let best = ladder(1000.0, 8, |k, rate| {
            tried.push(rate);
            k != 3 // rung 3 fails; a later rung would pass again
        });
        assert_eq!(tried, vec![1000.0, 1250.0, 1562.5, 1953.125]);
        assert_eq!(best, Some(1562.5));
        assert_eq!(ladder(1000.0, 8, |_, _| false), None);
        assert_eq!(ladder(1000.0, 3, |_, _| true), Some(1562.5));
    }

    #[test]
    fn a_rung_fails_on_its_tail_or_its_backlog() {
        let fast = vec![1.0; 3000];
        assert!(rung_passes(&fast, true));
        assert!(!rung_passes(&fast, false));
        // A stall within one chunk of three passes; a tail over the
        // limit in most chunks fails.
        let mut stalled = fast.clone();
        stalled[1000..1100].fill(80.0);
        assert!(rung_passes(&stalled, true));
        let mut slow = fast.clone();
        for c in 1..3 {
            slow[c * 1000 + 980..(c + 1) * 1000].fill(80.0);
        }
        assert!(!rung_passes(&slow, true));
    }
}
