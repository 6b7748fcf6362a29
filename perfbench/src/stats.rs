//! The benchmark's own arithmetic: percentiles, open-loop schedule
//! accounting, and the farm's idle share.  Kept free of any timing or I/O
//! so the unit tests below pin every rule exactly.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a percentile needs samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} is outside (0, 100]");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in `n` samples.  The product is
/// nudged down before rounding up so that, say, p99.9 of 10,000 samples
/// lands on rank 9,990 despite `99.9 / 100` not being exact in binary.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples strictly beyond it in a sample of `n`, or `None` when even the
/// median has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n).max(1)) >= 10)
}

/// Median and the tail-rule percentile of a latency sample, with the
/// sample count behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples the figures rest on.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The percentile chosen by [`tail_percentile`] and its value.
    pub tail: Option<(f64, f64)>,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p99: percentile(&sorted, 99.0),
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
    }
}

/// Median, averaging the middle two of an even count (set-up repetitions,
/// replay rounds, farm passes, throughput windows).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "a median needs samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Open-loop schedule bookkeeping for one request.  Request `index` is due
/// `index / rate` after the schedule starts; it is sent at `sent` and its
/// reply arrives at `done` (both offsets from the schedule start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Latency counted from when the request was due, so a stall also
    /// charges the requests queued behind it.
    pub latency: Duration,
    /// How late the generator sent the request.
    pub lateness: Duration,
    /// Requests already due but not yet sent when this one went out,
    /// itself excluded.
    pub backlog: u64,
}

/// When request `index` of a schedule at `rate` per second is due.
pub fn due(index: u64, rate: f64) -> Duration {
    Duration::from_nanos((index as f64 * 1e9 / rate).round() as u64)
}

/// Accounts one open-loop request (see [`Timing`]).
pub fn account(index: u64, rate: f64, sent: Duration, done: Duration) -> Timing {
    let due = due(index, rate);
    let due_by_send = (sent.as_nanos() as f64 * rate / 1e9).floor() as u64 + 1;
    Timing {
        latency: done.saturating_sub(due),
        lateness: sent.saturating_sub(due),
        backlog: due_by_send.saturating_sub(index + 1),
    }
}

/// Share of the farm's worker time spent without a job:
/// `1 − Σ job durations / (threads × makespan)`, clamped to `[0, 1]`.
pub fn idle_share(job_durations: &[Duration], threads: usize, makespan: Duration) -> f64 {
    let capacity = threads as f64 * makespan.as_secs_f64();
    if capacity <= 0.0 {
        return 0.0;
    }
    let busy: f64 = job_durations.iter().map(Duration::as_secs_f64).sum();
    (1.0 - busy / capacity).clamp(0.0, 1.0)
}

/// Median over consecutive `window`-second windows of the work completed
/// per second, from `(start, end, units)` operations (offsets in s).  Each
/// operation's units are spread over the windows its interval overlaps, in
/// proportion, so the figure is not quantized to whole operations per
/// window.  Only whole windows count; with none whole, the overall rate is
/// returned.  A stall inside one window moves that window, not the median.
pub fn windowed_rate(ops: &[(f64, f64, f64)], window: f64) -> f64 {
    let end = ops.iter().map(|o| o.1).fold(0.0, f64::max);
    let whole = (end / window).floor() as usize;
    if whole == 0 {
        let units: f64 = ops.iter().map(|o| o.2).sum();
        return ratio(units, end);
    }
    let mut per_window = vec![0.0; whole];
    for &(from, to, units) in ops {
        let span = to - from;
        if span <= 0.0 {
            let w = (to / window) as usize;
            if w < whole {
                per_window[w] += units;
            }
            continue;
        }
        let first = (from / window) as usize;
        let last = ((to / window) as usize).min(whole - 1);
        for (w, slot) in per_window.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = from.max(w as f64 * window);
            let hi = to.min((w + 1) as f64 * window);
            if hi > lo {
                *slot += units * (hi - lo) / span;
            }
        }
    }
    let rates: Vec<f64> = per_window.iter().map(|u| u / window).collect();
    median(&rates)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // p99 of 1,000 samples is rank 990: exactly ten beyond it.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        // 999 samples leave only nine beyond p99, so p90 is reported.
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99.9 of 10,000 samples is rank 9,990: ten beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 20 samples: only the median has ten beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.mean, 500.5);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // 1,000 per second: request 5 is due at 5 ms.  Sent on time and
        // answered at 5.3 ms, it took 0.3 ms and was not late.
        let t = account(5, 1_000.0, ms(5), Duration::from_micros(5_300));
        assert_eq!(t.latency, Duration::from_micros(300));
        assert_eq!(t.lateness, Duration::ZERO);
        assert_eq!(t.backlog, 0);
        // A stall sends it 2 ms late: the wait counts toward its latency,
        // and requests 6 and 7 are already due behind it.
        let t = account(5, 1_000.0, ms(7), Duration::from_micros(7_300));
        assert_eq!(t.latency, Duration::from_micros(2_300));
        assert_eq!(t.lateness, ms(2));
        assert_eq!(t.backlog, 2);
    }

    #[test]
    fn a_generator_sleeping_until_due_has_no_lateness() {
        for index in 0..50u64 {
            let sent = due(index, 2_000.0);
            let t = account(index, 2_000.0, sent, sent + Duration::from_micros(280));
            assert_eq!(t.lateness, Duration::ZERO);
            assert_eq!(t.backlog, 0);
            assert_eq!(t.latency, Duration::from_micros(280));
        }
    }

    #[test]
    fn idle_share_of_a_two_thread_farm() {
        // Two workers over 10 s with 15 s of jobs: a quarter idle.
        assert_eq!(idle_share(&[ms(9_000), ms(6_000)], 2, ms(10_000)), 0.25);
        // Fully busy.
        assert_eq!(idle_share(&[ms(5_000), ms(5_000)], 2, ms(5_000)), 0.0);
        // One job on two workers: half idle.
        assert_eq!(idle_share(&[ms(4_000)], 2, ms(4_000)), 0.5);
        assert_eq!(idle_share(&[], 2, Duration::ZERO), 0.0);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // One unit per 10 ms, back to back, except a stalled window.
        let mut ops: Vec<(f64, f64, f64)> = (0..50)
            .map(|i| (i as f64 * 0.01, (i + 1) as f64 * 0.01, 1.0))
            .collect();
        ops.retain(|o| !(0.2..0.3).contains(&o.0));
        assert!((windowed_rate(&ops, 0.1) - 100.0).abs() < 1e-6);
        // An operation straddling two windows is shared between them: two
        // 0.1 s windows, three units, the middle one split 50/50.
        let ops = [(0.0, 0.05, 1.0), (0.05, 0.15, 1.0), (0.15, 0.2, 1.0)];
        assert!((windowed_rate(&ops, 0.1) - 15.0).abs() < 1e-9);
        // Shorter than one window: the overall rate.
        assert_eq!(
            windowed_rate(&[(0.0, 0.04, 2.0), (0.04, 0.05, 3.0)], 0.1),
            100.0
        );
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
