//! Pure helpers: the derived metrics, robust summaries, and the process
//! measurements the benchmark reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of `offered` arrivals that did not complete within the SLA —
/// rejected, shed at the source, late, or never answered.
pub fn miss_fraction(offered: u64, within_sla: u64) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    offered.saturating_sub(within_sla) as f64 / offered as f64
}

/// The longest stretch of the window `[start, end]` with no successful
/// reply, in milliseconds. `successes` are the times (ns) of the window's
/// successes, in order.
pub fn unavailable_ms(successes: &[u64], start: u64, end: u64) -> f64 {
    let mut last = start;
    let mut longest = 0;
    for &t in successes {
        longest = longest.max(t - last);
        last = t;
    }
    longest.max(end.saturating_sub(last)) as f64 / 1e6
}

/// Whether a success falls in the last `tail` ns of a window ending at
/// `end`.
pub fn serves_at_end(successes: &[u64], end: u64, tail: u64) -> bool {
    successes.last().is_some_and(|&t| t + tail >= end)
}

/// The nearest-rank `q`-th percentile of `sorted` (0 for no values).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps decimal percentiles (99.9 is not exact in binary)
    // from rounding up to the next rank.
    let rank = (q / 100.0 * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// 64-bit FNV-1a digest of a byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median wall time of a [`Reference::pass`] within a run on the machine
/// the benchmark was tuned on, a 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_PASS: Duration = Duration::from_millis(50);

/// A fixed workload shaped like the simulator's, timed to track how fast
/// the machine runs right now, slowed as it may be by neighbours sharing
/// it: a priority queue of 64k pending events, each popped event writing a
/// random slot of 32 MiB of state and pushing a successor. Its memory is
/// allocated once, so neither its cost nor the allocator's state depends
/// on the repository's code.
pub struct Reference {
    state: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Reference {
    const SLOTS: usize = 1 << 22;
    const PENDING: u64 = 1 << 16;
    const EVENTS: u32 = 150_000;

    /// Allocates the workload's memory and faults every page in.
    pub fn new() -> Reference {
        let mut reference = Reference {
            state: vec![0; Reference::SLOTS],
            queue: BinaryHeap::with_capacity(Reference::PENDING as usize + 1),
        };
        reference.pass();
        reference
    }

    /// Runs the workload once and returns its wall time.
    pub fn pass(&mut self) -> Duration {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let started = Instant::now();
        self.state.fill(0);
        self.queue.clear();
        self.queue
            .extend((0..Reference::PENDING).map(|i| Reverse((next() >> 40, i))));
        for _ in 0..Reference::EVENTS {
            let Reverse((t, i)) = self.queue.pop().expect("every pop pushes a successor");
            let slot = next() as usize & (Reference::SLOTS - 1);
            self.state[slot] = self.state[slot].wrapping_add(t ^ i);
            self.queue.push(Reverse((t + (next() >> 44), slot as u64)));
        }
        black_box(&self.state);
        started.elapsed()
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn unavailable_is_longest_gap_without_success() {
        assert_eq!(unavailable_ms(&[MS, 3 * MS, 7 * MS], 0, 8 * MS), 4.0);
        // The gaps from the window's start and to its end count.
        assert_eq!(unavailable_ms(&[5 * MS, 6 * MS], 0, 7 * MS), 5.0);
        assert_eq!(unavailable_ms(&[MS, 2 * MS], 0, 9 * MS), 7.0);
        assert_eq!(unavailable_ms(&[], 2 * MS, 5 * MS), 3.0);
        // Sub-millisecond gaps keep their digits.
        assert_eq!(unavailable_ms(&[10, 250_010, 300_000], 0, 300_000), 0.25);
    }

    #[test]
    fn miss_fraction_counts_everything_not_served_in_time() {
        assert_eq!(miss_fraction(1000, 1000), 0.0);
        assert_eq!(miss_fraction(1000, 550), 0.45);
        assert_eq!(miss_fraction(0, 0), 0.0);
        // Completions of warmup arrivals can outnumber the window's own
        // arrivals; the share never goes negative.
        assert_eq!(miss_fraction(10, 12), 0.0);
    }

    #[test]
    fn serves_at_end_looks_only_at_the_tail() {
        assert!(serves_at_end(&[MS, 9 * MS], 10 * MS, MS));
        assert!(!serves_at_end(&[MS, 8 * MS], 10 * MS, MS));
        assert!(serves_at_end(&[MS, 8 * MS], 10 * MS, 2 * MS));
        assert!(!serves_at_end(&[], 10 * MS, 10 * MS));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 50.0), 500);
        assert_eq!(quantile(&v, 99.0), 990);
        assert_eq!(quantile(&v, 99.9), 999);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 99.9), 7);
        assert_eq!(quantile(&[], 50.0), 0);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn digest_distinguishes_contents() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
