//! Percentiles, ratios with their base, open-loop accounting and the
//! seeded generator every workload draws its inputs from.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `pct` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `pct` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place (total order; NaN never occurs in timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 50.0)
}

/// A ratio kept together with its numerator and denominator, so every
/// printed share names its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Self { num, den }
    }

    /// `num / den`; a zero base yields 0 rather than NaN or infinity.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `"<num> / <den>"`, the base printed beside the share.
    pub fn base(&self) -> String {
        format!("{} / {}", trim(self.num), trim(self.den))
    }
}

fn trim(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply was complete.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl OpenLoopSample {
    /// Latency charged to the request: from its due time, so a stall
    /// also charges the wait it imposes on every later request.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent it (0 when on time).
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Fixed-rate schedule: request `i` is due `i / rate` seconds after start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Self {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, index: u64) -> Instant {
        self.start + self.interval.mul_f64(index as f64)
    }
}

/// Microseconds of a duration, as a float with sub-µs digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// splitmix64: a tiny seeded generator, so inputs depend on the seed
/// alone and not on a library's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.1), 1.0);
        // Small samples: p50 of 4 is the 2nd value, p99 of 10 the 10th.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn lateness_counts_from_due_time() {
        let t0 = Instant::now();
        let schedule = Schedule::new(t0, 1000.0);
        assert_eq!(schedule.due(3) - t0, Duration::from_millis(3));
        // Request 0 stalls for 10 ms; request 1 was due at 1 ms but the
        // connection was busy until 10 ms: its latency includes the
        // 9 ms it waited, and the generator was 9 ms late.
        let stalled = OpenLoopSample {
            due: schedule.due(0),
            sent: schedule.due(0),
            done: t0 + Duration::from_millis(10),
        };
        let behind = OpenLoopSample {
            due: schedule.due(1),
            sent: t0 + Duration::from_millis(10),
            done: t0 + Duration::from_millis(11),
        };
        assert_eq!(stalled.latency(), Duration::from_millis(10));
        assert_eq!(stalled.lateness(), Duration::ZERO);
        assert_eq!(behind.latency(), Duration::from_millis(10));
        assert_eq!(behind.lateness(), Duration::from_millis(9));
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base(), "3 / 4");
        assert_eq!(Ratio::new(1.0, 0.0).value(), 0.0);
        assert_eq!(Ratio::new(0.5, 2.0).base(), "0.500 / 2");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let mut items: Vec<usize> = (0..10).collect();
        Rng::new(1).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
