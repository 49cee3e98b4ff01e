//! The open-loop query generator: requests are due on a fixed schedule that
//! does not slow when the server slows, each is timed from the instant
//! it was due, and a rate only counts as met when its p99 stays under
//! the limit without a growing backlog.

use crate::stats::{median, quantile};
use std::time::{Duration, Instant};

/// The p99 limit a ladder rate must meet, in µs.
pub const P99_LIMIT_US: f64 = 1_000.0;

/// A query answered this long after its due time counts as failed, in µs.
pub const DEADLINE_US: f64 = 100_000.0;

/// How much the median lag of a rate's last quarter may exceed that of
/// its first quarter before the backlog counts as growing, in µs.
pub const BACKLOG_GROWTH_US: f64 = 100.0;

/// Requests per segment in [`Pass::segment_quantiles`].
pub const SEGMENT_LEN: usize = 1_000;

/// Timings of one open-loop pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Per request: completion minus due time, µs.
    pub latency_us: Vec<f64>,
    /// Per request: issue minus due time (how late the generator ran), µs.
    pub lag_us: Vec<f64>,
    /// Per request: completion minus issue time (service alone), µs.
    pub service_us: Vec<f64>,
    /// First due time to last completion, s.
    pub elapsed_s: f64,
}

impl Pass {
    /// Requests completed per second over the pass.
    pub fn achieved_rate(&self) -> f64 {
        self.latency_us.len() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Whether the backlog grew: the last quarter's median lag exceeds
    /// the first quarter's by more than [`BACKLOG_GROWTH_US`].
    pub fn backlog_grew(&self) -> bool {
        let n = self.lag_us.len();
        if n < 8 {
            return false;
        }
        let first = median(&self.lag_us[..n / 4]);
        let last = median(&self.lag_us[n - n / 4..]);
        last > first + BACKLOG_GROWTH_US
    }

    /// The `q` quantile of latency in each consecutive segment of
    /// [`SEGMENT_LEN`] requests (a shorter last segment is dropped unless
    /// it is the only one).
    pub fn segment_quantiles(&self, q: f64) -> Vec<f64> {
        let chunks = self.latency_us.chunks(SEGMENT_LEN);
        let whole = self.latency_us.len() < SEGMENT_LEN;
        chunks
            .filter(|c| whole || c.len() == SEGMENT_LEN)
            .map(|c| quantile(c, q))
            .collect()
    }

    /// The `q` quantile of latency as the median of
    /// [`Pass::segment_quantiles`]: one scheduler stall moves one
    /// segment's figure, not the result.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        median(&self.segment_quantiles(q))
    }

    /// Whether this pass meets the rate criterion.
    pub fn meets_limit(&self) -> bool {
        self.latency_quantile(0.99) <= P99_LIMIT_US && !self.backlog_grew()
    }
}

/// Issue `n` requests at `rate` per second, open loop: request `i` is
/// due at `start + i / rate`. The generator waits for each due time but
/// never for the server — when `serve` runs late, the requests behind
/// it are issued late and their latency includes the wait.
pub fn run(n: usize, rate: f64, mut serve: impl FnMut(usize)) -> Pass {
    let interval = 1.0 / rate;
    let mut pass = Pass {
        latency_us: Vec::with_capacity(n),
        lag_us: Vec::with_capacity(n),
        service_us: Vec::with_capacity(n),
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        serve(i);
        let done = Instant::now();
        pass.lag_us.push(micros(now - due));
        pass.service_us.push(micros(done - now));
        pass.latency_us.push(micros(done - due));
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // One 3 ms stall at request 0; the next requests are due every
        // 100 µs and cost nothing, so their latency is the stall they
        // queued behind — not their own near-zero service time.
        let pass = run(20, 10_000.0, |i| {
            if i == 0 {
                busy(Duration::from_millis(3));
            }
        });
        assert!(pass.latency_us[1] >= 2_500.0, "{:?}", &pass.latency_us[..3]);
        assert!(pass.service_us[1] < 500.0);
        assert!(pass.lag_us[1] >= 2_500.0, "generator lag is reported");
        assert!(pass.latency_us[1] >= pass.lag_us[1] + pass.service_us[1] - 1.0);
    }

    #[test]
    fn a_growing_backlog_fails_the_rate() {
        // 200 µs of service per request at 10 k/s (100 µs apart): the
        // queue grows without bound.
        let slow = run(400, 10_000.0, |_| busy(Duration::from_micros(200)));
        assert!(slow.backlog_grew());
        assert!(!slow.meets_limit());
        // The same server at a rate it sustains, over three segments, so
        // that one scheduler stall moves one segment's p99, not the result.
        let ok = run(3 * SEGMENT_LEN, 2_000.0, |_| {
            busy(Duration::from_micros(50))
        });
        assert!(!ok.backlog_grew());
        assert!(ok.meets_limit(), "p99 {}", ok.latency_quantile(0.99));
    }
}
