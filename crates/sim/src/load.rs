//! Open-loop arrival processes for latency-vs-throughput curves.
//!
//! The paper's traces carry their own timestamps, so every figure replays a
//! *fixed* arrival pattern. To measure where a policy's service capacity
//! saturates — the knee of the latency-vs-offered-throughput curve — we
//! need the opposite: hold the request *mix* (ops, addresses, sizes) fixed
//! and sweep the *offered rate*. [`ArrivalProcess::rewrite`] does exactly
//! that: it keeps every request's op/offset/len and replaces the arrival
//! times with a synthetic open-loop process.
//!
//! Open loop matters: the simulator issues each request at its trace
//! arrival time under **every** [`crate::host::SubmitMode`] (arrivals never
//! wait for earlier completions), and [`crate::Ssd`] measures response as
//! arrival→completion. Rewritten arrivals therefore model clients that keep
//! submitting at the offered rate regardless of how far behind the device
//! falls — past saturation the measured response grows without bound
//! instead of self-throttling, which is what makes the knee visible.
//!
//! Determinism: the generator is a seeded xorshift64* with an inverse-CDF
//! exponential sampler — no global state, no platform-varying RNG — so a
//! `(trace, process, seed)` triple always yields byte-identical arrivals.
//! Experiment grids exploit this: rewrites happen inside each job from
//! shared inputs, so results are independent of worker-thread count.

use reqblock_trace::Request;

/// Nanoseconds per second, for offered-rate conversions.
const NS_PER_S: f64 = 1e9;

/// An open-loop arrival process: how interarrival gaps are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential interarrival gaps with the given
    /// mean. Offered rate is `1e9 / mean_interarrival_ns` requests/s.
    Poisson {
        /// Mean gap between consecutive arrivals, ns.
        mean_interarrival_ns: u64,
    },
    /// ON/OFF-modulated Poisson (an interrupted Poisson process): bursts of
    /// `burst_len` requests arrive `peak_to_mean`× faster than the long-run
    /// rate, separated by idle gaps sized so the *long-run* offered rate
    /// still equals `1e9 / mean_interarrival_ns`. Same mean load as
    /// [`ArrivalProcess::Poisson`], much burstier queueing.
    Bursty {
        /// Long-run mean gap between consecutive arrivals, ns.
        mean_interarrival_ns: u64,
        /// Requests per ON burst (clamped to at least 1).
        burst_len: u32,
        /// Rate compression inside a burst (clamped to at least 1): the
        /// within-burst arrival rate is `peak_to_mean`× the long-run rate.
        peak_to_mean: u32,
    },
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` requests per second.
    pub fn poisson_rate(rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "offered rate must be positive");
        ArrivalProcess::Poisson { mean_interarrival_ns: (NS_PER_S / rate_per_s).max(1.0) as u64 }
    }

    /// The long-run offered rate in requests per second.
    pub fn offered_rate_per_s(&self) -> f64 {
        let mean = match *self {
            ArrivalProcess::Poisson { mean_interarrival_ns } => mean_interarrival_ns,
            ArrivalProcess::Bursty { mean_interarrival_ns, .. } => mean_interarrival_ns,
        };
        NS_PER_S / mean.max(1) as f64
    }

    /// Rewrite `trace`'s arrival times with this process, keeping every
    /// request's op/offset/len. Arrivals are cumulative sums of sampled
    /// gaps starting at the first sampled gap, so rewritten times are
    /// nondecreasing and strictly positive.
    ///
    /// Implemented on [`ArrivalProcess::timer`], so the fleet's per-tenant
    /// arrival schedules, drawn from the same timer, yield bit-identical
    /// times by construction: there is exactly one sampling loop. The
    /// result is collected into `C`; an `Arc<[Request]>` is allocated once
    /// and written in place.
    pub fn rewrite<C: FromIterator<Request>>(&self, trace: &[Request], seed: u64) -> C {
        let mut timer = self.timer(seed);
        trace.iter().map(|r| Request { time_ns: timer.next_arrival_ns(), ..*r }).collect()
    }

    /// A resumable arrival clock for this process, seeded like
    /// [`ArrivalProcess::rewrite`]. Each [`ArrivalTimer::next_arrival_ns`]
    /// call advances the same xorshift64* sequence `rewrite` consumes, so
    /// the `k`-th call returns exactly the `time_ns` that `rewrite` assigns
    /// to request `k`. Cloning the timer snapshots the stream position.
    pub fn timer(&self, seed: u64) -> ArrivalTimer {
        let kind = match *self {
            ArrivalProcess::Poisson { mean_interarrival_ns } => {
                TimerKind::Poisson { mean: mean_interarrival_ns.max(1) as f64 }
            }
            ArrivalProcess::Bursty { mean_interarrival_ns, burst_len, peak_to_mean } => {
                let mean = mean_interarrival_ns.max(1) as f64;
                let burst_len = burst_len.max(1) as u64;
                let accel = peak_to_mean.max(1) as f64;
                let on_mean = mean / accel;
                // Each burst compresses `burst_len` gaps from `mean` to
                // `on_mean`; the OFF gap between bursts gives the removed
                // time back, preserving the long-run offered rate.
                let off_mean = burst_len as f64 * (mean - on_mean);
                TimerKind::Bursty { on_mean, off_mean, burst_len }
            }
        };
        ArrivalTimer { rng: XorShift64Star::new(seed), now: 0, index: 0, kind }
    }
}

/// Pre-derived sampling parameters of one [`ArrivalProcess`].
#[derive(Debug, Clone, Copy)]
enum TimerKind {
    /// Exponential gaps with this mean (ns).
    Poisson { mean: f64 },
    /// ON gaps with `on_mean`; an extra OFF gap with `off_mean` before
    /// every burst after the first (`index` multiple of `burst_len`).
    Bursty { on_mean: f64, off_mean: f64, burst_len: u64 },
}

/// The resumable arrival clock behind [`ArrivalProcess::timer`]: RNG state
/// plus the running clock and request index. The whole stream position is
/// these three words, so `Clone` snapshots it and generation can resume
/// from any point.
#[derive(Debug, Clone)]
pub struct ArrivalTimer {
    rng: XorShift64Star,
    now: u64,
    index: u64,
    kind: TimerKind,
}

impl ArrivalTimer {
    /// The next request's arrival time, ns. The `k`-th call returns the
    /// `time_ns` that [`ArrivalProcess::rewrite`] with the same seed
    /// assigns to request `k`; times strictly increase (gaps floor at
    /// 1 ns).
    pub fn next_arrival_ns(&mut self) -> u64 {
        match self.kind {
            TimerKind::Poisson { mean } => {
                self.now += exp_gap(&mut self.rng, mean);
            }
            TimerKind::Bursty { on_mean, off_mean, burst_len } => {
                if off_mean > 0.0 && self.index.is_multiple_of(burst_len) && self.index > 0 {
                    self.now += exp_gap(&mut self.rng, off_mean);
                }
                self.now += exp_gap(&mut self.rng, on_mean);
            }
        }
        self.index += 1;
        self.now
    }

    /// Requests timed so far.
    pub fn emitted(&self) -> u64 {
        self.index
    }
}

/// One exponential interarrival gap with the given mean, inverse-CDF
/// sampled, rounded to whole nanoseconds and floored at 1 ns so arrivals
/// strictly advance.
fn exp_gap(rng: &mut XorShift64Star, mean_ns: f64) -> u64 {
    let gap = -mean_ns * rng.next_unit_open().ln();
    (gap as u64).max(1)
}

/// Minimal xorshift64* PRNG: seeded, allocation-free, no dependencies, and
/// identical on every platform — exactly what deterministic arrival
/// rewrites need. Constants per Vigna, "An experimental exploration of
/// Marsaglia's xorshift generators, scrambled".
#[derive(Debug, Clone)]
struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Seed the generator; a zero seed (the one fixed point of the xorshift
    /// step) is remapped to a nonzero constant.
    fn new(seed: u64) -> Self {
        Self { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in the *open* interval (0, 1]: the top 53 bits plus one,
    /// scaled by 2^-53 — never returns 0.0, so `ln()` is always finite.
    fn next_unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reqblock_trace::{OpType, SyntheticTrace};
    use reqblock_trace::profiles::ts_0;

    fn base_trace() -> Vec<Request> {
        SyntheticTrace::new(ts_0().scaled(0.002)).collect()
    }

    #[test]
    fn rewrite_preserves_everything_but_time() {
        let base = base_trace();
        let p = ArrivalProcess::poisson_rate(50_000.0);
        let rewritten: Vec<Request> = p.rewrite(&base, 7);
        assert_eq!(rewritten.len(), base.len());
        for (a, b) in base.iter().zip(&rewritten) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.offset, b.offset);
            assert_eq!(a.len, b.len);
        }
    }

    #[test]
    fn rewrite_is_deterministic_and_seed_sensitive() {
        let base = base_trace();
        let p = ArrivalProcess::poisson_rate(50_000.0);
        let rewrite = |seed| -> Vec<Request> { p.rewrite(&base, seed) };
        assert_eq!(rewrite(7), rewrite(7));
        assert_ne!(rewrite(7), rewrite(8));
    }

    #[test]
    fn arrivals_strictly_advance() {
        let base = base_trace();
        let p = ArrivalProcess::poisson_rate(1_000_000.0);
        let rewritten: Vec<Request> = p.rewrite(&base, 3);
        let mut prev = 0;
        for r in &rewritten {
            assert!(r.time_ns > prev, "arrivals must strictly advance");
            prev = r.time_ns;
        }
    }

    #[test]
    fn poisson_mean_matches_offered_rate() {
        let base: Vec<Request> =
            (0..20_000).map(|i| Request::write_pages(i, i, 1)).collect();
        let p = ArrivalProcess::Poisson { mean_interarrival_ns: 10_000 };
        let rewritten: Vec<Request> = p.rewrite(&base, 42);
        let span = rewritten.last().unwrap().time_ns as f64;
        let mean = span / rewritten.len() as f64;
        assert!(
            (mean - 10_000.0).abs() < 300.0,
            "empirical mean gap {mean:.0} ns should be near 10 000 ns"
        );
    }

    #[test]
    fn bursty_preserves_long_run_rate_but_raises_variance() {
        let base: Vec<Request> =
            (0..20_000).map(|i| Request::read_pages(i, i, 1)).collect();
        let mean_ns = 10_000u64;
        let poisson = ArrivalProcess::Poisson { mean_interarrival_ns: mean_ns };
        let bursty = ArrivalProcess::Bursty {
            mean_interarrival_ns: mean_ns,
            burst_len: 32,
            peak_to_mean: 8,
        };
        assert_eq!(poisson.offered_rate_per_s(), bursty.offered_rate_per_s());
        let pr: Vec<Request> = poisson.rewrite(&base, 9);
        let br: Vec<Request> = bursty.rewrite(&base, 9);
        let p_mean = pr.last().unwrap().time_ns as f64 / pr.len() as f64;
        let b_mean = br.last().unwrap().time_ns as f64 / br.len() as f64;
        assert!(
            (b_mean - p_mean).abs() / p_mean < 0.1,
            "bursty long-run mean {b_mean:.0} should track poisson {p_mean:.0}"
        );
        // Within a burst the gaps are ~8x tighter than the long-run mean.
        let burst_gaps: Vec<u64> =
            br.windows(2).take(31).map(|w| w[1].time_ns - w[0].time_ns).collect();
        let burst_mean = burst_gaps.iter().sum::<u64>() as f64 / burst_gaps.len() as f64;
        assert!(
            burst_mean < mean_ns as f64 * 0.5,
            "within-burst mean gap {burst_mean:.0} must be far below {mean_ns}"
        );
    }

    #[test]
    fn cloned_timer_resumes_from_its_snapshot() {
        let p = ArrivalProcess::Bursty { mean_interarrival_ns: 100, burst_len: 4, peak_to_mean: 4 };
        let mut timer = p.timer(9);
        let head: Vec<u64> = (0..10).map(|_| timer.next_arrival_ns()).collect();
        let snapshot = timer.clone();
        assert_eq!(snapshot.emitted(), 10);
        let tail: Vec<u64> = {
            let mut t = timer;
            (0..10).map(|_| t.next_arrival_ns()).collect()
        };
        let resumed: Vec<u64> = {
            let mut t = snapshot;
            (0..10).map(|_| t.next_arrival_ns()).collect()
        };
        assert_eq!(tail, resumed, "a clone is a stream position");
        assert!(head.last().unwrap() < tail.first().unwrap());
    }

    #[test]
    fn ops_survive_rewrites() {
        let base = vec![
            Request::write_pages(5, 0, 2),
            Request::read_pages(9, 0, 2),
        ];
        let p = ArrivalProcess::Bursty { mean_interarrival_ns: 100, burst_len: 4, peak_to_mean: 4 };
        let out: Vec<Request> = p.rewrite(&base, 1);
        assert_eq!(out[0].op, OpType::Write);
        assert_eq!(out[1].op, OpType::Read);
    }
}
