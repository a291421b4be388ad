//! Timing helpers and the result record every workload returns.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `0..=1`) of a sample; sorts in place.
pub fn percentile(sample: &mut [f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_unstable_by(f64::total_cmp);
    let rank = (q * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

pub fn median(sample: &mut [f64]) -> f64 {
    percentile(sample, 0.5)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Repeated set-up timings. Set-up work here is cache-free and
/// seed-independent, so every repetition does identical work. Workloads
/// run some repetitions before the measured loop and the rest after it
/// (or between its rounds), so the median samples the host across the
/// whole run.
#[derive(Debug, Default)]
pub struct Setup {
    times: Vec<f64>,
}

impl Setup {
    /// Runs `setup` `reps` times and returns the last run's product.
    pub fn time<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            last = Some(setup()?);
            self.times.push(t.elapsed().as_secs_f64());
        }
        last.ok_or_else(|| "set-up ran zero times".to_string())
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&mut self.times.clone())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One round of a run: a consecutive, equally composed slice of its
/// operations.
#[derive(Debug, Default)]
pub struct Round {
    pub correct: usize,
    pub wall_s: f64,
    pub latency_ms: Vec<f64>,
}

/// Splits a run's operations (in run order) into `rounds` consecutive
/// rounds of equal size. `ends_s[k]` is when operation `k` finished,
/// seconds after the run started.
pub fn split_rounds(ok: &[bool], latency_ms: &[f64], ends_s: &[f64], rounds: usize) -> Vec<Round> {
    let size = (ok.len() / rounds.max(1)).max(1);
    let mut start = 0.0;
    ok.chunks(size)
        .zip(latency_ms.chunks(size))
        .zip(ends_s.chunks(size))
        .map(|((ok, lat), ends)| {
            let end = ends.last().copied().unwrap_or(start);
            let round = Round {
                correct: ok.iter().filter(|&&x| x).count(),
                wall_s: end - start,
                latency_ms: lat.to_vec(),
            };
            start = end;
            round
        })
        .collect()
}

/// A closed loop's record: per-item results, latencies, and finish times
/// on a clock that excludes the `after` hook.
pub struct ClosedLoop<R> {
    pub results: Vec<R>,
    pub latency_ms: Vec<f64>,
    pub ends_s: Vec<f64>,
    /// Total time spent in the `after` hook.
    pub after_ms: f64,
}

/// Runs one client in a closed loop over `items`, timing each `run`.
/// `after` runs untimed right behind each item — the traced run replays
/// the item's layers there, in the same stretch of host time as the item
/// itself — and is kept out of the round clock.
pub fn closed_loop<I, R>(
    items: &[I],
    mut run: impl FnMut(&I) -> R,
    mut after: impl FnMut(&I, &R, f64) -> Result<(), String>,
) -> Result<ClosedLoop<R>, String> {
    let mut lp = ClosedLoop {
        results: Vec::with_capacity(items.len()),
        latency_ms: Vec::with_capacity(items.len()),
        ends_s: Vec::with_capacity(items.len()),
        after_ms: 0.0,
    };
    let t0 = Instant::now();
    for item in items {
        let t = Instant::now();
        let r = run(item);
        let ms = ms_since(t);
        lp.ends_s
            .push(t0.elapsed().as_secs_f64() - lp.after_ms / 1e3);
        let t = Instant::now();
        after(item, &r, ms)?;
        lp.after_ms += ms_since(t);
        lp.latency_ms.push(ms);
        lp.results.push(r);
    }
    Ok(lp)
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (the first few are printed).
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form facts printed beside the metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }

    /// Throughput and latency percentiles: each computed per round, and the
    /// median over rounds reported, so a stretch of host contention moves
    /// the figures only if it covers half the run. p90 and p99 go to the
    /// notes.
    pub fn round_metrics(&mut self, rounds: &mut [Round]) {
        let mut per = |f: &mut dyn FnMut(&mut Round) -> f64| {
            let mut v: Vec<f64> = rounds.iter_mut().map(&mut *f).collect();
            median(&mut v)
        };
        let throughput = per(&mut |r| r.correct as f64 / r.wall_s.max(1e-9));
        let p50 = per(&mut |r| percentile(&mut r.latency_ms, 0.50));
        let p90 = per(&mut |r| percentile(&mut r.latency_ms, 0.90));
        let p99 = per(&mut |r| percentile(&mut r.latency_ms, 0.99));
        self.metric("throughput_per_s", throughput);
        self.metric("latency_ms.p50", p50);
        // Tails are reported, not gated: host contention moves them by
        // more than any bound a gate could use (see README, "Noise").
        self.note("latency_ms.p90", format!("{p90:.4}"));
        self.note("latency_ms.p99", format!("{p99:.4}"));
        self.note("rounds", rounds.len());
    }

    /// Records one attempted operation; `problem` is `Some` when its
    /// output failed a check.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 0.5), 50.0);
        assert_eq!(percentile(&mut s, 0.9), 90.0);
        assert_eq!(percentile(&mut s, 0.99), 99.0);
        assert_eq!(percentile(&mut s, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
