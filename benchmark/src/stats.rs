//! Small order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (so `compare`
//! agrees with the acceptance check), and the rule that picks which
//! tail percentile a sample supports.

/// Median of `values` (mean of the two middle values when even); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4;
        // result = (v[j-1]*(4-delta) + v[j]*delta) / 4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// First quartile of `values`, the set-up time when nothing
/// interfered: interference on a shared box only ever adds time, so
/// the median of a handful of set-ups follows it and the lower
/// quartile does not. Falls back to the median below two values.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or_else(|| median(values), |(q1, _)| q1)
}

/// Run-to-run spread of a metric: interquartile distance as a share of
/// the median. `None` below two values or with a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

/// The tail percentile a sample of `n` supports: the highest of
/// p99.9 / p99 / p95 / p90 that still leaves at least ten samples
/// beyond it, or `None` when even p90 does not (fewer than 100
/// samples — report the median only).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille, so that 100 samples × (1 − 0.9) is exactly ten.
    [(999, 0.999), (990, 0.99), (950, 0.95), (900, 0.90)]
        .into_iter()
        .find(|&(pm, _)| n * (1000 - pm) >= 10_000)
        .map(|(_, p)| p)
}

/// The `p`-quantile (nearest rank) of an ascending-sorted slice.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median and supported tail (see [`tail_percentile`]; the maximum
/// below 100 samples) of raw samples. Sorts in place.
pub fn summarize(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    let p50 = quantile_sorted(samples, 0.5);
    let tail = tail_percentile(samples.len()).unwrap_or(1.0);
    (p50, quantile_sorted(samples, tail))
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64
    }
}

/// Work rate of a run with the interference of a shared box taken out.
///
/// Other tenants slow stretches of a run down by tens of percent — a
/// second here, most of a run there — and never speed one up, while
/// the workload's own cost per unit of work drifts slowly (the fleet
/// grows and shrinks, the delivery log fills). So the run is cut into
/// windows, and each window's cost per unit of work is replaced by the
/// lowest cost among the windows within a quarter of the run on either
/// side of it: a stretch nothing interfered with, doing about the same
/// work. Total-over-wall and the median window both follow the
/// interference; over ten seeds on the reference box their spread was
/// 20 % where this rate's was 3–9 %.
#[derive(Debug, Default)]
pub struct RateWindows {
    last_work: u64,
    last: Option<std::time::Instant>,
    /// `(work done, seconds taken)` per window.
    windows: Vec<(u64, f64)>,
}

impl RateWindows {
    /// Starts the first window at work counter `work`.
    pub fn start(work: u64) -> Self {
        RateWindows { last_work: work, last: Some(std::time::Instant::now()), windows: Vec::new() }
    }

    /// Closes the current window at work counter `work` and opens the
    /// next. Windows in which no work was done are dropped.
    pub fn mark(&mut self, work: u64) {
        let now = std::time::Instant::now();
        if let Some(last) = self.last {
            let dt = now.duration_since(last).as_secs_f64();
            if work > self.last_work && dt > 0.0 {
                self.windows.push((work - self.last_work, dt));
            }
        }
        self.last_work = work;
        self.last = Some(now);
    }

    /// Work done since the current window opened.
    pub fn pending(&self, work: u64) -> u64 {
        work.saturating_sub(self.last_work)
    }

    /// Appends another run segment's windows.
    pub fn absorb(&mut self, other: RateWindows) {
        self.windows.extend(other.windows);
    }

    /// Work units per second, interference taken out.
    pub fn rate(&self) -> f64 {
        undisturbed_rate(&self.windows)
    }
}

/// Total work over the sum of each window's work at the lowest cost
/// per unit of work seen within `len / 4` windows of it.
pub fn undisturbed_rate(windows: &[(u64, f64)]) -> f64 {
    let n = windows.len();
    let k = n / 4;
    let cost: Vec<f64> = windows.iter().map(|&(w, s)| s / w as f64).collect();
    let (mut work, mut secs) = (0u64, 0.0);
    for (i, &(w, _)) in windows.iter().enumerate() {
        let best = cost[i.saturating_sub(k)..(i + k + 1).min(n)]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        work += w;
        secs += w as f64 * best;
    }
    if secs > 0.0 {
        work as f64 / secs
    } else {
        0.0
    }
}
