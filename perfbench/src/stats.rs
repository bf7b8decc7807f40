//! The benchmark's own statistics and operation accounting.
//!
//! Percentiles use the nearest-rank definition. A tail percentile is
//! reported only where the sample supports it: the highest percentile of
//! [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples beyond it.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this program prints is the
//! spread an external harness computes from the same values.

/// Percentiles a tail may be reported at, highest first, in per-mille.
pub const TAIL_LADDER: [u32; 4] = [999, 990, 900, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `values` at `per_mille`/1000; `None` when
/// `values` is empty. `values` need not be sorted.
pub fn percentile(values: &[f64], per_mille: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), per_mille) - 1])
}

/// 1-based nearest rank: `ceil(p * n)`, at least 1.
fn nearest_rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - nearest_rank(n, p).min(n) >= MIN_BEYOND)
}

/// A percentile with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile, per mille.
    pub per_mille: u32,
    /// Its value.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
}

impl Pct {
    /// `p50`, `p90`, `p99`, `p99.9`.
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}.{}", self.per_mille / 10, self.per_mille % 10)
        }
    }
}

/// The median of `values` as a [`Pct`].
pub fn p50(values: &[f64]) -> Option<Pct> {
    percentile(values, 500).map(|value| Pct {
        per_mille: 500,
        value,
        n: values.len(),
    })
}

/// The tail of `values` by [`tail_per_mille`].
pub fn tail(values: &[f64]) -> Option<Pct> {
    let per_mille = tail_per_mille(values.len())?;
    percentile(values, per_mille).map(|value| Pct {
        per_mille,
        value,
        n: values.len(),
    })
}

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` with fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered, after this many milliseconds (a correctness check may
    /// later find it wrong: [`Tally::mark_wrong`]).
    Ok(f64),
    /// Refused by admission (overload, rate limit, deadline in queue).
    Refused,
    /// Failed outright (transport or server error).
    Failed,
}

/// Operations attempted and how they ended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Latencies of operations answered correctly, milliseconds.
    pub ok_ms: Vec<f64>,
    /// Operations answered wrongly.
    pub wrong: u64,
    /// Operations refused.
    pub refused: u64,
    /// Operations that failed outright.
    pub errors: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok(ms) => self.ok_ms.push(ms),
            Outcome::Refused => self.refused += 1,
            Outcome::Failed => self.errors += 1,
        }
    }

    /// Reclassifies `n` answered operations as wrong (a correctness check
    /// over a set of answers failed after they were recorded).
    pub fn mark_wrong(&mut self, n: u64) {
        let n = n.min(self.ok_ms.len() as u64);
        self.ok_ms.truncate(self.ok_ms.len() - n as usize);
        self.wrong += n;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok_ms.len() as u64 + self.failed()
    }

    /// Operations that failed, were refused or were wrong.
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.errors
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// Share of attempted operations answered correctly within
    /// `limit_ms`. A failed, refused or wrong operation misses any limit.
    pub fn within(&self, limit_ms: f64) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.ok_ms.iter().filter(|&&ms| ms <= limit_ms).count() as f64 / n as f64,
        }
    }

    /// Adds another tally's operations to this one.
    pub fn merge(&mut self, other: Tally) {
        self.ok_ms.extend(other.ok_ms);
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.errors += other.errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = seq(100);
        assert_eq!(percentile(&v, 500), Some(50.0));
        assert_eq!(percentile(&v, 900), Some(90.0));
        assert_eq!(percentile(&v, 990), Some(99.0));
        assert_eq!(percentile(&[7.0], 990), Some(7.0));
        assert_eq!(percentile(&[], 500), None);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 900), Some(90.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(9_999), Some(990));
        assert_eq!(tail_per_mille(1_000), Some(990));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(0), None);
        let t = tail(&seq(1_000)).unwrap();
        assert_eq!((t.label().as_str(), t.value, t.n), ("p99", 990.0, 1_000));
        // Exactly ten samples lie beyond the reported rank.
        assert_eq!(seq(1_000).iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&seq(150)).unwrap().label(), "p90");
        assert_eq!(
            Pct {
                per_mille: 999,
                value: 0.0,
                n: 0
            }
            .label(),
            "p99.9"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from Python 3: statistics.quantiles(v, n=4).
        assert_eq!(quartiles(&seq(10)), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&seq(4)), Some((1.25, 3.75)));
        assert_eq!(
            quartiles(&[0.5, 9.0, 2.5, 7.0, 4.0, 1.0, 3.0]),
            Some((1.0, 7.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&seq(4)), Some(2.5));
        assert_eq!(median(&seq(5)), Some(3.0));
    }

    #[test]
    fn refused_and_failed_count_as_failed_and_miss_every_limit() {
        let mut t = Tally::default();
        t.record(Outcome::Ok(5.0));
        t.record(Outcome::Ok(50.0));
        t.record(Outcome::Refused);
        t.record(Outcome::Failed);
        t.record(Outcome::Ok(1.0));
        t.mark_wrong(1);
        assert_eq!(t.attempted(), 5);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        // Even an infinite limit is missed by the three failures.
        assert!((t.within(f64::INFINITY) - 0.4).abs() < 1e-12);
        assert!((t.within(10.0) - 0.2).abs() < 1e-12);
        // Latency statistics see only answered operations.
        assert_eq!(t.ok_ms, vec![5.0, 50.0]);
    }

    #[test]
    fn wrong_answers_found_later_move_out_of_the_latency_sample() {
        let mut t = Tally::default();
        for ms in [1.0, 2.0, 3.0] {
            t.record(Outcome::Ok(ms));
        }
        t.mark_wrong(2);
        assert_eq!((t.attempted(), t.failed(), t.ok_ms.len()), (3, 2, 1));
        t.mark_wrong(5);
        assert_eq!((t.attempted(), t.failed()), (3, 3));
        let mut u = Tally::default();
        u.record(Outcome::Refused);
        t.merge(u);
        assert_eq!((t.attempted(), t.failed()), (4, 4));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
