//! Sample arithmetic: medians, the tail percentile a sample count can
//! support, quartile spreads, and the bound comparison `repeat.sh` prints.

/// Median of a sample (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "empty sample");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    s
}

/// The highest whole percentile above the median that still has at least
/// ten samples beyond it — p90 from 100 samples, p66 from 30, nothing from
/// 20 or fewer. A tail read off fewer than ten samples is one slow run, not
/// a distribution.
pub fn tail_percentile(count: usize) -> Option<u32> {
    if count <= 20 {
        return None;
    }
    let p = (100 * (count - 10) / count).min(99) as u32;
    (p > 50).then_some(p)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100).
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let s = sorted(samples);
    let rank = (p as usize * s.len()).div_ceil(100).clamp(1, s.len());
    s[rank - 1]
}

/// The fastest of a sample of identical units of work: the time the work
/// takes when the host leaves it alone. Host noise only ever adds time, and
/// on the hosts this runs on it comes in bursts that last from one epoch to
/// a few minutes; across runs the minimum repeated about twice as well as
/// the median (see the README's host-noise note for the numbers).
pub fn fastest(samples: &[f64]) -> f64 {
    sorted(samples)[0]
}

/// Median plus the supported tail percentile of one timing sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    /// `(percentile, value)` when the count supports one.
    pub tail: Option<(u32, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        count: samples.len(),
        median: median(samples),
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so the spreads printed here are the ones the
/// acceptance driver will compute. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when the median is 0
/// and the sample is constant).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The share of `base` by which `new` is worse (negative when it is better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if new == base {
        return 0.0;
    }
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    delta / base.abs()
}

/// Outcome of comparing two sets of runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Second median within the bound and both spreads within it.
    Pass,
    /// Second median within the bound, but a spread is wider than the
    /// bound: the runs cannot tell "unchanged" from "changed".
    Unresolved,
    /// Second median worse than the first by more than the bound.
    Regressed,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub first: [f64; 3],
    pub second: [f64; 3],
    pub first_spread: f64,
    pub second_spread: f64,
    /// Share of the first median by which the second is worse.
    pub worsening: f64,
    pub verdict: Verdict,
}

/// Compares two sets of runs against a bound. A bound of exactly 0 demands
/// equality (or improvement) of the medians and zero spread. With
/// `spread_gated` off only the medians are judged — the acceptance driver
/// exempts `setup_s`, a median of three, from the spread rule.
pub fn compare(
    better: Better,
    bound: f64,
    spread_gated: bool,
    first: &[f64],
    second: &[f64],
) -> Comparison {
    let a = quartiles(first);
    let b = quartiles(second);
    let worse = worsening(better, a[1], b[1]);
    let (sa, sb) = (spread(first), spread(second));
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread_gated && (sa > bound || sb > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    Comparison {
        first: a,
        second: b,
        first_spread: sa,
        second_spread: sb,
        worsening: worse,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(21), Some(52));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 21..400 {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n * (100 - p) >= 10 * 100, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&s, 1), 1.0);
        let summary = summarize(&s);
        assert_eq!(summary.median, 50.5);
        assert_eq!(summary.tail, Some((90, 90.0)));
        assert_eq!(summarize(&[1.0, 2.0, 3.0]).tail, None);
        assert_eq!(fastest(&[5.0, 4.0, 6.0, 7.0, 8.0]), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn compare_applies_bounds_in_the_metric_direction() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(
            compare(Better::Lower, 0.10, true, &base, &slower).verdict,
            Verdict::Regressed
        );
        // The same numbers are an improvement for a higher-is-better metric.
        assert_eq!(
            compare(Better::Higher, 0.10, true, &base, &slower).verdict,
            Verdict::Pass
        );
        assert_eq!(
            compare(Better::Lower, 0.10, true, &slower, &base).verdict,
            Verdict::Pass
        );
        // Within the bound but noisier than the bound: unresolved.
        let noisy = [0.8, 1.3, 1.0, 0.7, 1.4];
        assert_eq!(
            compare(Better::Lower, 0.10, true, &base, &noisy).verdict,
            Verdict::Unresolved
        );
        // ...unless the metric's spread is exempt, as setup_s's is.
        assert_eq!(
            compare(Better::Lower, 0.10, false, &base, &noisy).verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn exact_zero_bounds_demand_equality() {
        let a = [14336.0; 5];
        let c = compare(Better::Lower, 0.0, true, &a, &a);
        assert_eq!(c.verdict, Verdict::Pass);
        assert_eq!(c.worsening, 0.0);
        let one_more = [14337.0; 5];
        assert_eq!(
            compare(Better::Lower, 0.0, true, &a, &one_more).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(Better::Lower, 0.0, true, &one_more, &a).verdict,
            Verdict::Pass
        );
        // An exact metric that wobbles within one set is not exact.
        let wobble = [14336.0, 14336.0, 14337.0, 14335.0, 14336.0];
        assert_eq!(
            compare(Better::Lower, 0.0, true, &a, &wobble).verdict,
            Verdict::Unresolved
        );
        // ok_ratio: higher is better, 1.0 everywhere.
        let ok = [1.0; 5];
        assert_eq!(
            compare(Better::Higher, 0.0, true, &ok, &ok).verdict,
            Verdict::Pass
        );
        assert_eq!(
            compare(Better::Higher, 0.0, true, &ok, &[0.99; 5]).verdict,
            Verdict::Regressed
        );
    }
}
