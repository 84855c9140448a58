//! Order statistics of a series of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is the rule the acceptance check of this
//! benchmark applies to ten runs: the numbers printed here and the numbers
//! checked there are the same function of the same values.

/// Five-number summary of one series, plus its length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("a measured value is never NaN"));
    v
}

/// Median of a non-empty series (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points of a series of at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let (len, m) = (v.len(), v.len() + 1);
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    cuts
}

/// Summarize a non-empty series; a single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty series");
    let v = sorted(values);
    let [q1, _, q3] = if v.len() >= 2 {
        quartiles(&v)
    } else {
        [v[0]; 3]
    };
    Summary {
        n: v.len(),
        min: v[0],
        q1,
        median: median(&v),
        q3,
        max: v[v.len() - 1],
    }
}

/// The value below which a share `q` of a non-empty series lies (nearest rank).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_series() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4)
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), [2.5, 5.0, 7.5]);
        // statistics.quantiles([10, 20], n=4): cut points extrapolate.
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([0.3, 0.1, 0.2, 0.9, 0.4], n=4)
        let q = quartiles(&[0.3, 0.1, 0.2, 0.9, 0.4]);
        assert!((q[0] - 0.15).abs() < 1e-12 && (q[2] - 0.65).abs() < 1e-12);
        assert_eq!(q[1], 0.3);
    }

    #[test]
    fn summary_and_spread() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 5.0, 9.0));
        assert_eq!((s.q1, s.q3), (2.0, 8.0));
        assert_eq!(s.spread(), 1.2);
        let one = summarize(&[4.0]);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (4.0, 4.0, 4.0, 0.0)
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
