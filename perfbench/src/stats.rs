//! Order statistics for the reported timings.

/// Median (mean of the two middle values for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile that still has at least ten samples
/// above it (`None` below 20 samples, where no tail percentile is
/// meaningful).
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    // Largest p with n * (100 - p) / 100 >= 10.
    let p = 100 - 1000_usize.div_ceil(n);
    Some(p.min(99) as u32)
}

/// One timing series summarized the way the benchmark reports it:
/// median, the tail percentile with ≥ 10 samples beyond it, and the
/// sample count.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Tail percentile and its value, when there are enough samples.
    pub tail: Option<(u32, f64)>,
    /// The samples themselves, when there are few enough to list.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let tail =
            tail_percentile(values.len()).map(|p| (p, quantile(values, f64::from(p) / 100.0)));
        Summary {
            n: values.len(),
            median: median(values),
            tail,
            samples: if values.len() <= 32 {
                values.to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// JSON rendering for the detail report.
    pub fn json(&self) -> String {
        let tail = self
            .tail
            .map(|(p, v)| format!(", \"p{p}\": {v}"))
            .unwrap_or_default();
        let samples: Vec<String> = self.samples.iter().map(f64::to_string).collect();
        format!(
            "{{\"n\": {}, \"median\": {}{tail}, \"samples\": [{}]}}",
            self.n,
            self.median,
            samples.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(99));
    }
}
