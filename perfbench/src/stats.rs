//! Order statistics over latency samples.

/// The nearest-rank `q`-quantile of `samples` with the number of
/// samples above it, or `None` for an empty slice.
fn nearest_rank(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// The median (nearest rank), `NaN` when there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(f64::NAN, |(v, _)| v)
}

/// A tail percentile: the value, the percentile it was taken at, the
/// sample count and how many samples lie beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
    pub beyond: usize,
}

/// The `pct`-th percentile of `samples`. A tail is only meaningful with
/// at least ten samples beyond it; callers report `beyond` so a run that
/// falls short is visible.
pub fn tail(samples: &[f64], pct: f64) -> Tail {
    let (value, beyond) = nearest_rank(samples, pct / 100.0).unwrap_or((f64::NAN, 0));
    Tail {
        value,
        pct,
        n: samples.len(),
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_tails_leave_the_stated_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 90.0);
        assert_eq!((t.value, t.beyond, t.n), (90.0, 10, 100));
        assert_eq!(median(&v), 50.0);
        assert!(median(&[]).is_nan());
    }
}
