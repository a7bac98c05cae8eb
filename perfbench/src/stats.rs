//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// A tail latency: the percentile reported, its value, and how many
/// samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile with at least ten samples beyond it
/// (nearest-rank), or `None` when even the median has fewer than ten
/// samples above it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 has only 5 samples beyond it; p90 has exactly 10.
        assert_eq!(
            tail(&xs),
            Some(Tail {
                percentile: 90.0,
                value: 90.0,
                samples: 100
            })
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 99.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
    }

    #[test]
    fn tail_needs_at_least_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 50.0);
    }
}
