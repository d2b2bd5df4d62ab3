//! Percentiles that state their sample count.

/// A percentile of a sample, with the counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub above: usize,
}

/// Fewest samples that must lie above a reported percentile.
pub const MIN_ABOVE: usize = 10;

/// The `p`-th percentile (0 < p < 1) by nearest rank. Refuses when fewer
/// than [`MIN_ABOVE`] samples lie above the rank, since such a tail value
/// rests on a handful of requests.
pub fn percentile(values: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 1.0, "percentile rank {p} outside (0, 1)");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let above = n.saturating_sub(rank);
    if n == 0 || above < MIN_ABOVE {
        return Err(format!(
            "p{} needs at least {MIN_ABOVE} samples above it; {n} samples leave {above}",
            (p * 100.0).round()
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        above,
    })
}

/// The median of a small set (set-up repeats), which the percentile rule
/// does not cover: it is reported with its count, never as a tail.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_states_its_counts() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 0.9).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.above, 10);
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!((p50.value, p50.above), (50.0, 50));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&values, 0.9).unwrap_err();
        assert!(err.contains("99 samples leave 9"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        // A median needs 20 samples: the 10th of 20 has 10 above it.
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5).unwrap().value, 10.0);
        assert!(percentile(&values[..19], 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (1..=50).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 0.5).unwrap().value, 25.0);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
