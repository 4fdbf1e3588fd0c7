//! Order statistics over samples.

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The highest sample that still has at least ten samples above it: the
/// tail percentile that is backed by data. Falls back to the maximum
/// with eleven samples or fewer.
pub fn tail(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n <= 11 => s[n - 1],
        n => s[n - 11],
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0);
        assert_eq!(tail(&[5.0, 1.0]), 5.0);
    }
}
