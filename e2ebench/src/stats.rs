//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p90, p99 and p99.9 that leaves at least ten samples
/// beyond it, as `(label, value)`; `None` below 100 samples.
pub fn supported_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|(_, p)| values.len() as f64 * (1.0 - p) >= 10.0)
        .map(|(label, p)| (label, percentile(values, p)))
}

/// One summary line: median, supported tail percentile and sample count.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let tail = match supported_tail(values) {
        Some((label, v)) => format!(" {label}={v:.6}"),
        None => " (no percentile has 10 samples beyond it)".to_string(),
    };
    let mut line = format!(
        "{name:<34} median={:.6} {unit}{tail} n={}",
        median(values),
        values.len()
    );
    if values.len() <= 12 {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
        line.push_str(&format!(" samples=[{}]", shown.join(", ")));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(supported_tail(&v), Some(("p99", 990.0)));
        assert_eq!(supported_tail(&v[..50]), None);
    }
}
