//! Order statistics over timing samples: median, quartiles and
//! nearest-rank percentiles. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so a spread computed here matches one computed from the printed
//! results.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (default exclusive
/// method, including its linear extrapolation beyond the extreme values
/// for very small samples). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len() as i64;
    if len < 2 {
        return None;
    }
    let at = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`): the smallest value
/// with at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `"median m, quartiles q1–q3, n samples"` of `samples`, for the
/// human-readable summary.
pub fn summary(samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
    format!(
        "median {:.4}, quartiles {q1:.4}–{q3:.4}, {} samples",
        median(samples).unwrap_or(f64::NAN),
        samples.len()
    )
}
