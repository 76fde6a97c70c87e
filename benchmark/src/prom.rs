//! Reading the server's `/v1/metrics` exposition.
//!
//! Only exact values are taken: counters, gauges, and the `_sum`/`_count`
//! lines of histograms (their bucket edges are a factor of two apart).

/// The value of one sample line, `series` being the full series name with
/// its labels as rendered (`remi_cache_hits_total`,
/// `remi_kb_compactions_total{outcome="performed"}`).
pub fn scalar(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// `(sum, count)` of the histogram series `family{labels}`; `labels` is
/// the rendered label list without braces, empty for none.
pub fn sum_count(text: &str, family: &str, labels: &str) -> Option<(f64, f64)> {
    let series = |suffix: &str| {
        if labels.is_empty() {
            format!("{family}{suffix}")
        } else {
            format!("{family}{suffix}{{{labels}}}")
        }
    };
    Some((
        scalar(text, &series("_sum"))?,
        scalar(text, &series("_count"))?,
    ))
}

/// Difference of a histogram's `(sum, count)` between two scrapes, as the
/// mean per observation (`None` when nothing was observed in between).
pub fn mean_between(before: &str, after: &str, family: &str, labels: &str) -> Option<f64> {
    let (s0, c0) = sum_count(before, family, labels).unwrap_or((0.0, 0.0));
    let (s1, c1) = sum_count(after, family, labels)?;
    (c1 > c0).then(|| (s1 - s0) / (c1 - c0))
}

/// Difference of a counter between two scrapes (missing counts as 0).
pub fn delta(before: &str, after: &str, series: &str) -> f64 {
    scalar(after, series).unwrap_or(0.0) - scalar(before, series).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# TYPE remi_cache_hits_total counter\n\
remi_cache_hits_total 12\n\
remi_cache_hits_total_extra 99\n\
# TYPE remi_kb_compactions_total counter\n\
remi_kb_compactions_total{outcome=\"performed\"} 3\n\
remi_kb_compactions_total{outcome=\"skipped\"} 1\n\
# TYPE remi_http_phase_duration_ns histogram\n\
remi_http_phase_duration_ns_bucket{phase=\"parse\",le=\"2047\"} 4\n\
remi_http_phase_duration_ns_bucket{phase=\"parse\",le=\"+Inf\"} 5\n\
remi_http_phase_duration_ns_sum{phase=\"parse\"} 9000\n\
remi_http_phase_duration_ns_count{phase=\"parse\"} 5\n\
remi_kb_publish_duration_ns_sum 600\n\
remi_kb_publish_duration_ns_count 2\n";

    #[test]
    fn scalars_match_whole_series_names_only() {
        assert_eq!(scalar(TEXT, "remi_cache_hits_total"), Some(12.0));
        assert_eq!(
            scalar(TEXT, "remi_kb_compactions_total{outcome=\"performed\"}"),
            Some(3.0)
        );
        assert_eq!(scalar(TEXT, "remi_cache_misses_total"), None);
    }

    #[test]
    fn histograms_yield_exact_sum_and_count() {
        assert_eq!(
            sum_count(TEXT, "remi_http_phase_duration_ns", "phase=\"parse\""),
            Some((9000.0, 5.0))
        );
        assert_eq!(
            sum_count(TEXT, "remi_kb_publish_duration_ns", ""),
            Some((600.0, 2.0))
        );
        assert_eq!(
            sum_count(TEXT, "remi_http_phase_duration_ns", "phase=\"mine\""),
            None
        );
    }

    #[test]
    fn differences_between_scrapes() {
        let before = "remi_kb_publish_duration_ns_sum 100\nremi_kb_publish_duration_ns_count 1\nremi_cache_hits_total 2\n";
        assert_eq!(
            mean_between(before, TEXT, "remi_kb_publish_duration_ns", ""),
            Some(500.0)
        );
        assert_eq!(
            mean_between(TEXT, TEXT, "remi_kb_publish_duration_ns", ""),
            None
        );
        assert_eq!(delta(before, TEXT, "remi_cache_hits_total"), 10.0);
        assert_eq!(delta("", TEXT, "remi_shed_total"), 0.0);
    }
}
