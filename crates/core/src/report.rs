//! Distribution reports: the Figure 2 series.

use crate::classify::SiteClassification;

/// A survival-function series over "redundant connections per site":
/// `points[k]` is the fraction of sites that opened at least `k` redundant
/// connections. This is the "1 − CDF" plotted in Figure 2.
#[derive(Clone, Debug, PartialEq)]
pub struct CdfSeries {
    /// Series label (dataset name).
    pub label: String,
    /// `points[k]` = fraction of sites with ≥ k redundant connections.
    pub points: Vec<f64>,
}

impl CdfSeries {
    /// Build the series from per-site classifications, with `max_k`
    /// inclusive as the largest x value (the paper plots 0..15).
    pub fn from_classifications(label: &str, classifications: &[SiteClassification], max_k: usize) -> Self {
        let site_count = classifications.len();
        let mut points = vec![0.0; max_k + 1];
        if site_count == 0 {
            points[0] = 0.0;
            return CdfSeries { label: label.to_string(), points };
        }
        for (k, point) in points.iter_mut().enumerate() {
            let at_least = classifications.iter().filter(|c| c.redundant_connections() >= k).count();
            *point = at_least as f64 / site_count as f64;
        }
        CdfSeries { label: label.to_string(), points }
    }

    /// The fraction of sites with at least `k` redundant connections, 0.0
    /// beyond the computed range.
    pub fn at_least(&self, k: usize) -> f64 {
        self.points.get(k).copied().unwrap_or(0.0)
    }

    /// The median number of redundant connections per site (the smallest `k`
    /// such that at most half the sites have more than `k`).
    pub fn median(&self) -> usize {
        self.points.iter().rposition(|&fraction| fraction >= 0.5).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{Cause, ClassifiedConnection};
    use netsim_types::DomainName;
    use std::collections::BTreeMap;

    fn site_with_redundant(count: usize) -> SiteClassification {
        let connections = (0..count + 1)
            .map(|index| ClassifiedConnection {
                index,
                origin: DomainName::literal("example.com"),
                causes: if index == 0 {
                    BTreeMap::new()
                } else {
                    [(Cause::Ip, vec![0usize])].into_iter().collect()
                },
                excluded: false,
            })
            .collect();
        SiteClassification {
            site: DomainName::literal("example.com"),
            total_connections: count + 1,
            connections,
        }
    }

    #[test]
    fn survival_function_is_monotone_and_starts_at_one() {
        let sites: Vec<SiteClassification> = vec![
            site_with_redundant(0),
            site_with_redundant(1),
            site_with_redundant(2),
            site_with_redundant(6),
        ];
        let series = CdfSeries::from_classifications("test", &sites, 10);
        assert_eq!(series.points.len(), 11);
        assert!((series.at_least(0) - 1.0).abs() < 1e-9);
        assert!((series.at_least(1) - 0.75).abs() < 1e-9);
        assert!((series.at_least(2) - 0.5).abs() < 1e-9);
        assert!((series.at_least(7) - 0.0).abs() < 1e-9);
        for window in series.points.windows(2) {
            assert!(window[0] >= window[1], "survival function must be non-increasing");
        }
        assert_eq!(series.median(), 2);
        assert_eq!(series.at_least(99), 0.0);
    }

    #[test]
    fn empty_input_yields_zero_series() {
        let series = CdfSeries::from_classifications("empty", &[], 5);
        assert_eq!(series.points.len(), 6);
        assert!(series.points.iter().all(|p| *p == 0.0));
        assert_eq!(series.median(), 0);
    }
}
