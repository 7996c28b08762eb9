//! Dataset intersection (Appendix A.3, Tables 7–10).
//!
//! The HTTP Archive and the authors' own crawl visit different site lists; to
//! compare like with like, the paper intersects both datasets on the visited
//! URLs and re-runs the analysis on the common ~29.5 k sites. This module
//! implements the same intersection on the site (landing-domain) key.

use crate::observation::Dataset;
use netsim_types::DomainName;
use std::collections::BTreeSet;

/// Restrict both datasets to the sites present in each, preserving the
/// original per-dataset observations. The returned datasets contain the same
/// site set (possibly in different order, following each input's order) and
/// carry an "(overlap)" suffix in their labels.
pub fn intersect(a: &Dataset, b: &Dataset) -> (Dataset, Dataset) {
    let sites_a: BTreeSet<&DomainName> = a.sites.iter().map(|s| &s.site).collect();
    let sites_b: BTreeSet<&DomainName> = b.sites.iter().map(|s| &s.site).collect();
    let common: BTreeSet<&DomainName> = sites_a.intersection(&sites_b).copied().collect();
    let restricted_a = Dataset::new(
        &format!("{} (overlap)", a.label),
        a.sites.iter().filter(|s| common.contains(&s.site)).cloned().collect(),
    );
    let restricted_b = Dataset::new(
        &format!("{} (overlap)", b.label),
        b.sites.iter().filter(|s| common.contains(&s.site)).cloned().collect(),
    );
    (restricted_a, restricted_b)
}

/// The number of common sites between two datasets.
pub fn overlap_size(a: &Dataset, b: &Dataset) -> usize {
    let sites_a: BTreeSet<&DomainName> = a.sites.iter().map(|s| &s.site).collect();
    b.sites.iter().filter(|s| sites_a.contains(&s.site)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::SiteObservation;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn dataset(label: &str, sites: &[&str]) -> Dataset {
        Dataset::new(
            label,
            sites.iter().map(|s| SiteObservation { site: d(s), connections: vec![] }).collect(),
        )
    }

    #[test]
    fn intersection_keeps_only_common_sites() {
        let a = dataset("har", &["a.com", "b.com", "c.com"]);
        let b = dataset("alexa", &["b.com", "c.com", "d.com"]);
        assert_eq!(overlap_size(&a, &b), 2);
        let (ra, rb) = intersect(&a, &b);
        assert_eq!(ra.sites.len(), 2);
        assert_eq!(rb.sites.len(), 2);
        assert_eq!(ra.label, "har (overlap)");
        assert_eq!(rb.label, "alexa (overlap)");
        let names: Vec<String> = ra.sites.iter().map(|s| s.site.to_string()).collect();
        assert_eq!(names, vec!["b.com", "c.com"]);
    }

    #[test]
    fn disjoint_datasets_intersect_to_nothing() {
        let a = dataset("har", &["a.com"]);
        let b = dataset("alexa", &["z.com"]);
        assert_eq!(overlap_size(&a, &b), 0);
        let (ra, rb) = intersect(&a, &b);
        assert!(ra.sites.is_empty());
        assert!(rb.sites.is_empty());
    }
}
