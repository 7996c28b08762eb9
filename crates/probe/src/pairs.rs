//! The probed domain pairs.
//!
//! Appendix A.4 probes the 20 most frequent `IP`-cause pairs of Table 12 —
//! each pair being a redundant origin and the previous origin whose
//! connection could have been reused. The default list below mirrors the
//! published pairs, restricted to the domains the simulated third-party
//! catalog serves.

use netsim_types::DomainName;

/// One probed pair: the redundant origin and its reusable previous origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainPair {
    /// The origin whose connections were redundant.
    pub origin: DomainName,
    /// The previous origin whose connection could have been reused.
    pub previous: DomainName,
}

impl DomainPair {
    /// Construct a pair from textual domains.
    pub fn new(origin: &str, previous: &str) -> Self {
        DomainPair { origin: DomainName::literal(origin), previous: DomainName::literal(previous) }
    }

    /// A short label for plots ("origin ← previous").
    pub fn label(&self) -> String {
        format!("{} \u{2190} {}", self.origin, self.previous)
    }
}

/// The default probe list (the Table 12 / Figure 3 pairs present in the
/// simulated catalog).
pub fn default_pairs() -> Vec<DomainPair> {
    vec![
        DomainPair::new("www.google-analytics.com", "www.googletagmanager.com"),
        DomainPair::new("www.facebook.com", "connect.facebook.net"),
        DomainPair::new("googleads.g.doubleclick.net", "pagead2.googlesyndication.com"),
        DomainPair::new("pagead2.googlesyndication.com", "googleads.g.doubleclick.net"),
        DomainPair::new("tpc.googlesyndication.com", "pagead2.googlesyndication.com"),
        DomainPair::new("www.googletagservices.com", "pagead2.googlesyndication.com"),
        DomainPair::new("partner.googleadservices.com", "pagead2.googlesyndication.com"),
        DomainPair::new("stats.g.doubleclick.net", "googleads.g.doubleclick.net"),
        DomainPair::new("fonts.gstatic.com", "www.gstatic.com"),
        DomainPair::new("script.hotjar.com", "static.hotjar.com"),
        DomainPair::new("vars.hotjar.com", "static.hotjar.com"),
        DomainPair::new("in.hotjar.com", "static.hotjar.com"),
        DomainPair::new("fonts.googleapis.com", "ajax.googleapis.com"),
        DomainPair::new("stats.wp.com", "c0.wp.com"),
        DomainPair::new("securepubads.g.doubleclick.net", "www.googletagservices.com"),
        DomainPair::new("ajax.googleapis.com", "fonts.googleapis.com"),
        DomainPair::new("maps.googleapis.com", "fonts.googleapis.com"),
        DomainPair::new("www.googleadservices.com", "stats.g.doubleclick.net"),
        DomainPair::new("apis.google.com", "www.gstatic.com"),
        DomainPair::new("i.ytimg.com", "www.youtube.com"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_list_has_twenty_distinct_pairs() {
        let pairs = default_pairs();
        assert_eq!(pairs.len(), 20);
        let unique: std::collections::BTreeSet<_> = pairs.iter().map(|p| (p.origin, p.previous)).collect();
        assert_eq!(unique.len(), pairs.len());
        for pair in &pairs {
            assert_ne!(pair.origin, pair.previous);
        }
    }

    #[test]
    fn labels_are_readable() {
        let pair = DomainPair::new("www.google-analytics.com", "www.googletagmanager.com");
        assert!(pair.label().contains("google-analytics"));
        assert!(pair.label().contains('\u{2190}'));
    }
}
