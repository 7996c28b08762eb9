//! The paper's published reference values.
//!
//! EXPERIMENTS.md and the `repro` binary print these next to the simulated
//! results so the *shape* comparison (who wins, rough ratios, orderings) is
//! visible at a glance. Absolute counts are not expected to match — the
//! populations are scaled down — but the percentages and rankings should.

/// Reference percentages from Table 1 (relative to the HTTP/2 site and
/// connection totals of each dataset).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTable1Reference {
    /// Dataset label used in the paper.
    pub dataset: &'static str,
    /// Fraction of sites affected by CERT.
    pub cert_sites: f64,
    /// Fraction of connections affected by CERT.
    pub cert_connections: f64,
    /// Fraction of sites affected by IP.
    pub ip_sites: f64,
    /// Fraction of connections affected by IP.
    pub ip_connections: f64,
    /// Fraction of sites affected by CRED.
    pub cred_sites: f64,
    /// Fraction of connections affected by CRED.
    pub cred_connections: f64,
    /// Fraction of sites with at least one redundant connection.
    pub redundant_sites: f64,
    /// Fraction of redundant connections.
    pub redundant_connections: f64,
}

/// The Table 1 reference rows (derived from the published absolute counts:
/// HAR endless/immediate over 5.88 M sites and 63.55 M connections, Alexa
/// over 81.55 k sites and 1.65 M connections).
pub fn table1_references() -> Vec<PaperTable1Reference> {
    vec![
        PaperTable1Reference {
            dataset: "HAR Endless",
            cert_sites: 592_950.0 / 5_880_000.0,
            cert_connections: 885_400.0 / 63_550_000.0,
            ip_sites: 4_100_000.0 / 5_880_000.0,
            ip_connections: 13_850_000.0 / 63_550_000.0,
            cred_sites: 2_540_000.0 / 5_880_000.0,
            cred_connections: 3_910_000.0 / 63_550_000.0,
            redundant_sites: 4_490_000.0 / 5_880_000.0,
            redundant_connections: 17_330_000.0 / 63_550_000.0,
        },
        PaperTable1Reference {
            dataset: "HAR Immediate",
            cert_sites: 299_710.0 / 5_880_000.0,
            cert_connections: 390_560.0 / 63_550_000.0,
            ip_sites: 1_730_000.0 / 5_880_000.0,
            ip_connections: 4_590_000.0 / 63_550_000.0,
            cred_sites: 1_350_000.0 / 5_880_000.0,
            cred_connections: 1_650_000.0 / 63_550_000.0,
            redundant_sites: 2_260_000.0 / 5_880_000.0,
            redundant_connections: 6_420_000.0 / 63_550_000.0,
        },
        PaperTable1Reference {
            dataset: "Alexa",
            cert_sites: 14_130.0 / 81_550.0,
            cert_connections: 23_630.0 / 1_650_000.0,
            ip_sites: 71_860.0 / 81_550.0,
            ip_connections: 458_460.0 / 1_650_000.0,
            cred_sites: 64_830.0 / 81_550.0,
            cred_connections: 132_670.0 / 1_650_000.0,
            redundant_sites: 77_880.0 / 81_550.0,
            redundant_connections: 574_850.0 / 1_650_000.0,
        },
        PaperTable1Reference {
            dataset: "Alexa w/o Fetch",
            cert_sites: 13_880.0 / 81_550.0,
            cert_connections: 19_300.0 / 1_500_000.0,
            ip_sites: 71_350.0 / 81_550.0,
            ip_connections: 416_910.0 / 1_500_000.0,
            cred_sites: 0.0,
            cred_connections: 0.0,
            redundant_sites: 71_700.0 / 81_550.0,
            redundant_connections: 429_440.0 / 1_500_000.0,
        },
    ]
}

/// The top `IP`-cause origins of Table 2 in paper rank order.
pub const TABLE2_TOP_ORIGINS: [&str; 4] = [
    "www.google-analytics.com",
    "www.facebook.com",
    "googleads.g.doubleclick.net",
    "pagead2.googlesyndication.com",
];

/// The top `CERT` issuers of Table 3 in paper rank order (HTTP Archive).
pub const TABLE3_TOP_ISSUERS: [&str; 3] = ["Let's Encrypt", "Google Trust Services", "DigiCert Inc"];

/// The top `CERT` domains of Table 4 (HTTP Archive order).
pub const TABLE4_TOP_DOMAINS: [&str; 3] =
    ["fast.a.klaviyo.com", "adservice.google.com", "googleads.g.doubleclick.net"];

/// The top ASes of Table 6 (HTTP Archive order).
pub const TABLE6_TOP_ASES: [&str; 3] = ["GOOGLE", "AMAZON-02", "FACEBOOK"];

/// §5.1 headline values.
pub mod headline {
    /// Fraction of HTTP-Archive HTTP/2 sites with redundancy (endless model).
    pub const HAR_ENDLESS_REDUNDANT_SITES: f64 = 0.76;
    /// Fraction of HTTP-Archive HTTP/2 sites with redundancy (immediate).
    pub const HAR_IMMEDIATE_REDUNDANT_SITES: f64 = 0.38;
    /// Fraction of Alexa sites with redundancy.
    pub const ALEXA_REDUNDANT_SITES: f64 = 0.95;
    /// Share of connections that closed before the measurement ended.
    pub const CLOSED_CONNECTION_SHARE: f64 = 0.035;
    /// Median lifetime (seconds) of those early-closing connections.
    pub const MEDIAN_LIFETIME_SECS: f64 = 122.2;
    /// Redundancy reduction when the Fetch credentials flag is ignored.
    pub const WITHOUT_FETCH_REDUCTION: f64 = 0.25;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_percentages_match_the_published_prose() {
        let rows = table1_references();
        let har_endless = &rows[0];
        assert!((har_endless.redundant_sites - 0.76).abs() < 0.02);
        assert!((har_endless.ip_sites - 0.70).abs() < 0.02);
        assert!((har_endless.cred_sites - 0.43).abs() < 0.02);
        assert!((har_endless.cert_sites - 0.10).abs() < 0.02);
        assert!((har_endless.ip_connections - 0.22).abs() < 0.02);
        let alexa = &rows[2];
        assert!((alexa.redundant_sites - 0.95).abs() < 0.02);
        assert!((alexa.ip_sites - 0.88).abs() < 0.02);
        assert!((alexa.cred_sites - 0.79).abs() < 0.02);
        assert!((alexa.cert_sites - 0.17).abs() < 0.02);
        let patched = &rows[3];
        assert_eq!(patched.cred_sites, 0.0);
    }
}
