//! Population profiles: how generated sites differ between the HTTP-Archive
//! and Alexa-Top-100k datasets.
//!
//! The paper's two datasets diverge in composition — the Alexa top list
//! contains larger, more heavily instrumented sites (more analytics, more
//! ads, more fonts), which is one of the reasons its redundancy percentages
//! are higher (95 % vs. 76 % of sites). The two profiles below encode that
//! difference; the calibration constants sit next to the paper value they are
//! aimed at.

/// Tunable description of a site population.
#[derive(Clone, Debug, PartialEq)]
pub struct PopulationProfile {
    /// Profile name (used in report headings).
    pub name: String,
    /// Per-service embed probability, keyed by catalog name.
    pub service_embed_probability: Vec<(String, f64)>,
    /// Probability that a site still uses domain sharding.
    pub sharding_probability: f64,
    /// Range (inclusive) of shard hostnames a sharding site uses.
    pub shard_count_range: (usize, usize),
    /// Probability that a sharding site has one certificate per shard
    /// (instead of one shared-SAN certificate) — feeds the `CERT` long tail.
    pub per_domain_cert_probability: f64,
    /// Probability that a sharding site serves its shards from a
    /// multi-address CDN entry with unsynchronized balancing — feeds `IP`.
    pub multi_ip_cdn_probability: f64,
    /// Probability that the site (and its shards) are fronted by Cloudflare.
    pub cloudflare_probability: f64,
    /// Range of first-party sub-resources on the landing page.
    pub own_resource_range: (usize, usize),
    /// Range of unrelated ("unknown third party") domains contacted once.
    pub misc_third_party_range: (usize, usize),
    /// Size of the shared pool those unrelated third parties are drawn from.
    pub misc_third_party_pool: usize,
}

impl PopulationProfile {
    /// A profile shaped after the HTTP-Archive dataset: the broad web, lower
    /// third-party penetration, more small sites.
    pub fn archive() -> Self {
        PopulationProfile {
            name: "archive".to_string(),
            service_embed_probability: vec![
                // Targets: IP-cause sites ≈ 70 %, CRED ≈ 43 %, CERT ≈ 10 %
                // (Table 1, HAR endless, relative to HTTP/2 sites).
                ("google-analytics".to_string(), 0.42),
                ("google-fonts".to_string(), 0.40),
                ("facebook-pixel".to_string(), 0.27),
                ("google-ads".to_string(), 0.26),
                ("google-platform".to_string(), 0.10),
                ("youtube-embed".to_string(), 0.09),
                ("wp-stats".to_string(), 0.06),
                ("hotjar".to_string(), 0.05),
                ("squarespace-assets".to_string(), 0.02),
                ("klaviyo".to_string(), 0.02),
                ("reddit-widget".to_string(), 0.008),
                ("unruly-sync".to_string(), 0.005),
            ],
            sharding_probability: 0.30,
            shard_count_range: (1, 3),
            per_domain_cert_probability: 0.08,
            multi_ip_cdn_probability: 0.22,
            cloudflare_probability: 0.20,
            own_resource_range: (4, 22),
            misc_third_party_range: (0, 5),
            misc_third_party_pool: 1500,
        }
    }

    /// A profile shaped after the Alexa Top 100k: popular sites with heavier
    /// third-party instrumentation.
    pub fn alexa() -> Self {
        PopulationProfile {
            name: "alexa".to_string(),
            service_embed_probability: vec![
                // Targets: IP-cause sites ≈ 88 %, CRED ≈ 79 %, CERT ≈ 17 %
                // (Table 1, Alexa, relative to the 81.55 k measured sites).
                ("google-analytics".to_string(), 0.64),
                ("google-fonts".to_string(), 0.56),
                ("facebook-pixel".to_string(), 0.40),
                ("google-ads".to_string(), 0.38),
                ("google-platform".to_string(), 0.26),
                ("youtube-embed".to_string(), 0.16),
                ("wp-stats".to_string(), 0.04),
                ("hotjar".to_string(), 0.09),
                ("squarespace-assets".to_string(), 0.02),
                ("klaviyo".to_string(), 0.02),
                ("reddit-widget".to_string(), 0.012),
                ("unruly-sync".to_string(), 0.01),
            ],
            sharding_probability: 0.36,
            shard_count_range: (1, 4),
            per_domain_cert_probability: 0.08,
            multi_ip_cdn_probability: 0.30,
            cloudflare_probability: 0.22,
            own_resource_range: (8, 40),
            misc_third_party_range: (1, 9),
            misc_third_party_pool: 600,
        }
    }

    /// The embed probability for a catalog service (0 when unknown).
    pub fn embed_probability(&self, service: &str) -> f64 {
        self.service_embed_probability
            .iter()
            .find(|(name, _)| name == service)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_sane() {
        let archive = PopulationProfile::archive();
        let alexa = PopulationProfile::alexa();
        assert_ne!(archive, alexa);
        for profile in [&archive, &alexa] {
            for (name, p) in &profile.service_embed_probability {
                assert!((0.0..=1.0).contains(p), "{name} probability out of range");
            }
            assert!(profile.sharding_probability <= 1.0);
            assert!(profile.shard_count_range.0 <= profile.shard_count_range.1);
            assert!(profile.own_resource_range.0 <= profile.own_resource_range.1);
            assert!(profile.misc_third_party_pool > 0);
        }
    }

    #[test]
    fn alexa_sites_are_more_instrumented() {
        let archive = PopulationProfile::archive();
        let alexa = PopulationProfile::alexa();
        for service in ["google-analytics", "google-ads", "google-fonts", "facebook-pixel"] {
            assert!(
                alexa.embed_probability(service) > archive.embed_probability(service),
                "{service} should be more common on top sites"
            );
        }
        assert_eq!(archive.embed_probability("unknown-service"), 0.0);
    }
}
