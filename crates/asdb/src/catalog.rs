//! Well-known autonomous systems.
//!
//! The names and numbers match the ASes that appear in Table 6 of the paper,
//! so the simulated attribution tables read like the original ones.

use crate::registry::AutonomousSystem;

/// Constructors for the ASes named in the paper plus generic hosting ASes for
/// the long tail.
pub mod well_known {
    use super::AutonomousSystem;
    use netsim_types::NameTable;

    /// GOOGLE (AS15169) — Google's own CDN, hosts analytics/ads/gstatic.
    pub fn google() -> AutonomousSystem {
        AutonomousSystem::new(15169, "GOOGLE")
    }
    /// AMAZON-02 (AS16509) — AWS / CloudFront (hosts e.g. hotjar).
    pub fn amazon_02() -> AutonomousSystem {
        AutonomousSystem::new(16509, "AMAZON-02")
    }
    /// FACEBOOK (AS32934).
    pub fn facebook() -> AutonomousSystem {
        AutonomousSystem::new(32934, "FACEBOOK")
    }
    /// AUTOMATTIC (AS2635) — wp.com services.
    pub fn automattic() -> AutonomousSystem {
        AutonomousSystem::new(2635, "AUTOMATTIC")
    }
    /// CLOUDFLARENET (AS13335).
    pub fn cloudflare() -> AutonomousSystem {
        AutonomousSystem::new(13335, "CLOUDFLARENET")
    }
    /// FASTLY (AS54113).
    pub fn fastly() -> AutonomousSystem {
        AutonomousSystem::new(54113, "FASTLY")
    }
    /// AMAZON-AES (AS14618) — AWS us-east legacy region.
    pub fn amazon_aes() -> AutonomousSystem {
        AutonomousSystem::new(14618, "AMAZON-AES")
    }
    /// EDGECAST (AS15133).
    pub fn edgecast() -> AutonomousSystem {
        AutonomousSystem::new(15133, "EDGECAST")
    }
    /// AKAMAI-ASN1 (AS20940).
    pub fn akamai_asn1() -> AutonomousSystem {
        AutonomousSystem::new(20940, "AKAMAI-ASN1")
    }
    /// AKAMAI-AS (AS16625).
    pub fn akamai_as() -> AutonomousSystem {
        AutonomousSystem::new(16625, "AKAMAI-AS")
    }
    /// A generic shared-hosting AS for small independent sites; `index`
    /// spreads the long tail over several hosters.
    pub fn generic_hosting(index: u32) -> AutonomousSystem {
        static NAMES: NameTable = NameTable::new();
        AutonomousSystem::new(64_512 + index, NAMES.get(index.into(), || format!("HOSTING-{index}")))
    }
}

/// The catalog used by the population generator when it needs "one of the big
/// CDNs/clouds" versus "a small hoster".
#[derive(Clone, Debug)]
pub struct AsCatalog {
    /// Large content/CDN providers, weighted roughly by their share of
    /// third-party hosting.
    pub major: Vec<(AutonomousSystem, f64)>,
    /// The generic small hosting ASes available for the long tail.
    generic: Vec<AutonomousSystem>,
}

impl Default for AsCatalog {
    fn default() -> Self {
        AsCatalog {
            major: vec![
                (well_known::google(), 0.30),
                (well_known::amazon_02(), 0.18),
                (well_known::cloudflare(), 0.16),
                (well_known::facebook(), 0.08),
                (well_known::fastly(), 0.07),
                (well_known::amazon_aes(), 0.06),
                (well_known::akamai_asn1(), 0.05),
                (well_known::akamai_as(), 0.04),
                (well_known::edgecast(), 0.03),
                (well_known::automattic(), 0.03),
            ],
            generic: (0..64).map(well_known::generic_hosting).collect(),
        }
    }
}

impl AsCatalog {
    /// Sampling weights aligned with [`AsCatalog::major`].
    pub fn major_weights(&self) -> Vec<f64> {
        self.major.iter().map(|(_, w)| *w).collect()
    }

    /// The major AS at `index`.
    pub fn major_at(&self, index: usize) -> &AutonomousSystem {
        &self.major[index].0
    }

    /// The generic hosting AS for a hash/index value.
    pub fn generic_for(&self, index: u32) -> AutonomousSystem {
        self.generic[index as usize % self.generic.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_match_paper_table6() {
        let names: Vec<&str> = AsCatalog::default().major.iter().map(|(a, _)| a.name).collect();
        for expected in ["GOOGLE", "AMAZON-02", "FACEBOOK", "CLOUDFLARENET", "FASTLY", "AUTOMATTIC"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn generic_hosting_wraps_around_pool() {
        let catalog = AsCatalog::default();
        assert_eq!(catalog.generic_for(0), catalog.generic_for(64));
        assert_ne!(catalog.generic_for(0), catalog.generic_for(1));
        assert_eq!(catalog.generic_for(65).name, "HOSTING-1");
    }

    #[test]
    fn weights_are_positive() {
        let catalog = AsCatalog::default();
        assert_eq!(catalog.major_weights().len(), catalog.major.len());
        assert!(catalog.major_weights().iter().all(|w| *w > 0.0));
        assert_eq!(catalog.major_at(0).name, "GOOGLE");
    }
}
