//! The resolver panel (Table 11).
//!
//! The paper selects 14 public resolvers spread around the world, checks that
//! they have reverse DNS entries and that none forwards EDNS Client Subnet.
//! The panel below mirrors that table; the addresses and regions are labels
//! only (the simulation routes queries by [`netsim_dns::ResolverId`]).

use netsim_dns::ResolverId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The coarse world region a panel resolver sits in (Table 11's location
/// column, summarised). A label only: no simulated load balancer steers by
/// it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Vantage {
    /// North America.
    NorthAmerica,
    /// Europe (including the authors' university resolver at RWTH Aachen).
    Europe,
    /// Asia-Pacific.
    AsiaPacific,
    /// South America.
    SouthAmerica,
}

impl fmt::Display for Vantage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Vantage::NorthAmerica => "north-america",
            Vantage::Europe => "europe",
            Vantage::AsiaPacific => "asia-pacific",
            Vantage::SouthAmerica => "south-america",
        };
        f.write_str(name)
    }
}

/// One row of Table 11.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolverDescription {
    /// Address (or "internal" for the university resolver).
    pub address: String,
    /// Country the resolver is located in.
    pub country: String,
    /// Operating organisation.
    pub operator: String,
    /// The region the resolver sits in.
    pub vantage: Vantage,
}

impl ResolverDescription {
    fn new(address: &str, country: &str, operator: &str, vantage: Vantage) -> Self {
        ResolverDescription {
            address: address.to_string(),
            country: country.to_string(),
            operator: operator.to_string(),
            vantage,
        }
    }
}

/// The resolver identity of the panel member at `index` (ids start at 1,
/// clear of the crawlers' own resolvers).
pub(crate) fn panel_resolver_id(index: usize) -> ResolverId {
    ResolverId(index as u32 + 1)
}

/// The 14-resolver panel of Table 11.
pub fn resolver_panel() -> Vec<ResolverDescription> {
    vec![
        ResolverDescription::new("internal", "Germany", "RWTH Aachen University", Vantage::Europe),
        ResolverDescription::new("168.126.63.1", "South Korea", "KT Corporation", Vantage::AsiaPacific),
        ResolverDescription::new("172.104.237.57", "Germany", "FreeDNS", Vantage::Europe),
        ResolverDescription::new("172.104.49.100", "Singapore", "FreeDNS", Vantage::AsiaPacific),
        ResolverDescription::new("177.47.128.2", "Brazil", "Ver Tv Comunicações S/A", Vantage::SouthAmerica),
        ResolverDescription::new("178.237.152.146", "Spain", "MAXEN TECHNOLOGIES, S.L.", Vantage::Europe),
        ResolverDescription::new("195.208.5.1", "Russia", "MSK-IX", Vantage::Europe),
        ResolverDescription::new(
            "203.50.2.71",
            "Australia",
            "Telstra Corporation Limited",
            Vantage::AsiaPacific,
        ),
        ResolverDescription::new("210.87.250.59", "Hong Kong", "HKT Limited", Vantage::AsiaPacific),
        ResolverDescription::new("212.89.130.180", "Germany", "Infoserve GmbH", Vantage::Europe),
        ResolverDescription::new("221.119.13.154", "Japan", "Marss Japan Co., Ltd", Vantage::AsiaPacific),
        ResolverDescription::new(
            "8.0.26.0",
            "United Kingdom",
            "Level 3 Communications, Inc.",
            Vantage::Europe,
        ),
        ResolverDescription::new("8.0.6.0", "USA", "Level 3 Communications, Inc.", Vantage::NorthAmerica),
        ResolverDescription::new("80.67.169.12", "France", "French Data Network (FDN)", Vantage::Europe),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_has_fourteen_members() {
        assert_eq!(resolver_panel().len(), 14);
        assert_eq!(Vantage::Europe.to_string(), "europe");
    }

    #[test]
    fn panel_ids_are_distinct() {
        let panel = resolver_panel();
        let ids: std::collections::BTreeSet<_> = (0..panel.len()).map(panel_resolver_id).collect();
        assert_eq!(ids.len(), panel.len());
    }

    #[test]
    fn panel_spans_multiple_regions() {
        let panel = resolver_panel();
        let vantages: std::collections::BTreeSet<_> = panel.iter().map(|d| d.vantage).collect();
        assert!(vantages.len() >= 3);
    }
}
