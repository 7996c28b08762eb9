//! Generated first-party websites.

use crate::resources::PlannedRequest;
use netsim_types::{DomainName, SiteId};

/// How (and whether) a site still uses HTTP/1.1-era domain sharding.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardingPlan {
    /// The shard hostnames (e.g. `img.example.com`, `static.example.com`).
    pub shards: Vec<DomainName>,
    /// `true` if each shard carries its own certificate (the certbot-default
    /// long tail that produces the paper's `CERT` cause), `false` if one
    /// shared-SAN certificate covers the apex and every shard.
    pub per_domain_certificates: bool,
    /// `true` if the shards sit behind a multi-address CDN entry whose
    /// answers are balanced independently — sharding that produces the `IP`
    /// cause even with a shared certificate.
    pub multi_ip_cdn: bool,
}

impl ShardingPlan {
    /// Number of shard hostnames.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// One generated website.
#[derive(Clone, Debug, PartialEq)]
pub struct Website {
    /// Stable identifier within the population.
    pub id: SiteId,
    /// The landing-page host (a registrable domain, matching how the Alexa
    /// list is crawled).
    pub domain: DomainName,
    /// Sharding configuration, if the site shards at all.
    pub sharding: Option<ShardingPlan>,
    /// The full fetch plan for one landing-page load.
    pub plan: Vec<PlannedRequest>,
}

impl Website {
    /// Every distinct hostname the plan touches.
    pub fn contacted_domains(&self) -> Vec<DomainName> {
        let mut domains: Vec<DomainName> = self.plan.iter().map(|r| r.domain).collect();
        domains.sort();
        domains.dedup();
        domains
    }

    /// Number of planned requests.
    pub fn request_count(&self) -> usize {
        self.plan.len()
    }

    /// Total response-body octets the plan will transfer (the page weight
    /// the cost model prices transfers against).
    pub fn planned_octets(&self) -> u64 {
        self.plan.iter().map(|r| r.body_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_fetch::RequestDestination;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn site() -> Website {
        Website {
            id: SiteId(7),
            domain: d("example.com"),
            sharding: Some(ShardingPlan {
                shards: vec![d("img.example.com"), d("static.example.com")],
                per_domain_certificates: true,
                multi_ip_cdn: false,
            }),
            plan: vec![
                PlannedRequest::document(d("example.com")),
                PlannedRequest::subresource(
                    d("img.example.com"),
                    "/a.png",
                    RequestDestination::Image,
                    0,
                    1000,
                ),
                PlannedRequest::subresource(
                    d("img.example.com"),
                    "/b.png",
                    RequestDestination::Image,
                    0,
                    1000,
                ),
                PlannedRequest::subresource(
                    d("www.googletagmanager.com"),
                    "/gtag/js",
                    RequestDestination::Script,
                    0,
                    90_000,
                ),
            ],
        }
    }

    #[test]
    fn domain_accessors() {
        let s = site();
        assert_eq!(s.contacted_domains().len(), 3, "duplicate img.example.com collapses");
        assert_eq!(s.request_count(), 4);
        assert_eq!(s.sharding.as_ref().unwrap().shard_count(), 2);
    }
}
