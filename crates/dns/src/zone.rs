//! Authoritative zone data.
//!
//! A [`ZoneEntry`] binds one owner name to either a CNAME alias or an
//! address-selection policy; [`crate::Authority`] indexes them by owner
//! name. Real deployments mix both: `connect.facebook.net` might be a CNAME
//! into a CDN zone whose apex is load balanced; small sites have a single
//! static A record.

use crate::loadbalance::LoadBalancePolicy;
use crate::query::QueryContext;
use crate::record::{RecordData, ResourceRecord};
use netsim_types::{DomainName, Duration, IpAddr};
use serde::{Deserialize, Serialize};

/// Default TTL handed out when an entry does not override it (5 minutes, a
/// common value for load-balanced names).
pub const DEFAULT_TTL: Duration = Duration::from_secs(300);

/// What a zone knows about one owner name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ZoneEntry {
    /// The name is an alias for another name (possibly in another zone).
    Alias {
        /// CNAME target.
        target: DomainName,
        /// TTL of the CNAME record.
        ttl: Duration,
    },
    /// The name resolves to addresses chosen by a load-balancing policy.
    Addresses {
        /// Address-selection policy.
        policy: LoadBalancePolicy,
        /// TTL of the A records.
        ttl: Duration,
    },
}

impl ZoneEntry {
    /// A static single-address entry with the default TTL.
    pub fn single(address: IpAddr) -> Self {
        ZoneEntry::Addresses { policy: LoadBalancePolicy::single(address), ttl: DEFAULT_TTL }
    }

    /// An address entry with an explicit policy and the default TTL.
    pub fn balanced(policy: LoadBalancePolicy) -> Self {
        ZoneEntry::Addresses { policy, ttl: DEFAULT_TTL }
    }

    /// A CNAME entry with the default TTL.
    pub fn alias(target: DomainName) -> Self {
        ZoneEntry::Alias { target, ttl: DEFAULT_TTL }
    }

    /// The record TTL of the entry.
    pub fn ttl(&self) -> Duration {
        match self {
            ZoneEntry::Alias { ttl, .. } | ZoneEntry::Addresses { ttl, .. } => *ttl,
        }
    }

    /// Append the resource records this entry answers for `name` under
    /// `ctx`: either one CNAME record or one A record per selected address.
    pub fn records_into(&self, name: &DomainName, ctx: &QueryContext, out: &mut Vec<ResourceRecord>) {
        match self {
            ZoneEntry::Alias { target, ttl } => {
                out.push(ResourceRecord { name: *name, ttl: *ttl, data: RecordData::Cname(*target) });
            }
            ZoneEntry::Addresses { policy, ttl } => {
                policy.select_each(name, ctx, |ip| out.push(ResourceRecord::a(*name, ip, *ttl)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ResolverId, Vantage};
    use netsim_types::Instant;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn records(entry: &ZoneEntry, name: &str) -> Vec<ResourceRecord> {
        let mut out = Vec::new();
        entry.records_into(
            &d(name),
            &QueryContext::new(ResolverId(0), Vantage::Europe, Instant::EPOCH),
            &mut out,
        );
        out
    }

    #[test]
    fn records_for_alias_and_addresses() {
        let alias_records = records(&ZoneEntry::alias(d("example.com")), "www.example.com");
        assert_eq!(alias_records.len(), 1);
        assert_eq!(alias_records[0].name, d("www.example.com"));
        assert_eq!(alias_records[0].data.as_cname(), Some(&d("example.com")));
        let a_records = records(&ZoneEntry::single(IpAddr::new(192, 0, 2, 1)), "example.com");
        assert_eq!(a_records.len(), 1);
        assert_eq!(a_records[0].data.as_a(), Some(IpAddr::new(192, 0, 2, 1)));
    }

    #[test]
    fn multi_address_answers() {
        let pool: Vec<IpAddr> = (0..4).map(|i| IpAddr::new(10, 0, 0, i)).collect();
        let entry = ZoneEntry::balanced(LoadBalancePolicy::RotatingPool {
            pool,
            answer_size: 2,
            rotation_period: Duration::from_secs(60),
        });
        let records = records(&entry, "cdn.example.com");
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.data.as_a().is_some()));
        assert_eq!(records[0].ttl, DEFAULT_TTL);
    }

    #[test]
    fn entry_ttl_accessor() {
        assert_eq!(ZoneEntry::single(IpAddr::new(1, 2, 3, 4)).ttl(), DEFAULT_TTL);
        let alias = ZoneEntry::Alias { target: d("x.example"), ttl: Duration::from_secs(60) };
        assert_eq!(alias.ttl(), Duration::from_secs(60));
    }
}
