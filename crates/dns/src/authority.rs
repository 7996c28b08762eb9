//! The authoritative side of the simulated DNS.
//!
//! [`Authority`] aggregates all zone data of a simulation run. Recursive
//! resolvers send it name queries together with a [`QueryContext`]; it looks
//! the owner name up and returns the matching records. Zone cuts and
//! delegation latency are not modelled — the analysis only depends on *which
//! addresses* come back, not on how many referrals it took to find them.

use crate::query::QueryContext;
use crate::record::ResourceRecord;
use crate::zone::ZoneEntry;
use netsim_types::{DomainName, FnvHashMap};
use std::sync::Arc;

/// The collection of all authoritative zone data.
///
/// Entries are indexed by owner name alone. That answers exactly what a
/// longest-suffix walk over per-registrable-domain zones would: the walk
/// ends in the zone that holds the name's entry when there is one, and
/// answers NXDOMAIN otherwise (`tests/authority_equivalence.rs` keeps the
/// walk as its reference). A lookup is one interned-id hash probe per
/// layer, with no call into the intern table. The index serves lookups
/// only; nothing iterates it into output, so its hash order never reaches a
/// report.
///
/// An authority can be *layered* on top of a shared, immutable base
/// ([`Authority::with_base`]): the two layers must hold **disjoint** name
/// sets (asserted in debug builds on insertion), and queries probe the base
/// first before the local layer. The population generator uses this to issue
/// the third-party service zones once per (catalog, mitigation-set) and share
/// them across every chunk of a large population instead of reinstalling
/// them per chunk.
#[derive(Clone, Debug, Default)]
pub struct Authority {
    /// Owner name → entry.
    entries: FnvHashMap<DomainName, ZoneEntry>,
    /// Shared read-only entries consulted before the local layer.
    base: Option<Arc<Authority>>,
}

impl Authority {
    /// An authority with no zones.
    pub fn new() -> Self {
        Authority::default()
    }

    /// An empty authority layered over a shared base. The layers' name sets
    /// must stay disjoint: the base answers first, so a local entry for a
    /// base-known name would be shadowed (debug-asserted in
    /// [`Authority::insert_entry`]).
    pub fn with_base(base: Arc<Authority>) -> Self {
        Authority { entries: FnvHashMap::default(), base: Some(base) }
    }

    /// Insert (or replace) the entry for `name`. This is the common path for
    /// the population generator.
    pub fn insert_entry(&mut self, name: DomainName, entry: ZoneEntry) {
        debug_assert!(
            self.base.as_ref().is_none_or(|base| !base.knows(&name)),
            "layered authority inserted {name}, which the shared base already answers"
        );
        self.entries.insert(name, entry);
    }

    /// Number of owner names in the local layer.
    pub fn name_count(&self) -> usize {
        self.entries.len()
    }

    /// Answer a query: the records for `name` under `ctx`, or an empty vector
    /// for names nobody is authoritative for (NXDOMAIN).
    pub fn query(&self, name: &DomainName, ctx: &QueryContext) -> Vec<ResourceRecord> {
        let mut records = Vec::new();
        self.query_into(name, ctx, &mut records);
        records
    }

    /// Like [`Authority::query`], but appends the records to `out` instead of
    /// allocating a fresh vector — the resolver hot path reuses one buffer
    /// across lookups.
    pub fn query_into(&self, name: &DomainName, ctx: &QueryContext, out: &mut Vec<ResourceRecord>) {
        // Layered authorities keep the (small, densely hit) shared service
        // entries in the base and the per-site entries locally; the name
        // sets are disjoint, so probe the base first.
        let before = out.len();
        if let Some(base) = &self.base {
            base.query_into(name, ctx, out);
            if out.len() > before {
                return;
            }
        }
        if let Some(entry) = self.entries.get(name) {
            entry.records_into(name, ctx, out);
        }
    }

    /// `true` if some layer has an entry for `name`.
    pub fn knows(&self, name: &DomainName) -> bool {
        self.entries.contains_key(name) || self.base.as_ref().is_some_and(|base| base.knows(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalance::LoadBalancePolicy;
    use crate::query::{ResolverId, Vantage};
    use netsim_types::{Instant, IpAddr};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn ctx() -> QueryContext {
        QueryContext::new(ResolverId(0), Vantage::Europe, Instant::EPOCH)
    }

    fn authority() -> Authority {
        let mut auth = Authority::new();
        auth.insert_entry(d("example.com"), ZoneEntry::single(IpAddr::new(192, 0, 2, 1)));
        auth.insert_entry(d("www.example.com"), ZoneEntry::alias(d("example.com")));
        auth.insert_entry(
            d("cdn.provider.net"),
            ZoneEntry::balanced(LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 7))),
        );
        auth
    }

    #[test]
    fn entries_are_indexed_by_owner_name() {
        let auth = authority();
        assert_eq!(auth.name_count(), 3);
        assert!(auth.knows(&d("www.example.com")));
        assert!(!auth.knows(&d("mail.example.com")));
        assert!(!auth.knows(&d("unknown.org")));
    }

    #[test]
    fn query_returns_records_or_nxdomain() {
        let auth = authority();
        let records = auth.query(&d("example.com"), &ctx());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].data.as_a(), Some(IpAddr::new(192, 0, 2, 1)));
        let alias = auth.query(&d("www.example.com"), &ctx());
        assert_eq!(alias[0].data.as_cname(), Some(&d("example.com")));
        assert!(auth.query(&d("nothing.example.org"), &ctx()).is_empty());
        // Name under a known zone but without an entry: empty answer.
        assert!(auth.query(&d("mail.example.com"), &ctx()).is_empty());
    }
}
