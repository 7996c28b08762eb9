//! The authoritative side of the simulated DNS.
//!
//! [`Authority`] aggregates all zone data of a simulation run: every owner
//! name maps to the [`LoadBalancePolicy`] that picks its addresses. Recursive
//! resolvers send it name queries together with a [`QueryContext`]; it looks
//! the owner name up and emits the selected addresses. Zone cuts, aliases
//! and delegation latency are not modelled — the analysis only depends on
//! *which addresses* come back, not on how many referrals it took to find
//! them.

use crate::loadbalance::LoadBalancePolicy;
use crate::query::QueryContext;
use netsim_types::{DomainName, FnvHashMap, IpAddr};
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
    /// Owner name → address-selection policy.
    entries: FnvHashMap<DomainName, LoadBalancePolicy>,
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
    /// [`Authority::insert`]).
    pub fn with_base(base: Arc<Authority>) -> Self {
        Authority { entries: FnvHashMap::default(), base: Some(base) }
    }

    /// Empty the local layer, keeping its capacity, and layer it over `base`
    /// (or over nothing): how a recycled environment starts its next build.
    pub fn reset(&mut self, base: Option<Arc<Authority>>) {
        self.entries.clear();
        self.base = base;
    }

    /// Insert (or replace) the policy answering for `name`. This is the
    /// common path for the population generator.
    pub fn insert(&mut self, name: DomainName, policy: LoadBalancePolicy) {
        debug_assert!(
            self.base.as_ref().is_none_or(|base| !base.knows(&name)),
            "layered authority inserted {name}, which the shared base already answers"
        );
        self.entries.insert(name, policy);
    }

    /// Number of owner names in the local layer.
    pub fn name_count(&self) -> usize {
        self.entries.len()
    }

    /// Answer a query: append the addresses `name`'s policy selects under
    /// `ctx` to `out` and return `true`, or return `false` (NXDOMAIN) when
    /// no layer has an entry for `name`. The resolver hot path passes its
    /// answer buffer, so a lookup allocates nothing.
    pub fn addresses_into(&self, name: &DomainName, ctx: &QueryContext, out: &mut Vec<IpAddr>) -> bool {
        // Layered authorities keep the (small, densely hit) shared service
        // entries in the base and the per-site entries locally; the name
        // sets are disjoint, so probe the base first.
        if self.base.as_ref().is_some_and(|base| base.addresses_into(name, ctx, out)) {
            return true;
        }
        match self.entries.get(name) {
            Some(policy) => {
                policy.select_each(name, ctx, |ip| out.push(ip));
                true
            }
            None => false,
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
    use crate::query::ResolverId;
    use netsim_types::Instant;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn authority() -> Authority {
        let mut auth = Authority::new();
        auth.insert(d("example.com"), LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 1)));
        auth.insert(d("www.example.com"), LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 2)));
        auth.insert(d("cdn.provider.net"), LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 7)));
        auth
    }

    fn addresses(auth: &Authority, name: &str) -> Option<Vec<IpAddr>> {
        let ctx = QueryContext::new(ResolverId(0), Instant::EPOCH);
        let mut out = Vec::new();
        auth.addresses_into(&d(name), &ctx, &mut out).then_some(out)
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
    fn query_returns_addresses_or_nxdomain() {
        let auth = authority();
        assert_eq!(addresses(&auth, "example.com"), Some(vec![IpAddr::new(192, 0, 2, 1)]));
        assert_eq!(addresses(&auth, "www.example.com"), Some(vec![IpAddr::new(192, 0, 2, 2)]));
        assert_eq!(addresses(&auth, "nothing.example.org"), None);
        // Name under a known zone but without an entry: NXDOMAIN.
        assert_eq!(addresses(&auth, "mail.example.com"), None);
    }

    #[test]
    fn layered_lookups_probe_the_base_then_the_local_layer() {
        let mut base = Authority::new();
        base.insert(d("shared.net"), LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 1)));
        let mut layered = Authority::with_base(Arc::new(base));
        layered.insert(d("site.com"), LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 9)));
        assert_eq!(layered.name_count(), 1);
        assert_eq!(addresses(&layered, "shared.net"), Some(vec![IpAddr::new(198, 51, 100, 1)]));
        assert_eq!(addresses(&layered, "site.com"), Some(vec![IpAddr::new(192, 0, 2, 9)]));
        assert_eq!(addresses(&layered, "other.com"), None);
    }
}
