//! `Authority` answers every query exactly as the longest-suffix zone walk it
//! replaced: one zone per registrable domain, a query walks from the name
//! towards the root and the first zone apex found answers for the name (or
//! answers NXDOMAIN when that zone has no entry). The walk is kept here as
//! the reference, over random `insert` sets that mix multi-label public
//! suffixes, names under a known apex without an entry, empty answers, and a
//! shared base layered under a local one.

use netsim_dns::{
    AddressRun, Authority, LoadBalancePolicy, QueryContext, RecursiveResolver, ResolutionError, ResolverId,
};
use netsim_types::{DomainName, Duration, Instant, IpAddr};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Multi-label public suffixes among the generated names; every other
/// name's public suffix is its last label.
const MULTI_LABEL_SUFFIXES: [&str; 1] = ["co.uk"];

/// The registrable domain: the public suffix plus one label, or the name
/// itself when it has no label ahead of its suffix.
fn registrable(name: &DomainName) -> DomainName {
    let text = name.to_string();
    let multi = MULTI_LABEL_SUFFIXES.iter().any(|suffix| text.ends_with(&format!(".{suffix}")));
    let labels: Vec<&str> = text.split('.').collect();
    let keep = labels.len().min(if multi { 3 } else { 2 });
    DomainName::literal(&labels[labels.len() - keep..].join("."))
}

/// The parent domain, or `None` for a single-label name: interned from the
/// name's text.
fn parent(name: &DomainName) -> Option<DomainName> {
    name.to_string().split_once('.').map(|(_, parent)| DomainName::literal(parent))
}

/// The pre-index authority: zones keyed by the registrable domain of the
/// names they hold, queried by walking up the parents until an apex
/// matches.
#[derive(Default)]
struct ZoneWalk {
    zones: BTreeMap<DomainName, BTreeMap<DomainName, LoadBalancePolicy>>,
    base: Option<Arc<ZoneWalk>>,
}

impl ZoneWalk {
    fn insert(&mut self, name: DomainName, policy: LoadBalancePolicy) {
        self.zones.entry(registrable(&name)).or_default().insert(name, policy);
    }

    fn zone_for(&self, name: &DomainName) -> Option<&BTreeMap<DomainName, LoadBalancePolicy>> {
        let mut candidate = Some(*name);
        while let Some(current) = candidate {
            if let Some(zone) = self.zones.get(&current) {
                return Some(zone);
            }
            candidate = parent(&current);
        }
        None
    }

    /// The selected addresses, or `None` (NXDOMAIN) when no layer's zone
    /// has an entry for `name`.
    fn query(&self, name: &DomainName, ctx: &QueryContext) -> Option<Vec<IpAddr>> {
        if let Some(addresses) = self.base.as_ref().and_then(|base| base.query(name, ctx)) {
            return Some(addresses);
        }
        let policy = self.zone_for(name)?.get(name)?;
        let mut addresses = Vec::new();
        policy.select_each(name, ctx, |ip| addresses.push(ip));
        Some(addresses)
    }

    /// What the resolver reports over the walk: the addresses, or NXDOMAIN
    /// for an unknown name or an empty answer.
    fn resolve(&self, name: &DomainName, ctx: &QueryContext) -> Result<Vec<IpAddr>, ResolutionError> {
        self.query(name, ctx)
            .filter(|addresses| !addresses.is_empty())
            .ok_or(ResolutionError::NxDomain(*name))
    }
}

/// Owner names over a few suffixes, including the multi-label `co.uk`, the
/// bare suffixes themselves and `co.uk` reached as a label under `uk`.
fn universe() -> Vec<DomainName> {
    let mut names = Vec::new();
    for suffix in ["com", "uk", "co.uk", "net"] {
        for registrable in ["", "a", "b", "co"] {
            for sub in ["", "www", "x.www", "img"] {
                let text: Vec<&str> =
                    [sub, registrable, suffix].into_iter().filter(|p| !p.is_empty()).collect();
                names.push(DomainName::literal(&text.join(".")));
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// One policy drawn from `(kind, value)`: a single address, a
/// multi-address pool (answer order matters), or an empty pool.
fn policy(kind: u8, value: usize) -> LoadBalancePolicy {
    let pool = |size: u32| AddressRun::new(IpAddr::new(10, (value % 200) as u8, 0, 0), size);
    match kind {
        0 => LoadBalancePolicy::single(IpAddr::new(192, 0, 2, (value % 250) as u8)),
        1 => LoadBalancePolicy::SynchronizedPool {
            pool: pool(4),
            answer_size: 2,
            epoch: Duration::from_secs(60),
        },
        2 => LoadBalancePolicy::PerResolverPool {
            pool: pool(6),
            answer_size: 3,
            epoch: Duration::from_mins(10),
        },
        _ => LoadBalancePolicy::Static { addresses: pool(0) },
    }
}

fn contexts() -> Vec<QueryContext> {
    let mut contexts = Vec::new();
    for resolver in [0, 3, 11] {
        for minutes in [0, 7, 95] {
            contexts
                .push(QueryContext::new(ResolverId(resolver), Instant::EPOCH + Duration::from_mins(minutes)));
        }
    }
    contexts
}

/// Insert the drawn entries into both authorities. With `base_share > 0`
/// the first `base_share` picks go to a shared base and the rest to a local
/// layer over it (skipping names the base holds: the layers are disjoint).
fn build(picks: &[(usize, u8, usize)], base_share: usize) -> (Authority, ZoneWalk) {
    let names = universe();
    let split = base_share.min(picks.len());
    let (base_picks, local_picks) = picks.split_at(split);
    let mut base = Authority::new();
    let mut base_walk = ZoneWalk::default();
    for &(name, kind, value) in base_picks {
        base.insert(names[name % names.len()], policy(kind, value));
        base_walk.insert(names[name % names.len()], policy(kind, value));
    }
    let (mut authority, mut walk) = if base_share > 0 {
        (
            Authority::with_base(Arc::new(base)),
            ZoneWalk { base: Some(Arc::new(base_walk)), ..ZoneWalk::default() },
        )
    } else {
        (base, base_walk)
    };
    for &(name, kind, value) in local_picks {
        let name = names[name % names.len()];
        if walk
            .base
            .as_ref()
            .is_some_and(|base| base.zone_for(&name).is_some_and(|zone| zone.contains_key(&name)))
        {
            continue;
        }
        authority.insert(name, policy(kind, value));
        walk.insert(name, policy(kind, value));
    }
    (authority, walk)
}

fn assert_equivalent(authority: &Authority, walk: &ZoneWalk, names: &[DomainName]) {
    for name in names {
        for ctx in contexts() {
            let mut addresses = Vec::new();
            let known = authority.addresses_into(name, &ctx, &mut addresses);
            assert_eq!(known.then_some(addresses), walk.query(name, &ctx), "query {name} at {ctx:?}");
        }
    }
}

fn assert_resolves_alike(authority: &Authority, walk: &ZoneWalk, names: &[DomainName]) {
    for ctx in contexts() {
        let mut resolver = RecursiveResolver::new(ctx.resolver);
        for name in names {
            resolver.flush_cache();
            let got = resolver.resolve(authority, name, ctx.now).map(|answer| answer.addresses.clone());
            assert_eq!(got, walk.resolve(name, &ctx), "resolve {name} at {ctx:?}");
        }
    }
}

proptest! {
    #[test]
    fn query_matches_the_longest_suffix_walk(
        picks in prop::collection::vec((0usize..64, 0u8..4, 0usize..1000), 0usize..40),
    ) {
        let (authority, walk) = build(&picks, 0);
        assert_equivalent(&authority, &walk, &universe());
    }

    #[test]
    fn layered_query_matches_the_layered_walk(
        picks in prop::collection::vec((0usize..64, 0u8..4, 0usize..1000), 0usize..40),
        base_share in 1usize..20,
    ) {
        let (authority, walk) = build(&picks, base_share);
        assert_equivalent(&authority, &walk, &universe());
    }

    #[test]
    fn resolution_matches_the_walk(
        picks in prop::collection::vec((0usize..64, 0u8..4, 0usize..1000), 0usize..40),
        base_share in 0usize..20,
    ) {
        let (authority, walk) = build(&picks, base_share);
        assert_resolves_alike(&authority, &walk, &universe());
    }
}

#[test]
fn pinned_suffix_nxdomain_and_layer_cases() {
    let d = DomainName::literal;
    let ctx = QueryContext::new(ResolverId(0), Instant::EPOCH);
    let mut base = Authority::new();
    let mut base_walk = ZoneWalk::default();
    let mut local_walk = ZoneWalk::default();
    let shared = [
        ("cdn.provider.net", LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 7))),
        ("co.uk", LoadBalancePolicy::single(IpAddr::new(198, 51, 100, 8))),
    ];
    for (name, policy) in shared {
        base.insert(d(name), policy);
        base_walk.insert(d(name), policy);
    }
    let mut local = Authority::with_base(Arc::new(base));
    local_walk.base = Some(Arc::new(base_walk));
    let entries = [
        // Multi-label suffix: filed under `shop.co.uk`, not `co.uk`.
        (d("www.shop.co.uk"), LoadBalancePolicy::single(IpAddr::new(203, 0, 113, 1))),
        (d("shop.co.uk"), LoadBalancePolicy::single(IpAddr::new(203, 0, 113, 2))),
        (d("example.com"), LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 1))),
        (
            d("empty.example.com"),
            LoadBalancePolicy::Static { addresses: AddressRun::new(IpAddr::new(203, 0, 113, 0), 0) },
        ),
    ];
    let mut names =
        vec![d("cdn.provider.net"), d("co.uk"), d("mail.example.com"), d("x.shop.co.uk"), d("uk")];
    for (name, policy) in entries {
        names.push(name);
        local.insert(name, policy);
        local_walk.insert(name, policy);
    }
    assert_equivalent(&local, &local_walk, &names);

    let mut resolver = RecursiveResolver::new(ResolverId(0));
    let answer = resolver.resolve(&local, &d("www.shop.co.uk"), ctx.now).unwrap();
    assert_eq!(answer.addresses, vec![IpAddr::new(203, 0, 113, 1)]);
    // The bare suffix answers from the base; a name under a known apex
    // without an entry, or with an empty answer, is NXDOMAIN.
    let answer = resolver.resolve(&local, &d("co.uk"), ctx.now).unwrap();
    assert_eq!(answer.addresses, vec![IpAddr::new(198, 51, 100, 8)]);
    for name in ["mail.example.com", "empty.example.com"] {
        assert_eq!(
            resolver.resolve(&local, &d(name), ctx.now).unwrap_err(),
            ResolutionError::NxDomain(d(name))
        );
    }
    assert_resolves_alike(&local, &local_walk, &names);
}
