//! `Authority` answers every query exactly as the longest-suffix zone walk it
//! replaced: one zone per registrable domain, a query walks from the name
//! towards the root and the first zone apex found answers for the name (or
//! answers NXDOMAIN when that zone has no entry). The walk is kept here as
//! the reference, over random `insert_entry` sets that mix multi-label public
//! suffixes, names under a known apex without an entry, CNAME chains and
//! loops, and a shared base layered under a local one.

use netsim_dns::{
    Authority, LoadBalancePolicy, QueryContext, RecordData, RecursiveResolver, ResolutionError,
    ResolverConfig, ResolverId, ResourceRecord, Vantage, ZoneEntry,
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
    let text = name.as_str();
    let multi = MULTI_LABEL_SUFFIXES.iter().any(|suffix| text.ends_with(&format!(".{suffix}")));
    let labels: Vec<&str> = text.split('.').collect();
    let keep = labels.len().min(if multi { 3 } else { 2 });
    DomainName::literal(&labels[labels.len() - keep..].join("."))
}

/// The parent domain, or `None` for a single-label name.
fn parent(name: &DomainName) -> Option<DomainName> {
    name.parent_str().map(DomainName::literal)
}

/// The pre-index authority: zones keyed by the registrable domain of the
/// names they hold, queried by walking up the parents until an apex
/// matches.
#[derive(Default)]
struct ZoneWalk {
    zones: BTreeMap<DomainName, BTreeMap<DomainName, ZoneEntry>>,
    base: Option<Arc<ZoneWalk>>,
}

impl ZoneWalk {
    fn insert_entry(&mut self, name: DomainName, entry: ZoneEntry) {
        self.zones.entry(registrable(&name)).or_default().insert(name, entry);
    }

    fn zone_for(&self, name: &DomainName) -> Option<&BTreeMap<DomainName, ZoneEntry>> {
        let mut candidate = Some(*name);
        while let Some(current) = candidate {
            if let Some(zone) = self.zones.get(&current) {
                return Some(zone);
            }
            candidate = parent(&current);
        }
        None
    }

    fn query(&self, name: &DomainName, ctx: &QueryContext) -> Vec<ResourceRecord> {
        if let Some(base) = &self.base {
            let records = base.query(name, ctx);
            if !records.is_empty() {
                return records;
            }
        }
        let mut out = Vec::new();
        if let Some(entry) = self.zone_for(name).and_then(|zone| zone.get(name)) {
            entry.records_into(name, ctx, &mut out);
        }
        out
    }

    /// The resolver's CNAME chase (8 hops) over the walk: canonical name,
    /// chain and addresses, or the error the resolver reports.
    fn resolve(
        &self,
        name: &DomainName,
        ctx: &QueryContext,
    ) -> Result<(DomainName, Vec<DomainName>, Vec<IpAddr>), ResolutionError> {
        let mut current = *name;
        let mut chain = Vec::new();
        for _ in 0..8 {
            let records = self.query(&current, ctx);
            match records.first().map(|record| &record.data) {
                None if chain.is_empty() => return Err(ResolutionError::NxDomain(*name)),
                None => return Err(ResolutionError::NoAddress(*name)),
                Some(RecordData::Cname(target)) => {
                    chain.push(*target);
                    current = *target;
                }
                Some(RecordData::A(_)) => {
                    let addresses = records.iter().filter_map(|record| record.data.as_a()).collect();
                    return Ok((current, chain, addresses));
                }
            }
        }
        Err(ResolutionError::CnameLoop(*name))
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

/// One zone entry drawn from `(kind, value)`: a single address, a multi-address
/// pool (answer order matters), an empty pool, or a CNAME to a universe name.
fn entry(kind: u8, value: usize, names: &[DomainName]) -> ZoneEntry {
    let pool = |size: usize| (0..size).map(|i| IpAddr::new(10, (value % 200) as u8, 0, i as u8)).collect();
    match kind {
        0 => ZoneEntry::single(IpAddr::new(192, 0, 2, (value % 250) as u8)),
        1 => ZoneEntry::balanced(LoadBalancePolicy::RotatingPool {
            pool: pool(4),
            answer_size: 2,
            rotation_period: Duration::from_secs(60),
        }),
        2 => ZoneEntry::balanced(LoadBalancePolicy::PerResolverPool {
            pool: pool(6),
            answer_size: 3,
            epoch: Duration::from_mins(10),
        }),
        3 => ZoneEntry::balanced(LoadBalancePolicy::Static { addresses: Vec::new() }),
        _ => ZoneEntry::alias(names[value % names.len()]),
    }
}

fn contexts() -> Vec<QueryContext> {
    let mut contexts = Vec::new();
    for (resolver, vantage) in [(0, Vantage::Europe), (3, Vantage::AsiaPacific), (11, Vantage::NorthAmerica)]
    {
        for minutes in [0, 7, 95] {
            contexts.push(QueryContext::new(
                ResolverId(resolver),
                vantage,
                Instant::EPOCH + Duration::from_mins(minutes),
            ));
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
        base.insert_entry(names[name % names.len()], entry(kind, value, &names));
        base_walk.insert_entry(names[name % names.len()], entry(kind, value, &names));
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
        authority.insert_entry(name, entry(kind, value, &names));
        walk.insert_entry(name, entry(kind, value, &names));
    }
    (authority, walk)
}

fn assert_equivalent(authority: &Authority, walk: &ZoneWalk, names: &[DomainName]) {
    for name in names {
        for ctx in contexts() {
            assert_eq!(authority.query(name, &ctx), walk.query(name, &ctx), "query {name} at {ctx:?}");
        }
    }
}

fn assert_resolves_alike(authority: &Authority, walk: &ZoneWalk, names: &[DomainName]) {
    for ctx in contexts() {
        let mut resolver =
            RecursiveResolver::new(ResolverConfig::new(ctx.resolver, ctx.vantage, "equivalence"));
        for name in names {
            resolver.flush_cache();
            let got = resolver
                .resolve(authority, name, ctx.now)
                .map(|answer| (answer.canonical_name, answer.cname_chain.clone(), answer.addresses.clone()));
            assert_eq!(got, walk.resolve(name, &ctx), "resolve {name} at {ctx:?}");
        }
    }
}

proptest! {
    #[test]
    fn query_matches_the_longest_suffix_walk(
        picks in prop::collection::vec((0usize..64, 0u8..6, 0usize..1000), 0usize..40),
    ) {
        let (authority, walk) = build(&picks, 0);
        assert_equivalent(&authority, &walk, &universe());
    }

    #[test]
    fn layered_query_matches_the_layered_walk(
        picks in prop::collection::vec((0usize..64, 0u8..6, 0usize..1000), 0usize..40),
        base_share in 1usize..20,
    ) {
        let (authority, walk) = build(&picks, base_share);
        assert_equivalent(&authority, &walk, &universe());
    }

    #[test]
    fn cname_chasing_matches_the_walk(
        picks in prop::collection::vec((0usize..64, 0u8..6, 0usize..1000), 0usize..40),
        base_share in 0usize..20,
    ) {
        let (authority, walk) = build(&picks, base_share);
        assert_resolves_alike(&authority, &walk, &universe());
    }
}

#[test]
fn pinned_suffix_nxdomain_chain_loop_and_layer_cases() {
    let d = DomainName::literal;
    let ctx = QueryContext::new(ResolverId(0), Vantage::Europe, Instant::EPOCH);
    let mut base = Authority::new();
    let mut base_walk = ZoneWalk::default();
    let mut local_walk = ZoneWalk::default();
    let shared = [
        ("cdn.provider.net", ZoneEntry::single(IpAddr::new(198, 51, 100, 7))),
        ("co.uk", ZoneEntry::single(IpAddr::new(198, 51, 100, 8))),
    ];
    for (name, entry) in shared {
        base.insert_entry(d(name), entry.clone());
        base_walk.insert_entry(d(name), entry);
    }
    let mut local = Authority::with_base(Arc::new(base));
    local_walk.base = Some(Arc::new(base_walk));
    let mut entries = vec![
        // Multi-label suffix: filed under `shop.co.uk`, not `co.uk`.
        (d("www.shop.co.uk"), ZoneEntry::alias(d("shop.co.uk"))),
        (d("shop.co.uk"), ZoneEntry::alias(d("cdn.provider.net"))),
        (d("example.com"), ZoneEntry::single(IpAddr::new(192, 0, 2, 1))),
    ];
    // A nine-name CNAME ring: longer than the resolver's 8-hop limit.
    let ring: Vec<DomainName> = (0..9).map(|hop| d(&format!("l{hop}.loop.net"))).collect();
    for hop in 0..ring.len() {
        entries.push((ring[hop], ZoneEntry::alias(ring[(hop + 1) % ring.len()])));
    }
    let mut names = vec![d("co.uk"), d("mail.example.com"), d("x.shop.co.uk"), d("uk")];
    for (name, entry) in entries {
        names.push(name);
        local.insert_entry(name, entry.clone());
        local_walk.insert_entry(name, entry);
    }
    assert_equivalent(&local, &local_walk, &names);

    // Two hops through both layers to the base's address.
    let mut resolver = RecursiveResolver::new(ResolverConfig::new(ResolverId(0), Vantage::Europe, "pinned"));
    let answer = resolver.resolve(&local, &d("www.shop.co.uk"), ctx.now).unwrap();
    assert_eq!(answer.cname_chain, vec![d("shop.co.uk"), d("cdn.provider.net")]);
    assert_eq!(answer.addresses, vec![IpAddr::new(198, 51, 100, 7)]);
    // The bare suffix answers from the base; a name under a known apex
    // without an entry is NXDOMAIN.
    assert_eq!(local.query(&d("co.uk"), &ctx)[0].data.as_a(), Some(IpAddr::new(198, 51, 100, 8)));
    assert!(local.query(&d("mail.example.com"), &ctx).is_empty());
    assert_eq!(
        resolver.resolve(&local, &d("mail.example.com"), ctx.now).unwrap_err(),
        ResolutionError::NxDomain(d("mail.example.com"))
    );
    assert_eq!(
        resolver.resolve(&local, &d("l0.loop.net"), ctx.now).unwrap_err(),
        ResolutionError::CnameLoop(d("l0.loop.net"))
    );
    assert_resolves_alike(&local, &local_walk, &names);
}
