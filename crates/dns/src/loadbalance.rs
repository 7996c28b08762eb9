//! Answer-selection (load-balancing) policies for authoritative zones.
//!
//! Section 5.3.1 of the paper attributes most `IP`-cause redundancy to
//! *unsynchronized* DNS load balancing: each domain of a provider is balanced
//! independently, so `www.googletagmanager.com` and `www.google-analytics.com`
//! land on different members of the same address pool even though either host
//! could serve both. The policies below are the three the generated web
//! deploys: fully static answers, per-resolver, per-domain, time-varying
//! selections — and a `SynchronizedPool` policy representing the fix the
//! paper suggests (same CNAME / anycast address for all of a provider's
//! domains).
//!
//! All selections are **deterministic** functions of the pool, the domain and
//! the [`QueryContext`], so simulation runs are reproducible.

use crate::query::QueryContext;
use netsim_types::{DomainName, Duration, IpAddr};

/// A run of consecutive addresses: `first` and the `len - 1` addresses after
/// it. Every answer list and pool the generated web deploys is consecutive
/// hosts of one prefix, so a policy holds its addresses without a heap list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressRun {
    /// The first address of the run.
    pub first: IpAddr,
    /// Number of addresses in the run.
    pub len: u32,
}

impl AddressRun {
    /// The run of `len` addresses starting at `first`.
    pub const fn new(first: IpAddr, len: u32) -> Self {
        AddressRun { first, len }
    }

    /// The `index`-th address of the run.
    fn get(self, index: usize) -> IpAddr {
        self.first.offset(index as u32)
    }
}

/// How an authoritative server picks the A records it returns for a domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadBalancePolicy {
    /// Always return the same address list. Small single-host sites.
    Static {
        /// The fixed answer.
        addresses: AddressRun,
    },
    /// Each (resolver, domain, time-bucket) triple is hashed to an offset into
    /// the pool — answers differ between resolvers and between domains even
    /// at the same instant. This is the *unsynchronized* behaviour behind the
    /// paper's Google-Analytics/Tag-Manager and Facebook findings.
    PerResolverPool {
        /// Candidate addresses.
        pool: AddressRun,
        /// Number of addresses per answer.
        answer_size: usize,
        /// Assignment stability: how long one resolver keeps getting the same
        /// offset before being re-hashed.
        epoch: Duration,
    },
    /// Like [`LoadBalancePolicy::PerResolverPool`] but the hash ignores the
    /// domain, so every domain of the provider served by this policy resolves
    /// to the *same* pool members for a given resolver and epoch — the
    /// "synchronized"/anycast-style deployment the paper recommends.
    SynchronizedPool {
        /// Candidate addresses.
        pool: AddressRun,
        /// Number of addresses per answer.
        answer_size: usize,
        /// Assignment stability window.
        epoch: Duration,
    },
}

impl LoadBalancePolicy {
    /// A static single-address policy.
    pub fn single(address: IpAddr) -> Self {
        LoadBalancePolicy::Static { addresses: AddressRun::new(address, 1) }
    }

    /// Select the answer addresses for `domain` under context `ctx`: call
    /// `emit` once per selected address, in answer order. A selection is
    /// never longer than the pool and never empty unless the pool itself is
    /// empty.
    pub fn select_each<F: FnMut(IpAddr)>(&self, domain: &DomainName, ctx: &QueryContext, mut emit: F) {
        match self {
            LoadBalancePolicy::Static { addresses } => {
                for index in 0..addresses.len as usize {
                    emit(addresses.get(index));
                }
            }
            LoadBalancePolicy::PerResolverPool { pool, answer_size, epoch } => {
                let bucket = time_bucket(ctx, *epoch);
                let h = mix(domain.text_hash() ^ ((ctx.resolver.0 as u64) << 32) ^ bucket);
                emit_wrapped(*pool, h as usize, *answer_size, &mut emit);
            }
            LoadBalancePolicy::SynchronizedPool { pool, answer_size, epoch } => {
                let bucket = time_bucket(ctx, *epoch);
                let h = mix(((ctx.resolver.0 as u64) << 32) ^ bucket);
                emit_wrapped(*pool, h as usize, *answer_size, &mut emit);
            }
        }
    }

    /// The synchronized-DNS mitigation applied to this policy: an
    /// unsynchronized [`LoadBalancePolicy::PerResolverPool`] becomes a
    /// [`LoadBalancePolicy::SynchronizedPool`] over the same pool (the
    /// per-domain hash is dropped, so co-hosted domains land on the same
    /// member). A static policy is already domain-agnostic and is returned
    /// unchanged.
    #[must_use]
    pub fn synchronized(self) -> LoadBalancePolicy {
        match self {
            LoadBalancePolicy::PerResolverPool { pool, answer_size, epoch } => {
                LoadBalancePolicy::SynchronizedPool { pool, answer_size, epoch }
            }
            other => other,
        }
    }
}

/// The rotation / epoch bucket for a query time.
fn time_bucket(ctx: &QueryContext, period: Duration) -> u64 {
    let period = period.as_millis().max(1);
    ctx.now.as_millis() / period
}

/// Emit `count` pool members starting at `offset`, wrapping around.
fn emit_wrapped<F: FnMut(IpAddr)>(pool: AddressRun, offset: usize, count: usize, emit: &mut F) {
    let len = pool.len as usize;
    if len == 0 {
        return;
    }
    let count = count.clamp(1, len);
    for i in 0..count {
        emit(pool.get((offset + i) % len));
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ResolverId;
    use netsim_types::Instant;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn pool(n: u32) -> AddressRun {
        AddressRun::new(IpAddr::new(142, 250, 74, 0), n)
    }

    fn members(n: u32) -> Vec<IpAddr> {
        (0..n as u8).map(|i| IpAddr::new(142, 250, 74, i)).collect()
    }

    fn ctx(resolver: u32, millis: u64) -> QueryContext {
        QueryContext::new(ResolverId(resolver), Instant::from_millis(millis))
    }

    fn select(policy: &LoadBalancePolicy, domain: &str, ctx: &QueryContext) -> Vec<IpAddr> {
        let mut addresses = Vec::new();
        policy.select_each(&d(domain), ctx, |ip| addresses.push(ip));
        addresses
    }

    #[test]
    fn static_policy_is_constant() {
        let p = LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 1));
        assert_eq!(select(&p, "x.example", &ctx(0, 0)), vec![IpAddr::new(192, 0, 2, 1)]);
        assert_eq!(select(&p, "y.example", &ctx(5, 999_999)), vec![IpAddr::new(192, 0, 2, 1)]);
    }

    #[test]
    fn synchronizing_drops_the_per_domain_hash_only() {
        let epoch = Duration::from_mins(10);
        let unsync = LoadBalancePolicy::PerResolverPool { pool: pool(8), answer_size: 1, epoch };
        let synced = unsync.synchronized();
        assert_eq!(synced, LoadBalancePolicy::SynchronizedPool { pool: pool(8), answer_size: 1, epoch });
        // Synchronized answers agree across domains for the same context.
        let c = ctx(3, 1_000);
        assert_eq!(select(&synced, "a.example", &c), select(&synced, "b.example", &c));
        // Static policies are unchanged.
        let stat = LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 7));
        assert_eq!(stat.synchronized(), stat);
    }

    #[test]
    fn per_resolver_pool_differs_across_domains_resolvers_and_epochs() {
        let p = LoadBalancePolicy::PerResolverPool {
            pool: pool(16),
            answer_size: 1,
            epoch: Duration::from_mins(30),
        };
        let ga = select(&p, "www.google-analytics.com", &ctx(1, 0));
        let gtm = select(&p, "www.googletagmanager.com", &ctx(1, 0));
        assert_ne!(ga, gtm, "independent per-domain balancing");
        let ga_other_resolver = select(&p, "www.google-analytics.com", &ctx(2, 0));
        assert_ne!(ga, ga_other_resolver, "independent per-resolver balancing");
        // deterministic within the epoch, re-hashed in the next one
        assert_eq!(ga, select(&p, "www.google-analytics.com", &ctx(1, 100)));
        let next_epoch = (1..8u64)
            .map(|epoch| select(&p, "www.google-analytics.com", &ctx(1, epoch * 30 * 60_000)))
            .find(|answer| *answer != ga);
        assert!(next_epoch.is_some(), "later epochs re-hash the assignment");
    }

    #[test]
    fn synchronized_pool_is_domain_agnostic() {
        let p = LoadBalancePolicy::SynchronizedPool {
            pool: pool(16),
            answer_size: 1,
            epoch: Duration::from_mins(30),
        };
        let a = select(&p, "www.google-analytics.com", &ctx(1, 0));
        let b = select(&p, "www.googletagmanager.com", &ctx(1, 0));
        assert_eq!(a, b, "synchronized: all domains land on the same address");
    }

    #[test]
    fn answer_size_is_clamped_and_empty_pool_is_empty() {
        let p = LoadBalancePolicy::SynchronizedPool {
            pool: pool(3),
            answer_size: 10,
            epoch: Duration::from_secs(60),
        };
        assert_eq!(select(&p, "x.example", &ctx(0, 0)).len(), 3);
        let empty = LoadBalancePolicy::PerResolverPool {
            pool: pool(0),
            answer_size: 2,
            epoch: Duration::from_secs(60),
        };
        assert!(select(&empty, "x.example", &ctx(0, 0)).is_empty());
        let zero = LoadBalancePolicy::PerResolverPool {
            pool: pool(3),
            answer_size: 0,
            epoch: Duration::from_secs(60),
        };
        assert_eq!(select(&zero, "x.example", &ctx(0, 0)).len(), 1);
    }

    #[test]
    fn answers_come_from_the_pool() {
        let p = LoadBalancePolicy::PerResolverPool {
            pool: pool(16),
            answer_size: 2,
            epoch: Duration::from_mins(5),
        };
        for r in 0..20 {
            for addr in select(&p, "cdn.example", &ctx(r, 1234)) {
                assert!(members(16).contains(&addr));
            }
        }
    }
}
