//! Recursive resolvers with TTL caches.
//!
//! The browser in the measurement setup uses "our own recursive resolver";
//! the Appendix A.4 probe uses 14 public resolvers spread around the world.
//! Two properties of recursive resolvers matter for the paper's findings:
//!
//! 1. **Caches desynchronise answers.** Two domains pointing at the same
//!    load-balanced pool can be cached at different times, so even a single
//!    resolver can hold non-overlapping answers for them.
//! 2. **Resolver identity is part of the load-balancing key.** Authorities
//!    that hash by resolver hand different pool members to different
//!    resolvers, so the resolver a browser uses changes what it connects to.

use crate::authority::Authority;
use crate::query::{QueryContext, ResolverId};
use netsim_types::{DomainName, Duration, FnvHashMap, Instant, IpAddr};
use serde::{Deserialize, Serialize};

/// The TTL of every address answer (5 minutes, a common value for
/// load-balanced names). A resolver caches an answer for exactly this long.
pub const ANSWER_TTL: Duration = Duration::from_secs(300);

/// The answer a resolver hands back to a client for an address query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The addresses, in the order the authority returned them. Browsers
    /// typically connect to the first address.
    pub addresses: Vec<IpAddr>,
    /// When a cached copy of this answer must be discarded.
    pub expires_at: Instant,
}

impl Answer {
    /// The address a client will connect to (the first one), if any.
    pub fn primary_address(&self) -> Option<IpAddr> {
        self.addresses.first().copied()
    }

    /// `true` if `self` and `other` share at least one address — the overlap
    /// criterion of the Appendix A.4 probe.
    pub fn overlaps(&self, other: &Answer) -> bool {
        self.addresses.iter().any(|a| other.addresses.contains(a))
    }

    /// `true` if the answer is still valid at `now`.
    pub fn fresh_at(&self, now: Instant) -> bool {
        now < self.expires_at
    }
}

/// Errors a resolution can produce.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolutionError {
    /// No authoritative addresses exist for the name.
    NxDomain(DomainName),
}

impl std::fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolutionError::NxDomain(d) => write!(f, "NXDOMAIN for {d}"),
        }
    }
}

impl std::error::Error for ResolutionError {}

/// A caching recursive resolver.
///
/// The cache is allocation-recycling: flushing it (which the browser does
/// between every page visit) returns the cached answers' buffers to an
/// internal pool instead of freeing them, so a resolver that is reused across
/// thousands of visits performs **zero steady-state heap allocations** — the
/// property the visit fast path (`netsim_browser::VisitScratch`) depends on.
/// [`RecursiveResolver::resolve`] accordingly hands out a *borrow* of the
/// cached answer rather than a clone.
#[derive(Clone, Debug)]
pub struct RecursiveResolver {
    /// Stable identity, part of the authoritative load-balancing key.
    id: ResolverId,
    cache: FnvHashMap<DomainName, Answer>,
    /// Recycled address buffers from flushed cache lines.
    pool: Vec<Vec<IpAddr>>,
    /// Scratch buffer of names collected by [`RecursiveResolver::expire_stale`]
    /// (reused across sweeps).
    expired: Vec<DomainName>,
    /// Cumulative statistics, exposed for tests and reports.
    stats: ResolverStats,
}

/// Counters describing a resolver's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolverStats {
    /// Queries answered from cache.
    pub cache_hits: u64,
    /// Queries that required contacting the authority.
    pub cache_misses: u64,
    /// Authority queries performed by recursive walks — exactly one per walk
    /// (the latency unit the cost model charges); an injected failure never
    /// reaches the authority.
    pub authority_queries: u64,
    /// Resolutions that ended in an error.
    pub failures: u64,
}

impl RecursiveResolver {
    /// Create a resolver with identity `id`.
    pub fn new(id: ResolverId) -> Self {
        RecursiveResolver {
            id,
            cache: FnvHashMap::default(),
            pool: Vec::new(),
            expired: Vec::new(),
            stats: ResolverStats::default(),
        }
    }

    /// The resolver's identity.
    pub fn id(&self) -> ResolverId {
        self.id
    }

    /// Activity counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Number of cached names.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Record a resolution failure injected by a fault model (a simulated
    /// SERVFAIL / lost query drawn *outside* the resolver, before any
    /// authority walk runs). Counts as a cache miss that failed, so
    /// [`RecursiveResolver::stats`] stays the single source of truth for the
    /// visit fast path's DNS accounting: nothing is cached and no authority
    /// queries are charged — the failure happened on the way there.
    pub fn note_injected_failure(&mut self) {
        self.stats.cache_misses += 1;
        self.stats.failures += 1;
    }

    /// Drop every cached answer (the measurement methodology resets caches
    /// between site visits). The answers' buffers are recycled into an
    /// internal pool so subsequent resolutions reuse them.
    pub fn flush_cache(&mut self) {
        for (_, answer) in self.cache.drain() {
            self.pool.push(recycled(answer));
        }
    }

    /// Drop only the cached answers whose TTL has passed at `now`, recycling
    /// their buffers. This is the *session* cache discipline: a multi-page
    /// user session carries its DNS cache across navigations (unlike the
    /// measurement methodology's per-visit flush) and sweeps expired lines at
    /// page boundaries. [`RecursiveResolver::resolve`] re-checks freshness on
    /// every lookup anyway, so the sweep only bounds cache growth and keeps
    /// [`RecursiveResolver::cache_len`] an honest live-entry count.
    pub fn expire_stale(&mut self, now: Instant) {
        self.expired.clear();
        for (name, answer) in self.cache.iter() {
            if !answer.fresh_at(now) {
                self.expired.push(*name);
            }
        }
        for index in 0..self.expired.len() {
            if let Some(answer) = self.cache.remove(&self.expired[index]) {
                self.pool.push(recycled(answer));
            }
        }
    }

    /// Resolve `name` to addresses at simulated time `now`, consulting the
    /// cache first and querying `authority` otherwise.
    ///
    /// Returns a borrow of the cached answer; clone it only if it must
    /// outlive the next call on this resolver.
    pub fn resolve(
        &mut self,
        authority: &Authority,
        name: &DomainName,
        now: Instant,
    ) -> Result<&Answer, ResolutionError> {
        if self.cache.get(name).is_some_and(|answer| answer.fresh_at(now)) {
            self.stats.cache_hits += 1;
            return Ok(self.cache.get(name).expect("entry just checked"));
        }
        self.stats.cache_misses += 1;
        self.stats.authority_queries += 1;
        let mut addresses = self.pool.pop().unwrap_or_default();
        authority.addresses_into(name, &QueryContext::new(self.id, now), &mut addresses);
        if addresses.is_empty() {
            self.pool.push(addresses);
            self.stats.failures += 1;
            return Err(ResolutionError::NxDomain(*name));
        }
        // Replacing a stale line recycles its buffer first.
        if let Some(stale) = self.cache.remove(name) {
            self.pool.push(recycled(stale));
        }
        Ok(self.cache.entry(*name).or_insert(Answer { addresses, expires_at: now + ANSWER_TTL }))
    }
}

/// An answer's address buffer, emptied for reuse.
fn recycled(answer: Answer) -> Vec<IpAddr> {
    let mut addresses = answer.addresses;
    addresses.clear();
    addresses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalance::{AddressRun, LoadBalancePolicy};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn resolver() -> RecursiveResolver {
        RecursiveResolver::new(ResolverId(1))
    }

    fn authority() -> Authority {
        let mut auth = Authority::new();
        auth.insert(d("example.com"), LoadBalancePolicy::single(IpAddr::new(192, 0, 2, 1)));
        auth.insert(
            d("empty.example.com"),
            LoadBalancePolicy::Static { addresses: AddressRun::new(IpAddr::new(192, 0, 2, 0), 0) },
        );
        auth.insert(
            d("lb.example.com"),
            LoadBalancePolicy::PerResolverPool {
                pool: AddressRun::new(IpAddr::new(10, 0, 0, 0), 16),
                answer_size: 1,
                epoch: Duration::from_secs(60),
            },
        );
        auth
    }

    #[test]
    fn resolves_addresses_with_the_fixed_ttl() {
        let auth = authority();
        let mut r = resolver();
        let t0 = Instant::from_millis(1_000);
        let answer = r.resolve(&auth, &d("example.com"), t0).unwrap();
        assert_eq!(answer.primary_address(), Some(IpAddr::new(192, 0, 2, 1)));
        assert_eq!(answer.expires_at, t0 + ANSWER_TTL);
        assert_eq!(r.id(), ResolverId(1));
    }

    #[test]
    fn unknown_names_and_empty_answers_are_nxdomain() {
        let auth = authority();
        let mut r = resolver();
        assert_eq!(
            r.resolve(&auth, &d("nx.invalid"), Instant::EPOCH),
            Err(ResolutionError::NxDomain(d("nx.invalid")))
        );
        assert_eq!(
            r.resolve(&auth, &d("empty.example.com"), Instant::EPOCH),
            Err(ResolutionError::NxDomain(d("empty.example.com")))
        );
        assert_eq!(r.stats().failures, 2);
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn injected_failures_count_as_failed_misses_without_authority_traffic() {
        let mut r = resolver();
        r.note_injected_failure();
        r.note_injected_failure();
        let stats = r.stats();
        assert_eq!(stats.failures, 2);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.authority_queries, 0);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn cache_hit_until_ttl_expires() {
        let auth = authority();
        let mut r = resolver();
        let t0 = Instant::EPOCH;
        let first = r.resolve(&auth, &d("lb.example.com"), t0).unwrap().clone();
        // Within the TTL: cached, identical answer even though later
        // load-balancer epochs would pick other members.
        for secs in [61, 181, 299] {
            let cached = r.resolve(&auth, &d("lb.example.com"), t0 + Duration::from_secs(secs)).unwrap();
            assert_eq!(first.addresses, cached.addresses);
        }
        assert_eq!(r.stats().cache_hits, 3);
        assert_eq!(r.stats().cache_misses, 1);
        // After expiry the authority is asked again, in a later epoch.
        let refreshed = r.resolve(&auth, &d("lb.example.com"), t0 + ANSWER_TTL).unwrap();
        assert_eq!(refreshed.expires_at, t0 + ANSWER_TTL + ANSWER_TTL);
        assert_eq!(r.stats().cache_misses, 2);
    }

    #[test]
    fn every_recursive_walk_is_one_authority_query() {
        let auth = authority();
        let mut r = resolver();
        r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap();
        assert_eq!(r.stats().authority_queries, 1);
        // A cache hit performs no authority query at all.
        r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap();
        assert_eq!(r.stats().authority_queries, 1);
        assert_eq!(r.stats().cache_hits, 1);
        // A failed walk still asked the authority once.
        let _ = r.resolve(&auth, &d("nx.invalid"), Instant::EPOCH);
        assert_eq!(r.stats().authority_queries, 2);
        assert_eq!(r.stats().cache_misses, 2);
    }

    #[test]
    fn flush_cache_forces_requery() {
        let auth = authority();
        let mut r = resolver();
        r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap();
        assert_eq!(r.cache_len(), 1);
        r.flush_cache();
        assert_eq!(r.cache_len(), 0);
        r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap();
        assert_eq!(r.stats().cache_misses, 2);
    }

    #[test]
    fn expire_stale_drops_only_expired_lines_and_recycles_buffers() {
        let auth = authority();
        let mut r = resolver();
        let t0 = Instant::EPOCH;
        // Two lines cached 200 s apart.
        let stale_ptr = r.resolve(&auth, &d("lb.example.com"), t0).unwrap().addresses.as_ptr();
        let t1 = t0 + Duration::from_secs(200);
        r.resolve(&auth, &d("example.com"), t1).unwrap();
        assert_eq!(r.cache_len(), 2);
        // Once the first TTL has passed only the lb line has expired.
        let t2 = t0 + ANSWER_TTL;
        r.expire_stale(t2);
        assert_eq!(r.cache_len(), 1);
        // The fresh line still serves from cache...
        r.resolve(&auth, &d("example.com"), t2).unwrap();
        assert_eq!(r.stats().cache_hits, 1);
        // ...and re-resolving the expired name reuses the recycled buffer.
        let reused_ptr = r.resolve(&auth, &d("lb.example.com"), t2).unwrap().addresses.as_ptr();
        assert_eq!(stale_ptr, reused_ptr, "expire_stale must recycle buffers into the pool");
        // A sweep with nothing expired is a no-op.
        r.expire_stale(t2 + Duration::from_secs(1));
        assert_eq!(r.cache_len(), 2);
    }

    #[test]
    fn cache_hits_borrow_the_same_answer_without_cloning() {
        let auth = authority();
        let mut r = resolver();
        let t0 = Instant::EPOCH;
        let first_ptr = r.resolve(&auth, &d("lb.example.com"), t0).unwrap().addresses.as_ptr();
        // A fresh cache hit must hand back the very same buffer — no clone.
        let hit_ptr = r.resolve(&auth, &d("lb.example.com"), t0).unwrap().addresses.as_ptr();
        assert_eq!(first_ptr, hit_ptr, "cache hit must borrow, not clone, the cached answer");
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn flush_recycles_answer_buffers_into_the_pool() {
        let auth = authority();
        let mut r = resolver();
        // Warm the cache, flush it, resolve again: the second resolution must
        // reuse the pooled buffer instead of allocating a new one.
        let warm_ptr = r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap().addresses.as_ptr();
        r.flush_cache();
        assert_eq!(r.cache_len(), 0);
        let reused_ptr = r.resolve(&auth, &d("example.com"), Instant::EPOCH).unwrap().addresses.as_ptr();
        assert_eq!(warm_ptr, reused_ptr, "flush must recycle answer buffers for reuse");
        assert_eq!(r.stats().cache_misses, 2);
    }

    #[test]
    fn two_resolvers_can_hold_different_answers() {
        // The unsynchronized pool hands different members to different
        // resolver ids — the mechanism behind the paper's IP cause.
        let mut auth = Authority::new();
        auth.insert(
            d("www.google-analytics.com"),
            LoadBalancePolicy::PerResolverPool {
                pool: AddressRun::new(IpAddr::new(142, 250, 74, 0), 32),
                answer_size: 1,
                epoch: Duration::from_mins(30),
            },
        );
        let mut r1 = RecursiveResolver::new(ResolverId(1));
        let mut r2 = RecursiveResolver::new(ResolverId(2));
        let a1 = r1.resolve(&auth, &d("www.google-analytics.com"), Instant::EPOCH).unwrap();
        let a2 = r2.resolve(&auth, &d("www.google-analytics.com"), Instant::EPOCH).unwrap();
        assert_ne!(a1.addresses, a2.addresses);
        // But both stay within the same /24 — the paper's observation.
        assert_eq!(a1.primary_address().unwrap().prefix(24), a2.primary_address().unwrap().prefix(24));
    }

    #[test]
    fn answer_overlap_and_freshness() {
        let base = Answer {
            addresses: vec![IpAddr::new(10, 0, 0, 1), IpAddr::new(10, 0, 0, 2)],
            expires_at: Instant::from_millis(10_000),
        };
        let overlapping = Answer { addresses: vec![IpAddr::new(10, 0, 0, 2)], expires_at: base.expires_at };
        let disjoint = Answer { addresses: vec![IpAddr::new(10, 0, 0, 9)], expires_at: base.expires_at };
        assert!(base.overlaps(&overlapping));
        assert!(!base.overlaps(&disjoint));
        assert_eq!(base.primary_address(), Some(IpAddr::new(10, 0, 0, 1)));
        assert!(base.fresh_at(Instant::from_millis(9_999)));
        assert!(!base.fresh_at(Instant::from_millis(10_000)));
    }
}
