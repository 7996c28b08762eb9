//! The first-class HTTP/2 connection pool: the lifecycle layer between the
//! pages of a multi-page user session.
//!
//! Single-page visits treat the set of open connections as visit-local state
//! that dies with the page. Real browsers keep a session pool keyed per
//! `(scheme, host, port)` × credentials partition, and its lifecycle policies
//! — idle timeouts, a max-size cap with LRU eviction, and the server's own
//! lifetime churn — decide how much of a page's setup cost the *next* page
//! gets for free. [`ConnectionPool`] models exactly those three policies:
//!
//! * **Idle timeout** — a connection unused for longer than
//!   [`PoolConfig::idle_timeout`] is closed when the next page starts
//!   ([`netsim_h2::CloseReason::IdleTimeout`]).
//! * **Max-size cap** — after a page's connections are absorbed, the pool
//!   evicts least-recently-used entries down to
//!   [`PoolConfig::max_connections`] ([`netsim_h2::CloseReason::PoolCapacity`]).
//! * **Server lifetime churn** — each newly pooled connection samples the
//!   browser's [`ConnectionDurationModel`] once: with the model's close
//!   probability the server will tear it down `0.5×..2×` the median lifetime
//!   after establishment ([`netsim_h2::CloseReason::ServerLifetime`]).
//!
//! The pool participates in the zero-allocation visit fast path: lending and
//! absorbing move `Connection` values between pre-grown vectors, closed
//! connections land in the scratch's closed list, and eviction decisions
//! are comparisons over `Copy` metadata. Determinism contract: entries are
//! processed in insertion order, the churn draw happens exactly once per
//! connection at absorb time (in establishment order), and the LRU victim
//! order is total — `(last_used_at, established_at, id)` — so an
//! eviction-heavy run is as reproducible as an eviction-free one.

use crate::config::ConnectionDurationModel;
use crate::fault::FaultProfile;
use netsim_h2::{CloseReason, Connection, ConnectionState};
use netsim_types::{ConnectionId, Duration, Instant, SimRng};

/// Lifecycle policy knobs of a [`ConnectionPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum pooled connections; LRU eviction beyond it. Chromium's
    /// per-pool cap is 6 sockets per group / 256 total — the default here is
    /// a small whole-pool cap in the same spirit.
    pub max_connections: usize,
    /// How long an unused connection may sit in the pool before the client
    /// closes it.
    pub idle_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // Chromium keeps idle sockets for ~60 s (10 s if unused-but-fresh
        // sockets are counted separately); 8 pooled connections comfortably
        // covers the median page's origin set.
        PoolConfig { max_connections: 8, idle_timeout: Duration::from_secs(60) }
    }
}

netsim_types::counters! {
    /// Lifecycle counters of one pool (or, merged, of a whole fleet cell).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct PoolLifecycleStats {
        /// Connections newly absorbed into the pool.
        pub inserted: u64,
        /// Connections handed to a page alive (the cross-page reuse supply).
        pub lent: u64,
        /// Connections closed by the client's idle timeout.
        pub idle_expired: u64,
        /// Connections closed by the server's lifetime churn.
        pub lifetime_churned: u64,
        /// LRU victims of the max-size cap.
        pub capacity_evicted: u64,
        /// Connections still pooled when the session ended.
        pub session_closed: u64,
        /// Parked connections that were dead when the session tried to lend
        /// them (the fault model's dead-on-reuse process).
        pub dead_on_reuse: u64,
    }
}

impl PoolLifecycleStats {
    /// Every connection the pool closed, for any reason.
    pub fn closed(&self) -> u64 {
        self.idle_expired
            + self.lifetime_churned
            + self.capacity_evicted
            + self.session_closed
            + self.dead_on_reuse
    }
}

/// One pooled connection plus the lifecycle metadata the policies need.
#[derive(Clone, Debug)]
struct PoolEntry {
    connection: Connection,
    /// End of the last page that sent a request on this connection.
    last_used_at: Instant,
    /// When the server's sampled lifetime tears the connection down;
    /// `None` for the (majority of) connections the server keeps open.
    expires_at: Option<Instant>,
}

/// Metadata retained while a connection is lent to a page's scratch.
#[derive(Clone, Copy, Debug)]
struct LentEntry {
    id: ConnectionId,
    last_used_at: Instant,
    expires_at: Option<Instant>,
    /// `requests_sent` at lend time — if it grew, the page used the
    /// connection and its LRU clock advances to the page end.
    requests_at_lend: u64,
}

/// A session's connection pool. See the module docs for the lifecycle model.
#[derive(Clone, Debug, Default)]
pub struct ConnectionPool {
    config: PoolConfig,
    /// Pooled entries in insertion order (oldest first).
    entries: Vec<PoolEntry>,
    /// Metadata of entries currently lent to a page.
    lent: Vec<LentEntry>,
    stats: PoolLifecycleStats,
}

impl ConnectionPool {
    /// An empty pool with the given lifecycle policy.
    pub fn new(config: PoolConfig) -> Self {
        ConnectionPool { config, entries: Vec::new(), lent: Vec::new(), stats: PoolLifecycleStats::default() }
    }

    /// The pool's lifecycle policy.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Lifecycle counters accumulated so far.
    pub fn stats(&self) -> PoolLifecycleStats {
        self.stats
    }

    /// Number of pooled (not lent) connections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Start a page: move every pooled connection that survives the idle
    /// timeout and the server lifetime at `now` into `connections` (the
    /// page's live set); close the rest and push them onto `closed`.
    ///
    /// Each surviving connection additionally rolls the fault model's
    /// dead-on-reuse process (`faults.dead_on_reuse_ppm`, in insertion order,
    /// off the visit's fault stream — a zero rate consumes no randomness):
    /// a parked connection the server silently hung up on closes here
    /// ([`netsim_h2::CloseReason::DeadOnReuse`]) instead of being lent, and
    /// the page re-dials on first use. Returns how many connections died
    /// this way so the loader can charge the visit timeline.
    ///
    /// Must alternate with [`ConnectionPool::absorb`] — the pool keeps
    /// per-connection metadata aside while its connections are lent out.
    pub fn lend(
        &mut self,
        now: Instant,
        connections: &mut Vec<Connection>,
        closed: &mut Vec<Connection>,
        faults: &FaultProfile,
        rng: &mut SimRng,
    ) -> u64 {
        debug_assert!(self.lent.is_empty(), "lend/absorb must alternate");
        let mut dead = 0;
        for mut entry in self.entries.drain(..) {
            if let Some(expires) = entry.expires_at.filter(|expires| *expires <= now) {
                entry.connection.close_with_reason(expires, CloseReason::ServerLifetime);
                self.stats.lifetime_churned += 1;
                closed.push(entry.connection);
            } else if now.since(entry.last_used_at) > self.config.idle_timeout {
                let closed_at = entry.last_used_at + self.config.idle_timeout;
                entry.connection.close_with_reason(closed_at, CloseReason::IdleTimeout);
                self.stats.idle_expired += 1;
                closed.push(entry.connection);
            } else if rng.chance_ppm(faults.dead_on_reuse_ppm) {
                entry.connection.close_with_reason(now, CloseReason::DeadOnReuse);
                self.stats.dead_on_reuse += 1;
                dead += 1;
                closed.push(entry.connection);
            } else {
                self.stats.lent += 1;
                self.lent.push(LentEntry {
                    id: entry.connection.id,
                    last_used_at: entry.last_used_at,
                    expires_at: entry.expires_at,
                    requests_at_lend: entry.connection.requests_sent,
                });
                connections.push(entry.connection);
            }
        }
        dead
    }

    /// End a page: drain the page's live set back into the pool. Newly
    /// opened connections sample the server-lifetime churn model exactly
    /// once (in establishment order, off the visit's `rng` stream); returning
    /// lent connections keep their original draw. Connections that can no
    /// longer carry streams — or whose sampled lifetime already passed —
    /// close and are pushed onto `closed`, and the pool then evicts LRU
    /// victims down to its max-size cap.
    pub fn absorb(
        &mut self,
        now: Instant,
        connections: &mut Vec<Connection>,
        closed: &mut Vec<Connection>,
        rng: &mut SimRng,
        churn: &ConnectionDurationModel,
    ) {
        for mut connection in connections.drain(..) {
            if connection.state != ConnectionState::Open {
                closed.push(connection);
                continue;
            }
            let returning = self.lent.iter().find(|lent| lent.id == connection.id).copied();
            let (last_used_at, expires_at) = match returning {
                Some(lent) => {
                    let used_this_page = connection.requests_sent > lent.requests_at_lend;
                    (if used_this_page { now } else { lent.last_used_at }, lent.expires_at)
                }
                None => {
                    self.stats.inserted += 1;
                    (now, sample_server_lifetime(rng, churn, connection.established_at))
                }
            };
            if let Some(expires) = expires_at.filter(|expires| *expires <= now) {
                connection.close_with_reason(expires, CloseReason::ServerLifetime);
                self.stats.lifetime_churned += 1;
                closed.push(connection);
                continue;
            }
            self.entries.push(PoolEntry { connection, last_used_at, expires_at });
        }
        self.lent.clear();
        while self.entries.len() > self.config.max_connections {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| {
                    (entry.last_used_at, entry.connection.established_at, entry.connection.id)
                })
                .map(|(index, _)| index);
            // `entries.len() > cap ≥ 0` means the pool is non-empty, so a
            // victim always exists; stay total anyway — a broken invariant
            // must never abort a crawl mid-run.
            let Some(victim) = victim else {
                debug_assert!(false, "pool over capacity is non-empty");
                break;
            };
            let mut entry = self.entries.remove(victim);
            entry.connection.close_with_reason(now, CloseReason::PoolCapacity);
            self.stats.capacity_evicted += 1;
            closed.push(entry.connection);
        }
        // Every closed or still pooled connection was inserted once; a lent
        // connection that died mid-page left without a counter.
        debug_assert!(
            self.stats.closed() + self.entries.len() as u64 <= self.stats.inserted,
            "{:?} with {} pooled",
            self.stats,
            self.entries.len()
        );
    }

    /// End the session: close every pooled connection
    /// ([`netsim_h2::CloseReason::SessionEnd`]) and push it onto `closed`.
    pub fn drain_all(&mut self, now: Instant, closed: &mut Vec<Connection>) {
        debug_assert!(self.lent.is_empty(), "cannot end a session mid-page");
        for mut entry in self.entries.drain(..) {
            entry.connection.close_with_reason(now, CloseReason::SessionEnd);
            self.stats.session_closed += 1;
            closed.push(entry.connection);
        }
    }

    /// Take the accumulated lifecycle counters, resetting them to zero. Take
    /// them between sessions: a connection still pooled would close under
    /// counters that never saw it inserted.
    pub fn take_stats(&mut self) -> PoolLifecycleStats {
        std::mem::take(&mut self.stats)
    }
}

/// One draw of the server-side duration model: `Some(teardown_instant)` with
/// the model's close probability, `None` (server keeps it open) otherwise.
/// The lifetime distribution is a `0.5×..2×`-the-median spread.
///
/// This is **the** lifetime sampler — the single-page loader's post-hoc
/// duration pass and the session pool's absorb both call it, so the two
/// paths draw from the identical distribution in the identical RNG order
/// (`chance`, then `unit` only when the close fires; pinned by
/// `loader::tests::loader_duration_pass_matches_the_pool_sampler`). The
/// pool samples it *once per connection* so the draw is independent of how
/// many pages the connection survives.
pub(crate) fn sample_server_lifetime(
    rng: &mut SimRng,
    churn: &ConnectionDurationModel,
    established_at: Instant,
) -> Option<Instant> {
    match *churn {
        ConnectionDurationModel::KeepOpen => None,
        ConnectionDurationModel::IdleTimeouts { close_probability, median_lifetime_secs } => {
            if rng.chance(close_probability) {
                let factor = 0.5 + rng.unit() * 1.5;
                let lifetime = Duration::from_millis((median_lifetime_secs as f64 * 1000.0 * factor) as u64);
                Some(established_at + lifetime)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented exception to the all-integer virtual clock (see the
    /// determinism-contract section of ARCHITECTURE.md): the lifetime spread
    /// `0.5 + unit() * 1.5` is `f64` math. It is stable anyway — IEEE 754
    /// multiplication/addition are exactly specified, `ChaCha12` produces
    /// identical `unit()` draws from a seed everywhere, and the final
    /// `as u64` cast truncates deterministically — so the sampled
    /// *milliseconds* are bit-identical across platforms. This test pins the
    /// exact values; if it ever fails on some target, the exception has
    /// stopped being safe and the spread must move to integer-millis
    /// sampling (regenerating every golden that records connection closes).
    #[test]
    fn lifetime_sampler_is_bit_stable_across_platforms() {
        let model =
            ConnectionDurationModel::IdleTimeouts { close_probability: 1.0, median_lifetime_secs: 122 };
        let mut rng = SimRng::new(42);
        let drawn: Vec<u64> = (0..5)
            .map(|_| {
                let closed = sample_server_lifetime(&mut rng, &model, Instant::EPOCH)
                    .expect("close_probability 1.0 always closes");
                (closed - Instant::EPOCH).as_millis()
            })
            .collect();
        assert_eq!(drawn, vec![116_528, 151_353, 105_206, 206_386, 202_719]);

        // KeepOpen consumes no randomness at all: the stream is exactly
        // where the draws above left it.
        let mut probe = rng.clone();
        assert_eq!(
            sample_server_lifetime(&mut rng, &ConnectionDurationModel::KeepOpen, Instant::EPOCH),
            None
        );
        assert_eq!(rng.unit().to_bits(), probe.unit().to_bits());
    }
    use netsim_tls::{Certificate, CertificateStore, IssuancePolicy, Issuer};
    use netsim_types::{DomainName, IpAddr, Origin};
    use std::sync::Arc;

    fn certificate(domain: &str) -> Arc<Certificate> {
        let mut store = CertificateStore::new();
        let names = vec![DomainName::literal(domain)];
        store.issue_with_policy(&Issuer::digicert(), &IssuancePolicy::SharedSan, &names, Instant::EPOCH);
        Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap())
    }

    fn connection(id: u64, domain: &str, established_ms: u64) -> Connection {
        Connection::establish(
            ConnectionId(id),
            Origin::https(DomainName::literal(domain)),
            IpAddr::new(10, 0, 0, id as u8),
            certificate(domain),
            true,
            Instant::from_millis(established_ms),
        )
    }

    fn absorb_fresh(pool: &mut ConnectionPool, now: Instant, fresh: Vec<Connection>) -> Vec<Connection> {
        let mut connections = fresh;
        let mut closed = Vec::new();
        let mut rng = SimRng::new(7);
        pool.absorb(now, &mut connections, &mut closed, &mut rng, &ConnectionDurationModel::KeepOpen);
        closed
    }

    #[test]
    fn idle_timeout_closes_on_lend_and_hides_from_find() {
        let config = PoolConfig { max_connections: 8, idle_timeout: Duration::from_secs(10) };
        let mut pool = ConnectionPool::new(config);
        absorb_fresh(&mut pool, Instant::from_millis(1_000), vec![connection(1, "www.example.com", 0)]);

        // Past the timeout: not lent to the page (hidden from its reuse
        // scan) but closed, with the idle reason, at the timeout instant.
        let mut live = Vec::new();
        let mut closed = Vec::new();
        pool.lend(
            Instant::from_millis(12_000),
            &mut live,
            &mut closed,
            &FaultProfile::default(),
            &mut SimRng::new(0),
        );
        assert!(live.is_empty());
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].close_reason, Some(CloseReason::IdleTimeout));
        assert_eq!(closed[0].closed_at, Some(Instant::from_millis(11_000)));
        assert_eq!(pool.stats().idle_expired, 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_keeps_the_most_recent() {
        let config = PoolConfig { max_connections: 2, idle_timeout: Duration::from_mins(10) };
        let mut pool = ConnectionPool::new(config);
        // Three connections absorbed at the same instant: LRU falls back to
        // establishment time, then id — connection 1 is the victim.
        let closed = absorb_fresh(
            &mut pool,
            Instant::from_millis(5_000),
            vec![
                connection(1, "a.example.com", 100),
                connection(2, "b.example.com", 200),
                connection(3, "c.example.com", 300),
            ],
        );
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].id, ConnectionId(1));
        assert_eq!(closed[0].close_reason, Some(CloseReason::PoolCapacity));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().capacity_evicted, 1);
    }

    #[test]
    fn unused_lent_connections_keep_their_lru_clock() {
        let config = PoolConfig { max_connections: 1, idle_timeout: Duration::from_mins(10) };
        let mut pool = ConnectionPool::new(config);
        absorb_fresh(&mut pool, Instant::from_millis(1_000), vec![connection(1, "a.example.com", 100)]);

        // Lend it out for a page that never uses it, and absorb it back
        // together with a fresh connection the page did open.
        let mut live = Vec::new();
        let mut closed = Vec::new();
        pool.lend(
            Instant::from_millis(2_000),
            &mut live,
            &mut closed,
            &FaultProfile::default(),
            &mut SimRng::new(0),
        );
        assert_eq!(live.len(), 1);
        live.push(connection(2, "b.example.com", 2_100));
        let mut rng = SimRng::new(7);
        pool.absorb(
            Instant::from_millis(3_000),
            &mut live,
            &mut closed,
            &mut rng,
            &ConnectionDurationModel::KeepOpen,
        );
        // Cap 1: the unused returnee (LRU clock still at 1 000) loses to the
        // fresh connection (used at 3 000).
        assert_eq!(pool.len(), 1);
        assert_eq!(closed.iter().filter(|s| s.id == ConnectionId(1)).count(), 1);
        live.clear();
        pool.lend(
            Instant::from_millis(3_100),
            &mut live,
            &mut closed,
            &FaultProfile::default(),
            &mut SimRng::new(0),
        );
        assert_eq!(live.iter().map(|s| s.id).collect::<Vec<_>>(), vec![ConnectionId(2)]);
    }

    #[test]
    fn server_lifetime_churn_closes_at_the_sampled_instant() {
        let churn =
            ConnectionDurationModel::IdleTimeouts { close_probability: 1.0, median_lifetime_secs: 10 };
        let mut pool = ConnectionPool::new(PoolConfig::default());
        let mut connections = vec![connection(1, "a.example.com", 0)];
        let mut closed = Vec::new();
        let mut rng = SimRng::new(42);
        pool.absorb(Instant::from_millis(100), &mut connections, &mut closed, &mut rng, &churn);
        assert_eq!(pool.len(), 1, "sampled lifetime (5–20 s) has not passed at absorb time");

        // Far past any possible draw: the next lend tears it down.
        let mut live = Vec::new();
        pool.lend(
            Instant::from_millis(30_000),
            &mut live,
            &mut closed,
            &FaultProfile::default(),
            &mut SimRng::new(0),
        );
        assert!(live.is_empty());
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].close_reason, Some(CloseReason::ServerLifetime));
        let closed_at = closed[0].closed_at.expect("churned connections record a close time");
        // 0.5×..2× the 10 s median, anchored at establishment.
        assert!(closed_at >= Instant::from_millis(5_000) && closed_at <= Instant::from_millis(20_000));
        assert_eq!(pool.stats().lifetime_churned, 1);
    }

    #[test]
    fn drain_all_closes_everything_with_session_end() {
        let mut pool = ConnectionPool::new(PoolConfig::default());
        absorb_fresh(
            &mut pool,
            Instant::from_millis(500),
            vec![connection(1, "a.example.com", 0), connection(2, "b.example.com", 0)],
        );
        let mut closed = Vec::new();
        pool.drain_all(Instant::from_millis(9_000), &mut closed);
        assert!(pool.is_empty());
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|s| s.close_reason == Some(CloseReason::SessionEnd)));
        let stats = pool.take_stats();
        assert_eq!(stats.session_closed, 2);
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.closed(), 2);
        assert_eq!(pool.stats(), PoolLifecycleStats::default());
    }

    #[test]
    fn zero_capacity_pools_evict_everything_without_panicking() {
        // A malformed `PoolConfig` (cap 0) must degrade into "pool nothing",
        // never abort the crawl: the eviction loop is total.
        let config = PoolConfig { max_connections: 0, idle_timeout: Duration::from_secs(60) };
        let mut pool = ConnectionPool::new(config);
        let closed = absorb_fresh(
            &mut pool,
            Instant::from_millis(1_000),
            vec![connection(1, "a.example.com", 0), connection(2, "b.example.com", 0)],
        );
        assert!(pool.is_empty());
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|s| s.close_reason == Some(CloseReason::PoolCapacity)));
        assert_eq!(pool.stats().capacity_evicted, 2);
    }

    #[test]
    fn probability_edges_of_the_lifetime_sampler_are_total() {
        // Out-of-range and NaN close probabilities must never panic: chance()
        // clamps, NaN compares false, and a zero median closes immediately.
        let mut rng = SimRng::new(3);
        for probability in [-1.0, 0.0, f64::NAN] {
            let model = ConnectionDurationModel::IdleTimeouts {
                close_probability: probability,
                median_lifetime_secs: 122,
            };
            assert_eq!(sample_server_lifetime(&mut rng, &model, Instant::EPOCH), None, "{probability}");
        }
        let certain =
            ConnectionDurationModel::IdleTimeouts { close_probability: 2.0, median_lifetime_secs: 0 };
        assert_eq!(
            sample_server_lifetime(&mut rng, &certain, Instant::EPOCH),
            Some(Instant::EPOCH),
            "a zero median closes at establishment"
        );
    }

    #[test]
    fn dead_on_reuse_closes_at_lend_and_reports_the_count() {
        let mut pool = ConnectionPool::new(PoolConfig::default());
        absorb_fresh(
            &mut pool,
            Instant::from_millis(1_000),
            vec![connection(1, "a.example.com", 0), connection(2, "b.example.com", 0)],
        );
        let mut live = Vec::new();
        let mut closed = Vec::new();
        let faults = FaultProfile { dead_on_reuse_ppm: 1_000_000, ..Default::default() };
        let dead =
            pool.lend(Instant::from_millis(2_000), &mut live, &mut closed, &faults, &mut SimRng::new(5));
        assert_eq!(dead, 2);
        assert!(live.is_empty());
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|s| s.close_reason == Some(CloseReason::DeadOnReuse)));
        assert!(closed.iter().all(|s| s.closed_at == Some(Instant::from_millis(2_000))));
        let stats = pool.stats();
        assert_eq!(stats.dead_on_reuse, 2);
        assert_eq!(stats.lent, 0);
        assert_eq!(stats.closed(), 2);
    }

    #[test]
    fn inert_fault_profiles_consume_no_randomness_at_lend() {
        let mut pool = ConnectionPool::new(PoolConfig::default());
        absorb_fresh(&mut pool, Instant::from_millis(1_000), vec![connection(1, "a.example.com", 0)]);
        let mut live = Vec::new();
        let mut closed = Vec::new();
        let mut rng = SimRng::new(11);
        let mut probe = rng.clone();
        let dead = pool.lend(
            Instant::from_millis(2_000),
            &mut live,
            &mut closed,
            &FaultProfile::default(),
            &mut rng,
        );
        assert_eq!(dead, 0);
        assert_eq!(live.len(), 1);
        // The zero-rate draw left the stream untouched: byte-identical runs.
        assert_eq!(rng.unit().to_bits(), probe.unit().to_bits());
    }

    #[test]
    fn stats_merge_is_a_component_sum() {
        let a = PoolLifecycleStats { inserted: 1, lent: 2, idle_expired: 3, ..Default::default() };
        let b = PoolLifecycleStats {
            lifetime_churned: 4,
            capacity_evicted: 5,
            session_closed: 6,
            dead_on_reuse: 7,
            ..Default::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.inserted, 1);
        assert_eq!(merged.lent, 2);
        assert_eq!(merged.closed(), 3 + 4 + 5 + 6 + 7);
        let mut reversed = b;
        reversed.merge(&a);
        assert_eq!(reversed, merged);
    }
}
