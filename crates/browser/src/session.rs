//! Multi-page user sessions: the warm state carried between navigations.
//!
//! A [`UserSession`] owns everything that outlives a single page but dies
//! with the user: the [`ConnectionPool`] (idle timeouts, LRU cap, server
//! churn), the TLS session-ticket cache that lets later handshakes against
//! an already-visited origin resume, and the page counter that tells the
//! loader whether the session's DNS cache is cold. The per-session DNS cache
//! itself lives in the [`VisitScratch`]'s resolver — the loader flushes it on
//! the session's first page and only sweeps expired lines afterwards
//! ([`netsim_dns::RecursiveResolver::expire_stale`]).
//!
//! Everything here is reusable: ending a session closes the pooled
//! connections into the scratch's closed list and retains ticket/entry
//! capacities, so a worker simulating thousands of sessions back to back
//! allocates nothing in the steady state.
//!
//! [`VisitScratch`]: crate::VisitScratch

use crate::connpool::{ConnectionPool, PoolConfig, PoolLifecycleStats};
use crate::scratch::VisitScratch;
use netsim_types::{Duration, Instant, Origin};

/// One held TLS session ticket: the origin it resumes against and when it
/// was minted (re-minted on every later full-price handshake).
#[derive(Clone, Copy, Debug)]
struct Ticket {
    origin: Origin,
    minted_at: Instant,
}

/// The TLS session tickets a user agent holds, keyed by origin. Linear scan
/// over a small `Vec` — a session touches tens of origins, and the flat
/// layout keeps lookups allocation-free.
///
/// The cache is bounded on two axes so a week-long session never resumes
/// against arbitrarily stale state:
///
/// * **Ticket lifetime** — a ticket older than
///   [`ResumptionCache::TICKET_LIFETIME`] (RFC 8446 caps ticket lifetimes at
///   seven days; servers commonly issue far shorter ones) no longer matches
///   in [`ResumptionCache::has`]; the next handshake runs at full price and
///   re-mints it.
/// * **Capacity** — at most [`ResumptionCache::MAX_TICKETS`] origins are
///   held; inserting beyond that evicts the stalest ticket (oldest
///   `minted_at`, LRU-style, with the insertion-order index as the
///   deterministic tie-break).
#[derive(Clone, Debug, Default)]
pub struct ResumptionCache {
    tickets: Vec<Ticket>,
}

impl ResumptionCache {
    /// How long a minted ticket stays usable.
    pub const TICKET_LIFETIME: Duration = Duration::from_hours(2);
    /// Upper bound on held tickets (Chromium's SSL session cache keeps a
    /// kilo-entry scale total; per session a much smaller bound suffices).
    pub const MAX_TICKETS: usize = 256;

    /// `true` if a still-fresh ticket for `origin` is held at `now`.
    pub fn has(&self, origin: &Origin, now: Instant) -> bool {
        self.tickets
            .iter()
            .any(|ticket| ticket.origin == *origin && now.since(ticket.minted_at) <= Self::TICKET_LIFETIME)
    }

    /// Record a ticket for `origin` minted at `now` (every completed
    /// full-price handshake mints one; re-handshaking refreshes the mint
    /// time). Over capacity, the stalest ticket is evicted.
    pub fn insert(&mut self, origin: Origin, now: Instant) {
        if let Some(existing) = self.tickets.iter_mut().find(|ticket| ticket.origin == origin) {
            existing.minted_at = now;
            return;
        }
        if self.tickets.len() >= Self::MAX_TICKETS {
            if let Some(stalest) = self
                .tickets
                .iter()
                .enumerate()
                .min_by_key(|(index, ticket)| (ticket.minted_at, *index))
                .map(|(index, _)| index)
            {
                self.tickets.swap_remove(stalest);
            }
        }
        self.tickets.push(Ticket { origin, minted_at: now });
    }

    /// Number of origins with a ticket (fresh or not; expired tickets are
    /// only skipped at lookup, not swept).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// `true` if no tickets are held.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Forget every ticket (capacity retained).
    pub fn clear(&mut self) {
        self.tickets.clear();
    }
}

/// One user's browsing session: the connection pool, TLS tickets and page
/// counter carried across the pages of a multi-page visit sequence. Drive it
/// with [`Browser::load_session_page_into`] and finish with
/// [`UserSession::end`].
///
/// [`Browser::load_session_page_into`]: crate::Browser::load_session_page_into
#[derive(Clone, Debug)]
pub struct UserSession {
    pool: ConnectionPool,
    tickets: ResumptionCache,
    pages_loaded: u64,
}

impl UserSession {
    /// A fresh session with the given pool policy.
    pub fn new(pool: PoolConfig) -> Self {
        UserSession { pool: ConnectionPool::new(pool), tickets: ResumptionCache::default(), pages_loaded: 0 }
    }

    /// The session's connection pool.
    pub fn pool(&self) -> &ConnectionPool {
        &self.pool
    }

    /// The session's connection pool, mutably (the loader lends/absorbs).
    pub(crate) fn pool_mut(&mut self) -> &mut ConnectionPool {
        &mut self.pool
    }

    /// The session's TLS ticket cache, mutably (the loader consults and
    /// mints tickets per handshake).
    pub(crate) fn tickets_mut(&mut self) -> &mut ResumptionCache {
        &mut self.tickets
    }

    /// Pages loaded so far in this session.
    pub fn pages_loaded(&self) -> u64 {
        self.pages_loaded
    }

    /// Note a completed page load (the loader calls this).
    pub(crate) fn note_page_loaded(&mut self) {
        self.pages_loaded += 1;
    }

    /// End the session at `now`: close every pooled connection
    /// (`CloseReason::SessionEnd`) into `scratch`'s closed list,
    /// and forget the TLS tickets. The session object is immediately
    /// reusable for the next simulated user — lifecycle counters keep
    /// accumulating until [`UserSession::take_stats`].
    pub fn end(&mut self, scratch: &mut VisitScratch, now: Instant) {
        self.pool.drain_all(now, scratch.closed_mut());
        self.tickets.clear();
        self.pages_loaded = 0;
    }

    /// Take the pool's accumulated lifecycle counters, resetting them.
    pub fn take_stats(&mut self) -> PoolLifecycleStats {
        self.pool.take_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::DomainName;

    #[test]
    fn ticket_cache_deduplicates_origins() {
        let mut cache = ResumptionCache::default();
        let origin = Origin::https(DomainName::literal("www.example.com"));
        let now = Instant::from_millis(1_000);
        assert!(cache.is_empty());
        assert!(!cache.has(&origin, now));
        cache.insert(origin, now);
        cache.insert(origin, now);
        assert_eq!(cache.len(), 1);
        assert!(cache.has(&origin, now));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn tickets_expire_after_their_lifetime_and_reminting_refreshes() {
        let mut cache = ResumptionCache::default();
        let origin = Origin::https(DomainName::literal("www.example.com"));
        let minted = Instant::from_millis(0);
        cache.insert(origin, minted);
        let within = minted + ResumptionCache::TICKET_LIFETIME;
        assert!(cache.has(&origin, within), "lifetime boundary is inclusive");
        let past = within + Duration::from_millis(1);
        assert!(!cache.has(&origin, past), "stale tickets no longer resume");
        assert_eq!(cache.len(), 1, "expired tickets are skipped, not swept");
        // A later full-price handshake re-mints the ticket in place.
        cache.insert(origin, past);
        assert!(cache.has(&origin, past + Duration::from_hours(1)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_the_stalest_ticket() {
        let mut cache = ResumptionCache::default();
        // Fill to capacity with strictly increasing mint times.
        for index in 0..ResumptionCache::MAX_TICKETS {
            let origin = Origin::https(DomainName::literal(&format!("origin-{index}.example.com")));
            cache.insert(origin, Instant::from_millis(index as u64));
        }
        assert_eq!(cache.len(), ResumptionCache::MAX_TICKETS);
        // One more evicts the stalest (origin-0), not the newest.
        let newcomer = Origin::https(DomainName::literal("newcomer.example.com"));
        let now = Instant::from_millis(10_000);
        cache.insert(newcomer, now);
        assert_eq!(cache.len(), ResumptionCache::MAX_TICKETS);
        assert!(cache.has(&newcomer, now));
        assert!(!cache.has(&Origin::https(DomainName::literal("origin-0.example.com")), now));
        assert!(cache.has(&Origin::https(DomainName::literal("origin-1.example.com")), now));
    }

    #[test]
    fn ending_a_session_resets_its_warm_state() {
        let mut session = UserSession::new(PoolConfig::default());
        session
            .tickets_mut()
            .insert(Origin::https(DomainName::literal("www.example.com")), Instant::from_millis(500));
        session.note_page_loaded();
        assert_eq!(session.pages_loaded(), 1);
        assert_eq!(session.tickets.len(), 1);
        let mut scratch = VisitScratch::new();
        session.end(&mut scratch, Instant::from_millis(1_000));
        assert_eq!(session.pages_loaded(), 0);
        assert!(session.tickets.is_empty());
        assert!(session.pool().is_empty());
    }
}
