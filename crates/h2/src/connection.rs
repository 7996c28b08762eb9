//! An HTTP/2 connection (session) as the browser sees it.
//!
//! The connection object carries everything the reuse decision and the later
//! analysis need: the destination IP and port, the TLS certificate presented
//! during the handshake, the domain the connection was initially opened for,
//! whether requests on it carry credentials (the Fetch "privacy mode"
//! partition), which domains the server refused with HTTP 421, an optional
//! RFC 8336 origin set, and the request/transfer counts that HAR files and
//! browser visits record.

use netsim_tls::Certificate;
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr, Origin};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Lifecycle state of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectionState {
    /// Established and usable for new streams.
    Open,
    /// The server sent GOAWAY: existing streams finish, no new streams.
    GoingAway,
    /// Fully closed.
    Closed,
}

/// Why a connection was torn down — lifecycle accounting for the pooled,
/// multi-page session model. Single-page visits close connections implicitly
/// (the visit ends) and leave the reason unset; the pool records which of its
/// policies pulled the trigger so fleet reports can attribute churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Sat unused in the pool past the client's idle timeout.
    IdleTimeout,
    /// Evicted because the pool hit its max-size cap (LRU victim).
    PoolCapacity,
    /// The server's own connection lifetime expired (lifetime churn).
    ServerLifetime,
    /// The user session ended and drained its pool.
    SessionEnd,
    /// The transport was reset mid-transfer (injected fault); the request in
    /// flight failed and was retried on a fresh connection.
    TransportReset,
    /// A pooled connection turned out to be dead when the session tried to
    /// reuse it (the server hung up while it was parked).
    DeadOnReuse,
}

/// Errors from connection operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectionError {
    /// A new stream was requested but the connection no longer accepts any.
    NotAcceptingStreams(ConnectionState),
}

impl fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectionError::NotAcceptingStreams(state) => {
                write!(f, "connection in state {state:?} does not accept new streams")
            }
        }
    }
}

impl std::error::Error for ConnectionError {}

/// One HTTP/2 session.
///
/// It keeps only what the reuse predicate and the reports read. Every request
/// opens its stream and completes its response in the same step, so no
/// stream table is kept: there is never more than one stream open, far below
/// any peer's concurrency limit.
#[derive(Clone, Debug, PartialEq)]
pub struct Connection {
    /// Identifier, equal to the socket id recorded in HAR files.
    pub id: ConnectionId,
    /// The origin whose request caused this connection to be opened.
    pub initial_origin: Origin,
    /// Destination address the transport connected to.
    pub remote_ip: IpAddr,
    /// Destination port.
    pub port: u16,
    /// The certificate the server presented for the SNI of `initial_origin`.
    /// Shared with the issuing store — presenting a certificate never copies
    /// its SAN list.
    pub certificate: Arc<Certificate>,
    /// Whether requests on this connection include credentials (cookies /
    /// client certificates). Under the Fetch Standard, credentialed and
    /// credential-less requests must not share a connection.
    pub credentialed: bool,
    /// When the connection became usable.
    pub established_at: Instant,
    /// When it was closed, if it has been.
    pub closed_at: Option<Instant>,
    /// Why it was closed, when a pool lifecycle policy did it. `None` for an
    /// open connection and for the implicit end-of-visit close.
    pub close_reason: Option<CloseReason>,
    /// Lifecycle state.
    pub state: ConnectionState,
    /// Domains the server answered with HTTP 421 (Misdirected Request):
    /// excluded from future reuse on this connection.
    pub excluded_domains: BTreeSet<DomainName>,
    /// The origin set announced via an RFC 8336 ORIGIN frame, if any: an
    /// unordered membership set without duplicates (reuse only asks whether
    /// a host is in it).
    pub origin_set: Option<Vec<DomainName>>,
    /// Number of requests sent on this connection.
    pub requests_sent: u64,
    /// Total body octets received.
    pub body_octets_received: u64,
}

impl Connection {
    /// Establish a connection. Allocates nothing: the certificate is shared
    /// and the 421 set starts empty.
    pub fn establish(
        id: ConnectionId,
        initial_origin: Origin,
        remote_ip: IpAddr,
        certificate: Arc<Certificate>,
        credentialed: bool,
        established_at: Instant,
    ) -> Self {
        let port = initial_origin.port;
        Connection {
            id,
            initial_origin,
            remote_ip,
            port,
            certificate,
            credentialed,
            established_at,
            closed_at: None,
            close_reason: None,
            state: ConnectionState::Open,
            excluded_domains: BTreeSet::new(),
            origin_set: None,
            requests_sent: 0,
            body_octets_received: 0,
        }
    }

    /// The domain the connection was initially opened for.
    pub fn initial_domain(&self) -> &DomainName {
        &self.initial_origin.host
    }

    /// `true` if a new stream can be opened right now.
    pub fn can_open_stream(&self) -> bool {
        self.state == ConnectionState::Open
    }

    /// Send a request on a new stream.
    pub fn send_request(&mut self) -> Result<(), ConnectionError> {
        if !self.can_open_stream() {
            return Err(ConnectionError::NotAcceptingStreams(self.state));
        }
        self.requests_sent += 1;
        Ok(())
    }

    /// Record a completed response: status code and body size. A 421
    /// response marks `domain` as excluded from reuse on this connection.
    pub fn complete_response(&mut self, domain: &DomainName, status: u16, body_octets: u64) {
        self.body_octets_received += body_octets;
        if status == 421 {
            self.excluded_domains.insert(*domain);
        }
    }

    /// Handle a received ORIGIN frame: replace the origin set. The set is
    /// sized by the first name to the iterator's upper bound, so a bounded
    /// frame allocates once (and an empty one not at all).
    pub fn receive_origin_set(&mut self, origins: impl IntoIterator<Item = DomainName>) {
        let origins = origins.into_iter();
        let bound = origins.size_hint().1.unwrap_or(0);
        let mut set = Vec::new();
        for origin in origins {
            if set.is_empty() {
                set.reserve_exact(bound.max(1));
            }
            if !set.contains(&origin) {
                set.push(origin);
            }
        }
        self.origin_set = Some(set);
    }

    /// Handle a received GOAWAY.
    pub fn receive_goaway(&mut self) {
        if self.state == ConnectionState::Open {
            self.state = ConnectionState::GoingAway;
        }
    }

    /// Close the connection at `now`.
    pub fn close(&mut self, now: Instant) {
        self.state = ConnectionState::Closed;
        if self.closed_at.is_none() {
            self.closed_at = Some(now);
        }
    }

    /// Close the connection at `now`, recording which pool lifecycle policy
    /// closed it. The first close wins: a later call never overwrites the
    /// recorded time or reason.
    pub fn close_with_reason(&mut self, now: Instant, reason: CloseReason) {
        if self.closed_at.is_none() {
            self.close_reason = Some(reason);
        }
        self.close(now);
    }

    /// `true` if the connection is usable for new requests at `now` (it has
    /// been established and not yet closed).
    pub fn is_open_at(&self, now: Instant) -> bool {
        now >= self.established_at
            && self.closed_at.map(|closed| now < closed).unwrap_or(true)
            && self.state != ConnectionState::Closed
    }

    /// The connection's lifetime, if it has closed.
    pub fn lifetime(&self) -> Option<netsim_types::Duration> {
        self.closed_at.map(|closed| closed - self.established_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_tls::{CertificateStore, IssuancePolicy, Issuer};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn certificate_for(domains: &[&str]) -> Arc<Certificate> {
        let mut store = CertificateStore::new();
        let names: Vec<DomainName> = domains.iter().map(|s| d(s)).collect();
        store.issue_with_policy(&Issuer::digicert(), &IssuancePolicy::SharedSan, &names, Instant::EPOCH);
        Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap())
    }

    fn connection() -> Connection {
        Connection::establish(
            ConnectionId(1),
            Origin::https(d("www.example.com")),
            IpAddr::new(192, 0, 2, 10),
            certificate_for(&["www.example.com", "img.example.com"]),
            true,
            Instant::EPOCH,
        )
    }

    #[test]
    fn establish_and_send_requests() {
        let mut conn = connection();
        assert!(conn.can_open_stream());
        conn.send_request().unwrap();
        conn.send_request().unwrap();
        assert_eq!(conn.requests_sent, 2);
        conn.complete_response(&d("www.example.com"), 200, 15_000);
        conn.complete_response(&d("www.example.com"), 200, 5_000);
        assert_eq!(conn.body_octets_received, 20_000);
        assert!(conn.excluded_domains.is_empty());
    }

    #[test]
    fn http_421_excludes_domain_from_reuse() {
        let mut conn = connection();
        conn.send_request().unwrap();
        conn.complete_response(&d("img.example.com"), 421, 0);
        assert!(conn.excluded_domains.contains(&d("img.example.com")));
        assert!(!conn.excluded_domains.contains(&d("www.example.com")));
    }

    #[test]
    fn goaway_then_close_lifecycle() {
        let mut conn = connection();
        conn.receive_goaway();
        assert_eq!(conn.state, ConnectionState::GoingAway);
        assert!(!conn.can_open_stream());
        assert_eq!(
            conn.send_request(),
            Err(ConnectionError::NotAcceptingStreams(ConnectionState::GoingAway))
        );
        assert!(conn.is_open_at(Instant::from_millis(100)));
        conn.close(Instant::from_millis(5000));
        assert!(!conn.is_open_at(Instant::from_millis(6000)));
        assert_eq!(conn.lifetime().unwrap().as_millis(), 5000);
        assert_eq!(conn.state, ConnectionState::Closed);
    }

    #[test]
    fn close_with_reason_records_the_first_close_only() {
        let mut conn = connection();
        assert_eq!(conn.close_reason, None);
        conn.close_with_reason(Instant::from_millis(4_000), CloseReason::ServerLifetime);
        assert_eq!(conn.close_reason, Some(CloseReason::ServerLifetime));
        assert_eq!(conn.closed_at, Some(Instant::from_millis(4_000)));
        // Already closed: neither the time nor the reason moves.
        conn.close_with_reason(Instant::from_millis(9_000), CloseReason::SessionEnd);
        assert_eq!(conn.close_reason, Some(CloseReason::ServerLifetime));
        assert_eq!(conn.closed_at, Some(Instant::from_millis(4_000)));
        // A plain close never invents a reason.
        let mut plain = connection();
        plain.close(Instant::from_millis(1_000));
        assert_eq!(plain.close_reason, None);
    }

    #[test]
    fn origin_set_replaces_previous() {
        let mut conn = connection();
        assert!(conn.origin_set.is_none());
        conn.receive_origin_set([d("a.example.com"), d("b.example.com")]);
        conn.receive_origin_set([d("c.example.com"), d("C.example.com")]);
        let set = conn.origin_set.as_ref().unwrap();
        assert_eq!(set.len(), 1, "a set keeps no duplicates");
        assert!(set.contains(&d("c.example.com")));
    }
}
