//! An HTTP/2 connection (session) as the browser sees it.
//!
//! The connection object carries everything the reuse decision and the later
//! analysis need: the destination IP and port, the TLS certificate presented
//! during the handshake, the domain the connection was initially opened for,
//! whether requests on it carry credentials (the Fetch "privacy mode"
//! partition), which domains the server refused with HTTP 421, an optional
//! RFC 8336 origin set, and the stream/transfer bookkeeping that the HAR and
//! NetLog substrates serialise.

use crate::settings::Settings;
use crate::stream::{StreamId, StreamState};
use netsim_tls::Certificate;
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr, Origin};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Lifecycle state of a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
    /// The peer's MAX_CONCURRENT_STREAMS limit is reached.
    ConcurrencyLimit(u32),
    /// The referenced stream does not exist.
    UnknownStream(StreamId),
}

impl fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectionError::NotAcceptingStreams(state) => {
                write!(f, "connection in state {state:?} does not accept new streams")
            }
            ConnectionError::ConcurrencyLimit(limit) => {
                write!(f, "peer concurrency limit of {limit} streams reached")
            }
            ConnectionError::UnknownStream(id) => write!(f, "unknown {id}"),
        }
    }
}

impl std::error::Error for ConnectionError {}

/// One HTTP/2 session.
///
/// `PartialEq` compares the full logical state (heap capacities excluded by
/// construction) — its main consumer is the test pinning
/// [`Connection::reestablish`] to [`Connection::establish`] field for field.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// The peer's settings.
    pub remote_settings: Settings,
    /// Domains the server answered with HTTP 421 (Misdirected Request):
    /// excluded from future reuse on this connection.
    pub excluded_domains: BTreeSet<DomainName>,
    /// The origin set announced via an RFC 8336 ORIGIN frame, if any.
    pub origin_set: Option<BTreeSet<DomainName>>,
    /// Streams in open order. A `Vec` (rather than a map) so that a pooled
    /// connection shell retains its capacity across visits; streams per
    /// connection are few, so lookups stay linear.
    streams: Vec<(StreamId, StreamState)>,
    /// Number of entries in `streams` whose state is not closed, maintained
    /// incrementally so the reuse predicate's concurrency check is O(1).
    open_count: u32,
    next_stream: StreamId,
    /// Number of requests sent on this connection.
    pub requests_sent: u64,
    /// Total body octets received.
    pub body_octets_received: u64,
}

impl Connection {
    /// Establish a connection.
    #[allow(clippy::too_many_arguments)]
    pub fn establish(
        id: ConnectionId,
        initial_origin: Origin,
        remote_ip: IpAddr,
        certificate: Arc<Certificate>,
        credentialed: bool,
        established_at: Instant,
        remote_settings: Settings,
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
            remote_settings,
            excluded_domains: BTreeSet::new(),
            origin_set: None,
            streams: Vec::new(),
            open_count: 0,
            next_stream: StreamId::FIRST_CLIENT,
            requests_sent: 0,
            body_octets_received: 0,
        }
    }

    /// Re-establish a pooled connection shell in place, exactly as
    /// [`Connection::establish`] would construct it but retaining the heap
    /// capacity of the stream table. This is the zero-allocation path the
    /// per-worker visit scratch uses: recycled shells make opening a
    /// connection allocation-free in the steady state.
    #[allow(clippy::too_many_arguments)]
    pub fn reestablish(
        &mut self,
        id: ConnectionId,
        initial_origin: Origin,
        remote_ip: IpAddr,
        certificate: Arc<Certificate>,
        credentialed: bool,
        established_at: Instant,
        remote_settings: Settings,
    ) {
        self.id = id;
        self.port = initial_origin.port;
        self.initial_origin = initial_origin;
        self.remote_ip = remote_ip;
        self.certificate = certificate;
        self.credentialed = credentialed;
        self.established_at = established_at;
        self.closed_at = None;
        self.close_reason = None;
        self.state = ConnectionState::Open;
        self.remote_settings = remote_settings;
        self.excluded_domains.clear();
        self.origin_set = None;
        self.streams.clear();
        self.open_count = 0;
        self.next_stream = StreamId::FIRST_CLIENT;
        self.requests_sent = 0;
        self.body_octets_received = 0;
    }

    /// The domain the connection was initially opened for.
    pub fn initial_domain(&self) -> &DomainName {
        &self.initial_origin.host
    }

    /// Number of currently open (not closed) streams.
    pub fn open_streams(&self) -> usize {
        debug_assert_eq!(
            self.open_count as usize,
            self.streams.iter().filter(|(_, s)| !s.is_closed()).count(),
            "open-stream counter out of sync"
        );
        self.open_count as usize
    }

    /// `true` if a new stream can be opened right now.
    pub fn can_open_stream(&self) -> bool {
        self.state == ConnectionState::Open
            && (self.open_streams() as u32) < self.remote_settings.max_concurrent_streams
    }

    /// Send a request, opening a new stream. Returns the stream id.
    pub fn send_request(&mut self) -> Result<StreamId, ConnectionError> {
        if self.state != ConnectionState::Open {
            return Err(ConnectionError::NotAcceptingStreams(self.state));
        }
        if self.open_streams() as u32 >= self.remote_settings.max_concurrent_streams {
            return Err(ConnectionError::ConcurrencyLimit(self.remote_settings.max_concurrent_streams));
        }
        let stream_id = self.next_stream;
        self.next_stream = self.next_stream.next_same_peer();
        self.requests_sent += 1;
        let state = StreamState::Idle.send_headers(true).expect("idle stream always accepts HEADERS");
        if !state.is_closed() {
            self.open_count += 1;
        }
        self.streams.push((stream_id, state));
        Ok(stream_id)
    }

    /// Record the response for `stream`: status code and body size. A 421
    /// response marks `domain` as excluded from reuse on this connection.
    pub fn complete_response(
        &mut self,
        stream: StreamId,
        domain: &DomainName,
        status: u16,
        body_octets: u64,
    ) -> Result<(), ConnectionError> {
        // Newest first: the overwhelmingly common case is completing the
        // stream that was just opened (the last entry).
        let state = self
            .streams
            .iter_mut()
            .rev()
            .find_map(|(id, state)| (*id == stream).then_some(state))
            .ok_or(ConnectionError::UnknownStream(stream))?;
        let was_open = !state.is_closed();
        *state = state.receive_end_stream().unwrap_or(StreamState::Closed);
        if was_open && state.is_closed() {
            self.open_count -= 1;
        }
        self.body_octets_received += body_octets;
        if status == 421 {
            self.excluded_domains.insert(*domain);
        }
        Ok(())
    }

    /// Handle a received ORIGIN frame: replace the origin set.
    pub fn receive_origin_set(&mut self, origins: impl IntoIterator<Item = DomainName>) {
        self.origin_set = Some(origins.into_iter().collect());
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
        let ids =
            store.issue_with_policy(Issuer::digicert(), &IssuancePolicy::SharedSan, &names, Instant::EPOCH);
        Arc::clone(store.get_arc(ids[0]).unwrap())
    }

    fn connection() -> Connection {
        Connection::establish(
            ConnectionId(1),
            Origin::https(d("www.example.com")),
            IpAddr::new(192, 0, 2, 10),
            certificate_for(&["www.example.com", "img.example.com"]),
            true,
            Instant::EPOCH,
            Settings::default(),
        )
    }

    #[test]
    fn reestablish_equals_a_fresh_establish() {
        // A pooled shell that lived a full life — requests, 421 exclusion,
        // origin set, GOAWAY, close — must come back exactly as
        // `Connection::establish` would construct it. `Connection:
        // PartialEq` covers every logical field, so a forgotten reset in
        // `reestablish` fails this test directly.
        let mut shell = connection();
        let s1 = shell.send_request().unwrap();
        shell.complete_response(s1, &d("www.example.com"), 200, 1_000).unwrap();
        let s2 = shell.send_request().unwrap();
        shell.complete_response(s2, &d("img.example.com"), 421, 0).unwrap();
        shell.receive_origin_set([d("img.example.com")]);
        shell.receive_goaway();
        shell.close_with_reason(Instant::from_millis(9_000), CloseReason::IdleTimeout);

        let certificate = certificate_for(&["shop.example.org"]);
        shell.reestablish(
            ConnectionId(77),
            Origin::https(d("shop.example.org")),
            IpAddr::new(10, 1, 2, 3),
            Arc::clone(&certificate),
            false,
            Instant::from_millis(12_345),
            Settings::default(),
        );
        let fresh = Connection::establish(
            ConnectionId(77),
            Origin::https(d("shop.example.org")),
            IpAddr::new(10, 1, 2, 3),
            certificate,
            false,
            Instant::from_millis(12_345),
            Settings::default(),
        );
        assert_eq!(shell, fresh);
    }

    #[test]
    fn establish_and_send_requests() {
        let mut conn = connection();
        assert!(conn.can_open_stream());
        let s1 = conn.send_request().unwrap();
        let s2 = conn.send_request().unwrap();
        assert_eq!(s1, StreamId::new(1));
        assert_eq!(s2, StreamId::new(3));
        assert_eq!(conn.open_streams(), 2);
        assert_eq!(conn.requests_sent, 2);
        conn.complete_response(s1, &d("www.example.com"), 200, 15_000).unwrap();
        assert_eq!(conn.open_streams(), 1);
        assert_eq!(conn.body_octets_received, 15_000);
    }

    #[test]
    fn concurrency_limit_is_enforced() {
        let mut conn = connection();
        conn.remote_settings.max_concurrent_streams = 2;
        conn.send_request().unwrap();
        conn.send_request().unwrap();
        let err = conn.send_request().unwrap_err();
        assert_eq!(err, ConnectionError::ConcurrencyLimit(2));
    }

    #[test]
    fn http_421_excludes_domain_from_reuse() {
        let mut conn = connection();
        let s = conn.send_request().unwrap();
        conn.complete_response(s, &d("img.example.com"), 421, 0).unwrap();
        assert!(conn.excluded_domains.contains(&d("img.example.com")));
        assert!(!conn.excluded_domains.contains(&d("www.example.com")));
    }

    #[test]
    fn goaway_then_close_lifecycle() {
        let mut conn = connection();
        conn.receive_goaway();
        assert_eq!(conn.state, ConnectionState::GoingAway);
        assert!(conn.send_request().is_err());
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
    fn unknown_stream_errors() {
        let mut conn = connection();
        let err = conn.complete_response(StreamId::new(99), &d("www.example.com"), 200, 0).unwrap_err();
        assert_eq!(err, ConnectionError::UnknownStream(StreamId::new(99)));
    }

    #[test]
    fn origin_set_replaces_previous() {
        let mut conn = connection();
        assert!(conn.origin_set.is_none());
        conn.receive_origin_set([d("a.example.com"), d("b.example.com")]);
        conn.receive_origin_set([d("c.example.com")]);
        let set = conn.origin_set.as_ref().unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.contains(&d("c.example.com")));
    }
}
