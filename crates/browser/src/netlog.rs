//! NetLog-style event recording.
//!
//! Chromium's NetLog gives the paper "more details on low-level connection
//! events (e.g. start and end)" than HAR files do; the authors stitch those
//! events together to reconstruct session lifecycles (§4.2.2). The simulated
//! browser emits the same kind of event stream so that the analysis can be
//! run from events alone, mirroring the original tooling.

use netsim_h2::reuse::ReuseRefusal;
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr, RequestId};
use serde::{Deserialize, Serialize};

/// What happened.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NetLogEventKind {
    /// A page load began for the given landing domain.
    PageLoadStarted {
        /// Landing-page host.
        domain: DomainName,
    },
    /// The page load finished (all planned requests done or timed out).
    PageLoadFinished {
        /// Number of requests completed.
        requests: usize,
    },
    /// A host was resolved.
    DnsResolved {
        /// Queried host.
        domain: DomainName,
        /// Addresses returned, in answer order.
        addresses: Vec<IpAddr>,
    },
    /// A host could not be resolved.
    DnsFailed {
        /// Queried host.
        domain: DomainName,
    },
    /// A new HTTP/2 session was established.
    ConnectionEstablished {
        /// Session id (socket id).
        connection: ConnectionId,
        /// Host the session was opened for.
        domain: DomainName,
        /// Destination address.
        ip: IpAddr,
        /// Whether the session belongs to the credentialed pool partition.
        credentialed: bool,
    },
    /// An existing session was reused for another request.
    ConnectionReused {
        /// Reused session.
        connection: ConnectionId,
        /// Host of the request that rode the session.
        domain: DomainName,
    },
    /// An existing session could have been considered but was rejected by the
    /// reuse check; all failing conditions are recorded.
    ReuseRefused {
        /// Candidate session.
        connection: ConnectionId,
        /// Host of the request being matched.
        domain: DomainName,
        /// Why the candidate was rejected.
        reasons: Vec<ReuseRefusal>,
    },
    /// A request was sent.
    RequestSent {
        /// Request id.
        request: RequestId,
        /// Session carrying the request.
        connection: ConnectionId,
        /// Target host.
        domain: DomainName,
        /// Target path.
        path: String,
    },
    /// A response completed.
    ResponseCompleted {
        /// Request id.
        request: RequestId,
        /// HTTP status.
        status: u16,
        /// Body octets.
        body_size: u64,
    },
    /// A session was closed.
    ConnectionClosed {
        /// Session id.
        connection: ConnectionId,
    },
}

/// One timestamped event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetLogEvent {
    /// When the event happened.
    pub time: Instant,
    /// What happened.
    pub kind: NetLogEventKind,
}

/// An append-only event log for one page visit.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetLog {
    events: Vec<NetLogEvent>,
}

impl NetLog {
    /// An empty log.
    pub fn new() -> Self {
        NetLog::default()
    }

    /// Append an event.
    pub fn record(&mut self, time: Instant, kind: NetLogEventKind) {
        self.events.push(NetLogEvent { time, kind });
    }

    /// Drop all events, retaining the buffer's capacity (used when a visit
    /// scratch is recycled between page loads).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// All events in append order.
    pub fn events(&self) -> &[NetLogEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    #[test]
    fn record_and_query() {
        let mut log = NetLog::new();
        assert!(log.is_empty());
        log.record(Instant::EPOCH, NetLogEventKind::PageLoadStarted { domain: d("example.com") });
        log.record(
            Instant::from_millis(10),
            NetLogEventKind::ConnectionEstablished {
                connection: ConnectionId(0),
                domain: d("example.com"),
                ip: IpAddr::new(10, 0, 0, 1),
                credentialed: true,
            },
        );
        log.record(
            Instant::from_millis(40),
            NetLogEventKind::ConnectionReused { connection: ConnectionId(0), domain: d("img.example.com") },
        );
        assert_eq!(log.len(), 3);
        let count =
            |matches: fn(&NetLogEventKind) -> bool| log.events().iter().filter(|e| matches(&e.kind)).count();
        assert_eq!(count(|kind| matches!(kind, NetLogEventKind::ConnectionEstablished { .. })), 1);
        assert_eq!(count(|kind| matches!(kind, NetLogEventKind::ConnectionReused { .. })), 1);
        assert!(log.events()[0].time <= log.events()[1].time);
    }
}
