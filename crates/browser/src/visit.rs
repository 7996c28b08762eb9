//! The structured record of one page visit.

use crate::netlog::NetLog;
use netsim_fetch::RequestDestination;
use netsim_h2::Connection;
use netsim_types::{ConnectionId, DomainName, Instant, RequestId, SiteId};

/// One request as logged by the browser (the per-request granularity HAR
/// files carry).
#[derive(Clone, Debug, PartialEq)]
pub struct RequestLogEntry {
    /// Request id (unique within the visit).
    pub id: RequestId,
    /// The HTTP/2 session that carried the request (the HAR "socket id").
    pub connection: ConnectionId,
    /// Target host.
    pub domain: DomainName,
    /// Target path.
    pub path: String,
    /// Resource kind.
    pub destination: RequestDestination,
    /// Whether credentials were included (the Fetch decision).
    pub credentialed: bool,
    /// HTTP status of the response.
    pub status: u16,
    /// Response body size in octets.
    pub body_size: u64,
    /// When the request was sent.
    pub started_at: Instant,
}

/// Everything recorded while loading one site's landing page.
#[derive(Clone, Debug)]
pub struct PageVisit {
    /// The site that was visited.
    pub site: SiteId,
    /// Its landing-page host.
    pub landing_domain: DomainName,
    /// When the visit started.
    pub started_at: Instant,
    /// When the last response completed.
    pub finished_at: Instant,
    /// Every HTTP/2 session opened during the visit, in establishment order.
    pub connections: Vec<Connection>,
    /// Every request, in send order.
    pub requests: Vec<RequestLogEntry>,
    /// The low-level event log.
    pub netlog: NetLog,
}

impl PageVisit {
    /// Number of sessions opened.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Number of requests sent.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// The connection with the given id, if it belongs to this visit.
    pub fn connection(&self, id: ConnectionId) -> Option<&Connection> {
        self.connections.iter().find(|c| c.id == id)
    }

    /// Requests carried by the given connection, in send order.
    pub fn requests_on(&self, id: ConnectionId) -> impl Iterator<Item = &RequestLogEntry> {
        self.requests.iter().filter(move |r| r.connection == id)
    }

    /// Distinct hosts contacted during the visit.
    pub fn contacted_domains(&self) -> Vec<DomainName> {
        let mut domains: Vec<DomainName> = self.requests.iter().map(|r| r.domain).collect();
        domains.sort();
        domains.dedup();
        domains
    }

    /// The wall-clock duration of the visit.
    pub fn duration(&self) -> netsim_types::Duration {
        self.finished_at - self.started_at
    }
}
