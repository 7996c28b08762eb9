//! The common observation model both data sources are converted into.
//!
//! HAR corpora and NetLog-style browser captures differ in what they know —
//! HAR files lack connection end times, NetLogs have them — but the
//! classifier only needs the fields below. [`DurationModel`] expresses the
//! paper's handling of the missing end times: the HTTP-Archive dataset is
//! evaluated under both an *endless* and an *immediate* assumption, while the
//! own measurements use the recorded lifetimes.

use netsim_tls::{Issuer, SanEntry};
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr};

/// How a connection's open interval is derived when checking whether it was
/// available for reuse at a later connection's establishment time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DurationModel {
    /// Connections never close (upper bound used for the HTTP Archive).
    Endless,
    /// Connections close right after their last request (lower bound).
    Immediate,
    /// Use the recorded close times; connections without one stay open.
    Recorded,
}

/// One request observed on a connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedRequest {
    /// Requested host.
    pub domain: DomainName,
    /// Response status.
    pub status: u16,
    /// When the request was sent.
    pub started_at: Instant,
}

/// One observed HTTP/2 session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedConnection {
    /// Session identifier (HAR socket id / NetLog source id).
    pub id: ConnectionId,
    /// The host of the first request on the session (the SNI the session was
    /// opened for).
    pub initial_domain: DomainName,
    /// Destination address.
    pub ip: IpAddr,
    /// Destination port.
    pub port: u16,
    /// Subject Alternative Names of the presented certificate.
    pub san: Vec<SanEntry>,
    /// Issuer organisation of the presented certificate.
    pub issuer: Issuer,
    /// When the session was established (approximated by the first request
    /// for HAR data).
    pub established_at: Instant,
    /// When the session closed, if known.
    pub closed_at: Option<Instant>,
    /// Requests carried by the session, in send order.
    pub requests: Vec<ObservedRequest>,
}

impl ObservedConnection {
    /// `true` if the certificate covers `domain`.
    pub fn covers(&self, domain: &DomainName) -> bool {
        self.san.iter().any(|entry| entry.covers(domain))
    }

    /// The time of the last request on the session (the establishment time
    /// when the session carried none).
    pub fn last_request_at(&self) -> Instant {
        self.requests.iter().map(|r| r.started_at).max().unwrap_or(self.established_at)
    }

    /// The recorded lifetime, when a close time exists.
    pub fn lifetime(&self) -> Option<netsim_types::Duration> {
        self.closed_at.map(|end| end - self.established_at)
    }
}

/// Everything observed while visiting one site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteObservation {
    /// Landing-page host, used as the site key when intersecting datasets.
    pub site: DomainName,
    /// Observed HTTP/2 sessions.
    pub connections: Vec<ObservedConnection>,
}

impl SiteObservation {
    /// Number of observed sessions.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Total requests across all sessions.
    pub fn request_count(&self) -> usize {
        self.connections.iter().map(|c| c.requests.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn connection(id: u64, start_ms: u64, closed_ms: Option<u64>) -> ObservedConnection {
        ObservedConnection {
            id: ConnectionId(id),
            initial_domain: d("example.com"),
            ip: IpAddr::new(10, 0, 0, 1),
            port: 443,
            san: vec![SanEntry::Dns(d("example.com")), SanEntry::Wildcard(d("example.com"))],
            issuer: Issuer::lets_encrypt(),
            established_at: Instant::from_millis(start_ms),
            closed_at: closed_ms.map(Instant::from_millis),
            requests: vec![
                ObservedRequest {
                    domain: d("example.com"),
                    status: 200,
                    started_at: Instant::from_millis(start_ms + 5),
                },
                ObservedRequest {
                    domain: d("img.example.com"),
                    status: 200,
                    started_at: Instant::from_millis(start_ms + 80),
                },
            ],
        }
    }

    #[test]
    fn coverage_uses_san_entries() {
        let c = connection(1, 0, None);
        assert!(c.covers(&d("example.com")));
        assert!(c.covers(&d("img.example.com")));
        assert!(!c.covers(&d("other.org")));
    }

    #[test]
    fn dataset_counters() {
        let sites = [
            SiteObservation { site: d("a.com"), connections: vec![connection(1, 0, None)] },
            SiteObservation { site: d("b.com"), connections: vec![] },
        ];
        assert_eq!(sites[0].connection_count(), 1);
        assert_eq!(sites[0].request_count(), 2);
        assert_eq!(sites[1].connection_count(), 0);
        assert_eq!(sites[1].request_count(), 0);
    }
}
