//! The redundancy classifier (§4.1 of the paper): one pair rule
//! (`pair_cause`) applied by one establishment-order loop (`for_each_pair`)
//! over `Copy` [`ConnectionRecord`]s.
//!
//! Two adapters fill the records and collect the loop's output through a
//! sink. [`classify_site`] reads a [`SiteObservation`] and keeps each
//! connection's earlier partners per cause, which the attribution tables
//! read through [`ClassifiedConnection::previous_for`].
//! [`crate::FastVisitClassifier`] reads a visit's scratch buffers and ORs
//! cause bits into the site's counts. Certificate coverage is looked up by
//! record index, so each adapter keeps its own certificate form.

use crate::observation::{Dataset, DurationModel, ObservedConnection, SiteObservation};
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr};
use std::collections::{BTreeMap, BTreeSet};

/// The root causes a redundant connection can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cause {
    /// Same IP, certificate does not cover the domain: domain sharding with
    /// disjunct certificates.
    Cert,
    /// Different IP, certificate covers the domain: DNS load balancing /
    /// genuinely distributed hosting of SAN-covered domains.
    Ip,
    /// Same IP and SAN-covered (or same initial domain on different IPs):
    /// reuse was possible but the Fetch credentials partition refused it.
    Cred,
}

impl Cause {
    /// All causes in table order (CERT, IP, CRED — the row order of Table 1).
    pub const ALL: [Cause; 3] = [Cause::Cert, Cause::Ip, Cause::Cred];

    /// The cause's position in [`Cause::ALL`] — the index used by the
    /// array-backed aggregation hot path.
    pub const fn index(self) -> usize {
        match self {
            Cause::Cert => 0,
            Cause::Ip => 1,
            Cause::Cred => 2,
        }
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Cause::Cert => "CERT",
            Cause::Ip => "IP",
            Cause::Cred => "CRED",
        }
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One connection after classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifiedConnection {
    /// Index of the connection within the site observation.
    pub index: usize,
    /// The connection's initial domain (its origin in the attribution
    /// tables).
    pub origin: DomainName,
    /// Causes and, per cause, the indices of the earlier connections that
    /// could have carried the traffic.
    pub causes: BTreeMap<Cause, Vec<usize>>,
    /// `true` if the server had excluded the domain via HTTP 421 (such
    /// connections are ignored by the redundancy analysis).
    pub excluded: bool,
}

impl ClassifiedConnection {
    /// `true` if at least one cause applies.
    pub fn is_redundant(&self) -> bool {
        !self.excluded && !self.causes.is_empty()
    }

    /// `true` if the given cause applies.
    pub fn has_cause(&self, cause: Cause) -> bool {
        self.causes.contains_key(&cause)
    }

    /// The earlier-connection indices recorded for a cause.
    pub fn previous_for(&self, cause: Cause) -> &[usize] {
        self.causes.get(&cause).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The classification of one site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteClassification {
    /// The site's landing domain.
    pub site: DomainName,
    /// Total HTTP/2 connections observed.
    pub total_connections: usize,
    /// Per-connection classification, in establishment order.
    pub connections: Vec<ClassifiedConnection>,
}

impl SiteClassification {
    /// Number of redundant connections.
    pub fn redundant_connections(&self) -> usize {
        self.connections.iter().filter(|c| c.is_redundant()).count()
    }

    /// Number of connections carrying the given cause.
    pub fn connections_with_cause(&self, cause: Cause) -> usize {
        self.connections.iter().filter(|c| c.has_cause(cause)).count()
    }
}

/// One connection as the §4.1 rule reads it.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionRecord {
    /// Session identifier; breaks ties between equal establishment times.
    pub id: ConnectionId,
    /// The host the session was opened for.
    pub initial_domain: DomainName,
    /// Destination address.
    pub ip: IpAddr,
    /// Destination port.
    pub port: u16,
    /// When the session was established.
    pub established_at: Instant,
    /// When the session closed, if known.
    pub closed_at: Option<Instant>,
    /// Send time of the last request on the session (its establishment time
    /// if it carried none).
    pub last_request_at: Instant,
    /// `true` if a server excluded the initial domain via HTTP 421 anywhere
    /// on the site: the connection gets no causes, but stays an earlier
    /// partner for the connections after it.
    pub excluded: bool,
}

impl ConnectionRecord {
    /// `true` if the session was open (established and not yet closed under
    /// `model`) at instant `t`. A recorded close at `t` means closed at `t`:
    /// such a connection cannot carry a request at `t`, the same half-open
    /// interval the loader's `Connection::is_open_at` uses. Under
    /// `Immediate` the last request's own instant still counts as open.
    fn open_at(&self, t: Instant, model: DurationModel) -> bool {
        let open = match model {
            DurationModel::Endless => true,
            DurationModel::Immediate => t <= self.last_request_at,
            DurationModel::Recorded => self.closed_at.is_none_or(|closed| t < closed),
        };
        self.established_at <= t && open
    }
}

/// The §4.1 pair rule: the cause an earlier `previous` connection gives
/// `connection`, or `None` if it was on another port, not open at
/// `connection`'s establishment, or an unavoidable third party. `covers`
/// answers whether `previous`'s certificate covers `connection`'s initial
/// domain; it is only asked for pairs that pass the port and open checks.
fn pair_cause(
    previous: &ConnectionRecord,
    connection: &ConnectionRecord,
    model: DurationModel,
    covers: impl FnOnce() -> bool,
) -> Option<Cause> {
    if previous.port != connection.port || !previous.open_at(connection.established_at, model) {
        return None;
    }
    let covers = covers();
    if previous.ip == connection.ip {
        Some(if covers { Cause::Cred } else { Cause::Cert })
    } else if previous.initial_domain == connection.initial_domain {
        // Same-initial-domain on different IPs: only happens when the
        // credentials partition forbade reuse and DNS announced several
        // addresses — counted as CRED, not IP (§4.1).
        Some(Cause::Cred)
    } else if covers {
        Some(Cause::Ip)
    } else {
        None
    }
}

/// The establishment-order loop. Fills `order` with the indices of
/// `records` sorted by `(established_at, id)` and hands `sink` every
/// `(connection, cause, earlier partner)` triple as record indices:
/// connections in establishment order, each one's partners in establishment
/// order. Excluded records get no causes. `covers(i, domain)` answers
/// whether record `i`'s certificate covers `domain`.
pub(crate) fn for_each_pair(
    records: &[ConnectionRecord],
    order: &mut Vec<u32>,
    model: DurationModel,
    covers: impl Fn(usize, &DomainName) -> bool,
    mut sink: impl FnMut(usize, Cause, usize),
) {
    order.clear();
    order.extend(0..records.len() as u32);
    // The index tie-break keeps equal keys in record order, as a stable sort
    // would, without the stable sort's scratch buffer.
    order.sort_unstable_by_key(|&i| (records[i as usize].established_at, records[i as usize].id, i));
    for (position, &index) in order.iter().enumerate() {
        let connection = &records[index as usize];
        if connection.excluded {
            continue;
        }
        for &previous in &order[..position] {
            let previous = previous as usize;
            let covers = || covers(previous, &connection.initial_domain);
            if let Some(cause) = pair_cause(&records[previous], connection, model, covers) {
                sink(index as usize, cause, previous);
            }
        }
    }
}

/// An observed connection as a kernel record.
fn record(connection: &ObservedConnection, excluded: bool) -> ConnectionRecord {
    ConnectionRecord {
        id: connection.id,
        initial_domain: connection.initial_domain,
        ip: connection.ip,
        port: connection.port,
        established_at: connection.established_at,
        closed_at: connection.closed_at,
        last_request_at: connection.last_request_at(),
        excluded,
    }
}

/// Classify one site's observed connections under a duration model.
pub fn classify_site(site: &SiteObservation, model: DurationModel) -> SiteClassification {
    // Domains the servers explicitly excluded via HTTP 421 anywhere on the
    // site: connections for them get no causes (§4.1 / §4.3).
    let excluded_domains: BTreeSet<&DomainName> = site
        .connections
        .iter()
        .flat_map(|c| c.requests.iter())
        .filter(|r| r.status == 421)
        .map(|r| &r.domain)
        .collect();
    let records: Vec<ConnectionRecord> =
        site.connections.iter().map(|c| record(c, excluded_domains.contains(&c.initial_domain))).collect();

    let mut order = Vec::with_capacity(records.len());
    let mut causes: Vec<BTreeMap<Cause, Vec<usize>>> = vec![BTreeMap::new(); records.len()];
    for_each_pair(
        &records,
        &mut order,
        model,
        |index, domain| site.connections[index].covers(domain),
        |index, cause, previous| causes[index].entry(cause).or_default().push(previous),
    );

    let connections = order
        .iter()
        .map(|&index| {
            let index = index as usize;
            ClassifiedConnection {
                index,
                origin: records[index].initial_domain,
                causes: std::mem::take(&mut causes[index]),
                excluded: records[index].excluded,
            }
        })
        .collect();
    SiteClassification { site: site.site, total_connections: records.len(), connections }
}

/// Classify every site of a dataset. The result is aligned index-by-index
/// with `dataset.sites`; sites without any HTTP/2 connection yield an empty
/// classification (they are excluded from aggregate totals downstream).
pub fn classify_dataset(dataset: &Dataset, model: DurationModel) -> Vec<SiteClassification> {
    dataset.sites.iter().map(|s| classify_site(s, model)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{ObservedConnection, ObservedRequest};
    use netsim_tls::{Issuer, SanEntry};
    use netsim_types::Duration;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn conn(id: u64, domain: &str, ip: IpAddr, san: &[&str], start_ms: u64) -> ObservedConnection {
        ObservedConnection {
            id: ConnectionId(id),
            initial_domain: d(domain),
            ip,
            port: 443,
            san: san.iter().map(|s| SanEntry::parse(s).unwrap()).collect(),
            issuer: Issuer::lets_encrypt(),
            established_at: Instant::from_millis(start_ms),
            closed_at: None,
            requests: vec![ObservedRequest {
                domain: d(domain),
                status: 200,
                started_at: Instant::from_millis(start_ms + 1),
            }],
        }
    }

    fn site(connections: Vec<ObservedConnection>) -> SiteObservation {
        SiteObservation { site: d("example.com"), connections }
    }

    const IP_A: IpAddr = IpAddr::new(10, 0, 0, 1);
    const IP_B: IpAddr = IpAddr::new(10, 0, 0, 2);

    #[test]
    fn single_connection_is_never_redundant() {
        let s = site(vec![conn(1, "example.com", IP_A, &["example.com"], 0)]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.redundant_connections(), 0);
        assert_eq!(result.total_connections, 1);
    }

    #[test]
    fn cred_cause_same_ip_covered() {
        let s = site(vec![
            conn(1, "fonts.googleapis.com", IP_A, &["fonts.googleapis.com", "ajax.googleapis.com"], 0),
            conn(2, "ajax.googleapis.com", IP_A, &["fonts.googleapis.com", "ajax.googleapis.com"], 100),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.connections_with_cause(Cause::Cred), 1);
        assert_eq!(result.connections_with_cause(Cause::Cert), 0);
        assert_eq!(result.connections_with_cause(Cause::Ip), 0);
        assert_eq!(result.redundant_connections(), 1);
        assert_eq!(result.connections[1].previous_for(Cause::Cred), &[0]);
    }

    #[test]
    fn cert_cause_same_ip_not_covered() {
        let s = site(vec![
            conn(1, "static.klaviyo.com", IP_A, &["static.klaviyo.com"], 0),
            conn(2, "fast.a.klaviyo.com", IP_A, &["fast.a.klaviyo.com"], 100),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.connections_with_cause(Cause::Cert), 1);
        assert_eq!(result.connections_with_cause(Cause::Ip), 0);
        assert_eq!(result.connections[1].previous_for(Cause::Cert), &[0]);
    }

    #[test]
    fn ip_cause_different_ip_covered() {
        let shared_san = &["www.googletagmanager.com", "www.google-analytics.com"];
        let s = site(vec![
            conn(1, "www.googletagmanager.com", IP_A, shared_san, 0),
            conn(2, "www.google-analytics.com", IP_B, shared_san, 100),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.connections_with_cause(Cause::Ip), 1);
        assert_eq!(result.redundant_connections(), 1);

        // Mixed with a CERT shard and a repeat of the covered domain: #2 is
        // IP to #1; #3 is CERT to #1 (same IP, not covered) and unrelated to
        // #2; #4 is IP to #1 and CRED to #2 (same IP, covered). Nothing
        // closes, so Recorded equals Endless; under Immediate every earlier
        // connection closed 1 ms after its start, long before the next.
        let s = site(vec![
            conn(1, "www.googletagmanager.com", IP_A, shared_san, 0),
            conn(2, "www.google-analytics.com", IP_B, shared_san, 100),
            conn(3, "static.klaviyo.com", IP_A, &["static.klaviyo.com"], 200),
            conn(4, "www.google-analytics.com", IP_B, shared_san, 300),
        ]);
        for model in [DurationModel::Endless, DurationModel::Recorded] {
            let result = classify_site(&s, model);
            assert_eq!(result.redundant_connections(), 3, "{model:?}");
            assert_eq!(result.connections_with_cause(Cause::Cert), 1, "{model:?}");
            assert_eq!(result.connections_with_cause(Cause::Ip), 2, "{model:?}");
            assert_eq!(result.connections_with_cause(Cause::Cred), 1, "{model:?}");
            assert_eq!(result.connections[2].previous_for(Cause::Cert), &[0]);
            assert_eq!(result.connections[3].previous_for(Cause::Ip), &[0]);
            assert_eq!(result.connections[3].previous_for(Cause::Cred), &[1]);
        }
        let immediate = classify_site(&s, DurationModel::Immediate);
        assert_eq!(immediate.total_connections, 4);
        assert_eq!(immediate.redundant_connections(), 0);
    }

    #[test]
    fn close_instant_boundaries_are_pinned() {
        // The first connection's last request and its recorded close both
        // fall at `end_ms`, so Recorded and Immediate read the same instant;
        // the second connection is CRED to it whenever it is still open.
        let san = &["fonts.googleapis.com", "ajax.googleapis.com"];
        let redundant = |end_ms: u64, second_ms: u64, model: DurationModel| {
            let mut first = conn(1, "fonts.googleapis.com", IP_A, san, 0);
            first.closed_at = Some(Instant::from_millis(end_ms));
            first.requests[0].started_at = Instant::from_millis(end_ms);
            let s = site(vec![first, conn(2, "ajax.googleapis.com", IP_A, san, second_ms)]);
            classify_site(&s, model).redundant_connections()
        };
        for model in [DurationModel::Recorded, DurationModel::Immediate] {
            assert_eq!(redundant(100, 99, model), 1, "{model:?}: open before its end");
            assert_eq!(redundant(100, 101, model), 0, "{model:?}: closed after its end");
        }
        assert_eq!(redundant(100, 100, DurationModel::Recorded), 0, "closed at its close instant");
        assert_eq!(redundant(100, 100, DurationModel::Immediate), 1, "open at its last request");
    }

    #[test]
    fn unknown_third_party_is_not_redundant() {
        let s = site(vec![
            conn(1, "example.com", IP_A, &["example.com"], 0),
            conn(2, "tracker.example.net", IP_B, &["tracker.example.net"], 100),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.redundant_connections(), 0);
    }

    #[test]
    fn same_domain_different_ip_is_cred_corner_case() {
        let s = site(vec![
            conn(1, "www.google-analytics.com", IP_A, &["www.google-analytics.com"], 0),
            conn(2, "www.google-analytics.com", IP_B, &["www.google-analytics.com"], 100),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.connections_with_cause(Cause::Cred), 1);
        assert_eq!(result.connections_with_cause(Cause::Ip), 0, "corner case must not count as IP");
    }

    #[test]
    fn http_421_exclusion_suppresses_classification() {
        let mut excluded = conn(2, "api.example.com", IP_A, &["api.example.com"], 100);
        excluded.requests[0].status = 421;
        let s = site(vec![conn(1, "example.com", IP_A, &["example.com", "api.example.com"], 0), excluded]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.redundant_connections(), 0);
        assert!(result.connections[1].excluded);
        assert!(!result.connections[1].is_redundant());
    }

    #[test]
    fn http_421_excludes_other_connections_and_keeps_them_as_partners() {
        // The 421 arrives on A's coalesced request for api.example.com, so B
        // — a different connection opened for that host — is excluded. C,
        // opened after B on the same IP with a certificate neither earlier
        // one covers, is CERT-redundant to both, B included.
        let mut a = conn(1, "example.com", IP_A, &["example.com", "api.example.com"], 0);
        a.requests.push(ObservedRequest {
            domain: d("api.example.com"),
            status: 421,
            started_at: Instant::from_millis(50),
        });
        let s = site(vec![
            a,
            conn(2, "api.example.com", IP_A, &["api.example.com"], 100),
            conn(3, "static.example.com", IP_A, &["static.example.com"], 200),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert!(!result.connections[0].excluded);
        assert!(result.connections[1].excluded, "excluded by a 421 seen on another connection");
        assert!(result.connections[1].causes.is_empty());
        assert!(!result.connections[2].excluded);
        assert_eq!(result.connections[2].previous_for(Cause::Cert), &[0, 1]);
        assert_eq!(result.redundant_connections(), 1);
    }

    #[test]
    fn immediate_model_forgets_closed_connections() {
        // First connection's last request is at t=1ms; the second connection
        // opens at t=60s. Under the immediate model the first is gone.
        let shared = &["a.example.com", "b.example.com"];
        let s = site(vec![
            conn(1, "a.example.com", IP_A, shared, 0),
            conn(2, "b.example.com", IP_A, shared, 60_000),
        ]);
        let endless = classify_site(&s, DurationModel::Endless);
        let immediate = classify_site(&s, DurationModel::Immediate);
        assert_eq!(endless.redundant_connections(), 1);
        assert_eq!(immediate.redundant_connections(), 0);
    }

    #[test]
    fn open_intervals_per_model() {
        let observed = |id, start_ms, closed_ms: Option<u64>| {
            let mut c = conn(id, "example.com", IP_A, &["example.com"], start_ms);
            c.closed_at = closed_ms.map(Instant::from_millis);
            c.requests.push(ObservedRequest {
                domain: d("img.example.com"),
                status: 200,
                started_at: Instant::from_millis(start_ms + 80),
            });
            c
        };
        let (open_observed, closed_observed) = (observed(1, 100, None), observed(2, 100, Some(10_000)));
        let (open, closed) = (record(&open_observed, false), record(&closed_observed, false));
        assert_eq!(open.last_request_at, Instant::from_millis(180));
        let probe = Instant::from_millis(5_000);
        assert!(open.open_at(probe, DurationModel::Endless));
        assert!(open.open_at(probe, DurationModel::Recorded));
        assert!(!open.open_at(probe, DurationModel::Immediate), "last request was at t=180ms");
        assert!(open.open_at(Instant::from_millis(150), DurationModel::Immediate));
        assert!(closed.open_at(probe, DurationModel::Recorded));
        assert!(!closed.open_at(Instant::from_millis(20_000), DurationModel::Recorded));
        assert!(!open.open_at(Instant::from_millis(50), DurationModel::Endless), "not yet established");
        assert_eq!(closed_observed.lifetime(), Some(Duration::from_millis(9_900)));
        assert_eq!(open_observed.lifetime(), None);
    }

    #[test]
    fn recorded_model_uses_close_times() {
        let shared = &["a.example.com", "b.example.com"];
        let mut first = conn(1, "a.example.com", IP_A, shared, 0);
        first.closed_at = Some(Instant::from_millis(30_000));
        let s = site(vec![first, conn(2, "b.example.com", IP_A, shared, 60_000)]);
        let recorded = classify_site(&s, DurationModel::Recorded);
        assert_eq!(recorded.redundant_connections(), 0);
        let endless = classify_site(&s, DurationModel::Endless);
        assert_eq!(endless.redundant_connections(), 1);
        assert_eq!(endless.connections[1].previous_for(Cause::Cred), &[0]);
        // The first connection's last request was at 1 ms.
        assert_eq!(classify_site(&s, DurationModel::Immediate).redundant_connections(), 0);
    }

    #[test]
    fn paper_worked_example_multi_cause_counts() {
        // Four successively opened same-IP connections; #1/#3 use cert A
        // (covering a.example.com), #2/#4 use cert B (covering b.example.com).
        // Expected (§4.1): three redundant connections, CERT counted for
        // three of them, CRED for two.
        let s = site(vec![
            conn(1, "a.example.com", IP_A, &["a.example.com"], 0),
            conn(2, "b.example.com", IP_A, &["b.example.com"], 100),
            conn(3, "a.example.com", IP_A, &["a.example.com"], 200),
            conn(4, "b.example.com", IP_A, &["b.example.com"], 300),
        ]);
        let result = classify_site(&s, DurationModel::Endless);
        assert_eq!(result.redundant_connections(), 3);
        assert_eq!(result.connections_with_cause(Cause::Cert), 3);
        assert_eq!(result.connections_with_cause(Cause::Cred), 2);
        assert_eq!(result.connections_with_cause(Cause::Ip), 0);
        // #4 is CERT-redundant to #1 and #3, CRED-redundant to #2.
        let fourth = &result.connections[3];
        assert_eq!(fourth.previous_for(Cause::Cert).len(), 2);
        assert_eq!(fourth.previous_for(Cause::Cred).len(), 1);
    }

    #[test]
    fn classify_dataset_is_aligned_with_sites() {
        let dataset = Dataset::new(
            "test",
            vec![
                site(vec![conn(1, "example.com", IP_A, &["example.com"], 0)]),
                SiteObservation { site: d("empty.com"), connections: vec![] },
            ],
        );
        let results = classify_dataset(&dataset, DurationModel::Endless);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].total_connections, 1);
        assert_eq!(results[1].total_connections, 0);
        assert_eq!(results[1].site, d("empty.com"));
    }
}
