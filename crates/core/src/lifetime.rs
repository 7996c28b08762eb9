//! Connection-lifetime statistics (§5.1).
//!
//! The paper reports that connections in the own measurement are long-lived:
//! only 3.5 % close before the test ends, and those that do have a median
//! lifetime of 122.2 s — which is why the endless and recorded duration
//! models give nearly identical redundancy counts.

use crate::observation::Dataset;
use netsim_types::Duration;

/// Aggregate lifetime statistics for a dataset.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LifetimeStatistics {
    /// Total observed connections.
    pub total_connections: usize,
    /// Connections with a recorded close time.
    pub closed_connections: usize,
    /// Median lifetime of the closed connections (None when none closed).
    pub median_lifetime: Option<Duration>,
}

impl LifetimeStatistics {
    /// Fraction of connections that closed before the measurement ended.
    pub fn closed_share(&self) -> f64 {
        if self.total_connections == 0 {
            0.0
        } else {
            self.closed_connections as f64 / self.total_connections as f64
        }
    }
}

/// Compute lifetime statistics over every connection of a dataset.
pub fn lifetime_statistics(dataset: &Dataset) -> LifetimeStatistics {
    let mut lifetimes: Vec<Duration> = Vec::new();
    let mut total = 0usize;
    for site in &dataset.sites {
        for connection in &site.connections {
            total += 1;
            if let Some(lifetime) = connection.lifetime() {
                lifetimes.push(lifetime);
            }
        }
    }
    lifetimes.sort_unstable();
    let median = if lifetimes.is_empty() { None } else { Some(lifetimes[lifetimes.len() / 2]) };
    LifetimeStatistics {
        total_connections: total,
        closed_connections: lifetimes.len(),
        median_lifetime: median,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{ObservedConnection, SiteObservation};
    use netsim_tls::{Issuer, SanEntry};
    use netsim_types::{ConnectionId, DomainName, Instant, IpAddr};

    fn conn(id: u64, closed_ms: Option<u64>) -> ObservedConnection {
        ObservedConnection {
            id: ConnectionId(id),
            initial_domain: DomainName::literal("example.com"),
            ip: IpAddr::new(10, 0, 0, 1),
            port: 443,
            san: vec![SanEntry::Dns(DomainName::literal("example.com"))],
            issuer: Issuer::lets_encrypt(),
            established_at: Instant::EPOCH,
            closed_at: closed_ms.map(Instant::from_millis),
            requests: vec![],
        }
    }

    #[test]
    fn statistics_over_mixed_lifetimes() {
        let dataset = Dataset::new(
            "test",
            vec![SiteObservation {
                site: DomainName::literal("example.com"),
                connections: vec![
                    conn(1, None),
                    conn(2, Some(100_000)),
                    conn(3, Some(122_000)),
                    conn(4, Some(180_000)),
                    conn(5, None),
                ],
            }],
        );
        let stats = lifetime_statistics(&dataset);
        assert_eq!(stats.total_connections, 5);
        assert_eq!(stats.closed_connections, 3);
        assert!((stats.closed_share() - 0.6).abs() < 1e-9);
        assert_eq!(stats.median_lifetime, Some(Duration::from_millis(122_000)));
    }

    #[test]
    fn empty_dataset_yields_zeroes() {
        let stats = lifetime_statistics(&Dataset::new("empty", vec![]));
        assert_eq!(stats.total_connections, 0);
        assert_eq!(stats.closed_share(), 0.0);
        assert_eq!(stats.median_lifetime, None);
    }
}
