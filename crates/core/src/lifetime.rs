//! Connection-lifetime statistics (§5.1).
//!
//! The paper reports that connections in the own measurement are long-lived:
//! only 3.5 % close before the test ends, and those that do have a median
//! lifetime of 122.2 s — which is why the endless and recorded duration
//! models give nearly identical redundancy counts.

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
    /// The statistics of `total_connections` connections, of which those in
    /// `closed` closed after the given lifetimes (in any order).
    pub fn of(total_connections: usize, closed: &[Duration]) -> Self {
        let mut lifetimes = closed.to_vec();
        lifetimes.sort_unstable();
        LifetimeStatistics {
            total_connections,
            closed_connections: lifetimes.len(),
            median_lifetime: lifetimes.get(lifetimes.len() / 2).copied(),
        }
    }

    /// Fraction of connections that closed before the measurement ended.
    pub fn closed_share(&self) -> f64 {
        if self.total_connections == 0 {
            0.0
        } else {
            self.closed_connections as f64 / self.total_connections as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_over_mixed_lifetimes() {
        let closed = [180_000, 122_000, 100_000].map(Duration::from_millis);
        let stats = LifetimeStatistics::of(5, &closed);
        assert_eq!(stats.total_connections, 5);
        assert_eq!(stats.closed_connections, 3);
        assert!((stats.closed_share() - 0.6).abs() < 1e-9);
        assert_eq!(stats.median_lifetime, Some(Duration::from_millis(122_000)));
    }

    #[test]
    fn empty_dataset_yields_zeroes() {
        let stats = LifetimeStatistics::of(0, &[]);
        assert_eq!(stats.total_connections, 0);
        assert_eq!(stats.closed_share(), 0.0);
        assert_eq!(stats.median_lifetime, None);
    }
}
