//! Query context: which resolver asks, and when.
//!
//! The paper's central DNS observation is that the *same* question can yield
//! different answers depending on which recursive resolver asks (their caches
//! and load-balancer assignments differ) and when. The [`QueryContext`]
//! carries exactly those dimensions to the authoritative side so that
//! [`crate::LoadBalancePolicy`] implementations can condition on them.

use netsim_types::Instant;
use std::fmt;

/// Identifies a recursive resolver (one of the 14 probe resolvers, the
/// measurement host's own resolver, or an arbitrary client resolver).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ResolverId(pub u32);

impl fmt::Display for ResolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resolver-{}", self.0)
    }
}

impl fmt::Debug for ResolverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The context in which a DNS query reaches an authoritative server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryContext {
    /// The recursive resolver forwarding the query.
    pub resolver: ResolverId,
    /// Simulated time of the query.
    pub now: Instant,
}

impl QueryContext {
    /// A query context at `now` from `resolver`.
    pub fn new(resolver: ResolverId, now: Instant) -> Self {
        QueryContext { resolver, now }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builder() {
        let ctx = QueryContext::new(ResolverId(3), Instant::from_millis(500));
        assert_eq!(ctx.resolver, ResolverId(3));
        assert_eq!(ctx.now, Instant::from_millis(500));
        assert_eq!(ctx.resolver.to_string(), "resolver-3");
    }
}
