//! Prefix allocation and IP-to-AS lookup.

use netsim_types::{IpAddr, Prefix};
use std::fmt;
use std::sync::Arc;

/// An autonomous-system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An autonomous system: number plus the short name used in report tables.
/// `Copy`: every name is a literal or comes from a process-wide table, so
/// announcing a prefix copies two words instead of a string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AutonomousSystem {
    /// AS number.
    pub asn: Asn,
    /// Short AS name (e.g. `GOOGLE`, `AMAZON-02`).
    pub name: &'static str,
}

impl AutonomousSystem {
    /// Construct from number and name.
    pub const fn new(asn: u32, name: &'static str) -> Self {
        AutonomousSystem { asn: Asn(asn), name }
    }
}

impl fmt::Display for AutonomousSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.asn)
    }
}

impl fmt::Debug for AutonomousSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The registry: which prefixes belong to which AS, plus an allocator that
/// hands out fresh /24s to operators as the population generator builds the
/// hosting landscape.
///
/// A registry can be *layered* over a shared immutable base
/// ([`AsRegistry::reset`]): allocation continues where the base stopped
/// (so prefixes stay distinct and identical to a monolithic build) and
/// lookups consult both layers.
#[derive(Clone, Debug, Default)]
pub struct AsRegistry {
    /// Announced prefixes, sorted by prefix (all /24 or shorter). The
    /// allocator hands out prefixes in increasing order, so allocating
    /// appends.
    announcements: Vec<(Prefix, AutonomousSystem)>,
    /// Next /16 block index used by [`AsRegistry::allocate_slash24`].
    next_block: u32,
    /// Shared read-only announcements consulted on lookup misses.
    base: Option<Arc<AsRegistry>>,
}

impl AsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AsRegistry::default()
    }

    /// Drop the local announcements, keeping their capacity, and layer the
    /// registry over `base` (or over nothing): the allocator restarts where
    /// the base stopped.
    pub fn reset(&mut self, base: Option<Arc<AsRegistry>>) {
        self.announcements.clear();
        self.next_block = base.as_ref().map_or(0, |base| base.next_block);
        self.base = base;
    }

    /// Announce `prefix` as belonging to `system` (replacing an earlier
    /// announcement of the same prefix).
    pub fn announce(&mut self, prefix: Prefix, system: AutonomousSystem) {
        match self.announcements.binary_search_by_key(&prefix, |(announced, _)| *announced) {
            Ok(index) => self.announcements[index].1 = system,
            Err(index) => self.announcements.insert(index, (prefix, system)),
        }
    }

    /// Allocate a fresh, previously unused /24 for `system` and announce it.
    ///
    /// Allocation walks the RFC 1918-free space starting at `20.0.0.0`,
    /// handing out consecutive /24s; the absolute values are meaningless,
    /// only distinctness matters.
    pub fn allocate_slash24(&mut self, system: AutonomousSystem) -> Prefix {
        let block = self.next_block;
        self.next_block += 1;
        // 20.x.y.0/24 with x.y derived from the counter.
        let base =
            IpAddr::new(20, ((block >> 8) & 0xFF) as u8, (block & 0xFF) as u8, 0).offset((block >> 16) << 24);
        let prefix = Prefix::new(base, 24);
        self.announce(prefix, system);
        prefix
    }

    /// Longest-prefix match: the AS announcing the most specific prefix
    /// containing `ip`, across this layer and any shared base.
    pub fn lookup(&self, ip: IpAddr) -> Option<&AutonomousSystem> {
        self.best_match(ip).map(|(_, system)| system)
    }

    /// The most specific matching announcement in this layer or its base
    /// (comparing prefix lengths across layers, like a monolithic registry).
    fn best_match(&self, ip: IpAddr) -> Option<(&Prefix, &AutonomousSystem)> {
        let local = self
            .announcements
            .iter()
            .filter(|(prefix, _)| prefix.contains(ip))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(prefix, system)| (prefix, system));
        let base = self.base.as_ref().and_then(|base| base.best_match(ip));
        match (local, base) {
            (Some(local), Some(base)) => Some(if local.0.len() >= base.0.len() { local } else { base }),
            (hit, None) | (None, hit) => hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_and_lookup() {
        let mut registry = AsRegistry::new();
        registry.announce("142.250.0.0/15".parse().unwrap(), AutonomousSystem::new(15169, "GOOGLE"));
        registry.announce("142.250.74.0/24".parse().unwrap(), AutonomousSystem::new(396982, "GOOGLE-CLOUD"));
        // Longest prefix wins.
        let hit = registry.lookup(IpAddr::new(142, 250, 74, 14)).unwrap();
        assert_eq!(hit.name, "GOOGLE-CLOUD");
        let broader = registry.lookup(IpAddr::new(142, 251, 0, 1)).unwrap();
        assert_eq!(broader.name, "GOOGLE");
        assert!(registry.lookup(IpAddr::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn allocation_produces_distinct_prefixes() {
        let mut registry = AsRegistry::new();
        let a = registry.allocate_slash24(AutonomousSystem::new(1, "A"));
        let b = registry.allocate_slash24(AutonomousSystem::new(2, "B"));
        assert_ne!(a, b);
        assert_eq!(registry.announcements.len(), 2);
        assert_eq!(registry.lookup(a.host(5)).unwrap().name, "A");
        assert_eq!(registry.lookup(b.host(200)).unwrap().name, "B");
    }

    #[test]
    fn many_allocations_stay_distinct() {
        let mut registry = AsRegistry::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            let prefix = registry.allocate_slash24(AutonomousSystem::new(i, "X"));
            assert!(seen.insert(prefix), "duplicate prefix {prefix}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Asn(15169).to_string(), "AS15169");
        assert_eq!(AutonomousSystem::new(32934, "FACEBOOK").to_string(), "FACEBOOK (AS32934)");
    }
}
