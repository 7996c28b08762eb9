//! IPv4 addresses and prefixes.
//!
//! The paper's `IP` cause hinges on whether two DNS answers point to the same
//! destination address, and its analysis repeatedly reasons about "slightly
//! different IPs in the same /24 network". The simulation therefore needs a
//! small, dependency-free address type with prefix math (containment, /24
//! neighbourhood, iteration) rather than `std::net::Ipv4Addr` plus ad-hoc bit
//! twiddling scattered across crates.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Build an address from its four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [(self.0 >> 24) as u8, (self.0 >> 16) as u8, (self.0 >> 8) as u8, self.0 as u8]
    }

    /// The enclosing prefix of arbitrary length.
    pub fn prefix(self, len: u8) -> Prefix {
        Prefix::new(self, len)
    }

    /// The address `offset` hosts above this one (wrapping).
    pub const fn offset(self, offset: u32) -> IpAddr {
        IpAddr(self.0.wrapping_add(offset))
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IpAddr({self})")
    }
}

/// Errors from parsing dotted-quad / CIDR text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpParseError {
    /// The dotted-quad part was malformed.
    BadAddress(String),
    /// The prefix length was missing, non-numeric or > 32.
    BadPrefixLength(String),
}

impl fmt::Display for IpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpParseError::BadAddress(s) => write!(f, "invalid IPv4 address: {s:?}"),
            IpParseError::BadPrefixLength(s) => write!(f, "invalid prefix length: {s:?}"),
        }
    }
}

impl std::error::Error for IpParseError {}

impl FromStr for IpAddr {
    type Err = IpParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.trim().split('.').collect();
        if parts.len() != 4 {
            return Err(IpParseError::BadAddress(s.to_string()));
        }
        let mut octets = [0u8; 4];
        for (i, part) in parts.iter().enumerate() {
            octets[i] = part.parse::<u8>().map_err(|_| IpParseError::BadAddress(s.to_string()))?;
        }
        Ok(IpAddr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 CIDR prefix, e.g. `142.250.74.0/24`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix {
    base: IpAddr,
    len: u8,
}

impl Prefix {
    /// Create a prefix, masking the base address down to `len` bits.
    pub fn new(base: IpAddr, len: u8) -> Self {
        let len = len.min(32);
        Prefix { base: IpAddr(base.0 & Self::mask(len)), len }
    }

    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// The (masked) network address.
    pub const fn base(&self) -> IpAddr {
        self.base
    }

    /// The prefix length in bits.
    ///
    /// This is a CIDR mask length, not a container length, so there is no
    /// matching `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered by the prefix.
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// `true` if `addr` falls within the prefix.
    pub fn contains(&self, addr: IpAddr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.base.0
    }

    /// `true` if `other` is fully covered by `self`.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.base)
    }

    /// The `i`-th host address inside the prefix (wrapping within the prefix).
    pub fn host(&self, i: u64) -> IpAddr {
        IpAddr(self.base.0 + (i % self.size()) as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = IpParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| IpParseError::BadPrefixLength(s.to_string()))?;
        let base: IpAddr = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| IpParseError::BadPrefixLength(s.to_string()))?;
        if len > 32 {
            return Err(IpParseError::BadPrefixLength(s.to_string()));
        }
        Ok(Prefix::new(base, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip_and_display() {
        let ip = IpAddr::new(142, 250, 74, 14);
        assert_eq!(ip.octets(), [142, 250, 74, 14]);
        assert_eq!(ip.to_string(), "142.250.74.14");
        assert_eq!("142.250.74.14".parse::<IpAddr>().unwrap(), ip);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
    }

    #[test]
    fn slash24_grouping() {
        let a = IpAddr::new(142, 250, 74, 14);
        let b = IpAddr::new(142, 250, 74, 206);
        let c = IpAddr::new(142, 250, 75, 14);
        assert_eq!(a.prefix(24), b.prefix(24));
        assert_ne!(a.prefix(24), c.prefix(24));
        assert_eq!(a.prefix(24).to_string(), "142.250.74.0/24");
    }

    #[test]
    fn prefix_contains_and_covers() {
        let p: Prefix = "10.20.0.0/16".parse().unwrap();
        assert!(p.contains(IpAddr::new(10, 20, 200, 1)));
        assert!(!p.contains(IpAddr::new(10, 21, 0, 1)));
        let q: Prefix = "10.20.30.0/24".parse().unwrap();
        assert!(p.covers(&q));
        assert!(!q.covers(&p));
        assert_eq!(p.size(), 65536);
    }

    #[test]
    fn prefix_hosts_and_subnets() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        assert_eq!(p.host(0), IpAddr::new(192, 0, 2, 0));
        assert_eq!(p.host(255), IpAddr::new(192, 0, 2, 255));
        assert_eq!(p.host(256), IpAddr::new(192, 0, 2, 0));
        let sub = Prefix::new(p.host(64), 26);
        assert!(p.covers(&sub));
        assert_eq!(sub.base(), IpAddr::new(192, 0, 2, 64));
        assert_eq!(sub.host(64), sub.base());
    }

    #[test]
    fn prefix_normalises_base() {
        let p = Prefix::new(IpAddr::new(10, 0, 0, 77), 24);
        assert_eq!(p.base(), IpAddr::new(10, 0, 0, 0));
    }
}
