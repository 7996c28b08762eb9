//! Web origins.
//!
//! The paper attributes redundant connections to "origins" — the
//! scheme/host/port triple of the connection's initially requested resource
//! (Table 2, Table 12). [`Origin`] captures that triple; the default scheme
//! and port follow the measurement setup (HTTPS, 443), since only TLS
//! connections participate in HTTP/2 Connection Reuse.
//!
//! With [`crate::DomainName`] a `Copy` handle, `Origin` is a 32-byte `Copy`
//! value.

use crate::domain::DomainName;
use std::fmt;

/// URL scheme of an origin. The simulation only ever speaks `https` (HTTP/2
/// Connection Reuse requires TLS), but `http` is kept so that HAR
/// inconsistency injection can produce the HTTP/1-over-cleartext requests the
/// paper filters out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Cleartext HTTP.
    Http,
    /// HTTP over TLS.
    Https,
}

impl Scheme {
    /// The default port for the scheme.
    pub const fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Canonical textual form.
    pub const fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A web origin: scheme, host and port. `Copy` — the host is a
/// [`DomainName`] handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Origin {
    /// URL scheme.
    pub scheme: Scheme,
    /// Host name.
    pub host: DomainName,
    /// TCP port.
    pub port: u16,
}

impl Origin {
    /// An `https://host:443` origin — the common case throughout the study.
    pub fn https(host: DomainName) -> Self {
        Origin { scheme: Scheme::Https, host, port: 443 }
    }

    /// An origin with an explicit scheme and port.
    pub fn new(scheme: Scheme, host: DomainName, port: u16) -> Self {
        Origin { scheme, host, port }
    }

    /// Parse `scheme://host[:port]`.
    pub fn parse(input: &str) -> Option<Origin> {
        let (scheme, rest) = input.split_once("://")?;
        let scheme = match scheme {
            "http" => Scheme::Http,
            "https" => Scheme::Https,
            _ => return None,
        };
        let rest = rest.split('/').next().unwrap_or(rest);
        let (host, port) = match rest.rsplit_once(':') {
            Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => (h, p.parse().ok()?),
            _ => (rest, scheme.default_port()),
        };
        Some(Origin { scheme, host: DomainName::parse(host).ok()?, port })
    }

    /// `true` if `self` and `other` use the same scheme and port — a
    /// precondition for RFC 7540 §9.1.1 connection reuse.
    pub fn same_scheme_port(&self, other: &Origin) -> bool {
        self.scheme == other.scheme && self.port == other.port
    }

    /// The ASCII serialisation `scheme://host[:port]` with the default port
    /// omitted, as used in report tables.
    pub fn ascii(&self) -> String {
        if self.port == self.scheme.default_port() {
            format!("{}://{}", self.scheme, self.host)
        } else {
            format!("{}://{}:{}", self.scheme, self.host, self.port)
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.ascii())
    }
}

impl fmt::Debug for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Origin({})", self.ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    #[test]
    fn https_origin_defaults() {
        let o = Origin::https(d("www.example.com"));
        assert_eq!(o.port, 443);
        assert_eq!(o.scheme, Scheme::Https);
        assert_eq!(o.ascii(), "https://www.example.com");
    }

    #[test]
    fn parse_with_and_without_port() {
        let o = Origin::parse("https://cdn.example.com:8443/path/x").unwrap();
        assert_eq!(o.port, 8443);
        assert_eq!(o.host, d("cdn.example.com"));
        let p = Origin::parse("http://example.com").unwrap();
        assert_eq!(p.port, 80);
        assert_eq!(p.scheme, Scheme::Http);
        assert!(Origin::parse("ftp://example.com").is_none());
        assert!(Origin::parse("nonsense").is_none());
    }

    #[test]
    fn scheme_port_comparison() {
        let a = Origin::https(d("a.example.com"));
        let b = Origin::https(d("b.example.com"));
        let c = Origin::new(Scheme::Https, d("c.example.com"), 8443);
        assert!(a.same_scheme_port(&b));
        assert!(!a.same_scheme_port(&c));
    }

    #[test]
    fn display_omits_default_port() {
        let a = Origin::https(d("x.example.org"));
        assert_eq!(a.to_string(), "https://x.example.org");
        let b = Origin::new(Scheme::Https, d("x.example.org"), 444);
        assert_eq!(b.to_string(), "https://x.example.org:444");
    }
}
