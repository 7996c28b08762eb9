//! Certificates and SAN coverage.

use netsim_types::{DomainName, Instant};
use std::fmt;

/// Identifies one issued certificate within a [`crate::CertificateStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CertificateId(pub u64);

impl fmt::Display for CertificateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cert-{}", self.0)
    }
}

impl fmt::Debug for CertificateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// One Subject-Alternative-Name entry. Only DNS names matter for Connection
/// Reuse; a wildcard entry covers exactly one additional left-most label
/// (RFC 6125 §6.4.3).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum SanEntry {
    /// An exact DNS name, e.g. `www.example.com`.
    Dns(DomainName),
    /// A wildcard DNS name, e.g. `*.example.com` (stored without the `*.`).
    Wildcard(DomainName),
}

impl SanEntry {
    /// Parse a textual SAN entry, recognising a leading `*.` as a wildcard.
    pub fn parse(text: &str) -> Option<SanEntry> {
        if let Some(rest) = text.strip_prefix("*.") {
            DomainName::parse(rest).ok().map(SanEntry::Wildcard)
        } else {
            DomainName::parse(text).ok().map(SanEntry::Dns)
        }
    }

    /// `true` if this entry makes the certificate valid for `domain`.
    #[inline]
    pub fn covers(&self, domain: &DomainName) -> bool {
        match self {
            SanEntry::Dns(name) => name == domain,
            // A wildcard spans exactly one label: the candidate's parent must
            // be the wildcard base (which also makes it a strict subdomain).
            SanEntry::Wildcard(base) => domain.is_child_of(base),
        }
    }

    /// Textual form as it would appear in a certificate.
    pub fn as_text(&self) -> String {
        match self {
            SanEntry::Dns(name) => name.to_string(),
            SanEntry::Wildcard(base) => format!("*.{base}"),
        }
    }
}

impl fmt::Display for SanEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_text())
    }
}

impl fmt::Debug for SanEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "San({self})")
    }
}

/// A leaf certificate as seen by the browser during the TLS handshake.
///
/// Chain building and signature verification are out of scope: the analysis
/// only needs SAN coverage, the issuer organisation (Tables 3, 5, 9) and the
/// validity window (the Alexa crawl "does not ignore certificate errors", so
/// expired certificates abort the page load).
#[derive(Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Store-assigned identifier (doubles as the serial number).
    pub id: CertificateId,
    /// The subject common name; by convention the first SAN.
    pub subject: DomainName,
    /// Subject Alternative Names.
    pub san: Vec<SanEntry>,
    /// Organisation of the issuing CA.
    pub issuer: crate::issuer::Issuer,
    /// Start of the validity window.
    pub not_before: Instant,
    /// End of the validity window.
    pub not_after: Instant,
}

impl Certificate {
    /// `true` if the certificate is valid for `domain` via any SAN entry.
    pub fn covers(&self, domain: &DomainName) -> bool {
        self.san.iter().any(|entry| entry.covers(domain))
    }

    /// All exact DNS names listed in the SAN (wildcards excluded).
    pub fn dns_names(&self) -> impl Iterator<Item = &DomainName> {
        self.san.iter().filter_map(|entry| match entry {
            SanEntry::Dns(name) => Some(name),
            SanEntry::Wildcard(_) => None,
        })
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Certificate({} subject={} issuer={} sans={})",
            self.id,
            self.subject,
            self.issuer.organization(),
            self.san.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::issuer::Issuer;
    use netsim_types::Duration;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn cert(sans: &[&str]) -> Certificate {
        Certificate {
            id: CertificateId(1),
            subject: d(sans[0].trim_start_matches("*.")),
            san: sans.iter().map(|s| SanEntry::parse(s).unwrap()).collect(),
            issuer: Issuer::lets_encrypt(),
            not_before: Instant::EPOCH,
            not_after: Instant::EPOCH + Duration::from_days(90),
        }
    }

    #[test]
    fn exact_san_coverage() {
        let c = cert(&["www.example.com", "example.com"]);
        assert!(c.covers(&d("www.example.com")));
        assert!(c.covers(&d("example.com")));
        assert!(!c.covers(&d("img.example.com")));
    }

    #[test]
    fn wildcard_spans_single_label() {
        let c = cert(&["*.example.com"]);
        assert!(c.covers(&d("img.example.com")));
        assert!(c.covers(&d("static.example.com")));
        assert!(!c.covers(&d("example.com")));
        assert!(!c.covers(&d("a.b.example.com")));
        assert!(!c.covers(&d("example.org")));
    }

    #[test]
    fn dns_names_exclude_wildcards() {
        let c = cert(&["example.com", "*.example.com", "www.example.com"]);
        let names: Vec<String> = c.dns_names().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["example.com", "www.example.com"]);
    }

    #[test]
    fn san_entry_parse_and_display() {
        assert_eq!(SanEntry::parse("*.shop.example").unwrap().as_text(), "*.shop.example");
        assert_eq!(SanEntry::parse("cdn.example.com").unwrap().as_text(), "cdn.example.com");
        assert!(SanEntry::parse("").is_none());
    }
}
