//! DNS domain names with lightweight validation.
//!
//! The connection-reuse analysis constantly needs to answer questions such as
//! "is `img.example.com` a subdomain of `example.com`?" and "does the
//! wildcard `*.shop.example` cover `img.shop.example`?". This module provides
//! a canonicalised [`DomainName`] type that answers them on the canonical
//! text.
//!
//! `DomainName` is a **copyable interned handle**: parsing canonicalises the
//! text once and stores it in the global intern table (see
//! [`crate::intern`]), so the value that flows through dns → tls → h2 →
//! fetch → browser → core is a 24-byte `Copy` struct instead of a heap
//! `String`. Equality is an id compare; ordering and hashing stay textual /
//! consistent with equality, so `BTreeMap`-backed reports are byte-identical
//! to the pre-interning representation.

use crate::intern::{intern_canonical, DomainId};
use serde::{de, value::Value, Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Errors produced when parsing a textual domain name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// The input was empty or consisted only of dots.
    Empty,
    /// A label was empty (`"a..b"`), longer than 63 octets, or the full name
    /// exceeded 253 octets.
    BadLength(String),
    /// A label contained a character outside `[a-z0-9_-]` (after
    /// lowercasing), started/ended with a hyphen, or used `*` anywhere but as
    /// the whole leftmost label of a multi-label name.
    BadCharacter(String),
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Empty => write!(f, "empty domain name"),
            DomainError::BadLength(l) => write!(f, "label or name has invalid length: {l:?}"),
            DomainError::BadCharacter(l) => write!(f, "label contains invalid character: {l:?}"),
        }
    }
}

impl std::error::Error for DomainError {}

/// A canonicalised (lower-case, no trailing dot) DNS domain name, stored as a
/// copyable handle into the global intern table.
///
/// Ordering and equality are textual on the canonical form (equality is an id
/// compare, which is equivalent because canonicalisation happens before
/// interning), which makes the type usable as a map key throughout the
/// workspace.
#[derive(Clone, Copy)]
pub struct DomainName {
    id: DomainId,
    name: &'static str,
}

impl DomainName {
    /// Parse and canonicalise a domain name.
    ///
    /// Accepts an optional trailing dot and upper-case letters; rejects empty
    /// labels, over-long labels/names and characters outside the LDH set plus
    /// `_`. A wildcard `*` is accepted only as the whole leftmost label
    /// (`*.example.com`), never inside a label (`a*b.example.com`) or further
    /// right (`www.*.example.com`) — hosts from HAR files and ORIGIN frames
    /// are untrusted input.
    pub fn parse(input: &str) -> Result<Self, DomainError> {
        let trimmed = input.trim().trim_end_matches('.');
        if trimmed.is_empty() {
            return Err(DomainError::Empty);
        }
        // Generated names arrive canonical already: copy only to lowercase.
        let lowered = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            std::borrow::Cow::Owned(trimmed.to_ascii_lowercase())
        } else {
            std::borrow::Cow::Borrowed(trimmed)
        };
        if lowered.len() > 253 {
            return Err(DomainError::BadLength(lowered.into_owned()));
        }
        for (index, label) in lowered.split('.').enumerate() {
            if label.is_empty() || label.len() > 63 {
                return Err(DomainError::BadLength(label.to_string()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DomainError::BadCharacter(label.to_string()));
            }
            // The wildcard label: the whole leftmost label of a longer name.
            if index == 0 && label == "*" && label.len() < lowered.len() {
                continue;
            }
            if !label.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
            {
                return Err(DomainError::BadCharacter(label.to_string()));
            }
        }
        Ok(Self::from_canonical(&lowered))
    }

    /// Intern a string that is already canonical (validated + lowercased).
    fn from_canonical(canonical: &str) -> Self {
        let (id, name) = intern_canonical(canonical);
        DomainName { id, name }
    }

    /// Construct a domain that is known to be valid at compile time.
    ///
    /// # Panics
    /// Panics if `input` is not a valid domain name; intended for literals in
    /// catalogs and tests.
    pub fn literal(input: &str) -> Self {
        Self::parse(input).expect("invalid domain literal")
    }

    /// The interned id — a 4-byte handle equal iff the canonical strings are
    /// equal. The raw value is assignment-order dependent; never sort by it.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The canonical textual form (lower-case, no trailing dot).
    pub fn as_str(&self) -> &'static str {
        self.name
    }

    /// Labels from leftmost (host) to rightmost (TLD).
    pub fn labels(&self) -> impl Iterator<Item = &'static str> {
        self.name.split('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// `true` if `self` equals `other` or is a strict subdomain of it
    /// (`img.example.com` is a subdomain of `example.com`).
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        if self == other {
            return true;
        }
        self.name.len() > other.name.len()
            && self.name.ends_with(other.name)
            && self.name.as_bytes()[self.name.len() - other.name.len() - 1] == b'.'
    }

    /// Prepend a label, producing `label.self`.
    pub fn with_subdomain(&self, label: &str) -> Result<DomainName, DomainError> {
        DomainName::parse(&format!("{label}.{}", self.name))
    }

    /// The parent domain's canonical text (`example.com` for
    /// `www.example.com`), or `None` for a single-label name. Sliced out of
    /// this name without touching the intern table — the form wildcard and
    /// SNI matching compare on.
    pub fn parent_str(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(_, parent)| parent)
    }

    /// `true` if the leftmost label is the wildcard label `*`.
    pub fn is_wildcard(&self) -> bool {
        self.name.starts_with("*.")
    }

    /// Whether a wildcard pattern (`*.example.com`) matches `candidate` per
    /// RFC 6125 §6.4.3: the wildcard only spans one leftmost label.
    pub fn wildcard_matches(&self, candidate: &DomainName) -> bool {
        if !self.is_wildcard() {
            return self == candidate;
        }
        let base = &self.name[2..];
        match candidate.name.strip_suffix(base) {
            Some(head) => {
                // head must be "<single-label>." and non-empty
                head.len() > 1 && head.ends_with('.') && !head[..head.len() - 1].contains('.')
            }
            None => false,
        }
    }
}

impl DomainId {
    /// Rebuild the full [`DomainName`] handle for this interned id.
    pub fn resolve(self) -> DomainName {
        DomainName { id: self, name: self.as_str() }
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Canonicalise-then-intern makes id equality equivalent to textual
        // equality of the lowercase-normalized names.
        self.id == other.id
    }
}

impl Eq for DomainName {}

impl std::hash::Hash for DomainName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with `Eq`: equal ids resolve to equal strings.
        self.id.hash(state);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Textual, NOT by id: intern ids depend on first-touch order across
        // threads, while report tables rely on deterministic (lexicographic)
        // BTreeMap iteration.
        self.name.cmp(other.name)
    }
}

impl Serialize for DomainName {
    fn serialize_value(&self) -> Value {
        Value::String(self.name.to_string())
    }
}

impl Deserialize for DomainName {
    fn deserialize_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::String(s) => DomainName::parse(s).map_err(de::Error::custom),
            _ => Err(de::Error::custom("expected domain-name string")),
        }
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({})", self.name)
    }
}

impl FromStr for DomainName {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalises() {
        let d = DomainName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
        assert_eq!(d.label_count(), 3);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(DomainName::parse(""), Err(DomainError::Empty));
        assert_eq!(DomainName::parse("..."), Err(DomainError::Empty));
        assert!(matches!(DomainName::parse("a..b"), Err(DomainError::BadLength(_))));
        assert!(matches!(DomainName::parse("exa mple.com"), Err(DomainError::BadCharacter(_))));
        assert!(matches!(DomainName::parse("-bad.com"), Err(DomainError::BadCharacter(_))));
        let long_label = "a".repeat(64);
        assert!(matches!(DomainName::parse(&format!("{long_label}.com")), Err(DomainError::BadLength(_))));
        let long_name = format!("{}.com", vec!["abcdefgh"; 32].join("."));
        assert!(matches!(DomainName::parse(&long_name), Err(DomainError::BadLength(_))));
    }

    #[test]
    fn wildcard_is_only_the_whole_leftmost_label() {
        assert_eq!(DomainName::parse("*.Example.COM").unwrap().as_str(), "*.example.com");
        assert!(DomainName::parse("*.example.com").unwrap().is_wildcard());
        let rejected = [
            ("a*b.example.com", "a*b"),
            ("*a.example.com", "*a"),
            ("www.*.example.com", "*"),
            ("example.*", "*"),
            ("**.example.com", "**"),
            ("*", "*"),
            ("*.", "*"),
        ];
        for (input, label) in rejected {
            assert_eq!(
                DomainName::parse(input),
                Err(DomainError::BadCharacter(label.to_string())),
                "{input}"
            );
        }
    }

    #[test]
    fn underscore_labels_stay_accepted() {
        assert_eq!(DomainName::parse("_dmarc.example.com").unwrap().as_str(), "_dmarc.example.com");
        assert_eq!(DomainName::parse("a_b.example.com").unwrap().label_count(), 3);
    }

    #[test]
    fn interned_ids_track_textual_equality() {
        let a = DomainName::parse("WWW.Example.COM").unwrap();
        let b = DomainName::parse("www.example.com.").unwrap();
        let c = DomainName::parse("img.example.com").unwrap();
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        assert_ne!(a.id(), c.id());
        assert_ne!(a, c);
        // The handle is Copy: no allocation on duplication.
        let copied = a;
        assert_eq!(copied, b);
    }

    #[test]
    fn ordering_is_textual_not_by_intern_id() {
        // Intern in "wrong" lexicographic order: ids ascend with first touch,
        // Ord must still be alphabetical.
        let z = DomainName::literal("zzz-intern-order.example");
        let a = DomainName::literal("aaa-intern-order.example");
        assert!(a < z);
        let mut v = [z, a];
        v.sort();
        assert_eq!(v[0], a);
    }

    #[test]
    fn subdomain_relation() {
        let root = DomainName::literal("example.com");
        let img = DomainName::literal("img.example.com");
        let other = DomainName::literal("notexample.com");
        assert!(img.is_subdomain_of(&root));
        assert!(root.is_subdomain_of(&root));
        assert!(!root.is_subdomain_of(&img));
        assert!(!other.is_subdomain_of(&root));
        // suffix-string overlap without a dot boundary must not count
        let tricky = DomainName::literal("badexample.com");
        assert!(!tricky.is_subdomain_of(&root));
    }

    #[test]
    fn wildcard_matching_single_label_only() {
        let wc = DomainName::literal("*.example.com");
        assert!(wc.wildcard_matches(&DomainName::literal("img.example.com")));
        assert!(!wc.wildcard_matches(&DomainName::literal("a.b.example.com")));
        assert!(!wc.wildcard_matches(&DomainName::literal("example.com")));
        assert!(!wc.wildcard_matches(&DomainName::literal("img.example.org")));
        let exact = DomainName::literal("img.example.com");
        assert!(exact.wildcard_matches(&DomainName::literal("img.example.com")));
        assert!(!exact.wildcard_matches(&DomainName::literal("other.example.com")));
    }

    #[test]
    fn parent_and_subdomain_builders() {
        let d = DomainName::literal("example.com");
        assert_eq!(d.with_subdomain("img").unwrap().as_str(), "img.example.com");
        assert_eq!(d.parent_str(), Some("com"));
        assert_eq!(DomainName::literal("com").parent_str(), None);
    }

    #[test]
    fn display_and_fromstr_roundtrip() {
        let d: DomainName = "Static.Hotjar.com".parse().unwrap();
        assert_eq!(d.to_string(), "static.hotjar.com");
    }

    #[test]
    fn serde_roundtrip_revalidates() {
        let d = DomainName::literal("www.example.co.uk");
        let value = d.serialize_value();
        assert_eq!(value.as_str(), Some("www.example.co.uk"));
        let back = DomainName::deserialize_value(&value).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.id(), d.id());
        assert!(DomainName::deserialize_value(&Value::String("bad domain!".to_string())).is_err());
        assert!(DomainName::deserialize_value(&Value::Null).is_err());
    }
}
