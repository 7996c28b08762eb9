//! DNS domain names with lightweight validation.
//!
//! The connection-reuse analysis constantly needs to answer questions such as
//! "is `img.example.com` a subdomain of `example.com`?" and "does the
//! wildcard `*.shop.example` cover `img.shop.example`?". This module provides
//! a canonicalised [`DomainName`] type that answers them.
//!
//! `DomainName` is a **24-byte `Copy` handle** in one of two forms:
//!
//! * **Parsed** names (catalog, HAR, ORIGIN frames, literals) point into the
//!   global intern table (see [`crate::intern`]): parsing canonicalises the
//!   text once and stores it there.
//! * **Generated** site and shard names (`[label.]{stem}-site-{index:06}.{tld}`)
//!   are a [`SiteNames`] vocabulary entry plus the global site index. They
//!   are made without formatting any text and without an intern-table call,
//!   so a population's name memory does not grow with its size.
//!
//! Both forms cache the 64-bit FNV-1a hash of their canonical text, so the
//! traits mean the same whatever the form: equality is textual (checked on
//! the hash first, then confirmed by entry, by fields or by text), hashing
//! writes the cached word, ordering is textual, and `Display`/`Serialize`
//! print the canonical text. A parsed `atlas-site-000123.com` equals the
//! generated one, and `BTreeMap`-backed reports are byte-identical to the
//! plain-string representation.

use crate::hash::{fnv1a, fnv1a_continue};
use crate::intern::{intern_canonical, Interned};
use serde::{de, value::Value, Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

/// Longest canonical name, in octets.
const MAX_NAME_OCTETS: usize = 253;

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

/// A canonicalised (lower-case, no trailing dot) DNS domain name: a copyable
/// handle to an interned parsed name or to a generated site name, with the
/// FNV-1a hash of its text cached.
///
/// Ordering and equality are textual on the canonical form, which makes the
/// type usable as a map key throughout the workspace.
#[derive(Clone, Copy)]
pub struct DomainName {
    /// `fnv1a` of the canonical text.
    hash: u64,
    /// The interned text or the generated family the name comes from.
    entry: &'static Entry,
    /// Octets dropped from the front of an interned text (0 for a parsed
    /// name, more for its parents), or a generated name's global site index.
    at: u32,
}

// Every `PlannedRequest` and `Connection` carries names inline.
const _: () = assert!(std::mem::size_of::<DomainName>() <= 24);

/// What name handles point into; each entry is leaked once per process.
pub(crate) enum Entry {
    /// A canonical text in the intern table.
    Interned(Interned),
    /// A [`SiteNames`] family of generated names.
    Family(Family),
}

/// Lowercase letters, digits, `-` and `_`: what a canonical label holds.
fn is_label_byte(b: u8) -> bool {
    b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_'
}

/// Validate and lowercase `input`, borrowing it when it is canonical already.
fn canonicalize(input: &str) -> Result<Cow<'_, str>, DomainError> {
    let trimmed = input.trim().trim_end_matches('.');
    if trimmed.is_empty() {
        return Err(DomainError::Empty);
    }
    let lowered = if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(trimmed.to_ascii_lowercase())
    } else {
        Cow::Borrowed(trimmed)
    };
    if lowered.len() > MAX_NAME_OCTETS {
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
        if !label.bytes().all(is_label_byte) {
            return Err(DomainError::BadCharacter(label.to_string()));
        }
    }
    Ok(lowered)
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
        Ok(intern_canonical(&canonicalize(input)?))
    }

    /// The handle of a parsed name whose entry the intern table just made.
    pub(crate) fn interned(hash: u64, entry: &'static Entry) -> Self {
        DomainName { hash, entry, at: 0 }
    }

    /// The address of the entry the handle points into (tests of the intern
    /// table compare them).
    #[cfg(test)]
    pub(crate) fn entry_address(&self) -> usize {
        self.entry as *const Entry as usize
    }

    /// Construct a domain that is known to be valid at compile time.
    ///
    /// # Panics
    /// Panics if `input` is not a valid domain name; intended for literals in
    /// catalogs and tests.
    pub fn literal(input: &str) -> Self {
        Self::parse(input).expect("invalid domain literal")
    }

    /// The FNV-1a hash of the canonical text (`fnv1a(name.to_string())`),
    /// cached in the handle: what DNS load balancing buckets on.
    #[inline]
    pub fn text_hash(&self) -> u64 {
        self.hash
    }

    /// The canonical text in up to three pieces; a generated name's index
    /// digits are written into `digits`. Nothing is allocated.
    fn pieces<'a>(&self, digits: &'a mut [u8; 10]) -> [&'a str; 3] {
        match self.entry {
            Entry::Interned(interned) => [&interned.text[self.at as usize..], "", ""],
            Entry::Family(family) => [family.prefix, index_digits(self.at, digits), family.suffix],
        }
    }

    /// Octets of the canonical text.
    #[inline]
    fn text_len(&self) -> usize {
        match self.entry {
            Entry::Interned(interned) => interned.text.len() - self.at as usize,
            Entry::Family(family) => family.text_len(self.at),
        }
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        let mut digits = [0u8; 10];
        1 + self.pieces(&mut digits).iter().map(|piece| piece.matches('.').count()).sum::<usize>()
    }

    /// Prepend a label, producing `label.self`.
    pub fn with_subdomain(&self, label: &str) -> Result<DomainName, DomainError> {
        DomainName::parse(&format!("{label}.{self}"))
    }

    /// The parent domain (`example.com` for `www.example.com`), or `None`
    /// for a single-label name. Made without an intern-table call: a parsed
    /// name's parent is a suffix of its interned text (the first one's
    /// offset and hash are kept with the entry), a generated shard's is its
    /// site, a generated site's is its TLD.
    pub fn parent(&self) -> Option<DomainName> {
        match self.entry {
            Entry::Interned(interned) if self.at == 0 => {
                interned.parent.map(|(at, hash)| DomainName { hash, entry: self.entry, at })
            }
            Entry::Interned(interned) => {
                let text = &interned.text[self.at as usize..];
                let dot = text.find('.')?;
                let hash = fnv1a(&text.as_bytes()[dot + 1..]);
                // `at + dot + 1` stays below the 253-octet name length.
                Some(DomainName { hash, entry: self.entry, at: self.at + dot as u32 + 1 })
            }
            Entry::Family(family) => Some(match family.parent {
                FamilyParent::Site(site) => site.name(self.at),
                FamilyParent::Tld(tld) => tld,
            }),
        }
    }

    /// `true` if `zone` is this name's parent: what a wildcard `*.zone`
    /// covers. Equal to `self.parent() == Some(*zone)`, but a generated
    /// name's parent is compared by structure first and hashed only when
    /// the text lengths agree; reuse checks coverage on every candidate
    /// connection.
    pub fn is_child_of(&self, zone: &DomainName) -> bool {
        match self.entry {
            Entry::Family(family) => match family.parent {
                FamilyParent::Tld(tld) => tld == *zone,
                FamilyParent::Site(site) if std::ptr::eq(site.0, zone.entry) => self.at == zone.at,
                FamilyParent::Site(site) => {
                    site.family().text_len(self.at) == zone.text_len() && site.name(self.at) == *zone
                }
            },
            Entry::Interned(_) => self.parent() == Some(*zone),
        }
    }

    /// `true` if the leftmost label is the wildcard label `*`.
    pub fn is_wildcard(&self) -> bool {
        match self.entry {
            Entry::Interned(interned) => interned.text[self.at as usize..].starts_with("*."),
            Entry::Family(_) => false,
        }
    }

    /// Textual equality, for handles of different entries whose hashes
    /// agree.
    #[cold]
    fn text_eq(&self, other: &DomainName) -> bool {
        self.text_len() == other.text_len() && self.cmp_text(other) == Ordering::Equal
    }

    /// Textual order, piece by piece.
    fn cmp_text(&self, other: &DomainName) -> Ordering {
        let (mut left, mut right) = ([0u8; 10], [0u8; 10]);
        cmp_pieces(self.pieces(&mut left), other.pieces(&mut right))
    }
}

/// Lexicographic order of two texts given as pieces.
fn cmp_pieces(left: [&str; 3], right: [&str; 3]) -> Ordering {
    let mut left_pieces = left.into_iter().map(str::as_bytes);
    let mut right_pieces = right.into_iter().map(str::as_bytes);
    let (mut left, mut right): (&[u8], &[u8]) = (&[], &[]);
    loop {
        while left.is_empty() {
            match left_pieces.next() {
                Some(piece) => left = piece,
                None => break,
            }
        }
        while right.is_empty() {
            match right_pieces.next() {
                Some(piece) => right = piece,
                None => break,
            }
        }
        if left.is_empty() || right.is_empty() {
            // The exhausted side is a prefix of the other.
            return (!left.is_empty()).cmp(&!right.is_empty());
        }
        let common = left.len().min(right.len());
        match left[..common].cmp(&right[..common]) {
            Ordering::Equal => (left, right) = (&left[common..], &right[common..]),
            unequal => return unequal,
        }
    }
}

impl PartialEq for DomainName {
    // Inlined across crates: every hash-map probe and SAN check lands here.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // The cached hash rejects almost every unequal pair; a match is
        // confirmed by entry and offset, and by text only across entries.
        self.hash == other.hash
            && ((std::ptr::eq(self.entry, other.entry) && self.at == other.at) || self.text_eq(other))
    }
}

impl Eq for DomainName {}

impl std::hash::Hash for DomainName {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with `Eq`: equal texts have equal hashes.
        state.write_u64(self.hash);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> Ordering {
        // Textual: report tables rely on deterministic (lexicographic)
        // BTreeMap iteration, never on intern or vocabulary order.
        match (self.entry, other.entry) {
            (Entry::Interned(left), Entry::Interned(right)) => {
                left.text[self.at as usize..].cmp(&right.text[other.at as usize..])
            }
            // Indices of one family with as many digits order like their
            // digits; families whose prefixes differ order by them.
            (Entry::Family(left), Entry::Family(right)) => {
                if std::ptr::eq(left, right) && digit_count(self.at) == digit_count(other.at) {
                    return self.at.cmp(&other.at);
                }
                let common = left.prefix.len().min(right.prefix.len());
                match left.prefix.as_bytes()[..common].cmp(&right.prefix.as_bytes()[..common]) {
                    Ordering::Equal => self.cmp_text(other),
                    unequal => unequal,
                }
            }
            _ => self.cmp_text(other),
        }
    }
}

impl Serialize for DomainName {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
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
        let mut digits = [0u8; 10];
        for piece in self.pieces(&mut digits) {
            f.write_str(piece)?;
        }
        Ok(())
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({self})")
    }
}

impl FromStr for DomainName {
    type Err = DomainError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

/// One vocabulary entry of generated names: the family
/// `[label.]{stem}-site-{index:06}.{tld}` over every global site index, for
/// one profile stem, one TLD and an optional shard label. Entries are made
/// once per process and leaked; [`SiteNames::name`] then makes a name from
/// an index with a few FNV steps and no text.
#[derive(Clone, Copy)]
pub struct SiteNames(&'static Entry);

/// The data of a [`SiteNames`] family.
pub(crate) struct Family {
    /// The text before the index: `[label.]{stem}-site-`.
    prefix: &'static str,
    /// The text after the index: `.{tld}`.
    suffix: &'static str,
    /// FNV-1a state after `prefix`.
    prefix_hash: u64,
    parent: FamilyParent,
}

/// What the names of a family have as their parent.
#[derive(Clone, Copy)]
enum FamilyParent {
    /// A shard name's parent: the site name at the same index.
    Site(SiteNames),
    /// A site name's parent: its TLD.
    Tld(DomainName),
}

impl Family {
    /// Octets of the name at `index`.
    #[inline]
    fn text_len(&self, index: u32) -> usize {
        self.prefix.len() + digit_count(index) as usize + self.suffix.len()
    }
}

impl SiteNames {
    /// The vocabulary entry for `stem`, `tld` and the optional shard
    /// `label`, made on first use. The stem and label are single canonical
    /// label fragments (`[a-z0-9_-]`); every name of the family, up to the
    /// largest index, must be a valid canonical domain name.
    pub fn get(stem: &str, tld: &str, label: Option<&str>) -> Result<SiteNames, DomainError> {
        static FAMILIES: Mutex<Vec<SiteNames>> = Mutex::new(Vec::new());
        let prefix = match label {
            Some(label) => format!("{label}.{stem}-site-"),
            None => format!("{stem}-site-"),
        };
        let suffix = format!(".{tld}");
        let find = |families: &[SiteNames]| {
            families
                .iter()
                .copied()
                .find(|names| names.family().prefix == prefix && names.family().suffix == suffix)
        };
        // A registered family was validated when it was made.
        if let Some(names) = find(&FAMILIES.lock().expect("site-name vocabulary poisoned")) {
            return Ok(names);
        }
        let bad_fragment = [Some(stem), label]
            .into_iter()
            .flatten()
            .find(|text| text.is_empty() || !text.bytes().all(is_label_byte));
        if let Some(text) = bad_fragment {
            return Err(DomainError::BadCharacter(text.to_string()));
        }
        for index in [0, u32::MAX] {
            let name = format!("{prefix}{index:06}{suffix}");
            if canonicalize(&name)? != name {
                return Err(DomainError::BadCharacter(name));
            }
        }
        // Made before the lock: the parent may need its own entry.
        let parent = match label {
            Some(_) => FamilyParent::Site(SiteNames::get(stem, tld, None)?),
            None => FamilyParent::Tld(DomainName::parse(tld)?),
        };
        let mut families = FAMILIES.lock().expect("site-name vocabulary poisoned");
        if let Some(names) = find(&families) {
            return Ok(names);
        }
        let names = SiteNames(Box::leak(Box::new(Entry::Family(Family {
            prefix_hash: fnv1a(prefix.as_bytes()),
            prefix: Box::leak(prefix.into_boxed_str()),
            suffix: Box::leak(suffix.into_boxed_str()),
            parent,
        }))));
        families.push(names);
        Ok(names)
    }

    #[inline]
    fn family(self) -> &'static Family {
        match self.0 {
            Entry::Family(family) => family,
            Entry::Interned(_) => unreachable!("site names point at a family entry"),
        }
    }

    /// The family's name at global site `index`.
    #[inline]
    pub fn name(self, index: u32) -> DomainName {
        let family = self.family();
        let mut digits = [0u8; 10];
        let hash = fnv1a_continue(family.prefix_hash, index_digits(index, &mut digits).as_bytes());
        DomainName { hash: fnv1a_continue(hash, family.suffix.as_bytes()), entry: self.0, at: index }
    }
}

impl fmt::Debug for SiteNames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SiteNames({}N{})", self.family().prefix, self.family().suffix)
    }
}

/// `index` in decimal, zero-padded to six digits (`{index:06}`).
#[inline]
fn index_digits(index: u32, digits: &mut [u8; 10]) -> &str {
    let mut rest = index;
    let mut start = digits.len();
    while rest > 0 || digits.len() - start < 6 {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    std::str::from_utf8(&digits[start..]).expect("digits are ASCII")
}

/// Width of `index_digits(index)`.
#[inline]
fn digit_count(index: u32) -> u32 {
    index.checked_ilog10().map_or(1, |log| log + 1).max(6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_canonicalises() {
        let d = DomainName::parse("WWW.Example.COM.").unwrap();
        assert_eq!(d.to_string(), "www.example.com");
        assert_eq!(d.label_count(), 3);
        assert_eq!(d.text_hash(), fnv1a(b"www.example.com"));
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
        assert_eq!(DomainName::parse("*.Example.COM").unwrap().to_string(), "*.example.com");
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
        assert_eq!(DomainName::parse("_dmarc.example.com").unwrap().to_string(), "_dmarc.example.com");
        assert_eq!(DomainName::parse("a_b.example.com").unwrap().label_count(), 3);
    }

    #[test]
    fn interned_ids_track_textual_equality() {
        let a = DomainName::parse("WWW.Example.COM").unwrap();
        let b = DomainName::parse("www.example.com.").unwrap();
        let c = DomainName::parse("img.example.com").unwrap();
        assert_eq!(a.text_hash(), b.text_hash());
        assert_eq!(a, b);
        assert_ne!(a.text_hash(), c.text_hash());
        assert_ne!(a, c);
        // The handle is Copy: no allocation on duplication.
        let copied = a;
        assert_eq!(copied, b);
    }

    #[test]
    fn ordering_is_textual_not_by_intern_id() {
        // Intern in "wrong" lexicographic order: entries are made in first
        // touch order, Ord must still be alphabetical.
        let z = DomainName::literal("zzz-intern-order.example");
        let a = DomainName::literal("aaa-intern-order.example");
        assert!(a < z);
        let mut v = [z, a];
        v.sort();
        assert_eq!(v[0], a);
    }

    #[test]
    fn subdomain_relation() {
        // The relation coverage reads: one label up, on a dot boundary.
        let root = DomainName::literal("example.com");
        let img = DomainName::literal("img.example.com");
        assert_eq!(img.parent(), Some(root));
        assert_eq!(root.parent(), Some(DomainName::literal("com")));
        assert_eq!(DomainName::literal("com").parent(), None);
        assert_eq!(DomainName::literal("a.b.example.com").parent().and_then(|p| p.parent()), Some(root));
        // suffix-string overlap without a dot boundary must not count
        assert_ne!(DomainName::literal("badexample.com").parent(), Some(root));
        assert_ne!(DomainName::literal("notexample.com").parent(), Some(root));
    }

    #[test]
    fn wildcard_matching_single_label_only() {
        // `*.example.com` covers a name exactly when its parent is the zone.
        let zone = DomainName::literal("*.example.com").parent().unwrap();
        let covered = |name: &str| {
            let name = DomainName::literal(name);
            assert_eq!(name.is_child_of(&zone), name.parent() == Some(zone));
            name.is_child_of(&zone)
        };
        assert!(covered("img.example.com"));
        assert!(!covered("a.b.example.com"));
        assert!(!covered("example.com"));
        assert!(!covered("img.example.org"));
    }

    #[test]
    fn parent_and_subdomain_builders() {
        let d = DomainName::literal("example.com");
        assert_eq!(d.with_subdomain("img").unwrap().to_string(), "img.example.com");
        let parent = d.parent().unwrap();
        assert_eq!(parent.to_string(), "com");
        assert_eq!(parent.text_hash(), fnv1a(b"com"));
        assert_eq!(parent.label_count(), 1);
        assert_eq!(DomainName::literal("com").parent(), None);
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
        assert!(DomainName::deserialize_value(&Value::String("bad domain!".to_string())).is_err());
        assert!(DomainName::deserialize_value(&Value::Null).is_err());
    }

    #[test]
    fn generated_names_are_their_text() {
        let shards = SiteNames::get("unit", "co.uk", Some("img")).unwrap();
        let shard = shards.name(123);
        let parsed = DomainName::literal("img.unit-site-000123.co.uk");
        assert_eq!(shard.to_string(), "img.unit-site-000123.co.uk");
        assert_eq!(shard, parsed);
        assert_eq!(shard.text_hash(), parsed.text_hash());
        assert_eq!(shard.cmp(&parsed), Ordering::Equal);
        assert_ne!(shard, shards.name(124));
        let site = shard.parent().unwrap();
        assert_eq!(site, DomainName::literal("unit-site-000123.co.uk"));
        assert_eq!(site.parent(), Some(DomainName::literal("co.uk")));
        assert_eq!(site.parent().and_then(|tld| tld.parent()), Some(DomainName::literal("uk")));
        assert!(std::ptr::eq(shards.0, SiteNames::get("unit", "co.uk", Some("img")).unwrap().0));
        assert!(!shard.is_wildcard());
        assert_eq!(shard.label_count(), 4);
    }

    #[test]
    fn generated_indices_order_by_their_digits() {
        let sites = SiteNames::get("order", "com", None).unwrap();
        // Seven digits sort before six when the text says so.
        for (a, b) in [(999_999, 1_000_000), (100_000, 1_000_000), (5, 40), (u32::MAX, 0)] {
            let (left, right) = (sites.name(a), sites.name(b));
            assert_eq!(left.cmp(&right), left.to_string().cmp(&right.to_string()), "{left} vs {right}");
        }
        assert_eq!(sites.name(1_000_000).to_string(), "order-site-1000000.com");
    }

    #[test]
    fn site_names_reject_what_parse_rejects() {
        assert!(SiteNames::get("has.dot", "com", None).is_err());
        assert!(SiteNames::get("Upper", "com", None).is_err());
        assert!(SiteNames::get("ok", "com", Some("*")).is_err());
        assert!(SiteNames::get("ok", "bad tld", None).is_err());
        assert!(SiteNames::get(&"a".repeat(50), "com", None).is_err(), "ten-digit labels pass 63 octets");
        assert!(SiteNames::get("-lead", "com", None).is_err());
    }
}
