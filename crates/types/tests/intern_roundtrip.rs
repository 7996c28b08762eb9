//! Property tests for the domain-name handles: parsing, interning and
//! displaying must compose to the identity, equality must agree exactly with
//! lowercase-normalized textual equality, and a generated site or shard name
//! must be indistinguishable from the parsed name of its text.

use netsim_types::{fnv1a, DomainName, Origin, Scheme, SiteNames};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What `DomainName::parse` canonicalises a raw input to: trimmed, trailing
/// dot removed, ASCII-lowercased.
fn normalize(raw: &str) -> String {
    raw.trim().trim_end_matches('.').to_ascii_lowercase()
}

prop_compose! {
    /// A syntactically valid domain with mixed case and an optional trailing
    /// dot — everything `parse` accepts and has to canonicalise away.
    fn raw_domain()(
        labels in prop::collection::vec("[a-zA-Z0-9]{1,8}", 1usize..5),
        dotted in 0u8..2,
    ) -> String {
        let mut raw = labels.join(".");
        if dotted == 1 {
            raw.push('.');
        }
        raw
    }
}

prop_compose! {
    /// A domain drawn from a deliberately tiny alphabet so that two
    /// independent draws frequently normalize to the same string — the
    /// interesting case for the id-equality property.
    fn colliding_domain()(
        labels in prop::collection::vec("[aB]{1,2}", 1usize..3),
        dotted in 0u8..2,
    ) -> String {
        let mut raw = labels.join(".");
        if dotted == 1 {
            raw.push('.');
        }
        raw
    }
}

/// What a `Hash` implementation feeds a hasher, as one word.
fn hash_of(name: &DomainName) -> u64 {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

/// TLDs and shard labels generated names draw from ("" is no label).
const TLDS: [&str; 5] = ["com", "co.uk", "de", "shop", "a-b.io"];
const LABELS: [&str; 4] = ["", "img", "cdn", "api_v2"];

/// A generated name's ingredients: profile stem, global index, TLD and
/// optional shard label.
#[derive(Clone, Debug)]
struct Generated {
    stem: String,
    index: u32,
    tld: &'static str,
    label: Option<&'static str>,
}

impl Generated {
    fn name(&self) -> DomainName {
        SiteNames::get(&self.stem, self.tld, self.label).expect("valid family").name(self.index)
    }

    /// The text `PopulationBuilder` formatted before names were handles.
    fn text(&self) -> String {
        let site = format!("{}-site-{:06}.{}", self.stem, self.index, self.tld);
        match self.label {
            Some(label) => format!("{label}.{site}"),
            None => site,
        }
    }
}

prop_compose! {
    fn generated()(
        head in "[a-z][a-z0-9]{0,6}",
        tail in prop::option::of("[a-z0-9]{1,4}"),
        index in prop_oneof![0u32..2_000_000, any::<u32>()],
        tld in 0usize..TLDS.len(),
        label in 0usize..LABELS.len(),
    ) -> Generated {
        let stem = match tail {
            Some(tail) => format!("{head}-{tail}"),
            None => head,
        };
        Generated { stem, index, tld: TLDS[tld], label: Some(LABELS[label]).filter(|label| !label.is_empty()) }
    }
}

proptest! {
    #[test]
    fn parse_intern_resolve_display_is_the_identity(raw in raw_domain()) {
        let parsed = DomainName::parse(&raw).expect("generated domain is valid");

        // Display renders the canonical form; the handle caches its hash.
        prop_assert_eq!(parsed.to_string(), normalize(&raw));
        prop_assert_eq!(parsed.text_hash(), fnv1a(normalize(&raw).as_bytes()));

        // display → parse is the identity on the handle.
        let reparsed = DomainName::parse(&parsed.to_string()).expect("canonical form reparses");
        prop_assert_eq!(reparsed, parsed);
    }

    #[test]
    fn ids_compare_equal_iff_normalized_strings_do(a in colliding_domain(), b in colliding_domain()) {
        let left = DomainName::parse(&a).expect("generated domain is valid");
        let right = DomainName::parse(&b).expect("generated domain is valid");
        let strings_equal = normalize(&a) == normalize(&b);
        prop_assert_eq!(left == right, strings_equal);
        // Ordering stays textual on the canonical forms.
        prop_assert_eq!(left.cmp(&right), normalize(&a).cmp(&normalize(&b)));
    }

    #[test]
    fn origins_round_trip_through_their_ascii_form(
        raw in raw_domain(),
        port in 1u16..9000,
        scheme_bit in 0u8..2,
    ) {
        let scheme = if scheme_bit == 0 { Scheme::Http } else { Scheme::Https };
        let origin = Origin::new(scheme, DomainName::parse(&raw).expect("valid"), port);
        prop_assert_eq!(Origin::parse(&origin.ascii()), Some(origin));
    }

    #[test]
    fn generated_names_match_their_parsed_text(
        family in generated(),
        other_family in generated(),
        raw in raw_domain(),
    ) {
        let name = family.name();
        let text = family.text();
        let parsed = DomainName::literal(&text);

        // Display, Eq and Hash: the parsed text's handle in every respect.
        prop_assert_eq!(name.to_string(), text.clone());
        prop_assert_eq!(name, parsed);
        prop_assert_eq!(hash_of(&name), hash_of(&parsed));
        prop_assert_eq!(name.cmp(&parsed), std::cmp::Ordering::Equal);
        // The DNS load-balancing hash is the text's FNV-1a.
        prop_assert_eq!(name.text_hash(), fnv1a(text.as_bytes()));
        prop_assert_eq!(name.label_count(), parsed.label_count());

        // Parent coverage: the same parent chain up to the root.
        let (mut generated_chain, mut parsed_chain) = (Some(name), Some(parsed));
        while let (Some(left), Some(right)) = (generated_chain, parsed_chain) {
            prop_assert_eq!(left, right);
            prop_assert_eq!(left.text_hash(), right.text_hash());
            prop_assert_eq!(left.to_string(), right.to_string());
            (generated_chain, parsed_chain) = (left.parent(), right.parent());
        }
        prop_assert!(generated_chain.is_none() && parsed_chain.is_none());

        // Ord and Eq against an interned name and another generated one
        // stay textual; so does wildcard coverage, against either form of
        // the parent too.
        let other = other_family.name();
        let parsed_parent = text.split_once('.').map(|(_, parent)| DomainName::literal(parent));
        let mut candidates = vec![DomainName::parse(&raw).expect("valid"), other, parsed];
        candidates.extend([parsed_parent, name.parent(), other.parent()].into_iter().flatten());
        for against in candidates {
            let against_text = against.to_string();
            prop_assert_eq!(name.cmp(&against), text.cmp(&against_text));
            prop_assert_eq!(against.cmp(&name), against_text.cmp(&text));
            prop_assert_eq!(name == against, text == against_text);
            let child = text.split_once('.').is_some_and(|(_, parent)| parent == against_text);
            prop_assert_eq!(name.is_child_of(&against), child);
        }
    }
}
