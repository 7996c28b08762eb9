//! Wildcard coverage and SNI selection compare parents made without the
//! intern table (`DomainName::parent`); these tests hold them to the
//! interned-parent definition they replaced, for names of one to four labels and stores layered over a
//! shared base. The single-label cases (`*.example.com` covers
//! `a.example.com` but neither `example.com` nor `a.b.example.com`) are
//! pinned next to the code, in `certificate.rs` and `store.rs`.

use netsim_tls::{CertificateId, CertificateStore, Issuer, SanEntry};
use netsim_types::{DomainName, Instant};
use proptest::prelude::*;
use std::sync::Arc;

/// RFC 6125 §6.4.3 through interned parents: a wildcard covers a name
/// whose parent is the wildcard base, and never the base itself.
fn covers_by_parent(entry: &SanEntry, domain: &DomainName) -> bool {
    match entry {
        SanEntry::Dns(name) => name == domain,
        SanEntry::Wildcard(base) => {
            let parent = domain.to_string().split_once('.').map(|(_, parent)| DomainName::literal(parent));
            parent.as_ref() == Some(base) && domain != base
        }
    }
}

/// Every name of one to four labels over a small alphabet.
fn universe() -> Vec<DomainName> {
    let labels = ["a", "b", "example"];
    let mut names: Vec<String> = vec!["com".to_string()];
    let mut frontier = names.clone();
    for _ in 1..4 {
        frontier = frontier
            .iter()
            .flat_map(|name| labels.iter().map(move |label| format!("{label}.{name}")))
            .collect();
        names.extend(frontier.iter().cloned());
    }
    names.iter().map(|name| DomainName::literal(name)).collect()
}

fn san(wildcard: bool, name: DomainName) -> SanEntry {
    if wildcard {
        SanEntry::Wildcard(name)
    } else {
        SanEntry::Dns(name)
    }
}

/// Issue one certificate per drawn SAN list; the first `base_count` go into
/// a shared base, the rest into a local layer over it.
fn layered_store(certificates: &[Vec<(u8, usize)>], base_count: usize) -> CertificateStore {
    let names = universe();
    let mut base = CertificateStore::new();
    let mut local = None;
    for (index, sans) in certificates.iter().enumerate() {
        if index == base_count {
            local = Some(CertificateStore::with_base(Arc::new(std::mem::take(&mut base))));
        }
        let entries =
            sans.iter().map(|&(wildcard, name)| san(wildcard == 1, names[name % names.len()])).collect();
        local.as_mut().unwrap_or(&mut base).issue(Issuer::lets_encrypt(), entries, Instant::EPOCH);
    }
    local.unwrap_or(base)
}

proptest! {
    #[test]
    fn slice_coverage_matches_the_parent_definition(wildcard in 0u8..2, base in 0usize..200) {
        let names = universe();
        let entry = san(wildcard == 1, names[base % names.len()]);
        for domain in &names {
            prop_assert_eq!(entry.covers(domain), covers_by_parent(&entry, domain), "{} vs {}", entry, domain);
        }
    }

    #[test]
    fn sni_selection_matches_the_parent_definition(
        certificates in prop::collection::vec(prop::collection::vec((0u8..2, 0usize..200), 1usize..4), 0usize..12),
        base_count in 0usize..12,
    ) {
        let store = layered_store(&certificates, base_count);
        for domain in universe() {
            // The newest covering certificate, in issuance order.
            let expected: Option<CertificateId> = store
                .iter()
                .filter(|cert| cert.san.iter().any(|entry| covers_by_parent(entry, &domain)))
                .map(|cert| cert.id)
                .last();
            let selected = store.select_arc_for_sni(&domain).map(|cert| cert.id);
            prop_assert_eq!(selected, expected, "SNI {}", domain);
        }
    }
}

#[test]
fn newest_certificate_wins_across_layers() {
    let d = DomainName::literal;
    let mut base = CertificateStore::new();
    let base_exact = base.issue(Issuer::digicert(), vec![SanEntry::Dns(d("a.example.com"))], Instant::EPOCH);
    let base_wildcard =
        base.issue(Issuer::digicert(), vec![SanEntry::Wildcard(d("example.com"))], Instant::EPOCH);
    let mut local = CertificateStore::with_base(Arc::new(base));
    // Base only: the newer wildcard beats the older exact match.
    assert_eq!(local.select_for_sni(&d("a.example.com")).unwrap().id, base_wildcard);
    // A local certificate is newer than every base one, exact or wildcard.
    let local_exact =
        local.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("a.example.com"))], Instant::EPOCH);
    assert_eq!(local.select_for_sni(&d("a.example.com")).unwrap().id, local_exact);
    let local_wildcard =
        local.issue(Issuer::lets_encrypt(), vec![SanEntry::Wildcard(d("example.com"))], Instant::EPOCH);
    assert_eq!(local.select_for_sni(&d("b.example.com")).unwrap().id, local_wildcard);
    // Every layer's certificates stay visible, deepest base first.
    let ids: Vec<CertificateId> =
        local.iter().filter(|cert| cert.covers(&d("a.example.com"))).map(|cert| cert.id).collect();
    assert_eq!(ids, vec![base_exact, base_wildcard, local_exact, local_wildcard]);
}
