//! Global string interning for domain names parsed from text.
//!
//! Names that arrive as text — the service catalog, the misc third-party
//! pool, HAR files, ORIGIN frames, test literals — are canonicalised once
//! and stored here exactly once, so the value that flows through dns → tls
//! → h2 → fetch → browser → core is a `Copy` handle instead of a heap
//! `String`. Each entry also carries the 64-bit FNV-1a hash of its text,
//! which every [`crate::DomainName`] caches.
//!
//! Generated site and shard names never come here: they are structured
//! handles over a [`crate::SiteNames`] vocabulary entry plus the global site
//! index, so the table's size depends on the catalog and the vocabularies,
//! not on the number of sites a run generates.
//!
//! Interned strings are leaked (`Box::leak`) so lookups return `'static`
//! data and no read path ever holds a lock while user code runs. The leak is
//! bounded by the number of *distinct* parsed names a process touches.
//!
//! Entries are made in first-intern order, which depends on thread
//! interleaving when populations are generated in parallel. Nothing may
//! therefore order by entry: [`crate::DomainName`]'s `Ord` is textual,
//! which keeps every `BTreeMap`-backed report byte-identical regardless of
//! thread count.
//!
//! [`intern_calls`] counts this thread's calls into the table: the visit
//! and chunk-build paths promise to make none, and
//! `crates/experiments/tests/build_zero_alloc.rs` holds them to it.

use crate::domain::{DomainName, Entry};
use crate::hash::{fnv1a, FnvHashMap};
use std::cell::Cell;
use std::sync::{OnceLock, RwLock};

/// One interned canonical domain string, and where its parent's text starts
/// with the parent's hash (`None` for a single label): wildcard coverage
/// asks for the parent on every candidate.
pub(crate) struct Interned {
    pub(crate) text: &'static str,
    pub(crate) parent: Option<(u32, u64)>,
}

struct InternTable {
    // Deterministic FNV keys: the lookup happens on every domain parse —
    // SipHash was measurable there.
    entries: FnvHashMap<&'static str, DomainName>,
    octets: usize,
}

fn table() -> &'static RwLock<InternTable> {
    static TABLE: OnceLock<RwLock<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(InternTable { entries: FnvHashMap::default(), octets: 0 }))
}

thread_local! {
    static INTERN_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Intern a canonical (already validated + lowercased) string, returning
/// the handle of its leaked entry. Idempotent: the same string always maps
/// to the same entry, across threads.
pub(crate) fn intern_canonical(canonical: &str) -> DomainName {
    INTERN_CALLS.with(|calls| calls.set(calls.get() + 1));
    // Fast path: shared read lock for strings seen before.
    if let Some(&name) = table().read().expect("intern table poisoned").entries.get(canonical) {
        return name;
    }
    let mut guard = table().write().expect("intern table poisoned");
    // Re-check: another thread may have interned it between the locks.
    if let Some(&name) = guard.entries.get(canonical) {
        return name;
    }
    let text: &'static str = Box::leak(canonical.to_string().into_boxed_str());
    let parent = text.find('.').map(|dot| (dot as u32 + 1, fnv1a(&text.as_bytes()[dot + 1..])));
    let entry = Box::leak(Box::new(Entry::Interned(Interned { text, parent })));
    let name = DomainName::interned(fnv1a(text.as_bytes()), entry);
    guard.entries.insert(text, name);
    guard.octets += text.len();
    name
}

/// Calls the current thread has made into the intern table so far (every
/// [`crate::DomainName::parse`] is one). A work counter: take the
/// difference around a section to see how many names it interned or looked
/// up.
pub fn intern_calls() -> u64 {
    INTERN_CALLS.with(Cell::get)
}

/// A process-wide table of `'static` names made on first use, keyed by a
/// small integer: the finite run-time vocabularies (generated resource
/// paths, generic hosting AS names) that `Copy` values point into. Each
/// distinct key leaks its text once.
pub struct NameTable {
    names: OnceLock<RwLock<FnvHashMap<u64, &'static str>>>,
}

impl NameTable {
    /// An empty table (usable in a `static`).
    pub const fn new() -> Self {
        NameTable { names: OnceLock::new() }
    }

    /// The name for `key`, made by `make` and leaked the first time `key` is
    /// asked for.
    pub fn get(&self, key: u64, make: impl FnOnce() -> String) -> &'static str {
        let names = self.names.get_or_init(Default::default);
        if let Some(&name) = names.read().expect("name table poisoned").get(&key) {
            return name;
        }
        let mut names = names.write().expect("name table poisoned");
        names.entry(key).or_insert_with(|| Box::leak(make().into_boxed_str()))
    }
}

impl Default for NameTable {
    fn default() -> Self {
        NameTable::new()
    }
}

/// Number of distinct domain strings interned so far (diagnostics /
/// memory-footprint reporting).
pub fn interned_domain_count() -> usize {
    table().read().expect("intern table poisoned").entries.len()
}

/// Total octets of interned canonical strings (diagnostics).
pub fn interned_domain_octets() -> usize {
    table().read().expect("intern table poisoned").octets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern_canonical("intern-test.example");
        let b = intern_canonical("intern-test.example");
        assert_eq!(a.to_string(), "intern-test.example");
        assert_eq!(a.text_hash(), fnv1a(b"intern-test.example"));
        // Both point at the same leaked entry.
        assert_eq!(entry(a), entry(b));
    }

    fn entry(name: DomainName) -> usize {
        name.entry_address()
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let a = intern_canonical("intern-a.example");
        let b = intern_canonical("intern-b.example");
        assert_ne!(entry(a), entry(b));
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let entries: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| entry(intern_canonical("intern-race.example")))).collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(entries.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn name_tables_make_each_key_once() {
        static NAMES: NameTable = NameTable::new();
        let first = NAMES.get(7, || "seven".to_string());
        let again = NAMES.get(7, || unreachable!("key 7 is already made"));
        assert!(std::ptr::eq(first, again));
        assert_eq!(NAMES.get(8, || "eight".to_string()), "eight");
    }

    #[test]
    fn table_statistics_are_monotone() {
        let before = interned_domain_count();
        let calls = intern_calls();
        intern_canonical("intern-stats.example");
        assert_eq!(intern_calls(), calls + 1, "the call counter is per thread");
        assert!(interned_domain_count() > 0);
        assert!(interned_domain_count() >= before);
        assert!(interned_domain_octets() >= "intern-stats.example".len());
    }
}
