//! Global string interning for domain names.
//!
//! The analysis pipeline shuttles the same few thousand domain strings
//! through dns → tls → h2 → fetch → browser → core millions of times when a
//! population is crawled at scale. Before interning, every hop cloned a heap
//! `String`; at 100 k sites that clone storm dominated the profile. The
//! intern table stores each *canonical* (lower-case, validated) domain string
//! exactly once and hands out a copyable 32-bit [`DomainId`] instead.
//!
//! Interned strings are leaked (`Box::leak`) so lookups return `&'static
//! str` and no read path ever holds a lock while user code runs. The leak is
//! bounded by the number of *distinct* domains a process touches — a few
//! megabytes even for the 100 k-site atlas scenario — and lets
//! [`crate::DomainName`] carry the string pointer inline, making `Display`,
//! `Ord` and hashing lock-free.
//!
//! Identifiers are assigned in first-intern order, which depends on thread
//! interleaving when populations are generated in parallel. Nothing may
//! therefore *order* by raw id: [`crate::DomainName`]'s `Ord` stays textual,
//! which keeps every `BTreeMap`-backed report byte-identical regardless of
//! thread count.

use crate::hash::FnvHashMap;
use std::sync::{OnceLock, RwLock};

/// A copyable handle to one interned canonical domain string.
///
/// Two `DomainId`s compare equal **iff** their lowercase-normalized strings
/// are equal (canonicalisation happens before interning). The raw index is
/// assignment-order dependent — never sort by it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(u32);

impl DomainId {
    /// The interned canonical string.
    pub fn as_str(self) -> &'static str {
        table().read().expect("intern table poisoned").strings[self.0 as usize]
    }

    /// The raw table index (diagnostics only — assignment-order dependent).
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a handle from a raw index. Only sound for indices previously
    /// produced by interning — kept crate-private for [`crate::OriginId`]'s
    /// unpacking.
    pub(crate) const fn from_index(index: u32) -> Self {
        DomainId(index)
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DomainId({} -> {})", self.0, self.as_str())
    }
}

struct InternTable {
    // Deterministic FNV keys: the lookup happens on every domain parse and
    // every `DomainName::parent` walk — SipHash was measurable there.
    ids: FnvHashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn table() -> &'static RwLock<InternTable> {
    static TABLE: OnceLock<RwLock<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(InternTable { ids: FnvHashMap::default(), strings: Vec::new() }))
}

/// Intern a canonical (already validated + lowercased) string, returning its
/// id and the leaked `'static` copy. Idempotent: the same string always maps
/// to the same id, across threads.
pub(crate) fn intern_canonical(canonical: &str) -> (DomainId, &'static str) {
    // Fast path: shared read lock for strings seen before.
    {
        let guard = table().read().expect("intern table poisoned");
        if let Some(&id) = guard.ids.get(canonical) {
            return (DomainId(id), guard.strings[id as usize]);
        }
    }
    let mut guard = table().write().expect("intern table poisoned");
    // Re-check: another thread may have interned it between the locks.
    if let Some(&id) = guard.ids.get(canonical) {
        let leaked = guard.strings[id as usize];
        return (DomainId(id), leaked);
    }
    let id = u32::try_from(guard.strings.len()).expect("more than u32::MAX interned domains");
    let leaked: &'static str = Box::leak(canonical.to_string().into_boxed_str());
    guard.strings.push(leaked);
    guard.ids.insert(leaked, id);
    (DomainId(id), leaked)
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
    table().read().expect("intern table poisoned").strings.len()
}

/// Total octets of interned canonical strings (diagnostics).
pub fn interned_domain_octets() -> usize {
    table().read().expect("intern table poisoned").strings.iter().map(|s| s.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let (a, sa) = intern_canonical("intern-test.example");
        let (b, sb) = intern_canonical("intern-test.example");
        assert_eq!(a, b);
        assert_eq!(sa, "intern-test.example");
        // Both resolve to the same leaked allocation.
        assert!(std::ptr::eq(sa, sb));
        assert_eq!(a.as_str(), "intern-test.example");
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let (a, _) = intern_canonical("intern-a.example");
        let (b, _) = intern_canonical("intern-b.example");
        assert_ne!(a, b);
        assert_ne!(a.as_str(), b.as_str());
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let ids: Vec<DomainId> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| intern_canonical("intern-race.example").0)).collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
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
        intern_canonical("intern-stats.example");
        assert!(interned_domain_count() > 0);
        assert!(interned_domain_count() >= before);
        assert!(interned_domain_octets() >= "intern-stats.example".len());
    }
}
