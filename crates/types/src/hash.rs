//! A small, deterministic, non-cryptographic hasher for hot-path hash maps.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is DoS-resistant but costs
//! tens of nanoseconds per short key — measurable when the visit loop probes
//! a DNS cache keyed by 4-byte interned domain ids millions of times. All
//! simulation inputs are generated (never attacker-controlled), so the
//! collision-flooding defence buys nothing here. [`FnvBuildHasher`] swaps in
//! FNV-1a: deterministic across runs and platforms, a handful of cycles for
//! the short keys the workspace uses.
//!
//! Determinism note: per-process hash maps built with this hasher have a
//! deterministic *iteration* order too, but nothing may rely on it — ordered
//! report output must keep coming from `BTreeMap`s, as everywhere else in
//! the workspace.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a hash of a byte string — the workspace's one shared definition
/// (used by the shard-store checksums, DNS load-balance bucketing and the
/// text hash every [`crate::DomainName`] carries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash whose state after the bytes before `bytes` is
/// `state`: `fnv1a(a ++ b) == fnv1a_continue(fnv1a(a), b)`.
#[inline]
pub(crate) fn fnv1a_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state ^= byte as u64;
        state = state.wrapping_mul(0x1000_0000_01b3);
    }
    state
}

/// FNV-1a streaming hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // A final avalanche step so sequential inputs (interned ids) spread
        // over the table instead of clustering.
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        // Same per-byte step as [`fnv1a`], seeded with the running state so
        // chained writes keep mixing.
        self.0 = hash;
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        // Word-at-a-time mixing: integer keys (interned ids, fingerprint
        // hashes) fold in with one multiply instead of a byte loop.
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u16(&mut self, value: u16) {
        self.write_u64(value as u64);
    }

    fn write_u8(&mut self, value: u8) {
        self.write_u64(value as u64);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`] — plug into `HashMap::with_hasher` or the
/// [`FnvHashMap`] alias.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` using the deterministic FNV hasher.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn deterministic_across_instances() {
        let build = FnvBuildHasher::default();
        let a = build.hash_one("www.example.com");
        let b = FnvBuildHasher::default().hash_one("www.example.com");
        assert_eq!(a, b);
        assert_ne!(a, build.hash_one("www.example.org"));
    }

    #[test]
    fn map_alias_works_with_interned_keys() {
        let mut map: FnvHashMap<u32, &str> = FnvHashMap::default();
        for i in 0..1000u32 {
            map.insert(i, "x");
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&500), Some(&"x"));
        42u32.hash(&mut FnvHasher::default());
    }
}
