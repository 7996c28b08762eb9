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

/// FNV-1a's 64-bit offset basis: the state before the first byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier of every byte step. It is not the published 64-bit FNV
/// prime (`0x100_0000_01b3`, `2^40 + 0x1b3`, which `crate::fingerprint`
/// uses) but `2^44 + 0x1b3`, and it stays: shard checksums, seed forks and
/// every golden output are computed with it.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a hash of a byte string — the workspace's one shared definition
/// (used by the shard-store checksums, DNS load-balance bucketing, seed
/// forking and the text hash every [`crate::DomainName`] carries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash whose state after the bytes before `bytes` is
/// `state`: `fnv1a(a ++ b) == fnv1a_continue(fnv1a(a), b)`, so one pass over a
/// file yields the hash of a prefix and of the whole file.
#[inline]
pub fn fnv1a_continue(mut state: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        state = (state ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    state
}

/// Continue four independent FNV-1a hashes in one pass:
/// `fnv1a_continue_lockstep(states, inputs)[lane] == fnv1a_continue(states[lane], inputs[lane])`
/// for every lane. One chain is bound by the latency of its xor → multiply
/// step; advancing four chains byte by byte over the inputs' common prefix
/// keeps four multiplies in flight instead. Each lane then finishes the rest
/// of its input on its own, so inputs of unequal length (or empty ones) are
/// hashed exactly as the serial loop would.
pub fn fnv1a_continue_lockstep(mut states: [u64; 4], inputs: [&[u8]; 4]) -> [u64; 4] {
    let common = inputs.iter().map(|input| input.len()).min().unwrap_or(0);
    let [a, b, c, d] = inputs.map(|input| &input[..common]);
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (state, byte) in states.iter_mut().zip([a, b, c, d]) {
            *state = (*state ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    std::array::from_fn(|lane| fnv1a_continue(states[lane], &inputs[lane][common..]))
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
        // Same per-byte step as [`fnv1a`], seeded with the running state so
        // chained writes keep mixing.
        self.0 = fnv1a_continue(if self.0 == 0 { FNV_OFFSET } else { self.0 }, bytes);
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
    use proptest::prelude::*;
    use std::hash::{BuildHasher, Hash};

    proptest! {
        #[test]
        fn continuing_a_prefix_hash_equals_hashing_the_whole(
            a in prop::collection::vec(any::<u8>(), 0usize..64),
            b in prop::collection::vec(any::<u8>(), 0usize..64),
        ) {
            prop_assert_eq!(fnv1a(&[a.as_slice(), &b].concat()), fnv1a_continue(fnv1a(&a), &b));
        }

        /// The lockstep kernel is four serial hashes: random start states,
        /// inputs of equal and unequal length, empty and shorter than a
        /// shard trailer (8 bytes) included.
        #[test]
        fn lockstep_equals_four_serial_hashes(
            states in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            inputs in (lane_bytes(), lane_bytes(), lane_bytes(), lane_bytes()),
            shared in 0usize..48,
        ) {
            let states = [states.0, states.1, states.2, states.3];
            let unequal = [inputs.0, inputs.1, inputs.2, inputs.3];
            // The same lanes cut or padded to one common length.
            let equal = unequal.clone().map(|mut input| {
                input.resize(shared, 0xa5);
                input
            });
            for lanes in [&unequal, &equal] {
                let slices = lanes.each_ref().map(Vec::as_slice);
                let serial: [u64; 4] = std::array::from_fn(|lane| fnv1a_continue(states[lane], slices[lane]));
                prop_assert_eq!(fnv1a_continue_lockstep(states, slices), serial);
            }
        }
    }

    /// One lane's input: empty, shorter than a shard trailer, or longer.
    fn lane_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0usize..48)
    }

    #[test]
    fn lockstep_handles_empty_and_short_lanes() {
        let long: Vec<u8> = (0..200u8).collect();
        let inputs: [&[u8]; 4] = [&[], &long[..3], &long[..8], &long];
        let states = [fnv1a(&[]), 1, u64::MAX, fnv1a(b"prefix")];
        let serial: [u64; 4] = std::array::from_fn(|lane| fnv1a_continue(states[lane], inputs[lane]));
        assert_eq!(fnv1a_continue_lockstep(states, inputs), serial);
        assert_eq!(fnv1a_continue_lockstep(states, [&[]; 4]), states, "empty inputs leave every state");
    }

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
