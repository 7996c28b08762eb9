//! Config fingerprinting for on-disk artifacts.
//!
//! A [`Fingerprint`] condenses every input that determines a deterministic
//! artifact's bytes — format schema, seeds, population shape, mitigation and
//! link-profile parameters — into one u64. Readers refuse artifacts whose
//! fingerprint does not match the config they were asked to serve, turning
//! "stale shard silently priced under the wrong model" into a typed error.
//!
//! The builder is a labelled, length-prefixed FNV-1a stream: every field is
//! hashed as `label` + separator + value bytes, so reordering fields,
//! renaming them, or concatenating two adjacent values differently all
//! produce different fingerprints. The hash is FNV-1a with the published
//! 64-bit prime (not [`crate::hash::fnv1a`]'s multiplier, which differs and
//! is frozen in the shard bytes), so fingerprints are stable across
//! platforms, thread counts and process runs.

/// A 64-bit digest of a labelled field stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw digest value (what shard headers store).
    pub fn value(self) -> u64 {
        self.0
    }

    /// A fingerprint from a previously stored digest value.
    pub fn from_value(value: u64) -> Self {
        Fingerprint(value)
    }

    /// Fixed-width lowercase hex, for report lines and error messages.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Streaming builder for a [`Fingerprint`].
///
/// ```
/// use netsim_types::fingerprint::FingerprintBuilder;
///
/// let a = FingerprintBuilder::new("demo/v1").field_u64("seed", 7).finish();
/// let b = FingerprintBuilder::new("demo/v1").field_u64("seed", 8).finish();
/// assert_ne!(a, b);
/// // Same fields, same order => same digest, every run.
/// let c = FingerprintBuilder::new("demo/v1").field_u64("seed", 7).finish();
/// assert_eq!(a, c);
/// ```
#[derive(Clone, Debug)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// Start a stream under a domain label (e.g. `"connreuse-store/shard/v1"`)
    /// so digests from different subsystems never collide structurally.
    pub fn new(domain: &str) -> Self {
        let mut builder = FingerprintBuilder { state: FNV_OFFSET };
        builder.absorb(domain.as_bytes());
        builder
    }

    fn absorb(&mut self, bytes: &[u8]) {
        // Length prefix before the payload: "ab" + "c" never hashes like
        // "a" + "bc".
        for byte in (bytes.len() as u64).to_le_bytes() {
            self.state = (self.state ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        for &byte in bytes {
            self.state = (self.state ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn label(&mut self, label: &str) {
        self.absorb(label.as_bytes());
    }

    /// Hash one labelled u64 field.
    pub fn field_u64(mut self, label: &str, value: u64) -> Self {
        self.label(label);
        self.absorb(&value.to_le_bytes());
        self
    }

    /// Hash one labelled f64 field via its IEEE-754 bit pattern (the same
    /// bit-stability contract the cost clock pins for its one f64).
    pub fn field_f64(mut self, label: &str, value: f64) -> Self {
        self.label(label);
        self.absorb(&value.to_bits().to_le_bytes());
        self
    }

    /// Hash one labelled string field.
    pub fn field_str(mut self, label: &str, value: &str) -> Self {
        self.label(label);
        self.absorb(value.as_bytes());
        self
    }

    /// Hash a labelled u64 sequence (order-sensitive, length-prefixed).
    pub fn field_u64_slice(mut self, label: &str, values: &[u64]) -> Self {
        self.label(label);
        self.absorb(&(values.len() as u64).to_le_bytes());
        for &value in values {
            self.absorb(&value.to_le_bytes());
        }
        self
    }

    /// Finish the stream.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_builders() {
        let build = || {
            FingerprintBuilder::new("test/v1")
                .field_u64("seed", 20210421)
                .field_f64("zipf", 0.35)
                .field_str("profile", "broadband")
                .field_u64_slice("mitigations", &[0, 5, 15])
                .finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn every_field_kind_perturbs_the_digest() {
        let base = || {
            FingerprintBuilder::new("test/v1")
                .field_u64("a", 1)
                .field_f64("b", 2.0)
                .field_str("c", "x")
                .field_u64_slice("d", &[3])
        };
        let reference = base().finish();
        assert_ne!(base().field_u64("e", 0).finish(), reference);
        assert_ne!(
            FingerprintBuilder::new("test/v1")
                .field_u64("a", 2)
                .field_f64("b", 2.0)
                .field_str("c", "x")
                .field_u64_slice("d", &[3])
                .finish(),
            reference
        );
        assert_ne!(
            FingerprintBuilder::new("test/v1")
                .field_u64("a", 1)
                .field_f64("b", 2.5)
                .field_str("c", "x")
                .field_u64_slice("d", &[3])
                .finish(),
            reference
        );
        assert_ne!(
            FingerprintBuilder::new("test/v1")
                .field_u64("a", 1)
                .field_f64("b", 2.0)
                .field_str("c", "y")
                .field_u64_slice("d", &[3])
                .finish(),
            reference
        );
        assert_ne!(
            FingerprintBuilder::new("test/v1")
                .field_u64("a", 1)
                .field_f64("b", 2.0)
                .field_str("c", "x")
                .field_u64_slice("d", &[3, 3])
                .finish(),
            reference
        );
    }

    #[test]
    fn domain_separates_otherwise_identical_streams() {
        let a = FingerprintBuilder::new("store/v1").field_u64("seed", 1).finish();
        let b = FingerprintBuilder::new("store/v2").field_u64("seed", 1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn length_prefixing_prevents_field_concatenation_collisions() {
        let joined = FingerprintBuilder::new("t").field_str("k", "ab").finish();
        let split = FingerprintBuilder::new("t").field_str("ka", "b").finish();
        assert_ne!(joined, split);
    }

    #[test]
    fn hex_renders_fixed_width() {
        let digest = Fingerprint::from_value(0x2a);
        assert_eq!(digest.hex(), "000000000000002a");
        assert_eq!(format!("{digest}"), "000000000000002a");
        assert_eq!(Fingerprint::from_value(digest.value()), digest);
    }
}
