//! The on-disk shard format: length-prefixed fixed-width records.
//!
//! One shard file persists one population chunk's results for every
//! (mitigation set × link profile) cell:
//!
//! ```text
//! magic    8 bytes   "CRSHARD1"
//! header   7 × u64   schema, config fingerprint, chunk index, start, len,
//!                    record count, words per record (the length prefix)
//! records  count × RECORD_WORDS × u64
//! trailer  1 × u64   FNV-1a checksum over every preceding byte
//! ```
//!
//! All words are little-endian u64. Records are **fixed width** — the header
//! states the width, and a reader built for a different width refuses the
//! file ([`crate::StoreError::RecordWidthMismatch`]) instead of misparsing
//! it. Each record is a key pair (mitigation bits, profile index) followed by
//! the chunk's [`AccumulatorState`] words, its request tallies, and its
//! [`CostTotals`] words — everything the shard-merge monoid needs, nothing
//! derived.
//!
//! Because a record is a pure function of (config, chunk), encoded bytes are
//! **byte-identical across thread counts, rebuilds and machines** — the
//! 4-rule determinism contract extended to disk. CI pins this by building the
//! same store twice and `diff -r`-ing the directories.

use crate::error::StoreError;
use connreuse_core::AccumulatorState;
use netsim_cost::CostTotals;
use netsim_types::{fnv1a, fnv1a_continue, fnv1a_continue_lockstep, Counters};

/// First eight bytes of every shard file.
pub const MAGIC: [u8; 8] = *b"CRSHARD1";

/// On-disk format version. Bump when the header or record layout changes.
pub const SHARD_SCHEMA: u64 = 1;

/// Words in the fixed header following the magic.
pub const HEADER_WORDS: usize = 7;

/// Words per record: key pair + accumulator state + request tallies + cost.
pub const RECORD_WORDS: usize = 2 + AccumulatorState::WORDS + 2 + CostTotals::WORDS;

/// One (mitigation set × link profile) cell of one chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRecord {
    /// The mitigation set's bit pattern ([`netsim_types::MitigationSet::bits`]).
    pub mitigation_bits: u64,
    /// Index into the store's link-profile list.
    pub profile_index: u64,
    /// Classification cause counts for the chunk under this cell.
    pub accumulator: AccumulatorState,
    /// Requests sent across the chunk's visits.
    pub requests: u64,
    /// Requests planned across the chunk's generated sites.
    pub planned_requests: u64,
    /// Aggregate visit timelines for the chunk under this cell.
    pub cost: CostTotals,
}

impl ShardRecord {
    /// The fixed-width word layout (frozen order; a change is a schema bump):
    /// the key pair, then each block's generated layout in field order.
    pub fn to_words(&self) -> [u64; RECORD_WORDS] {
        let mut words = [0u64; RECORD_WORDS];
        let out = &mut &mut words[..];
        self.mitigation_bits.put_words(out);
        self.profile_index.put_words(out);
        self.accumulator.put_words(out);
        self.requests.put_words(out);
        self.planned_requests.put_words(out);
        self.cost.put_words(out);
        words
    }

    /// Rebuild from the fixed-width word layout.
    pub fn from_words(words: &[u64; RECORD_WORDS]) -> Self {
        let words = &mut &words[..];
        ShardRecord {
            mitigation_bits: Counters::take_words(words),
            profile_index: Counters::take_words(words),
            accumulator: Counters::take_words(words),
            requests: Counters::take_words(words),
            planned_requests: Counters::take_words(words),
            cost: Counters::take_words(words),
        }
    }
}

/// The two FNV-1a checksums of a shard file's bytes, from one pass: the
/// body checksum over every byte before the 8-byte trailer (what the trailer
/// seals) and, continued over the trailer, the whole-file checksum (what the
/// manifest pins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardChecksums {
    /// FNV-1a of every byte but the last eight.
    pub(crate) body: u64,
    /// FNV-1a of every byte.
    pub(crate) file: u64,
}

impl ShardChecksums {
    /// Hash `bytes` once. A file shorter than the trailer has an empty body;
    /// the decoder refuses it as truncated before the body checksum matters.
    pub(crate) fn of(bytes: &[u8]) -> Self {
        let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(8));
        let body = fnv1a(body);
        ShardChecksums { body, file: fnv1a_continue(body, trailer) }
    }

    /// [`ShardChecksums::of`] for four files in one pass: their bodies are
    /// hashed in lockstep ([`fnv1a_continue_lockstep`]) over the common
    /// prefix, each lane finishing its own body and trailer serially, so
    /// `of_four(files)[lane] == of(files[lane])` for files of any length.
    pub(crate) fn of_four(files: [&[u8]; 4]) -> [Self; 4] {
        let split = files.map(|bytes| bytes.split_at(bytes.len().saturating_sub(8)));
        let bodies = fnv1a_continue_lockstep([fnv1a(&[]); 4], split.map(|(body, _)| body));
        std::array::from_fn(|lane| ShardChecksums {
            body: bodies[lane],
            file: fnv1a_continue(bodies[lane], split[lane].1),
        })
    }
}

/// One chunk's persisted shard: header fields plus its records.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFile {
    /// Configuration fingerprint the shard was computed under.
    pub fingerprint: u64,
    /// Index of the chunk in the store layout.
    pub chunk_index: u64,
    /// Global rank of the chunk's first site.
    pub start: u64,
    /// Sites in the chunk.
    pub len: u64,
    /// One record per (mitigation × profile) cell, in layout key order.
    pub records: Vec<ShardRecord>,
}

impl ShardFile {
    /// Serialise to the on-disk byte layout (magic, header, records,
    /// checksum). Deterministic: same shard, same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let words = HEADER_WORDS + self.records.len() * RECORD_WORDS;
        let mut bytes = Vec::with_capacity(MAGIC.len() + (words + 1) * 8);
        bytes.extend_from_slice(&MAGIC);
        for word in [
            SHARD_SCHEMA,
            self.fingerprint,
            self.chunk_index,
            self.start,
            self.len,
            self.records.len() as u64,
            RECORD_WORDS as u64,
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for record in &self.records {
            for word in record.to_words() {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Parse and verify a shard file's bytes. `path` labels errors;
    /// `expected_fingerprint` (when given) refuses shards built under a
    /// different configuration.
    ///
    /// Verification order: size envelope → magic → schema → record width →
    /// exact length → checksum → fingerprint. A file failing an earlier check
    /// reports that failure even if later checks would also fail.
    pub fn decode(
        path: &str,
        bytes: &[u8],
        expected_fingerprint: Option<u64>,
    ) -> Result<ShardFile, StoreError> {
        ShardFile::decode_hashed(path, bytes, ShardChecksums::of(bytes).body, expected_fingerprint)
    }

    /// [`ShardFile::decode`] with the body checksum already computed by the
    /// caller ([`ShardChecksums::body`] of `bytes`), so a reader that also
    /// needs the whole-file checksum hashes the bytes once. The checks and
    /// their order are [`ShardFile::decode`]'s.
    pub(crate) fn decode_hashed(
        path: &str,
        bytes: &[u8],
        body_checksum: u64,
        expected_fingerprint: Option<u64>,
    ) -> Result<ShardFile, StoreError> {
        let minimum = MAGIC.len() + (HEADER_WORDS + 1) * 8;
        if bytes.len() < minimum {
            return Err(StoreError::Truncated {
                path: path.to_string(),
                expected: minimum,
                found: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic { path: path.to_string() });
        }
        let word = |index: usize| {
            let offset = MAGIC.len() + index * 8;
            u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte slice"))
        };
        let schema = word(0);
        if schema != SHARD_SCHEMA {
            return Err(StoreError::SchemaMismatch {
                path: path.to_string(),
                found: schema,
                expected: SHARD_SCHEMA,
            });
        }
        let record_words = word(6);
        if record_words != RECORD_WORDS as u64 {
            return Err(StoreError::RecordWidthMismatch {
                path: path.to_string(),
                found: record_words,
                expected: RECORD_WORDS as u64,
            });
        }
        let record_count = word(5);
        let expected_len = (record_count as usize)
            .checked_mul(RECORD_WORDS)
            .and_then(|record_total| record_total.checked_add(HEADER_WORDS + 1))
            .and_then(|words| words.checked_mul(8))
            .and_then(|payload| payload.checked_add(MAGIC.len()))
            .ok_or(StoreError::Truncated {
                path: path.to_string(),
                expected: usize::MAX,
                found: bytes.len(),
            })?;
        if bytes.len() != expected_len {
            return Err(StoreError::Truncated {
                path: path.to_string(),
                expected: expected_len,
                found: bytes.len(),
            });
        }
        let body_len = bytes.len() - 8;
        let stored_checksum = u64::from_le_bytes(bytes[body_len..].try_into().expect("8-byte slice"));
        if body_checksum != stored_checksum {
            return Err(StoreError::ChecksumMismatch { path: path.to_string() });
        }
        let fingerprint = word(1);
        if let Some(expected) = expected_fingerprint {
            if fingerprint != expected {
                return Err(StoreError::FingerprintMismatch { found: fingerprint, expected });
            }
        }
        let mut records = Vec::with_capacity(record_count as usize);
        let mut offset = MAGIC.len() + HEADER_WORDS * 8;
        for _ in 0..record_count {
            let mut words = [0u64; RECORD_WORDS];
            for word in words.iter_mut() {
                *word = u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8-byte slice"));
                offset += 8;
            }
            records.push(ShardRecord::from_words(&words));
        }
        Ok(ShardFile { fingerprint, chunk_index: word(2), start: word(3), len: word(4), records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_record(salt: u64) -> ShardRecord {
        let accumulator_words: [u64; AccumulatorState::WORDS] =
            std::array::from_fn(|index| salt * 100 + index as u64);
        let cost_words: [u64; CostTotals::WORDS] = std::array::from_fn(|index| salt * 1_000 + index as u64);
        ShardRecord {
            mitigation_bits: salt % 16,
            profile_index: salt % 3,
            accumulator: AccumulatorState::from_words(&accumulator_words),
            requests: salt * 7,
            planned_requests: salt * 8,
            cost: CostTotals::from_words(&cost_words),
        }
    }

    fn sample_shard() -> ShardFile {
        ShardFile {
            fingerprint: 0xfeed_beef_dead_cafe,
            chunk_index: 3,
            start: 3_000,
            len: 1_000,
            records: (1..=6).map(sample_record).collect(),
        }
    }

    #[test]
    fn record_words_round_trip_every_field() {
        let record = sample_record(5);
        assert_eq!(ShardRecord::from_words(&record.to_words()), record);
        // Distinct value per word position: swaps and drops cannot pass.
        let words: [u64; RECORD_WORDS] = std::array::from_fn(|index| 90_000 + index as u64);
        assert_eq!(ShardRecord::from_words(&words).to_words(), words);
    }

    #[test]
    fn encode_decode_round_trips_and_is_deterministic() {
        let shard = sample_shard();
        let bytes = shard.encode();
        assert_eq!(bytes, shard.encode(), "encoding must be deterministic");
        let decoded = ShardFile::decode("test.shard", &bytes, Some(shard.fingerprint)).unwrap();
        assert_eq!(decoded, shard);
    }

    #[test]
    fn truncated_bytes_are_refused() {
        let bytes = sample_shard().encode();
        let error = ShardFile::decode("t", &bytes[..bytes.len() - 3], None).unwrap_err();
        assert!(matches!(error, StoreError::Truncated { .. }), "{error:?}");
        let error = ShardFile::decode("t", &bytes[..10], None).unwrap_err();
        assert!(matches!(error, StoreError::Truncated { .. }), "{error:?}");
    }

    #[test]
    fn flipped_bytes_fail_the_checksum() {
        let mut bytes = sample_shard().encode();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        let error = ShardFile::decode("t", &bytes, None).unwrap_err();
        assert_eq!(error, StoreError::ChecksumMismatch { path: "t".to_string() });
    }

    #[test]
    fn wrong_magic_and_schema_are_refused() {
        let mut bytes = sample_shard().encode();
        bytes[0] = b'X';
        assert!(matches!(ShardFile::decode("t", &bytes, None).unwrap_err(), StoreError::BadMagic { .. }));

        let mut bytes = sample_shard().encode();
        // Bump the schema word and re-seal the checksum so only the schema
        // disagrees.
        bytes[8..16].copy_from_slice(&(SHARD_SCHEMA + 1).to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        let error = ShardFile::decode("t", &bytes, None).unwrap_err();
        assert_eq!(
            error,
            StoreError::SchemaMismatch {
                path: "t".to_string(),
                found: SHARD_SCHEMA + 1,
                expected: SHARD_SCHEMA
            }
        );
    }

    #[test]
    fn foreign_fingerprint_is_refused_when_expected() {
        let shard = sample_shard();
        let bytes = shard.encode();
        assert!(ShardFile::decode("t", &bytes, None).is_ok());
        let error = ShardFile::decode("t", &bytes, Some(1)).unwrap_err();
        assert_eq!(error, StoreError::FingerprintMismatch { found: shard.fingerprint, expected: 1 });
    }

    #[test]
    fn record_width_from_another_build_is_refused() {
        let mut bytes = sample_shard().encode();
        let width_offset = MAGIC.len() + 6 * 8;
        bytes[width_offset..width_offset + 8].copy_from_slice(&(RECORD_WORDS as u64 + 1).to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        let error = ShardFile::decode("t", &bytes, None).unwrap_err();
        assert!(matches!(error, StoreError::RecordWidthMismatch { .. }), "{error:?}");
    }

    #[test]
    fn one_pass_yields_the_body_and_the_file_checksum() {
        let bytes = sample_shard().encode();
        let body = bytes.len() - 8;
        let checksums = ShardChecksums::of(&bytes);
        assert_eq!(checksums, ShardChecksums { body: fnv1a(&bytes[..body]), file: fnv1a(&bytes) });
        assert_eq!(bytes[body..], checksums.body.to_le_bytes(), "the trailer seals the body");
        for short in [&[][..], &bytes[..5]] {
            assert_eq!(ShardChecksums::of(short), ShardChecksums { body: fnv1a(&[]), file: fnv1a(short) });
        }
    }

    proptest! {
        /// The four-file form is four calls of the one-file form: files of
        /// equal and unequal length, empty and shorter than the trailer.
        #[test]
        fn four_files_in_one_pass_equal_four_single_passes(
            lengths in (0usize..40, 0usize..40, 0usize..40, 0usize..40),
            salt in any::<u8>(),
        ) {
            let shard = sample_shard().encode();
            let lengths = [lengths.0, lengths.1, lengths.2, lengths.3];
            let prefixes = lengths.map(|len| &shard[..len]);
            // Whole shards with a flipped byte per lane, cut to unequal and
            // to equal lengths.
            let edited = |cut: &dyn Fn(usize) -> usize| -> [Vec<u8>; 4] {
                std::array::from_fn(|lane| {
                    let mut bytes = shard.clone();
                    bytes[lane * 11] ^= salt;
                    bytes.truncate(bytes.len() - cut(lane));
                    bytes
                })
            };
            let unequal = edited(&|lane| lengths[lane]);
            let equal = edited(&|_| lengths[0]);
            for files in [prefixes, unequal.each_ref().map(Vec::as_slice), equal.each_ref().map(Vec::as_slice)] {
                let four = ShardChecksums::of_four(files);
                for lane in 0..4 {
                    prop_assert_eq!(four[lane], ShardChecksums::of(files[lane]));
                }
            }
        }
    }

    #[test]
    fn empty_shard_encodes_and_decodes() {
        let shard = ShardFile { fingerprint: 9, chunk_index: 0, start: 0, len: 0, records: Vec::new() };
        let decoded = ShardFile::decode("t", &shard.encode(), Some(9)).unwrap();
        assert_eq!(decoded, shard);
    }
}
