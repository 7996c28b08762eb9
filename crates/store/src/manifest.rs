//! The store manifest: the commit point of a build.
//!
//! `MANIFEST.json` is written **last**, after every shard file it names is on
//! disk — a store with shards but no manifest is an interrupted build, and
//! [`crate::ShardStore::open`] refuses it with
//! [`crate::StoreError::Missing`]. The manifest names the configuration
//! fingerprint, the chunk layout and each shard's checksum, so a reader can
//! cross-check every shard it loads. File names are not the manifest's to
//! choose: a chunk entry must carry its position as `index` and name that
//! chunk's canonical shard ([`crate::StoreLayout::shard_name`]), and the
//! reader opens the canonical path, never a name read from the file.
//!
//! JSON (not the binary word format) on purpose: the manifest is the one
//! artifact operators read and diff by hand. It prints through
//! [`netsim_types::Json`], and [`Manifest::load`] reads back exactly the
//! fixed shape it writes — an object of scalars, `keys` (objects of two
//! integers) and `chunks` (four integers and a file name) — with a flat
//! reader whose nesting is that shape's, never the input's. Numbers are
//! decimal `u64`s only, so checksums and fingerprints survive verbatim; the
//! chunk lengths are summed with checked arithmetic; a duplicate, unknown or
//! missing field, and a chunk entry off its position or canonical file name,
//! is refused. Every refusal is a
//! [`StoreError::ManifestCorrupt`] naming the byte offset it met.

use crate::error::StoreError;
use crate::StoreLayout;
use netsim_types::Json;
use std::path::{Path, PathBuf};

/// File name of the manifest inside the store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// Manifest format version.
pub const MANIFEST_SCHEMA: u32 = 1;

/// One record key every shard carries, in record order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManifestKey {
    /// The mitigation set's bit pattern.
    pub mitigation_bits: u64,
    /// Index into the store's link-profile list.
    pub profile_index: u64,
}

/// One chunk's entry: where its shard lives and what it must hash to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManifestChunk {
    /// Chunk index in the layout.
    pub index: u64,
    /// Global rank of the chunk's first site.
    pub start: u64,
    /// Sites in the chunk.
    pub len: u64,
    /// Shard file name, relative to the store's `shards/` directory: always
    /// `StoreLayout::shard_name(index)` in a loaded manifest.
    pub file: String,
    /// FNV-1a checksum of the shard file's bytes (trailer word included).
    pub checksum: u64,
}

/// The persisted description of a complete store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version.
    pub schema: u32,
    /// Configuration fingerprint every shard must carry.
    pub fingerprint: u64,
    /// Total sites across all chunks.
    pub sites: u64,
    /// Record keys every shard stores, in record order.
    pub keys: Vec<ManifestKey>,
    /// One entry per chunk, in chunk order.
    pub chunks: Vec<ManifestChunk>,
}

impl Manifest {
    /// The manifest's path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Load and validate the manifest from a store directory.
    pub fn load(dir: &Path) -> Result<Manifest, StoreError> {
        let path = Manifest::path(dir);
        let bytes = std::fs::read(&path).map_err(|error| StoreError::io(&path, error))?;
        Reader { bytes: &bytes, pos: 0 }
            .manifest()
            .map_err(|message| StoreError::ManifestCorrupt { path: path.display().to_string(), message })
    }

    /// Write the manifest atomically (temp file + rename), as the final step
    /// of a build.
    pub fn write(&self, dir: &Path) -> Result<(), StoreError> {
        let path = Manifest::path(dir);
        let temp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(&temp, format!("{}\n", self.to_json().to_pretty()))
            .map_err(|error| StoreError::io(&temp, error))?;
        std::fs::rename(&temp, &path).map_err(|error| StoreError::io(&path, error))
    }

    fn to_json(&self) -> Json {
        let key = |key: &ManifestKey| {
            Json::obj([
                ("mitigation_bits", key.mitigation_bits.into()),
                ("profile_index", key.profile_index.into()),
            ])
        };
        let chunk = |chunk: &ManifestChunk| {
            Json::obj([
                ("index", chunk.index.into()),
                ("start", chunk.start.into()),
                ("len", chunk.len.into()),
                ("file", Json::str(&chunk.file)),
                ("checksum", chunk.checksum.into()),
            ])
        };
        Json::obj([
            ("schema", self.schema.into()),
            ("fingerprint", self.fingerprint.into()),
            ("sites", self.sites.into()),
            ("keys", Json::arr(&self.keys, key)),
            ("chunks", Json::arr(&self.chunks, chunk)),
        ])
    }
}

/// The manifest reader: a cursor over the file's bytes. Each method reads
/// one piece of the fixed shape or returns what it met and where.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn manifest(&mut self) -> Result<Manifest, String> {
        let mut manifest = Manifest { schema: MANIFEST_SCHEMA, ..Manifest::default() };
        let (mut sites_at, mut counted, mut counted_chunks) = (0, 0u64, 0usize);
        self.object(&["schema", "fingerprint", "sites", "keys", "chunks"], |reader, field| {
            match field {
                "schema" => {
                    let at = reader.at();
                    let schema = reader.u64()?;
                    if schema != u64::from(MANIFEST_SCHEMA) {
                        return Err(format!(
                            "schema {schema} (this reader expects {MANIFEST_SCHEMA}) at byte {at}"
                        ));
                    }
                }
                "fingerprint" => manifest.fingerprint = reader.u64()?,
                "sites" => {
                    sites_at = reader.at();
                    manifest.sites = reader.u64()?;
                }
                "keys" => manifest.keys = reader.array(Reader::key)?,
                _ => {
                    manifest.chunks = reader.array(|reader| {
                        let at = reader.at();
                        let chunk = reader.chunk()?;
                        let position = counted_chunks;
                        counted_chunks += 1;
                        if chunk.index != position as u64 {
                            return Err(format!("chunk {position} has index {} at byte {at}", chunk.index));
                        }
                        let file = StoreLayout::shard_name(position);
                        if chunk.file != file {
                            return Err(format!(
                                "chunk {position} names file {:?}, not {file:?} at byte {at}",
                                chunk.file
                            ));
                        }
                        counted = counted
                            .checked_add(chunk.len)
                            .ok_or_else(|| format!("chunk lengths overflow u64 at byte {at}"))?;
                        Ok(chunk)
                    })?
                }
            }
            Ok(())
        })?;
        if self.at() != self.bytes.len() {
            return Err(format!("trailing bytes at byte {}", self.pos));
        }
        if counted != manifest.sites {
            return Err(format!(
                "chunk lengths sum to {counted}, sites field says {} at byte {sites_at}",
                manifest.sites
            ));
        }
        Ok(manifest)
    }

    fn key(&mut self) -> Result<ManifestKey, String> {
        let mut key = ManifestKey::default();
        self.object(&["mitigation_bits", "profile_index"], |reader, field| {
            match field {
                "mitigation_bits" => key.mitigation_bits = reader.u64()?,
                _ => key.profile_index = reader.u64()?,
            }
            Ok(())
        })?;
        Ok(key)
    }

    fn chunk(&mut self) -> Result<ManifestChunk, String> {
        let mut chunk = ManifestChunk::default();
        self.object(&["index", "start", "len", "file", "checksum"], |reader, field| {
            match field {
                "index" => chunk.index = reader.u64()?,
                "start" => chunk.start = reader.u64()?,
                "len" => chunk.len = reader.u64()?,
                "file" => chunk.file = reader.string()?.to_string(),
                _ => chunk.checksum = reader.u64()?,
            }
            Ok(())
        })?;
        Ok(chunk)
    }

    /// An object holding each of `fields` exactly once, in any order;
    /// `read` reads the value of the field it is handed.
    fn object(
        &mut self,
        fields: &[&'static str],
        mut read: impl FnMut(&mut Self, &'static str) -> Result<(), String>,
    ) -> Result<(), String> {
        let start = self.at();
        self.expect(b'{')?;
        let mut seen = 0u32;
        if !self.eat(b'}') {
            loop {
                let at = self.at();
                let key = self.string()?;
                let index = fields
                    .iter()
                    .position(|field| *field == key)
                    .ok_or_else(|| format!("unknown field {key:?} at byte {at}"))?;
                if seen & (1 << index) != 0 {
                    return Err(format!("duplicate field {key:?} at byte {at}"));
                }
                seen |= 1 << index;
                self.expect(b':')?;
                read(self, fields[index])?;
                if !self.eat(b',') {
                    self.expect(b'}')?;
                    break;
                }
            }
        }
        match (0..fields.len()).find(|index| seen & (1 << index) == 0) {
            Some(index) => Err(format!("missing field {:?} in the object at byte {start}", fields[index])),
            None => Ok(()),
        }
    }

    /// An array of items each read by `item`.
    fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.eat(b',') {
                self.expect(b']')?;
                return Ok(items);
            }
        }
    }

    /// A decimal `u64`: digits only, no leading zero, no sign, fraction or
    /// exponent.
    fn u64(&mut self) -> Result<u64, String> {
        let start = self.at();
        let digits = self.bytes[start..].iter().take_while(|byte| byte.is_ascii_digit()).count();
        let text = &self.bytes[start..start + digits];
        if digits == 0 || (digits > 1 && text[0] == b'0') {
            return Err(format!("expected a decimal u64 at byte {start}"));
        }
        let value = text
            .iter()
            .try_fold(0u64, |value, digit| value.checked_mul(10)?.checked_add(u64::from(digit - b'0')))
            .ok_or_else(|| format!("number beyond u64 at byte {start}"))?;
        self.pos += digits;
        Ok(value)
    }

    /// A string with no escapes and no control characters (the writer
    /// escapes neither in a key or a shard name).
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&byte| byte == b'"' || byte == b'\\' || byte < 0x20)
            .filter(|&len| self.bytes[start + len] == b'"')
            .ok_or_else(|| {
                format!("unterminated, escaped or control character in the string at byte {start}")
            })?;
        let bytes: &'a [u8] = self.bytes;
        let text = std::str::from_utf8(&bytes[start..start + len])
            .map_err(|_| format!("invalid UTF-8 in the string at byte {start}"))?;
        self.pos = start + len + 1;
        Ok(text)
    }

    /// Skip whitespace; the offset of the next byte.
    fn at(&mut self) -> usize {
        let blank =
            self.bytes[self.pos..].iter().take_while(|byte| matches!(byte, b' ' | b'\t' | b'\n' | b'\r'));
        self.pos += blank.count();
        self.pos
    }

    /// Consume `byte` if it comes next (after whitespace).
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.bytes.get(self.at()) == Some(&byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            return Ok(());
        }
        Err(format!("expected `{}` at byte {}", byte as char, self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            schema: MANIFEST_SCHEMA,
            fingerprint: u64::MAX - 5,
            sites: 120,
            keys: vec![
                ManifestKey { mitigation_bits: 0, profile_index: 0 },
                ManifestKey { mitigation_bits: 15, profile_index: 2 },
            ],
            chunks: vec![
                ManifestChunk { index: 0, start: 0, len: 80, file: "chunk-000000.shard".into(), checksum: 7 },
                ManifestChunk {
                    index: 1,
                    start: 80,
                    len: 40,
                    file: "chunk-000001.shard".into(),
                    checksum: u64::MAX,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips_through_disk_with_full_u64_precision() {
        let dir = std::env::temp_dir().join(format!("connreuse-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = sample();
        manifest.write(&dir).unwrap();
        let loaded = Manifest::load(&dir).unwrap();
        assert_eq!(loaded, manifest);
        assert_eq!(loaded.chunks[1].checksum, u64::MAX);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// [`sample`]'s manifest file, pinned byte for byte.
    const SAMPLE_TEXT: &str = "{\n  \"schema\": 1,\n  \"fingerprint\": 18446744073709551610,\n  \"sites\": 120,\n  \
        \"keys\": [\n    {\n      \"mitigation_bits\": 0,\n      \"profile_index\": 0\n    },\n    {\n      \
        \"mitigation_bits\": 15,\n      \"profile_index\": 2\n    }\n  ],\n  \"chunks\": [\n    {\n      \
        \"index\": 0,\n      \"start\": 0,\n      \"len\": 80,\n      \"file\": \"chunk-000000.shard\",\n      \
        \"checksum\": 7\n    },\n    {\n      \"index\": 1,\n      \"start\": 80,\n      \"len\": 40,\n      \
        \"file\": \"chunk-000001.shard\",\n      \"checksum\": 18446744073709551615\n    }\n  ]\n}\n";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("connreuse-manifest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_writes_the_pinned_text() {
        let dir = temp_dir("pinned");
        sample().write(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(Manifest::path(&dir)).unwrap(), SAMPLE_TEXT);
        let empty = Manifest { schema: MANIFEST_SCHEMA, ..Manifest::default() };
        empty.write(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(Manifest::path(&dir)).unwrap(),
            "{\n  \"schema\": 1,\n  \"fingerprint\": 0,\n  \"sites\": 0,\n  \"keys\": [],\n  \"chunks\": []\n}\n"
        );
        assert_eq!(Manifest::load(&dir).unwrap(), empty);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_refusal_names_a_byte_offset() {
        let dir = temp_dir("refusals");
        let edits: [(&str, &str, &str); 12] = [
            ("\"schema\": 1", "\"schema\": 2", "schema 2 (this reader expects 1) at byte 14"),
            ("\"sites\": 120", "\"sites\": 0120", "expected a decimal u64 at byte 67"),
            ("\"sites\": 120", "\"sites\": -120", "expected a decimal u64 at byte 67"),
            ("\"sites\": 120", "\"sites\": 120.0", "expected `}` at byte 70"),
            ("\"sites\": 120", "\"sites\": 18446744073709551616", "number beyond u64 at byte 67"),
            ("\"sites\": 120", "\"sites\": 121", "chunk lengths sum to 120, sites field says 121 at byte 67"),
            ("\"sites\": 120", "\"sites\": 120, \"sites\": 120", "duplicate field \"sites\" at byte 72"),
            ("\"sites\": 120", "\"sites\": 120, \"extra\": 1", "unknown field \"extra\" at byte 72"),
            ("\"sites\": 120,", "", "missing field \"sites\" in the object at byte 0"),
            ("chunk-000000", "chunk\\u0030", "escaped or control character in the string at byte 309"),
            ("\n}\n", "\n}\n}", "trailing bytes at byte 504"),
            ("\n}\n", "\n", "expected `}` at byte 502"),
        ];
        for (from, to, expected) in edits {
            std::fs::write(Manifest::path(&dir), SAMPLE_TEXT.replacen(from, to, 1)).unwrap();
            match Manifest::load(&dir).unwrap_err() {
                StoreError::ManifestCorrupt { message, .. } => {
                    assert!(message.ends_with(expected), "{message}")
                }
                other => panic!("{other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_entries_must_name_their_own_canonical_shard() {
        let dir = temp_dir("names");
        let swapped = SAMPLE_TEXT
            .replacen("chunk-000000", "chunk-swap", 1)
            .replacen("chunk-000001", "chunk-000000", 1)
            .replacen("chunk-swap", "chunk-000001", 1);
        let texts = [
            (
                SAMPLE_TEXT.replacen("chunk-000000.shard", "/etc/hostname", 1),
                "chunk 0 names file \"/etc/hostname\", not \"chunk-000000.shard\" at byte 239",
            ),
            (
                SAMPLE_TEXT.replacen("chunk-000001.shard", "../chunk-000001.shard", 1),
                "chunk 1 names file \"../chunk-000001.shard\", not \"chunk-000001.shard\" at byte 361",
            ),
            (swapped, "chunk 0 names file \"chunk-000001.shard\", not \"chunk-000000.shard\" at byte 239"),
            (SAMPLE_TEXT.replacen("\"index\": 1", "\"index\": 0", 1), "chunk 1 has index 0 at byte 361"),
        ];
        for (text, expected) in texts {
            std::fs::write(Manifest::path(&dir), text).unwrap();
            match Manifest::load(&dir).unwrap_err() {
                StoreError::ManifestCorrupt { message, .. } => {
                    assert!(message.ends_with(expected), "{message}")
                }
                other => panic!("{other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("connreuse-manifest-none-{}", std::process::id()));
        let error = Manifest::load(&dir).unwrap_err();
        assert!(matches!(error, StoreError::Missing { .. }), "{error:?}");
    }

    #[test]
    fn garbage_and_foreign_schema_are_corrupt() {
        let dir = std::env::temp_dir().join(format!("connreuse-manifest-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Manifest::path(&dir), "{ not json").unwrap();
        assert!(matches!(Manifest::load(&dir).unwrap_err(), StoreError::ManifestCorrupt { .. }));

        let mut foreign = sample();
        foreign.schema = MANIFEST_SCHEMA + 1;
        foreign.write(&dir).unwrap();
        assert!(matches!(Manifest::load(&dir).unwrap_err(), StoreError::ManifestCorrupt { .. }));

        let mut inconsistent = sample();
        inconsistent.sites = 9_999;
        inconsistent.write(&dir).unwrap();
        assert!(matches!(Manifest::load(&dir).unwrap_err(), StoreError::ManifestCorrupt { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
