//! # netsim-store
//!
//! The **persistent atlas shard store**: a compact columnar on-disk format
//! for per-chunk classification cause counts and cost totals, with integrity
//! checks and incremental rebuild. This is the first subsystem in the
//! workspace whose output outlives the process — the million-site scale the
//! atlas computes in memory becomes a directory that answers what-if queries
//! for as long as the configuration stands.
//!
//! ## Directory layout
//!
//! ```text
//! <store>/
//!   MANIFEST.json            commit point: fingerprint, layout, checksums
//!   shards/
//!     chunk-000000.shard     one fixed-width binary shard per chunk
//!     chunk-000001.shard
//!     ...
//! ```
//!
//! ## Contracts
//!
//! * **Determinism to disk** — a shard's bytes are a pure function of
//!   (config, chunk), so builds at any thread count, in any steal order,
//!   produce byte-identical directories ([`mod@format`] explains the layout).
//! * **Integrity** — every shard carries a trailing FNV-1a checksum and the
//!   config fingerprint, and the manifest pins each file's FNV-1a checksum;
//!   [`ShardStore::read_chunk`] refuses corrupt or foreign shards with a
//!   typed [`StoreError`] instead of serving wrong numbers. One FNV-1a pass
//!   over a file's bytes yields both checksums (`ShardChecksums`): the state
//!   after the body is what the trailer seals, and continued over the
//!   trailer it is what the manifest pins. The verifier reads shards four at
//!   a time and hashes the four in lockstep on one thread
//!   ([`netsim_types::fnv1a_continue_lockstep`]: four independent chains,
//!   bit-identical to four serial passes), then checks each shard on its
//!   own in the one-shard order, so every chunk keeps its own typed refusal.
//!   The build's manifest commit, the rebuild plan, the open and every read
//!   (a group of one) verify through that one verifier, and
//!   [`hashed_bytes`] counts the bytes it hashes: each shard's once.
//!   [`ShardStore::open`] runs the check once per shard and keeps the
//!   verified records in memory;
//!   [`ShardStore::record`] serves them and returns a bad chunk's refusal for
//!   every read of it. The open is a snapshot: a shard file changed
//!   afterwards is not seen. A build verifies every shard twice on purpose:
//!   [`BuildPlan::assess`] to plan, and [`finalize_manifest`] again at
//!   commit, clean shards included, so the manifest pins only bytes that
//!   verified when it was written. A shard changed between plan and commit
//!   fails the build with its typed error and leaves the old manifest as it
//!   was.
//! * **Incremental rebuild** — [`BuildPlan::assess`] decodes what is already
//!   on disk and schedules only chunks whose shard is missing, corrupt, or
//!   written under a different fingerprint/layout. A second build over the
//!   same config therefore rewrites **zero** shards; growing the population
//!   writes only the new chunks (the fingerprint deliberately excludes the
//!   site count).
//! * **Commit point** — [`Manifest`] is written last; a store without one is
//!   an interrupted build and will not open.
//!
//! The semantic layer — what the records *mean*, how chunks are crawled, how
//! queries fold them — lives in `connreuse_experiments::store`; this crate
//! only owns bytes, checksums and plans.

pub mod error;
pub mod format;
pub mod manifest;

pub use error::StoreError;
pub use format::{ShardFile, ShardRecord, HEADER_WORDS, MAGIC, RECORD_WORDS, SHARD_SCHEMA};
pub use manifest::{Manifest, ManifestChunk, ManifestKey, MANIFEST_FILE, MANIFEST_SCHEMA};

use format::ShardChecksums;
use std::cell::Cell;
use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Subdirectory holding the binary shards.
pub const SHARDS_DIR: &str = "shards";

/// Shards the verifier reads and hashes together ([`ShardChecksums::of_four`]).
const VERIFY_LANES: usize = 4;

thread_local! {
    static HASHED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's shard-file bytes the store's verifier has run through
/// FNV-1a. A work counter: take the difference around an open, a plan or a
/// manifest commit to see how many bytes it hashed. It is never written to
/// a shard, a manifest or a report.
pub fn hashed_bytes() -> u64 {
    HASHED_BYTES.with(Cell::get)
}

/// Replace `buffer`'s contents with the file at `path`, leaving it empty if
/// the read fails.
fn read_into(path: &Path, buffer: &mut Vec<u8>) -> Result<(), StoreError> {
    buffer.clear();
    let read = File::open(path).and_then(|mut file| file.read_to_end(buffer));
    read.map(drop).map_err(|error| {
        buffer.clear();
        StoreError::io(path, error)
    })
}

/// The shape a complete store must have: which chunks exist, which record
/// keys every shard carries, and the configuration fingerprint everything is
/// stamped with. The builder derives this from its config; [`BuildPlan`] and
/// [`finalize_manifest`] compare disk against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreLayout {
    /// Configuration fingerprint (see `netsim_types::fingerprint`).
    pub fingerprint: u64,
    /// `(start, len)` per chunk, in chunk order, covering `[0, sites)`.
    pub chunks: Vec<(u64, u64)>,
    /// `(mitigation_bits, profile_index)` per record, in record order.
    pub keys: Vec<(u64, u64)>,
}

impl StoreLayout {
    /// Total sites across all chunks.
    pub fn sites(&self) -> u64 {
        self.chunks.iter().map(|(_, len)| len).sum()
    }

    /// Canonical shard file name of a chunk index.
    pub fn shard_name(index: usize) -> String {
        format!("chunk-{index:06}.shard")
    }

    /// Absolute path of a chunk's shard under `dir`.
    pub fn shard_path(dir: &Path, index: usize) -> PathBuf {
        dir.join(SHARDS_DIR).join(StoreLayout::shard_name(index))
    }

    /// Read and verify the shards of `chunks` under `dir`, handing each
    /// chunk's verdict to `each` in chunk order; the first error `each`
    /// returns stops the walk and is returned. The build's manifest commit,
    /// its rebuild plan, the open and every read verify through here.
    ///
    /// Shards are read [`VERIFY_LANES`] at a time into reused buffers and
    /// hashed in one lockstep FNV-1a pass ([`ShardChecksums::of_four`]);
    /// each is then checked on its own, in the one-shard order: the
    /// whole-file checksum against `pinned` (the manifest's, when there is
    /// one), the format's checks through the trailer and fingerprint
    /// ([`ShardFile::decode_hashed`]), then this layout. A verdict is the
    /// shard and its whole-file checksum.
    fn verify_each(
        &self,
        dir: &Path,
        chunks: Range<usize>,
        pinned: impl Fn(usize) -> Option<u64>,
        mut each: impl FnMut(usize, Result<(ShardFile, u64), StoreError>) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut buffers: [Vec<u8>; VERIFY_LANES] = Default::default();
        for first in chunks.clone().step_by(VERIFY_LANES) {
            let group = first..chunks.end.min(first + VERIFY_LANES);
            let paths: Vec<PathBuf> =
                group.clone().map(|index| StoreLayout::shard_path(dir, index)).collect();
            let reads: Vec<Result<(), StoreError>> =
                paths.iter().zip(&mut buffers).map(|(path, buffer)| read_into(path, buffer)).collect();
            for buffer in &mut buffers[group.len()..] {
                buffer.clear();
            }
            let files = buffers.each_ref().map(Vec::as_slice);
            HASHED_BYTES.with(|hashed| {
                hashed.set(hashed.get() + files.iter().map(|file| file.len() as u64).sum::<u64>())
            });
            let checksums = ShardChecksums::of_four(files);
            for (lane, (index, read)) in group.zip(reads).enumerate() {
                let verdict = read.and_then(|()| {
                    self.verify_hashed(index, &paths[lane], files[lane], checksums[lane], pinned(index))
                });
                each(index, verdict)?;
            }
        }
        Ok(())
    }

    /// Verify one shard's bytes, already hashed, as chunk `index`: see
    /// [`StoreLayout::verify_each`] for the order of the checks.
    fn verify_hashed(
        &self,
        index: usize,
        path: &Path,
        bytes: &[u8],
        checksums: ShardChecksums,
        pinned: Option<u64>,
    ) -> Result<(ShardFile, u64), StoreError> {
        let label = path.display().to_string();
        if pinned.is_some_and(|pinned| pinned != checksums.file) {
            return Err(StoreError::ChecksumMismatch { path: label });
        }
        let shard = ShardFile::decode_hashed(&label, bytes, checksums.body, Some(self.fingerprint))?;
        self.check(index, path, &shard)?;
        Ok((shard, checksums.file))
    }

    /// Refuse a decoded shard that does not match this layout at `index`:
    /// fingerprint, chunk bounds, record count and record keys in order.
    fn check(&self, index: usize, path: &Path, shard: &ShardFile) -> Result<(), StoreError> {
        let (start, len) = self.chunks[index];
        if shard.fingerprint == self.fingerprint
            && shard.chunk_index == index as u64
            && shard.start == start
            && shard.len == len
            && shard.records.len() == self.keys.len()
            && shard.records.iter().zip(&self.keys).all(|(record, &(bits, profile))| {
                record.mitigation_bits == bits && record.profile_index == profile
            })
        {
            return Ok(());
        }
        Err(StoreError::LayoutMismatch {
            path: path.display().to_string(),
            message: format!(
                "chunk {index} expects [{start}, {start}+{len}) with {} records, shard has chunk {} [{}, {}+{}) \
                 with {} records",
                self.keys.len(),
                shard.chunk_index,
                shard.start,
                shard.start,
                shard.len,
                shard.records.len()
            ),
        })
    }
}

/// What an incremental build has to do: which chunks need crawling and which
/// shards already on disk can be kept as-is.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildPlan {
    /// Chunk indices whose shard must be (re)written.
    pub dirty: Vec<usize>,
    /// Chunk indices whose existing shard already matches the layout.
    pub clean: Vec<usize>,
    /// Stale files removed from `shards/` (chunks beyond the layout, foreign
    /// names).
    pub removed: Vec<String>,
}

impl BuildPlan {
    /// Compare the store directory against `layout`.
    ///
    /// A chunk is **clean** only if its shard file exists, decodes, passes
    /// the checksum, carries the layout's fingerprint and matches its chunk
    /// bounds and record keys — anything less marks it dirty for recrawl.
    /// Files in `shards/` that no layout chunk claims are deleted (a shrink
    /// of the population, or debris) and reported in
    /// [`BuildPlan::removed`].
    pub fn assess(dir: &Path, layout: &StoreLayout) -> Result<BuildPlan, StoreError> {
        let mut plan = BuildPlan::default();
        layout.verify_each(
            dir,
            0..layout.chunks.len(),
            |_| None,
            |index, verdict| {
                match verdict {
                    Ok(_) => plan.clean.push(index),
                    Err(_) => plan.dirty.push(index),
                }
                Ok(())
            },
        )?;

        let shards_dir = dir.join(SHARDS_DIR);
        let expected: std::collections::BTreeSet<String> =
            (0..layout.chunks.len()).map(StoreLayout::shard_name).collect();
        if let Ok(entries) = std::fs::read_dir(&shards_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                if !expected.contains(&name) {
                    let path = shards_dir.join(&name);
                    std::fs::remove_file(&path).map_err(|error| StoreError::io(&path, error))?;
                    plan.removed.push(name);
                }
            }
        }
        plan.removed.sort();
        Ok(plan)
    }
}

/// Write one chunk's shard atomically (temp file + rename), creating the
/// `shards/` directory on first use.
pub fn write_shard(dir: &Path, shard: &ShardFile) -> Result<(), StoreError> {
    let shards_dir = dir.join(SHARDS_DIR);
    std::fs::create_dir_all(&shards_dir).map_err(|error| StoreError::io(&shards_dir, error))?;
    let path = StoreLayout::shard_path(dir, shard.chunk_index as usize);
    let temp = shards_dir.join(format!("{}.tmp", StoreLayout::shard_name(shard.chunk_index as usize)));
    std::fs::write(&temp, shard.encode()).map_err(|error| StoreError::io(&temp, error))?;
    std::fs::rename(&temp, &path).map_err(|error| StoreError::io(&path, error))
}

/// Verify every shard the layout requires and commit the manifest — the last
/// step of a build. Fails with the first shard that is missing, corrupt or
/// off-layout; on success the store opens cleanly.
pub fn finalize_manifest(dir: &Path, layout: &StoreLayout) -> Result<Manifest, StoreError> {
    let mut chunks = Vec::with_capacity(layout.chunks.len());
    layout.verify_each(
        dir,
        0..layout.chunks.len(),
        |_| None,
        |index, verdict| {
            let (start, len) = layout.chunks[index];
            let (_, checksum) = verdict?;
            chunks.push(ManifestChunk {
                index: index as u64,
                start,
                len,
                file: StoreLayout::shard_name(index),
                checksum,
            });
            Ok(())
        },
    )?;
    let manifest = Manifest {
        schema: MANIFEST_SCHEMA,
        fingerprint: layout.fingerprint,
        sites: layout.sites(),
        keys: layout
            .keys
            .iter()
            .map(|&(mitigation_bits, profile_index)| ManifestKey { mitigation_bits, profile_index })
            .collect(),
        chunks,
    };
    manifest.write(dir)?;
    Ok(manifest)
}

/// An opened store: the manifest-validated layout plus every chunk's
/// records, verified once at open and held in memory for the folds.
#[derive(Clone, Debug)]
pub struct ShardStore {
    dir: PathBuf,
    manifest: Manifest,
    /// The layout the manifest commits to; every read is checked against it.
    layout: StoreLayout,
    /// Every chunk's records, chunk-major: record `r` of chunk `c` sits at
    /// `c * keys + r`. A chunk refused at open holds default records here.
    records: Vec<ShardRecord>,
    /// Per chunk, the refusal its verification met at open, if any.
    refusals: Vec<Option<StoreError>>,
}

impl ShardStore {
    /// Open a store directory: load its manifest or refuse, then verify
    /// every shard once ([`ShardStore::read_chunk`]) and keep its records.
    /// A bad shard does not fail the open; [`ShardStore::record`] returns
    /// its refusal for every read of that chunk.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        ShardStore::load(dir, None)
    }

    /// Open and additionally require the store's fingerprint to match the
    /// configuration being served (checked before any shard is read).
    pub fn open_with_fingerprint(dir: &Path, expected: u64) -> Result<Self, StoreError> {
        ShardStore::load(dir, Some(expected))
    }

    fn load(dir: &Path, expected: Option<u64>) -> Result<Self, StoreError> {
        let manifest = Manifest::load(dir)?;
        if let Some(expected) = expected.filter(|&expected| expected != manifest.fingerprint) {
            return Err(StoreError::FingerprintMismatch { found: manifest.fingerprint, expected });
        }
        let layout = StoreLayout {
            fingerprint: manifest.fingerprint,
            chunks: manifest.chunks.iter().map(|chunk| (chunk.start, chunk.len)).collect(),
            keys: manifest.keys.iter().map(|key| (key.mitigation_bits, key.profile_index)).collect(),
        };
        let (chunks, keys) = (layout.chunks.len(), layout.keys.len());
        // The manifest is untrusted: refuse a record count that cannot be
        // held instead of aborting on the allocation.
        let mut records = Vec::new();
        chunks.checked_mul(keys).and_then(|len| records.try_reserve_exact(len).ok()).ok_or_else(|| {
            StoreError::ManifestCorrupt {
                path: Manifest::path(dir).display().to_string(),
                message: format!("{chunks} chunks of {keys} records each do not fit in memory"),
            }
        })?;
        let mut refusals = Vec::with_capacity(chunks);
        let pinned = |index: usize| Some(manifest.chunks[index].checksum);
        layout.verify_each(dir, 0..chunks, pinned, |index, verdict| {
            let refusal = match verdict {
                Ok((shard, _)) => {
                    records.extend_from_slice(&shard.records);
                    None
                }
                Err(error) => {
                    records.resize((index + 1) * keys, ShardRecord::default());
                    Some(error)
                }
            };
            refusals.push(refusal);
            Ok(())
        })?;
        Ok(ShardStore { dir: dir.to_path_buf(), manifest, layout, records, refusals })
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of chunks the store holds.
    pub fn chunk_count(&self) -> usize {
        self.manifest.chunks.len()
    }

    /// One record of one chunk, as verified at open: the chunk's refusal if
    /// its shard failed verification, a [`StoreError::LayoutMismatch`] if
    /// either index lies beyond the layout. Never touches the disk, so a
    /// file changed after open is not seen.
    pub fn record(&self, chunk: usize, record_index: usize) -> Result<&ShardRecord, StoreError> {
        let keys = self.layout.keys.len();
        match self.refusals.get(chunk) {
            None => Err(self.beyond_manifest(chunk)),
            Some(Some(refusal)) => Err(refusal.clone()),
            Some(None) if record_index >= keys => Err(StoreError::LayoutMismatch {
                path: StoreLayout::shard_path(&self.dir, chunk).display().to_string(),
                message: format!("record {record_index} beyond the layout's {keys} records"),
            }),
            Some(None) => Ok(&self.records[chunk * keys + record_index]),
        }
    }

    /// Read and fully verify one chunk's shard from disk in one pass over
    /// its bytes: file checksum against the manifest, format checksum,
    /// fingerprint, and the manifest's layout (chunk bounds, record count and
    /// keys).
    pub fn read_chunk(&self, index: usize) -> Result<ShardFile, StoreError> {
        let entry = self.manifest.chunks.get(index).ok_or_else(|| self.beyond_manifest(index))?;
        let mut shard = None;
        self.layout.verify_each(
            &self.dir,
            index..index + 1,
            |_| Some(entry.checksum),
            |_, verdict| {
                shard = Some(verdict?.0);
                Ok(())
            },
        )?;
        Ok(shard.expect("a group of one yields one verdict"))
    }

    /// The refusal of a chunk index the manifest does not list.
    fn beyond_manifest(&self, index: usize) -> StoreError {
        StoreError::LayoutMismatch {
            path: StoreLayout::shard_path(&self.dir, index).display().to_string(),
            message: format!("chunk {index} beyond the manifest's {} chunks", self.manifest.chunks.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use connreuse_core::AccumulatorState;
    use netsim_cost::CostTotals;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("connreuse-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn layout() -> StoreLayout {
        StoreLayout {
            fingerprint: 0xabcd_ef01_2345_6789,
            chunks: vec![(0, 40), (40, 40), (80, 20)],
            keys: vec![(0, 0), (0, 1), (15, 2)],
        }
    }

    fn shard_for(layout: &StoreLayout, index: usize, salt: u64) -> ShardFile {
        let (start, len) = layout.chunks[index];
        let records = layout
            .keys
            .iter()
            .map(|&(mitigation_bits, profile_index)| ShardRecord {
                mitigation_bits,
                profile_index,
                accumulator: AccumulatorState {
                    observed_sites: len + salt,
                    total_sites: len,
                    ..AccumulatorState::default()
                },
                requests: salt * 10,
                planned_requests: salt * 12,
                cost: CostTotals::from_words(&std::array::from_fn(|word| salt + word as u64)),
            })
            .collect();
        ShardFile { fingerprint: layout.fingerprint, chunk_index: index as u64, start, len, records }
    }

    fn build(dir: &Path, layout: &StoreLayout) {
        for index in 0..layout.chunks.len() {
            write_shard(dir, &shard_for(layout, index, index as u64 + 1)).unwrap();
        }
        finalize_manifest(dir, layout).unwrap();
    }

    #[test]
    fn fresh_directory_plans_every_chunk_dirty() {
        let dir = temp_store("fresh");
        let plan = BuildPlan::assess(&dir, &layout()).unwrap();
        assert_eq!(plan.dirty, vec![0, 1, 2]);
        assert!(plan.clean.is_empty());
        assert!(plan.removed.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn built_store_plans_zero_dirty_and_opens() {
        let dir = temp_store("built");
        let layout = layout();
        build(&dir, &layout);

        let plan = BuildPlan::assess(&dir, &layout).unwrap();
        assert!(plan.dirty.is_empty(), "{plan:?}");
        assert_eq!(plan.clean, vec![0, 1, 2]);

        let store = ShardStore::open_with_fingerprint(&dir, layout.fingerprint).unwrap();
        assert_eq!(store.chunk_count(), 3);
        assert_eq!(store.manifest().sites, 100);
        for index in 0..3 {
            let shard = store.read_chunk(index).unwrap();
            assert_eq!(shard, shard_for(&layout, index, index as u64 + 1));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_change_dirties_everything() {
        let dir = temp_store("refp");
        let mut layout = layout();
        build(&dir, &layout);
        layout.fingerprint ^= 1;
        let plan = BuildPlan::assess(&dir, &layout).unwrap();
        assert_eq!(plan.dirty, vec![0, 1, 2]);
        assert!(ShardStore::open_with_fingerprint(&dir, layout.fingerprint).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn population_growth_dirties_only_new_and_resized_chunks() {
        let dir = temp_store("grow");
        let small = layout();
        build(&dir, &small);
        // Grow: same fingerprint (site count is excluded from it), two more
        // chunks, and the old partial chunk 2 changes length.
        let grown =
            StoreLayout { chunks: vec![(0, 40), (40, 40), (80, 40), (120, 40), (160, 10)], ..small.clone() };
        let plan = BuildPlan::assess(&dir, &grown).unwrap();
        assert_eq!(plan.clean, vec![0, 1]);
        assert_eq!(plan.dirty, vec![2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrink_removes_stale_shards() {
        let dir = temp_store("shrink");
        let big = layout();
        build(&dir, &big);
        let shrunk = StoreLayout { chunks: vec![(0, 40)], ..big.clone() };
        let plan = BuildPlan::assess(&dir, &shrunk).unwrap();
        assert_eq!(plan.clean, vec![0]);
        assert!(plan.dirty.is_empty());
        assert_eq!(plan.removed, vec![StoreLayout::shard_name(1), StoreLayout::shard_name(2)]);
        assert!(!StoreLayout::shard_path(&dir, 1).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shard_is_planned_dirty_and_refused_by_the_reader() {
        let dir = temp_store("corrupt");
        let layout = layout();
        build(&dir, &layout);

        let victim = StoreLayout::shard_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();

        let plan = BuildPlan::assess(&dir, &layout).unwrap();
        assert_eq!(plan.dirty, vec![1]);
        assert_eq!(plan.clean, vec![0, 2]);

        let store = ShardStore::open(&dir).unwrap();
        let error = store.read_chunk(1).unwrap_err();
        assert!(matches!(error, StoreError::ChecksumMismatch { .. }), "{error:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_verifies_once_and_serves_records_from_memory() {
        let dir = temp_store("records");
        let layout = layout();
        build(&dir, &layout);
        std::fs::write(StoreLayout::shard_path(&dir, 1), MAGIC).unwrap();

        let store = ShardStore::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        for index in [0, 2] {
            for (record_index, record) in
                shard_for(&layout, index, index as u64 + 1).records.iter().enumerate()
            {
                assert_eq!(store.record(index, record_index), Ok(record));
            }
        }
        assert!(matches!(store.record(1, 0), Err(StoreError::ChecksumMismatch { .. })));
        assert!(matches!(store.record(3, 0), Err(StoreError::LayoutMismatch { .. })));
        assert!(matches!(store.record(0, 3), Err(StoreError::LayoutMismatch { .. })));
        assert!(
            matches!(store.read_chunk(0), Err(StoreError::Missing { .. })),
            "read_chunk still reads disk"
        );
    }

    #[test]
    fn interrupted_build_without_manifest_does_not_open() {
        let dir = temp_store("nomanifest");
        let layout = layout();
        write_shard(&dir, &shard_for(&layout, 0, 1)).unwrap();
        let error = ShardStore::open(&dir).unwrap_err();
        assert!(matches!(error, StoreError::Missing { .. }), "{error:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finalize_refuses_a_missing_or_off_layout_shard() {
        let dir = temp_store("finalize");
        let layout = layout();
        write_shard(&dir, &shard_for(&layout, 0, 1)).unwrap();
        // Chunk 1 and 2 never written.
        assert!(matches!(finalize_manifest(&dir, &layout).unwrap_err(), StoreError::Missing { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finalize_reverifies_a_shard_changed_after_the_plan() {
        let dir = temp_store("replan");
        let layout = layout();
        build(&dir, &layout);
        let manifest = std::fs::read(Manifest::path(&dir)).unwrap();
        assert_eq!(BuildPlan::assess(&dir, &layout).unwrap().clean, vec![0, 1, 2]);

        let victim = StoreLayout::shard_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let error = finalize_manifest(&dir, &layout).unwrap_err();
        assert_eq!(error, StoreError::ChecksumMismatch { path: victim.display().to_string() });
        assert_eq!(std::fs::read(Manifest::path(&dir)).unwrap(), manifest, "the manifest must not move");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_produces_byte_identical_files() {
        let dir_a = temp_store("bytes-a");
        let dir_b = temp_store("bytes-b");
        let layout = layout();
        build(&dir_a, &layout);
        build(&dir_b, &layout);
        for index in 0..layout.chunks.len() {
            let a = std::fs::read(StoreLayout::shard_path(&dir_a, index)).unwrap();
            let b = std::fs::read(StoreLayout::shard_path(&dir_b, index)).unwrap();
            assert_eq!(a, b, "shard {index} bytes differ between identical builds");
        }
        let a = std::fs::read(Manifest::path(&dir_a)).unwrap();
        let b = std::fs::read(Manifest::path(&dir_b)).unwrap();
        assert_eq!(a, b, "manifest bytes differ between identical builds");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
