//! The checkpoint manifest: the single atomic commit point for the
//! whole shard set — one corpus file and one journal per ingest shard.
//!
//! A checkpoint replaces **2·N** artifacts — per shard, a published
//! corpus file and a rewritten journal — and no sequence of per-file
//! renames can swap them all at once. Publishing them independently
//! opens a crash window where a recovered engine sees some shards'
//! *new* corpus next to other shards' *old* journals and replays (and
//! re-compresses) trajectories the corpus already contains.
//!
//! Instead, every checkpoint writes its artifacts under a fresh
//! **generation** number — `corpus.<gen>.s<k>.press` and
//! `ingest.<gen>.s<k>.wal` for shard `k` — and then commits the whole
//! set with one atomic rename of a tiny `MANIFEST` file naming that
//! generation and the shard count. Recovery reads the manifest and
//! loads exactly the committed set; artifacts from any other
//! generation are uncommitted leftovers (a checkpoint that crashed
//! before its rename, or a superseded generation whose cleanup was
//! interrupted) and are garbage-collected. A crash at **any** byte of
//! a checkpoint therefore lands on a complete, consistent generation:
//! the old one if the rename did not happen, the new one if it did.
//! Incremental checkpoints exploit the same protocol: a clean shard's
//! corpus file is **hard-linked** from the previous generation's name
//! to the next one's, so the link is just another uncommitted artifact
//! until the rename — and GC by generation number still works, because
//! removing a superseded name only drops one reference to the shared
//! inode.
//!
//! After the rename (and after creating a journal) the parent directory
//! is fsynced so the commit survives power loss, not just process
//! death.
//!
//! # Manifest format
//!
//! Version 2, 28 bytes, written via temp file + rename so it is always
//! complete:
//!
//! ```text
//! [8B magic "PRESSMFT"][u32 version=2][u64 generation][u32 shards][u32 crc32 of the first 24 bytes]
//! ```
//!
//! Version 2 is the only version read. A version-1 manifest (the
//! pre-sharding layout: 24 bytes, no shard count, un-suffixed artifact
//! names) is refused with an error that names it; one checkpoint by a
//! build that still reads version 1 upgrades such a directory in place.

use press_store::crc32;
use press_store::io::{self as store_io, IoBackend};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest file name inside the ingest directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Manifest magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PRESSMFT";
/// Manifest format version this build writes.
pub const MANIFEST_VERSION: u32 = 2;
/// Encoded length of a manifest in bytes.
pub const MANIFEST_LEN: usize = 28;

/// The committed state a manifest names: a generation and how many
/// ingest shards its artifact set has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// The committed generation number.
    pub generation: u64,
    /// Number of ingest shards (at least 1).
    pub shards: u32,
}

/// Corpus artifact name for shard `shard` of `gen`.
pub fn corpus_shard_file_name(gen: u64, shard: u32) -> String {
    format!("corpus.{gen}.s{shard}.press")
}

/// Journal artifact name for shard `shard` of `gen`.
pub fn wal_shard_file_name(gen: u64, shard: u32) -> String {
    format!("ingest.{gen}.s{shard}.wal")
}

/// The generation of a generation-stamped artifact name: the sharded
/// `corpus.<gen>.s<k>.press` / `ingest.<gen>.s<k>.wal`, and also the
/// pre-sharding `corpus.<gen>.press` / `ingest.<gen>.wal`, which no
/// build writes any more but which [`has_artifacts`] must still see
/// and [`gc`] must still collect.
pub fn artifact_generation(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("corpus.")
        .and_then(|rest| rest.strip_suffix(".press"))
        .or_else(|| {
            name.strip_prefix("ingest.")
                .and_then(|rest| rest.strip_suffix(".wal"))
        })?;
    match rest.split_once(".s") {
        Some((gen, shard)) => {
            shard.parse::<u32>().ok()?;
            gen.parse().ok()
        }
        None => rest.parse().ok(),
    }
}

/// Fsyncs a directory so renames/creations inside it are durable.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Reads the committed manifest, `None` for a directory with no
/// manifest. A present-but-damaged manifest is `InvalidData`, never a
/// silent fresh start; so is a version-1 manifest, with a message that
/// names it.
pub fn read(dir: &Path) -> io::Result<Option<Manifest>> {
    let bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if bytes.starts_with(&MANIFEST_MAGIC) && bytes.get(8..12) == Some(&1u32.to_le_bytes()[..]) {
        return Err(invalid(
            "manifest version 1 (the pre-sharding layout) is no longer read; \
             one checkpoint by a build that still reads version 1 upgrades the \
             directory to version 2"
                .into(),
        ));
    }
    if bytes.len() != MANIFEST_LEN {
        return Err(invalid(format!(
            "manifest is {} bytes, expected {MANIFEST_LEN}",
            bytes.len()
        )));
    }
    if bytes[..8] != MANIFEST_MAGIC {
        return Err(invalid("manifest has bad magic".into()));
    }
    let stored_crc = u32::from_le_bytes(bytes[24..].try_into().expect("4 bytes"));
    if crc32(&bytes[..24]) != stored_crc {
        return Err(invalid("manifest checksum mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != MANIFEST_VERSION {
        return Err(invalid(format!(
            "unsupported manifest version {version} (this build reads v{MANIFEST_VERSION})"
        )));
    }
    let generation = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let shards = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if shards == 0 {
        return Err(invalid("manifest names zero shards".into()));
    }
    Ok(Some(Manifest { generation, shards }))
}

/// Atomically commits `gen` with `shards` ingest shards as the live
/// generation: temp file + sync + rename + directory fsync. After this
/// returns, recovery will load `corpus.<gen>.s<k>.press` /
/// `ingest.<gen>.s<k>.wal` for every shard `k` and GC everything else.
/// Every step — including both fsyncs — surfaces its error; a failure
/// anywhere leaves the previous manifest in force.
pub fn commit(dir: &Path, gen: u64, shards: u32) -> io::Result<()> {
    commit_with(&store_io::RealIo, dir, gen, shards)
}

/// [`commit`] through an explicit [`IoBackend`] (fault injection in
/// tests, real filesystem in production).
pub fn commit_with(io: &dyn IoBackend, dir: &Path, gen: u64, shards: u32) -> io::Result<()> {
    assert!(shards > 0, "a manifest must name at least one shard");
    let mut buf = Vec::with_capacity(MANIFEST_LEN);
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&gen.to_le_bytes());
    buf.extend_from_slice(&shards.to_le_bytes());
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    store_io::atomic_write_file(io, &dir.join(MANIFEST_FILE), &buf)
}

/// True when the directory holds any generation-stamped artifact.
pub fn has_artifacts(dir: &Path) -> io::Result<bool> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if name
            .to_str()
            .is_some_and(|n| artifact_generation(n).is_some())
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Removes every artifact not belonging to `keep` (uncommitted
/// leftovers of a crashed checkpoint, superseded generations whose
/// cleanup was interrupted) plus any stranded `*.tmp` staging file
/// (atomic writes stage through sibling temp files; one survives only
/// if the writer crashed or faulted mid-stage, and it is inert).
/// Hard-linked incremental-checkpoint corpora are safe under this
/// rule: removing a superseded generation's name only drops one link
/// to the inode the kept generation still names.
pub fn gc(dir: &Path, keep: u64) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match artifact_generation(name) {
            Some(gen) => gen != keep,
            None => name.ends_with(".tmp"),
        };
        if stale {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// The committed journal path of shard `shard` — where a simulated
/// kill must tear. A directory with no manifest resolves to generation
/// 0 (a fresh engine commits generation 0 on first open).
pub fn live_shard_wal_path(dir: &Path, shard: u32) -> io::Result<PathBuf> {
    let gen = read(dir)?.map(|m| m.generation).unwrap_or(0);
    Ok(dir.join(wal_shard_file_name(gen, shard)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("press-mft-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn commit_read_roundtrip_and_gc() {
        let dir = tmp_dir("roundtrip");
        assert_eq!(read(&dir).expect("read"), None);
        commit(&dir, 0, 1).expect("commit 0");
        assert_eq!(
            read(&dir).expect("read"),
            Some(Manifest {
                generation: 0,
                shards: 1
            })
        );
        commit(&dir, 7, 3).expect("commit 7");
        assert_eq!(
            read(&dir).expect("read"),
            Some(Manifest {
                generation: 7,
                shards: 3
            })
        );
        // GC keeps only the committed generation's artifacts, and also
        // collects pre-sharding names.
        for name in [
            "corpus.6.press".to_string(),
            "ingest.6.wal".to_string(),
            corpus_shard_file_name(6, 1),
            wal_shard_file_name(6, 2),
            corpus_shard_file_name(7, 0),
            wal_shard_file_name(7, 0),
            wal_shard_file_name(7, 2),
            "MANIFEST.tmp".to_string(),
            "unrelated.txt".to_string(),
        ] {
            std::fs::write(dir.join(&name), b"x").expect("write");
        }
        gc(&dir, 7).expect("gc");
        assert!(!dir.join("corpus.6.press").exists());
        assert!(!dir.join("ingest.6.wal").exists());
        assert!(!dir.join(corpus_shard_file_name(6, 1)).exists());
        assert!(!dir.join(wal_shard_file_name(6, 2)).exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(dir.join(corpus_shard_file_name(7, 0)).exists());
        assert!(dir.join(wal_shard_file_name(7, 0)).exists());
        assert!(dir.join(wal_shard_file_name(7, 2)).exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(
            live_shard_wal_path(&dir, 0).expect("live"),
            dir.join(wal_shard_file_name(7, 0))
        );
        assert_eq!(
            live_shard_wal_path(&dir, 2).expect("live"),
            dir.join(wal_shard_file_name(7, 2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifest_is_refused_with_a_named_error() {
        let dir = tmp_dir("legacy");
        // A hand-written v1 manifest: 24 bytes, version 1, gen 5.
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&MANIFEST_MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&crc32(&buf).to_le_bytes());
        std::fs::write(dir.join(MANIFEST_FILE), &buf).expect("write");
        let err = read(&dir).expect_err("v1 is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(live_shard_wal_path(&dir, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_manifest_is_invalid_data_not_a_fresh_start() {
        let dir = tmp_dir("damage");
        commit(&dir, 3, 2).expect("commit");
        let good = std::fs::read(dir.join(MANIFEST_FILE)).expect("read");
        // Flipped generation byte: checksum catches it.
        let mut bad = good.clone();
        bad[12] ^= 0x01;
        std::fs::write(dir.join(MANIFEST_FILE), &bad).expect("write");
        assert!(read(&dir).is_err());
        // Truncated manifest.
        std::fs::write(dir.join(MANIFEST_FILE), &good[..10]).expect("write");
        assert!(read(&dir).is_err());
        // A v2-length manifest claiming version 1 is refused, not
        // misparsed.
        let mut bad = good.clone();
        bad[8] = 1;
        let crc = crc32(&bad[..24]).to_le_bytes();
        bad[24..28].copy_from_slice(&crc);
        std::fs::write(dir.join(MANIFEST_FILE), &bad).expect("write");
        assert!(read(&dir).is_err());
        // Zero shards.
        let mut bad = good.clone();
        bad[20..24].copy_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&bad[..24]).to_le_bytes();
        bad[24..28].copy_from_slice(&crc);
        std::fs::write(dir.join(MANIFEST_FILE), &bad).expect("write");
        assert!(read(&dir).is_err());
        // Bad magic.
        let mut bad = good;
        bad[0] = b'X';
        std::fs::write(dir.join(MANIFEST_FILE), &bad).expect("write");
        assert!(read(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_names_parse_and_reject() {
        assert_eq!(artifact_generation("corpus.0.press"), Some(0));
        assert_eq!(artifact_generation("ingest.42.wal"), Some(42));
        assert_eq!(artifact_generation("corpus.7.s2.press"), Some(7));
        assert_eq!(artifact_generation("ingest.0.s11.wal"), Some(0));
        assert_eq!(artifact_generation("corpus.press"), None);
        assert_eq!(artifact_generation("ingest.x.wal"), None);
        assert_eq!(artifact_generation("ingest.1.sx.wal"), None);
        assert_eq!(artifact_generation("MANIFEST"), None);
        assert_eq!(artifact_generation("corpus.1.press.tmp"), None);
        assert_eq!(artifact_generation("corpus.1.s0.press.tmp"), None);
    }
}
