//! # press-store
//!
//! The on-disk artifact tier of PRESS: **one** versioned, checksummed,
//! little-endian binary container format shared by every artifact the
//! pipeline produces — road networks, dense SP tables, contraction
//! hierarchies, hub labels, trained HSC models, and block-oriented
//! compressed-trajectory stores.
//!
//! # File layout
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "PRSSTORE" · format version u32 ·     │
//! │                artifact kind u32 · section count u32 ·     │
//! │                CRC32 of the section table u32              │
//! ├────────────────────────────────────────────────────────────┤
//! │ section table: one 40 B entry per section —                │
//! │   name (16 B, NUL-padded UTF-8) · offset u64 · len u64 ·   │
//! │   CRC32 of the payload u32 · reserved u32                  │
//! ├────────────────────────────────────────────────────────────┤
//! │ section payloads, back to back                             │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian; `f64` values are stored as their IEEE
//! bit patterns (`to_bits`), so floating-point round-trips are exact and
//! loaded structures answer **bit-identically** to freshly built ones.
//!
//! # Integrity and versioning
//!
//! Every access is validated: a wrong magic is [`StoreError::BadMagic`],
//! an unknown format version is [`StoreError::UnsupportedVersion`], a
//! short file is [`StoreError::Truncated`], a payload whose CRC32 does
//! not match its table entry is [`StoreError::ChecksumMismatch`] — typed
//! errors in all cases, never a panic. The format version covers the
//! container layout; each artifact additionally carries its own schema
//! inside its sections and validates semantic invariants on load.
//!
//! Versioning policy: readers accept exactly [`FORMAT_VERSION`]. Layout
//! changes bump the version; additive changes (new sections) do not,
//! because unknown sections are simply ignored by older readers.
//!
//! # Access model
//!
//! A [`StoreWriter`] buffers named sections and emits the file in one
//! `write`; [`StoreWriter::section_aligned`] starts a section on an
//! 8-byte boundary (zero gap bytes pad the previous payload — invisible
//! to readers, which address sections only through the table). A
//! [`StoreFile`] opens either **owned** ([`StoreFile::open`], one
//! contiguous read, payload CRC checked on every access) or **mapped**
//! ([`StoreFile::open_mapped`], `mmap`/aligned-arena via [`mapping`],
//! open cost O(header + table), payload CRC checked lazily **once** on
//! a section's first touch and the verdict cached). Either way every
//! access is validated before bytes are handed out, and
//! [`StoreFile::flat_section`] lends fixed-width sections as typed
//! [`FlatSlice`]s — zero-copy borrows of the backing when alignment
//! permits, decoded copies otherwise. [`ByteWriter`]/[`ByteReader`]
//! provide the bounds- and endianness-checked primitive encoding used
//! inside sections.
//!
//! ```
//! use press_store::{kind, ByteWriter, StoreFile, StoreWriter};
//!
//! // Write a two-section artifact ...
//! let mut meta = ByteWriter::new();
//! meta.put_u64(3);
//! meta.put_f64(2.5);
//! let mut w = StoreWriter::new(kind::META);
//! w.section("meta", meta.into_bytes());
//! w.section("payload", vec![1, 2, 3]);
//!
//! // ... and read it back, every access CRC-checked and typed.
//! let f = StoreFile::from_bytes(w.to_bytes()).unwrap();
//! f.expect_kind(kind::META).unwrap();
//! let mut r = f.reader("meta").unwrap();
//! assert_eq!(r.get_u64().unwrap(), 3);
//! assert_eq!(r.get_f64().unwrap(), 2.5);
//! assert_eq!(f.section("payload").unwrap(), &[1, 2, 3]);
//! ```
//!
//! The [`SynopsisIndex`] module layers a packed block-skipping
//! hierarchy on top of this container (the trajectory store's
//! additive `"index"` section); see [`index`] for its format and
//! correctness contract.

use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

mod crc32;
pub mod index;
pub mod io;
pub mod mapping;

pub use crc32::crc32;
pub use index::{IndexEntry, SynopsisIndex, DEFAULT_BRANCHING};
pub use io::{
    atomic_write_file, is_storage_full, real_io, DiskFault, FaultKind, FaultyIo, IoBackend, RealIo,
};
pub use mapping::{map_file, ArenaMapping, Mapping};

/// File magic, first 8 bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"PRSSTORE";

/// Container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry (name 16 + offset 8 + len 8 + crc 4 +
/// reserved 4).
const DIR_ENTRY_BYTES: usize = 40;

/// Header bytes before the section table.
const HEADER_BYTES: usize = 24;

/// Maximum bytes of a section name (NUL-padded in the table).
pub const MAX_SECTION_NAME: usize = 16;

/// Artifact kind ids, stored in the header so a reader can refuse to
/// interpret (say) a trajectory store as a contraction hierarchy.
pub mod kind {
    /// A [`RoadNetwork`](../../press_network/graph/struct.RoadNetwork.html).
    pub const NETWORK: u32 = 1;
    /// The dense all-pair `SpTable`.
    pub const SP_TABLE: u32 = 2;
    // Id 3 is retired and reserved: it tagged a per-source shortest-path
    // tree cache that no longer exists. It is never reused, so an old
    // file of that kind still fails with a typed `WrongKind`.
    /// A built `ContractionHierarchy`.
    pub const CONTRACTION_HIERARCHY: u32 = 4;
    /// A trained HSC model (trie + Huffman + per-node tables).
    pub const HSC_MODEL: u32 = 5;
    /// A block-oriented compressed-trajectory store.
    pub const TRAJECTORY_STORE: u32 = 6;
    /// Free-form store-directory metadata (build timings etc.).
    pub const META: u32 = 7;
    /// A 2-hop hub labeling built from a contraction-hierarchy order.
    pub const HUB_LABELS: u32 = 8;
}

/// Errors raised by the artifact tier. Every corruption mode maps to a
/// typed variant; loading never panics on bad bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error, with the underlying message.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The artifact kind in the header is not the one the caller expects.
    WrongKind {
        /// Kind the caller asked for (see [`kind`]).
        expected: u32,
        /// Kind found in the header.
        found: u32,
    },
    /// The file ends before the declared structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// A section payload does not match its recorded CRC32.
    ChecksumMismatch {
        /// Name of the failing section (or `"section table"`).
        section: String,
    },
    /// A required section is absent.
    MissingSection(String),
    /// The bytes decoded but violate a semantic invariant of the artifact.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::BadMagic => write!(f, "not a PRESS store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store format version {found} (this build reads version {supported})"
            ),
            StoreError::WrongKind { expected, found } => write!(
                f,
                "wrong artifact kind: expected {expected}, file holds {found}"
            ),
            StoreError::Truncated { what } => {
                write!(f, "store file truncated while reading {what}")
            }
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            StoreError::MissingSection(name) => write!(f, "missing section '{name}'"),
            StoreError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Buffers named sections and emits one container file.
#[derive(Debug)]
pub struct StoreWriter {
    kind: u32,
    sections: Vec<(String, Vec<u8>, bool)>,
    // O(1) duplicate detection — a trajectory store writes one section
    // per block, so a linear scan per insert would be quadratic in
    // corpus size.
    names: std::collections::HashSet<String>,
}

impl StoreWriter {
    /// New writer for an artifact of the given [`kind`].
    pub fn new(kind: u32) -> Self {
        StoreWriter {
            kind,
            sections: Vec::new(),
            names: std::collections::HashSet::new(),
        }
    }

    fn push_section(&mut self, name: &str, payload: Vec<u8>, aligned: bool) {
        assert!(
            !name.is_empty() && name.len() <= MAX_SECTION_NAME,
            "section name '{name}' must be 1..={MAX_SECTION_NAME} bytes"
        );
        assert!(
            self.names.insert(name.to_string()),
            "duplicate section name '{name}'"
        );
        self.sections.push((name.to_string(), payload, aligned));
    }

    /// Adds a section. Names are programmer-chosen constants; they must
    /// be unique, non-empty, and at most [`MAX_SECTION_NAME`] bytes.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        self.push_section(name, payload, false);
        self
    }

    /// Adds a section whose payload starts on an 8-byte boundary in the
    /// emitted file, padding the gap before it with zero bytes. The
    /// padding lives *between* payloads and is addressed by no table
    /// entry, so readers — including pre-alignment ones — never see it.
    /// Flat fixed-width sections use this so a mapped open can lend the
    /// payload directly as a typed slice.
    pub fn section_aligned(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        self.push_section(name, payload, true);
        self
    }

    /// Serializes the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_len = self.sections.len() * DIR_ENTRY_BYTES;
        // HEADER_BYTES and DIR_ENTRY_BYTES are both multiples of 8, so
        // the first payload always starts aligned; padding is only ever
        // needed after an unaligned-length payload.
        let mut offset = (HEADER_BYTES + table_len) as u64;
        let mut table = Vec::with_capacity(table_len);
        for (name, payload, aligned) in &self.sections {
            if *aligned {
                offset = offset.next_multiple_of(8);
            }
            let mut name_bytes = [0u8; MAX_SECTION_NAME];
            name_bytes[..name.len()].copy_from_slice(name.as_bytes());
            table.extend_from_slice(&name_bytes);
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&crc32(payload).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
            offset += payload.len() as u64;
        }
        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&table).to_le_bytes());
        out.extend_from_slice(&table);
        for (_, payload, aligned) in &self.sections {
            if *aligned {
                out.resize(out.len().next_multiple_of(8), 0);
            }
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the container to `path` (parent directories must exist)
    /// atomically: staged through a sibling temp file, fsynced, renamed
    /// over the target, parent directory fsynced. A crash or I/O fault
    /// at any step leaves either the old complete file or the new one,
    /// and every failure — including the fsyncs — surfaces as a typed
    /// [`StoreError::Io`].
    pub fn write_to(&self, path: &Path) -> Result<()> {
        self.write_to_with(&RealIo, path)
    }

    /// [`StoreWriter::write_to`] through an explicit [`IoBackend`]
    /// (fault injection in tests, real filesystem in production).
    pub fn write_to_with(&self, io: &dyn IoBackend, path: &Path) -> Result<()> {
        atomic_write_file(io, path, &self.to_bytes())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One parsed section-table entry.
#[derive(Debug, Clone)]
struct SectionEntry {
    name: String,
    offset: usize,
    len: usize,
    crc: u32,
}

/// The byte storage behind a [`StoreFile`]: a heap buffer for owned
/// loads, a [`Mapping`] for zero-copy opens. Behind an `Arc` so typed
/// [`FlatSlice`] views can keep the bytes alive independently of the
/// `StoreFile` handle.
enum Backing {
    Owned(Vec<u8>),
    Mapped(Box<dyn Mapping>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Owned(v) => v,
            Backing::Mapped(m) => m.bytes(),
        }
    }
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Owned(v) => write!(f, "Backing::Owned({} bytes)", v.len()),
            Backing::Mapped(m) => write!(f, "Backing::Mapped({m:?})"),
        }
    }
}

/// Lazy per-section CRC verdicts (mapped opens only): one tri-state per
/// table entry, flipped exactly once on the section's first touch.
const CRC_UNCHECKED: u8 = 0;
const CRC_OK: u8 = 1;
const CRC_BAD: u8 = 2;

/// A loaded container file: owns (or maps) the raw bytes, hands out
/// CRC-checked payload slices.
#[derive(Debug)]
pub struct StoreFile {
    kind: u32,
    data: Arc<Backing>,
    table: Vec<SectionEntry>,
    // name → table position. Section lookups happen per block decode on
    // the query path, so they must not scan a 10^5-entry directory.
    lookup: std::collections::HashMap<String, usize>,
    /// `Some` for mapped opens: payload CRC is validated lazily, once
    /// per section, on first touch (the whole point of a mapped open is
    /// not reading every byte up front). `None` for owned loads, which
    /// keep the historical eager semantics — CRC on **every** access.
    lazy_crc: Option<Vec<AtomicU8>>,
}

impl StoreFile {
    /// Ingests a container from raw bytes, validating magic, version,
    /// the section table's CRC, and every entry's bounds.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self> {
        Self::from_backing(Backing::Owned(data), false)
    }

    /// Opens a container through [`map_file`] — `mmap` where available,
    /// the aligned arena otherwise. The header and section table are
    /// validated eagerly (they are one page); payload CRCs are deferred
    /// to each section's first touch and the verdict cached, so open
    /// cost is O(header + table), not O(file).
    pub fn open_mapped(path: &Path) -> Result<Self> {
        Self::from_backing(Backing::Mapped(map_file(path)?), true)
    }

    fn from_backing(backing: Backing, lazy: bool) -> Result<Self> {
        let data = backing.bytes();
        if data.len() < HEADER_BYTES {
            return Err(StoreError::Truncated {
                what: "header".into(),
            });
        }
        if data[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = u32::from_le_bytes(data[12..16].try_into().unwrap());
        let count = u32::from_le_bytes(data[16..20].try_into().unwrap()) as usize;
        let table_crc = u32::from_le_bytes(data[20..24].try_into().unwrap());
        let table_end = HEADER_BYTES + count.saturating_mul(DIR_ENTRY_BYTES);
        if table_end > data.len() {
            return Err(StoreError::Truncated {
                what: "section table".into(),
            });
        }
        let table_bytes = &data[HEADER_BYTES..table_end];
        if crc32(table_bytes) != table_crc {
            return Err(StoreError::ChecksumMismatch {
                section: "section table".into(),
            });
        }
        let mut table = Vec::with_capacity(count);
        for i in 0..count {
            let e = &table_bytes[i * DIR_ENTRY_BYTES..(i + 1) * DIR_ENTRY_BYTES];
            let name_end = e[..MAX_SECTION_NAME]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(MAX_SECTION_NAME);
            let name = std::str::from_utf8(&e[..name_end])
                .map_err(|_| StoreError::Corrupt("section name is not UTF-8".into()))?
                .to_string();
            let offset = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let len = u64::from_le_bytes(e[24..32].try_into().unwrap());
            let crc = u32::from_le_bytes(e[32..36].try_into().unwrap());
            let end = offset.checked_add(len).ok_or(StoreError::Truncated {
                what: format!("section '{name}'"),
            })?;
            if end > data.len() as u64 {
                return Err(StoreError::Truncated {
                    what: format!("section '{name}'"),
                });
            }
            table.push(SectionEntry {
                name,
                offset: offset as usize,
                len: len as usize,
                crc,
            });
        }
        let mut lookup = std::collections::HashMap::with_capacity(table.len());
        for (i, e) in table.iter().enumerate() {
            // First entry wins on (malformed) duplicate names, matching
            // the previous first-match scan.
            lookup.entry(e.name.clone()).or_insert(i);
        }
        let lazy_crc = lazy.then(|| {
            (0..table.len())
                .map(|_| AtomicU8::new(CRC_UNCHECKED))
                .collect()
        });
        Ok(StoreFile {
            kind,
            data: Arc::new(backing),
            table,
            lookup,
            lazy_crc,
        })
    }

    /// Opens a container file (one contiguous read).
    pub fn open(path: &Path) -> Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// True when this file was opened through [`StoreFile::open_mapped`]
    /// (lazy per-section CRC semantics).
    pub fn is_mapped(&self) -> bool {
        self.lazy_crc.is_some()
    }

    /// Artifact kind from the header (see [`kind`]).
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Errors unless the artifact kind matches.
    pub fn expect_kind(&self, expected: u32) -> Result<()> {
        if self.kind != expected {
            return Err(StoreError::WrongKind {
                expected,
                found: self.kind,
            });
        }
        Ok(())
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.table.iter().map(|e| e.name.as_str())
    }

    /// True when a section exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.lookup.contains_key(name)
    }

    /// CRC-checked payload of a section. Owned loads check the CRC on
    /// every access; mapped opens check it once, on the section's first
    /// touch, and cache the verdict (a cached failure keeps failing).
    pub fn section(&self, name: &str) -> Result<&[u8]> {
        let idx = *self
            .lookup
            .get(name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))?;
        let entry = &self.table[idx];
        let payload = &self.data.bytes()[entry.offset..entry.offset + entry.len];
        let ok = match &self.lazy_crc {
            None => crc32(payload) == entry.crc,
            Some(states) => match states[idx].load(Ordering::Acquire) {
                CRC_OK => true,
                CRC_BAD => false,
                _ => {
                    // Concurrent first touches both compute the same
                    // verdict over the same immutable bytes; the double
                    // store is benign.
                    let ok = crc32(payload) == entry.crc;
                    states[idx].store(if ok { CRC_OK } else { CRC_BAD }, Ordering::Release);
                    ok
                }
            },
        };
        if !ok {
            return Err(StoreError::ChecksumMismatch {
                section: name.to_string(),
            });
        }
        Ok(payload)
    }

    /// Byte length of a section, if present (no CRC touch).
    pub fn section_len(&self, name: &str) -> Option<usize> {
        self.lookup.get(name).map(|&i| self.table[i].len)
    }

    /// A [`ByteReader`] over a CRC-checked section.
    pub fn reader(&self, name: &str) -> Result<ByteReader<'_>> {
        Ok(ByteReader::new(self.section(name)?))
    }

    /// Lends a fixed-width section as a typed [`FlatSlice`]: a zero-copy
    /// borrow of this file's backing when the payload is aligned for `T`
    /// (mapped flat sections are written 8-byte aligned, so this is the
    /// common case), a decoded copy otherwise — answers are identical
    /// either way. The section is CRC-validated first under this file's
    /// access mode (eager or first-touch), and a length that is not a
    /// whole number of elements is typed [`StoreError::Corrupt`].
    pub fn flat_section<T: FlatPod>(&self, name: &str) -> Result<FlatSlice<T>> {
        let bytes = self.section(name)?;
        let width = std::mem::size_of::<T>();
        if bytes.len() % width != 0 {
            return Err(StoreError::Corrupt(format!(
                "section '{name}' length {} is not a multiple of element width {width}",
                bytes.len()
            )));
        }
        let n = bytes.len() / width;
        #[cfg(target_endian = "little")]
        if (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
            // SAFETY: `T: FlatPod` guarantees no padding and no invalid
            // bit patterns; alignment was just checked; the bytes are
            // immutable and outlive the slice because the returned view
            // clones the `Arc` on the backing. The 'static lifetime is a
            // private fiction: `FlatSlice` never lends the slice beyond
            // its own lifetime.
            let slice = unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, n) };
            let slice: &'static [T] = unsafe { std::mem::transmute::<&[T], &'static [T]>(slice) };
            return Ok(FlatSlice {
                _backing: Some(self.data.clone()),
                data: Cow::Borrowed(slice),
            });
        }
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(width) {
            out.push(T::from_le_chunk(chunk));
        }
        Ok(FlatSlice {
            _backing: None,
            data: Cow::Owned(out),
        })
    }
}

// ---------------------------------------------------------------------
// Typed flat-section views
// ---------------------------------------------------------------------

/// Element types that may be viewed directly over little-endian flat
/// section bytes.
///
/// # Safety
///
/// Implementors must be plain fixed-width data: `Copy`, no padding
/// bytes, no invalid bit patterns, and an in-memory representation that
/// on little-endian hosts equals the on-disk little-endian encoding
/// produced by [`FlatPod::from_le_chunk`]'s inverse. Primitive numeric
/// types qualify; structs only with `#[repr(C)]` and exclusively
/// `FlatPod` fields.
pub unsafe trait FlatPod: Copy + Send + Sync + 'static {
    /// Decodes one element from exactly `size_of::<Self>()` little-endian
    /// bytes (the portable fallback when zero-copy borrowing is not
    /// possible — misaligned payload or big-endian host).
    fn from_le_chunk(chunk: &[u8]) -> Self;
}

unsafe impl FlatPod for u32 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        u32::from_le_bytes(chunk.try_into().unwrap())
    }
}

unsafe impl FlatPod for u64 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        u64::from_le_bytes(chunk.try_into().unwrap())
    }
}

unsafe impl FlatPod for f64 {
    fn from_le_chunk(chunk: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(chunk.try_into().unwrap()))
    }
}

/// A borrowed-or-owned typed array over a flat section: `Cow::Borrowed`
/// straight into the file's mapped (or owned) backing when alignment
/// permits — the zero-copy serving tier — and `Cow::Owned` otherwise
/// (including every slice built in memory). Dereferences to `[T]`, so
/// call sites index it exactly like the `Vec` it replaces.
pub struct FlatSlice<T: FlatPod> {
    /// Keeps the backing bytes alive for the borrowed case (`None` for
    /// owned data); `data`'s 'static borrow is only valid while this
    /// handle holds the `Arc`.
    _backing: Option<Arc<Backing>>,
    data: Cow<'static, [T]>,
}

impl<T: FlatPod> FlatSlice<T> {
    /// An owned slice (the build path and the portable fallback).
    pub fn from_vec(v: Vec<T>) -> Self {
        FlatSlice {
            _backing: None,
            data: Cow::Owned(v),
        }
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// True when this view borrows the file backing (zero-copy engaged).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.data, Cow::Borrowed(_))
    }
}

impl<T: FlatPod> From<Vec<T>> for FlatSlice<T> {
    fn from(v: Vec<T>) -> Self {
        FlatSlice::from_vec(v)
    }
}

impl<T: FlatPod> Default for FlatSlice<T> {
    fn default() -> Self {
        FlatSlice::from_vec(Vec::new())
    }
}

impl<T: FlatPod> std::ops::Deref for FlatSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: FlatPod> Clone for FlatSlice<T> {
    fn clone(&self) -> Self {
        FlatSlice {
            _backing: self._backing.clone(),
            data: match &self.data {
                Cow::Borrowed(s) => Cow::Borrowed(s),
                Cow::Owned(v) => Cow::Owned(v.clone()),
            },
        }
    }
}

impl<T: FlatPod + PartialEq> PartialEq for FlatSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: FlatPod + fmt::Debug> fmt::Debug for FlatSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlatSlice({}, {} elems)",
            if self.is_borrowed() {
                "borrowed"
            } else {
                "owned"
            },
            self.len()
        )
    }
}

// ---------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------

/// Little-endian primitive encoder for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalizes into the payload vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian decoder over a section payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Truncated { what: what.into() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, erroring on overflow
    /// (32-bit hosts) or on values beyond `limit` — a cheap way to reject
    /// absurd corrupted counts before allocating.
    pub fn get_len(&mut self, limit: usize, what: &str) -> Result<usize> {
        let v = self.get_u64()?;
        let v = usize::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{what} count {v} overflows usize")))?;
        if v > limit {
            return Err(StoreError::Corrupt(format!(
                "{what} count {v} exceeds plausible limit {limit}"
            )));
        }
        Ok(v)
    }

    /// Reads an `f64` from its IEEE bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the payload was consumed exactly.
    pub fn expect_end(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreWriter {
        let mut w = StoreWriter::new(kind::META);
        let mut a = ByteWriter::new();
        a.put_u32(7);
        a.put_f64(1.5);
        w.section("meta", a.into_bytes());
        w.section("payload", vec![1, 2, 3, 4, 5]);
        w
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes();
        let f = StoreFile::from_bytes(bytes).unwrap();
        assert_eq!(f.kind(), kind::META);
        f.expect_kind(kind::META).unwrap();
        assert_eq!(
            f.expect_kind(kind::NETWORK),
            Err(StoreError::WrongKind {
                expected: kind::NETWORK,
                found: kind::META
            })
        );
        assert_eq!(f.section_names().collect::<Vec<_>>(), ["meta", "payload"]);
        assert!(f.has_section("meta") && !f.has_section("nope"));
        let mut r = f.reader("meta").unwrap();
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        r.expect_end("meta").unwrap();
        assert_eq!(f.section("payload").unwrap(), &[1, 2, 3, 4, 5]);
        assert!(matches!(
            f.section("nope"),
            Err(StoreError::MissingSection(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("press-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.press");
        sample().write_to(&path).unwrap();
        let f = StoreFile::open(&path).unwrap();
        assert_eq!(f.section("payload").unwrap(), &[1, 2, 3, 4, 5]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            StoreFile::from_bytes(bytes).unwrap_err(),
            StoreError::BadMagic
        );
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version lives at offset 8
        assert_eq!(
            StoreFile::from_bytes(bytes).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let bytes = sample().to_bytes();
        // Every possible truncation point yields a typed error or — when
        // the cut only removes payload bytes — a checksum/bounds error at
        // section access time. Never a panic.
        for cut in 0..bytes.len() {
            match StoreFile::from_bytes(bytes[..cut].to_vec()) {
                Ok(f) => {
                    for name in ["meta", "payload"] {
                        match f.section(name) {
                            Ok(_) | Err(StoreError::ChecksumMismatch { .. }) => {}
                            Err(e) => panic!("unexpected error at cut {cut}: {e}"),
                        }
                    }
                }
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::BadMagic
                    | StoreError::UnsupportedVersion { .. },
                ) => {}
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn payload_bitflip_fails_checksum() {
        let bytes = sample().to_bytes();
        let full = StoreFile::from_bytes(bytes.clone()).unwrap();
        let payload_start = bytes.len() - 5; // "payload" section is last
        for i in payload_start..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            let f = StoreFile::from_bytes(corrupted).unwrap();
            assert_eq!(
                f.section("payload").unwrap_err(),
                StoreError::ChecksumMismatch {
                    section: "payload".into()
                }
            );
            // The untouched section still reads fine.
            assert_eq!(f.section("meta").unwrap(), full.section("meta").unwrap());
        }
    }

    #[test]
    fn table_bitflip_fails_table_checksum() {
        let mut bytes = sample().to_bytes();
        bytes[HEADER_BYTES + 3] ^= 0x01; // inside the first table entry
        assert_eq!(
            StoreFile::from_bytes(bytes).unwrap_err(),
            StoreError::ChecksumMismatch {
                section: "section table".into()
            }
        );
    }

    #[test]
    fn empty_container_is_valid() {
        let w = StoreWriter::new(kind::META);
        let f = StoreFile::from_bytes(w.to_bytes()).unwrap();
        assert_eq!(f.section_names().count(), 0);
    }

    #[test]
    fn byte_reader_bounds_and_limits() {
        let mut w = ByteWriter::with_capacity(16);
        w.put_u8(1);
        w.put_u16(2);
        w.put_u64(1 << 40);
        assert_eq!(w.len(), 11);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert!(matches!(
            r.clone().get_len(1000, "trees"),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(r.get_len(1 << 41, "trees").unwrap(), 1 << 40);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u32(), Err(StoreError::Truncated { .. })));
        assert!(matches!(
            ByteReader::new(&bytes[..3]).get_f64(),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("press-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn aligned_sections_start_on_8_byte_boundaries() {
        let mut w = StoreWriter::new(kind::META);
        w.section("odd", vec![9; 5]); // 5 bytes: next offset would be misaligned
        w.section_aligned("flat", (0u32..7).flat_map(|v| v.to_le_bytes()).collect());
        w.section("tail", vec![1, 2, 3]);
        let bytes = w.to_bytes();
        let f = StoreFile::from_bytes(bytes).unwrap();
        assert_eq!(f.section("odd").unwrap(), &[9; 5]);
        assert_eq!(f.section("tail").unwrap(), &[1, 2, 3]);
        let flat = f.section("flat").unwrap();
        assert_eq!(flat.len(), 28);
        // The aligned payload's *file offset* is a multiple of 8; the
        // gap bytes before it are invisible to section reads.
        let base = f.section("odd").unwrap().as_ptr() as usize - f.data.bytes().as_ptr() as usize;
        let flat_off = flat.as_ptr() as usize - f.data.bytes().as_ptr() as usize;
        assert_eq!(flat_off % 8, 0);
        assert!(flat_off > base);
    }

    #[test]
    fn mapped_open_checks_crc_lazily_and_caches_the_verdict() {
        let path = temp_path("lazy-crc.press");
        sample().write_to(&path).unwrap();
        // Flip one payload byte of the trailing "payload" section on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let f = StoreFile::open_mapped(&path).unwrap(); // open itself succeeds
        assert!(f.is_mapped());
        // First touch surfaces the typed error; so does every retry
        // (the verdict is cached, not forgotten).
        for _ in 0..2 {
            assert_eq!(
                f.section("payload").unwrap_err(),
                StoreError::ChecksumMismatch {
                    section: "payload".into()
                }
            );
        }
        // The untouched section reads fine, and repeats served from the
        // cached OK verdict stay fine.
        let meta = f.section("meta").unwrap().to_vec();
        assert_eq!(f.section("meta").unwrap(), &meta[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_open_reads_identically_to_owned() {
        let path = temp_path("mapped-eq.press");
        let mut w = StoreWriter::new(kind::META);
        w.section("a", vec![1, 2, 3]);
        w.section_aligned("b", (0u64..9).flat_map(|v| v.to_le_bytes()).collect());
        w.write_to(&path).unwrap();
        let owned = StoreFile::open(&path).unwrap();
        let mapped = StoreFile::open_mapped(&path).unwrap();
        assert!(!owned.is_mapped());
        for name in ["a", "b"] {
            assert_eq!(owned.section(name).unwrap(), mapped.section(name).unwrap());
            assert_eq!(owned.section_len(name), mapped.section_len(name));
        }
        assert_eq!(owned.section_len("nope"), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flat_sections_borrow_when_aligned_and_copy_otherwise() {
        let path = temp_path("flat.press");
        let vals: Vec<u32> = (0..100u32)
            .map(|i| i.wrapping_mul(2654435761) % 7919)
            .collect();
        let dists: Vec<f64> = (0..50).map(|i| i as f64 * 1.5 - 3.0).collect();
        let mut w = StoreWriter::new(kind::META);
        w.section("skew", vec![0xAB; 3]); // forces a gap before each aligned section
        w.section_aligned("ids", vals.iter().flat_map(|v| v.to_le_bytes()).collect());
        w.section_aligned(
            "dists",
            dists
                .iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect(),
        );
        w.section("ids_u", vals.iter().flat_map(|v| v.to_le_bytes()).collect());
        w.write_to(&path).unwrap();
        let mapped = StoreFile::open_mapped(&path).unwrap();
        let ids: FlatSlice<u32> = mapped.flat_section("ids").unwrap();
        let ds: FlatSlice<f64> = mapped.flat_section("dists").unwrap();
        assert_eq!(ids.as_slice(), &vals[..]);
        assert_eq!(ds.as_slice(), &dists[..]);
        assert!(ids.is_borrowed() && ds.is_borrowed());
        // The unaligned twin decodes to identical values via the copy
        // fallback ("ids_u" starts right after "dists" — offset % 4 may
        // happen to align, so only assert value equality there).
        let ids_u: FlatSlice<u32> = mapped.flat_section("ids_u").unwrap();
        assert_eq!(ids_u.as_slice(), ids.as_slice());
        // A length that is not a whole number of elements is typed.
        assert!(matches!(
            mapped.flat_section::<u64>("skew"),
            Err(StoreError::Corrupt(_))
        ));
        // Owned construction and equality plumbing.
        let built = FlatSlice::from_vec(vals.clone());
        assert!(!built.is_borrowed());
        assert_eq!(built, ids);
        assert_eq!(built.clone(), ids.clone());
        assert_eq!(&built[..5], &vals[..5]);
        assert!(format!("{built:?}").contains("owned"));
        // The borrowed view outlives the StoreFile handle (keepalive Arc).
        drop(mapped);
        assert_eq!(ids.as_slice(), &vals[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = StoreError::ChecksumMismatch {
            section: "arcs".into(),
        };
        assert!(e.to_string().contains("arcs"));
        assert!(StoreError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(StoreError::from(std::io::Error::other("x"))
            .to_string()
            .contains("I/O"));
    }
}
