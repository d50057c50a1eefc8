//! Flat section codecs shared by the contraction-hierarchy and
//! hub-label artifacts.
//!
//! Both artifacts store every array as a fixed-width little-endian
//! section, 8-byte aligned, so a mapped open borrows it in place as a
//! [`press_store::FlatSlice`] with zero decoding. Flat sections carry no
//! redundancy beyond their CRC, so the checks here (extents, CSR shape,
//! the network pairing) are what keeps a load panic-free: a violation
//! is a typed [`press_store::StoreError::Corrupt`].

use crate::graph::RoadNetwork;
use press_store::{Result, StoreError, StoreFile};

/// Error text for an artifact written before the flat encoding became
/// the only one: its flat sections (or the `meta` fingerprint) are
/// missing, and no reader accepts it any more.
pub(crate) const PRE_FLAT_HINT: &str =
    "artifact predates the flat encoding; rebuild it and save it again";

/// CRC32 fingerprint of a network's full edge set (from, to, weight bit
/// pattern per edge), recorded in each artifact's `meta` at save time.
/// Checking it at open, before any payload is touched, rejects pairing
/// an artifact with a network whose weights differ — a hierarchy
/// contracted under other weights would be structurally coherent but
/// silently wrong.
pub(crate) fn edge_fingerprint(net: &RoadNetwork) -> u32 {
    let mut buf = Vec::with_capacity(net.num_edges() * 16);
    for e in net.edge_ids() {
        let edge = net.edge(e);
        buf.extend_from_slice(&edge.from.0.to_le_bytes());
        buf.extend_from_slice(&edge.to.0.to_le_bytes());
        buf.extend_from_slice(&edge.weight.to_bits().to_le_bytes());
    }
    press_store::crc32(&buf)
}

/// Compares a stored fingerprint with `net`'s; `what` names the artifact
/// ("hierarchy", "labeling") in the error.
pub(crate) fn check_edge_fingerprint(net: &RoadNetwork, stored: u32, what: &str) -> Result<()> {
    if stored != edge_fingerprint(net) {
        return Err(StoreError::Corrupt(format!(
            "{what} was built over a network with a different edge set \
             (weight fingerprint mismatch)"
        )));
    }
    Ok(())
}

/// Length-only presence check of a flat section (no payload touch, no
/// CRC): the section must exist and span exactly `want` bytes, or — for
/// data-dependent extents (`None`) — a whole number of `u32` ids.
pub(crate) fn check_flat_extent(file: &StoreFile, name: &str, want: Option<usize>) -> Result<()> {
    let Some(len) = file.section_len(name) else {
        return Err(StoreError::Corrupt(format!("{name}: {PRE_FLAT_HINT}")));
    };
    match want {
        Some(want) if len != want => Err(StoreError::Corrupt(format!(
            "{name}: {len} B does not match the declared extent ({want} B)"
        ))),
        None if len % 4 != 0 => Err(StoreError::Corrupt(format!(
            "{name}: {len} B is not a whole number of u32 ids"
        ))),
        _ => Ok(()),
    }
}

/// Encodes a `u32` array as raw fixed-width little-endian values. Written through
/// [`press_store::StoreWriter::section_aligned`] so a mapped open can
/// borrow the section in place as a `FlatSlice<u32>` with zero decoding.
pub(crate) fn encode_u32s_flat(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an `f64` array as raw little-endian IEEE-754 bit patterns
/// (see [`encode_u32s_flat`]).
pub(crate) fn encode_f64s_flat(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Validates the shape of a flat CSR index: exactly `len` entries,
/// starting at 0, monotone non-decreasing, ending at `total` (the length
/// of the array it points into).
pub(crate) fn check_flat_index(index: &[u32], len: usize, total: u64, what: &str) -> Result<()> {
    if index.len() != len {
        return Err(StoreError::Corrupt(format!(
            "{what}: {} entries instead of the declared {len}",
            index.len()
        )));
    }
    if index[0] != 0 {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index does not start at 0"
        )));
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index is not monotone"
        )));
    }
    if index[len - 1] as u64 != total {
        return Err(StoreError::Corrupt(format!(
            "{what}: CSR index covers {} entries but the payload has {total}",
            index[len - 1]
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_encodings_are_fixed_width_le() {
        assert_eq!(
            encode_u32s_flat(&[1, 0x01020304]),
            [1, 0, 0, 0, 0x04, 0x03, 0x02, 0x01]
        );
        assert_eq!(encode_f64s_flat(&[1.0]), 1.0f64.to_bits().to_le_bytes());
    }

    #[test]
    fn flat_index_shape_checks() {
        assert!(check_flat_index(&[0, 2, 2, 5], 4, 5, "t").is_ok());
        // Wrong length, nonzero start, non-monotone, wrong total: all typed.
        assert!(check_flat_index(&[0, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[1, 2, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[0, 3, 2, 5], 4, 5, "t").is_err());
        assert!(check_flat_index(&[0, 2, 2, 4], 4, 5, "t").is_err());
    }
}
