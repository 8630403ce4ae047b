//! Header type definitions and bit-level field extraction.
//!
//! A switch program declares the packet formats it understands as
//! [`HeaderDef`]s: named sequences of fixed-width fields, where a field may
//! be a scalar or an **array** of `count` equal-width elements. Array fields
//! are the §3.2 hook: a packet that carries eight keys declares
//! `keys: 8 × 32b` and the ADCP target matches all eight against one table.
//!
//! Fields are packed big-endian, most-significant bit first, in declaration
//! order — the classic network wire format.

use serde::Serialize;
use std::fmt;

/// Identifies a declared header type within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct HeaderId(pub u16);

/// Identifies a field within a header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FieldId(pub u16);

/// A fully qualified field reference: header + field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FieldRef {
    /// The header the field belongs to.
    pub header: HeaderId,
    /// The field within that header.
    pub field: FieldId,
}

impl FieldRef {
    /// Shorthand constructor.
    pub fn new(header: HeaderId, field: FieldId) -> Self {
        FieldRef { header, field }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}.f{}", self.header.0, self.field.0)
    }
}

/// One field in a header: `count` elements of `bits` each.
///
/// `count == 1` is a scalar; `count > 1` is an array field (§3.2).
#[derive(Debug, Clone, Serialize)]
pub struct FieldDef {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Width of one element, in bits (1..=64).
    pub bits: u8,
    /// Number of elements.
    pub count: u16,
}

impl FieldDef {
    /// A scalar field.
    pub fn scalar(name: impl Into<String>, bits: u8) -> Self {
        FieldDef {
            name: name.into(),
            bits,
            count: 1,
        }
    }

    /// An array field of `count` elements.
    pub fn array(name: impl Into<String>, bits: u8, count: u16) -> Self {
        FieldDef {
            name: name.into(),
            bits,
            count,
        }
    }

    /// Total width of the field (all elements), in bits.
    pub fn total_bits(&self) -> u32 {
        self.bits as u32 * self.count as u32
    }

    /// Is this an array field?
    pub fn is_array(&self) -> bool {
        self.count > 1
    }
}

/// A header type: an ordered list of fields.
#[derive(Debug, Clone, Serialize)]
pub struct HeaderDef {
    /// Human-readable name.
    pub name: String,
    /// Fields in wire order.
    pub fields: Vec<FieldDef>,
}

impl HeaderDef {
    /// New header with the given fields.
    pub fn new(name: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        let h = HeaderDef {
            name: name.into(),
            fields,
        };
        for f in &h.fields {
            assert!(
                (1..=64).contains(&f.bits),
                "field {} width {} out of range",
                f.name,
                f.bits
            );
            assert!(f.count >= 1, "field {} has zero count", f.name);
        }
        h
    }

    /// Total header width in bits.
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(|f| f.total_bits()).sum()
    }

    /// Total header width in whole bytes (headers must be byte-aligned to be
    /// parsed; enforce at program validation).
    pub fn total_bytes(&self) -> u32 {
        self.total_bits().div_ceil(8)
    }

    /// Bit offset of element `elem` of field `fid` from the header start.
    pub fn bit_offset(&self, fid: FieldId, elem: u16) -> u32 {
        let mut off = 0u32;
        for (i, f) in self.fields.iter().enumerate() {
            if i == fid.0 as usize {
                assert!(elem < f.count, "element {} out of range", elem);
                return off + f.bits as u32 * elem as u32;
            }
            off += f.total_bits();
        }
        panic!("field {:?} not in header {}", fid, self.name);
    }

    /// The field definition for `fid`.
    pub fn field(&self, fid: FieldId) -> &FieldDef {
        &self.fields[fid.0 as usize]
    }
}

/// The bytes a span of `bits` bits at `bit_off` touches, as (first byte,
/// byte count, bits between the span's end and the last byte's end). A
/// span of at most 64 bits touches at most 9 bytes, whatever its offset.
fn window(bit_off: u32, bits: u8) -> (usize, usize, u32) {
    let lead = bit_off % 8;
    let len = (lead + bits as u32).div_ceil(8);
    (
        (bit_off / 8) as usize,
        len as usize,
        len * 8 - lead - bits as u32,
    )
}

/// Extract `bits` bits starting at `bit_off` from `data`, big-endian: one
/// word read of the (at most 9-byte) window the span covers, then a shift
/// and a mask. A span wider than 64 bits yields its last 64.
///
/// Returns `None` if the span runs past the end of `data`.
pub fn extract_bits(data: &[u8], bit_off: u32, bits: u8) -> Option<u64> {
    if bit_off as u64 + bits as u64 > data.len() as u64 * 8 {
        return None;
    }
    let (first, len, tail) = window(bit_off, bits);
    let word = data[first..first + len]
        .iter()
        .fold(0u128, |w, &b| (w << 8) | b as u128);
    Some((word >> tail) as u64 & mask(bits))
}

/// Write `bits` bits of `value` at `bit_off` into `data`, big-endian: the
/// window the span covers is read as one word, the field's bits replaced
/// under a mask, and the word written back. `bits` is a field element's
/// width, at most 64.
///
/// Returns `false` (and leaves `data` untouched) if the span does not fit.
pub fn deposit_bits(data: &mut [u8], bit_off: u32, bits: u8, value: u64) -> bool {
    assert!(bits <= 64, "deposit of {bits} bits: wider than any field");
    if bit_off as u64 + bits as u64 > data.len() as u64 * 8 {
        return false;
    }
    let (first, len, tail) = window(bit_off, bits);
    let bytes = &mut data[first..first + len];
    let old = bytes.iter().fold(0u128, |w, &b| (w << 8) | b as u128);
    let m = (mask(bits) as u128) << tail;
    let new = (old & !m) | (((value as u128) << tail) & m);
    for (i, b) in bytes.iter_mut().rev().enumerate() {
        *b = (new >> (8 * i)) as u8;
    }
    true
}

/// The low `bits` bits set (all of them from 64 up).
pub(crate) fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv_header() -> HeaderDef {
        HeaderDef::new(
            "kv",
            vec![
                FieldDef::scalar("op", 8),
                FieldDef::scalar("seq", 32),
                FieldDef::array("keys", 32, 4),
                FieldDef::array("vals", 32, 4),
            ],
        )
    }

    #[test]
    fn header_sizes() {
        let h = kv_header();
        assert_eq!(h.total_bits(), 8 + 32 + 128 + 128);
        assert_eq!(h.total_bytes(), 37);
        assert!(h.field(FieldId(2)).is_array());
        assert!(!h.field(FieldId(0)).is_array());
    }

    #[test]
    fn bit_offsets() {
        let h = kv_header();
        assert_eq!(h.bit_offset(FieldId(0), 0), 0);
        assert_eq!(h.bit_offset(FieldId(1), 0), 8);
        assert_eq!(h.bit_offset(FieldId(2), 0), 40);
        assert_eq!(h.bit_offset(FieldId(2), 3), 40 + 96);
        assert_eq!(h.bit_offset(FieldId(3), 0), 168);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_offset_bad_element_panics() {
        kv_header().bit_offset(FieldId(2), 4);
    }

    #[test]
    fn extract_byte_aligned() {
        let data = [0xDE, 0xAD, 0xBE, 0xEF];
        assert_eq!(extract_bits(&data, 0, 8), Some(0xDE));
        assert_eq!(extract_bits(&data, 8, 16), Some(0xADBE));
        assert_eq!(extract_bits(&data, 0, 32), Some(0xDEADBEEF));
    }

    #[test]
    fn extract_unaligned() {
        // 0b1101_1110 1010_1101: bits 4..12 = 0b1110_1010 = 0xEA
        let data = [0xDE, 0xAD];
        assert_eq!(extract_bits(&data, 4, 8), Some(0xEA));
        assert_eq!(extract_bits(&data, 1, 3), Some(0b101));
    }

    #[test]
    fn wide_extract_keeps_last_64_bits() {
        let data: Vec<u8> = (1..=12).collect();
        assert_eq!(extract_bits(&data, 3, 72), extract_bits(&data, 11, 64));
        assert_eq!(extract_bits(&data, 0, 96), Some(0x0506_0708_090A_0B0C));
    }

    #[test]
    fn extract_past_end_is_none() {
        let data = [0xFF];
        assert_eq!(extract_bits(&data, 0, 9), None);
        assert_eq!(extract_bits(&data, 8, 1), None);
        assert_eq!(extract_bits(&data, 0, 8), Some(0xFF));
    }

    #[test]
    fn deposit_then_extract_roundtrip() {
        let mut data = [0u8; 8];
        assert!(deposit_bits(&mut data, 5, 13, 0x1ABC & 0x1FFF));
        assert_eq!(extract_bits(&data, 5, 13), Some(0x1ABC & 0x1FFF));
        // Surrounding bits untouched.
        assert_eq!(extract_bits(&data, 0, 5), Some(0));
        assert!(deposit_bits(&mut data, 0, 5, 0b10101));
        assert_eq!(extract_bits(&data, 0, 5), Some(0b10101));
        assert_eq!(extract_bits(&data, 5, 13), Some(0x1ABC & 0x1FFF));
    }

    #[test]
    fn deposit_past_end_fails_cleanly() {
        let mut data = [0u8; 2];
        assert!(!deposit_bits(&mut data, 10, 8, 0xFF));
        assert_eq!(data, [0, 0]);
    }
}
