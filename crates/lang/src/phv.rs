//! Packet header vectors.
//!
//! The PHV is the register file that travels between pipeline stages (the
//! paper's Figure 1 insert; it notes "the PHV naming is misleading; its
//! elements are scalars extracted from the packets"). Our PHV generalizes
//! exactly where the ADCP does: in addition to scalar slots it can carry
//! **array slots**, so a stage's interconnected MAUs can see a whole array
//! of keys at once (§3.2).
//!
//! A [`PhvLayout`] is computed once per program from its header definitions;
//! a [`Phv`] is the per-packet instance. The layout also knows its total bit
//! width, which the compiler checks against the target's PHV budget.

use crate::header::{FieldRef, HeaderDef, HeaderId};
use adcp_sim::packet::{EgressSpec, PortId};
use std::collections::HashMap;

/// Where a field lives inside a [`Phv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Index into the scalar bank.
    Scalar(usize),
    /// Index into the array bank.
    Array(usize),
}

/// Static layout: maps every declared field to a PHV slot.
#[derive(Debug, Clone)]
pub struct PhvLayout {
    slots: HashMap<FieldRef, Slot>,
    scalar_widths: Vec<u8>,
    array_dims: Vec<(u8, u16)>, // (element bits, count)
    headers: usize,
    total_bits: u32,
}

impl PhvLayout {
    /// Build a layout covering all fields of the given headers
    /// (indexed by their position = `HeaderId`).
    pub fn build(headers: &[HeaderDef]) -> Self {
        let mut slots = HashMap::new();
        let mut scalar_widths = Vec::new();
        let mut array_dims = Vec::new();
        let mut total_bits = 0u32;
        for (hi, h) in headers.iter().enumerate() {
            for (fi, f) in h.fields.iter().enumerate() {
                let fr = FieldRef::new(HeaderId(hi as u16), crate::header::FieldId(fi as u16));
                total_bits += f.total_bits();
                if f.is_array() {
                    slots.insert(fr, Slot::Array(array_dims.len()));
                    array_dims.push((f.bits, f.count));
                } else {
                    slots.insert(fr, Slot::Scalar(scalar_widths.len()));
                    scalar_widths.push(f.bits);
                }
            }
        }
        PhvLayout {
            slots,
            scalar_widths,
            array_dims,
            headers: headers.len(),
            total_bits,
        }
    }

    /// Total bits of all fields — compared against the target's PHV budget.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Number of scalar slots.
    pub fn num_scalars(&self) -> usize {
        self.scalar_widths.len()
    }

    /// Number of array slots.
    pub fn num_arrays(&self) -> usize {
        self.array_dims.len()
    }

    /// Element width and count of the array slot holding `f`, if it is one.
    pub fn array_dims_of(&self, f: FieldRef) -> Option<(u8, u16)> {
        match self.slots.get(&f)? {
            Slot::Array(i) => Some(self.array_dims[*i]),
            Slot::Scalar(_) => None,
        }
    }

    /// True if `f` names an array field.
    pub fn is_array(&self, f: FieldRef) -> bool {
        matches!(self.slots.get(&f), Some(Slot::Array(_)))
    }

    /// Create an empty PHV instance for this layout.
    pub fn instantiate(&self) -> Phv {
        Phv {
            scalars: vec![0; self.scalar_widths.len()],
            arrays: self
                .array_dims
                .iter()
                .map(|&(_, c)| vec![0u64; c as usize])
                .collect(),
            valid: vec![false; self.headers],
            dirty: vec![0; self.dirty_words()],
            intr: Intrinsics::default(),
        }
    }

    /// Words of a dirty set: one bit per slot, scalars first.
    fn dirty_words(&self) -> usize {
        (self.scalar_widths.len() + self.array_dims.len()).div_ceil(64)
    }

    /// Reshape a recycled [`Phv`] to this layout in place — the zero-state
    /// of [`PhvLayout::instantiate`] without its per-field allocations.
    /// Hot parse paths cycle one scratch PHV per pipeline this way.
    pub fn reinstantiate(&self, phv: &mut Phv) {
        phv.scalars.clear();
        phv.scalars.resize(self.scalar_widths.len(), 0);
        phv.arrays.truncate(self.array_dims.len());
        for (i, &(_, c)) in self.array_dims.iter().enumerate() {
            if i < phv.arrays.len() {
                phv.arrays[i].clear();
                phv.arrays[i].resize(c as usize, 0);
            } else {
                phv.arrays.push(vec![0u64; c as usize]);
            }
        }
        phv.valid.clear();
        phv.valid.resize(self.headers, false);
        phv.dirty.clear();
        phv.dirty.resize(self.dirty_words(), 0);
        phv.intr = Intrinsics::default();
    }
}

/// Intrinsic (target-independent) per-packet metadata computed by the
/// program: forwarding decisions and TM directives.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Intrinsics {
    /// RX port the packet arrived on.
    pub ingress_port: Option<PortId>,
    /// Forwarding decision (set by `SetEgress`/`Multicast`/`Drop` actions).
    pub egress: EgressSpec,
    /// Which central pipeline the first TM should send this packet to
    /// (ADCP §3.1 — typically computed by a `Hash` action).
    pub central_pipe: Option<u32>,
    /// Sort key for the first TM's order-preserving merge (§3.1).
    pub sort_key: Option<u64>,
    /// Request another ingress pass (RMT recirculation).
    pub recirculate: bool,
    /// Application data elements this packet carried (keys/weights/rows);
    /// feeds the keys-per-second meters of §3.2.
    pub elements: u32,
}

/// A per-packet header vector instance.
#[derive(Debug, Clone)]
pub struct Phv {
    scalars: Vec<u64>,
    arrays: Vec<Vec<u64>>,
    valid: Vec<bool>,
    /// Slots written since the parse, one bit each (scalars first; a whole
    /// array slot is one bit): what the deparser has to put back on the
    /// wire. Bookkeeping, not part of the PHV's value.
    dirty: Vec<u64>,
    /// Intrinsic metadata.
    pub intr: Intrinsics,
}

/// Two PHVs are equal when they hold the same values, whichever writes got
/// them there.
impl PartialEq for Phv {
    fn eq(&self, o: &Phv) -> bool {
        (&self.scalars, &self.arrays, &self.valid, &self.intr)
            == (&o.scalars, &o.arrays, &o.valid, &o.intr)
    }
}

impl Phv {
    /// An empty shell with no field storage; shape it with
    /// [`PhvLayout::reinstantiate`] before use. Exists so recycling pools
    /// have a cheap starting value.
    pub fn empty() -> Phv {
        Phv {
            scalars: Vec::new(),
            arrays: Vec::new(),
            valid: Vec::new(),
            dirty: Vec::new(),
            intr: Intrinsics::default(),
        }
    }

    /// Read a scalar field (element 0 of arrays).
    pub fn get(&self, layout: &PhvLayout, f: FieldRef) -> u64 {
        match layout.slots[&f] {
            Slot::Scalar(i) => self.scalars[i],
            Slot::Array(i) => self.arrays[i][0],
        }
    }

    /// Read one element of a field (scalar fields only have element 0).
    pub fn get_elem(&self, layout: &PhvLayout, f: FieldRef, elem: usize) -> u64 {
        match layout.slots[&f] {
            Slot::Scalar(i) => {
                debug_assert_eq!(elem, 0, "scalar field indexed at {elem}");
                self.scalars[i]
            }
            Slot::Array(i) => self.arrays[i][elem],
        }
    }

    /// Read a whole array field (one-element slice view for scalars).
    pub fn get_array<'a>(&'a self, layout: &PhvLayout, f: FieldRef) -> &'a [u64] {
        match layout.slots[&f] {
            Slot::Scalar(i) => std::slice::from_ref(&self.scalars[i]),
            Slot::Array(i) => &self.arrays[i],
        }
    }

    /// Write a scalar field (element 0 of arrays), masking to the field
    /// width.
    pub fn set(&mut self, layout: &PhvLayout, f: FieldRef, v: u64) {
        self.set_elem(layout, f, 0, v);
    }

    /// Write one element of a field, masking to the field width, and mark
    /// the field's slot dirty.
    pub fn set_elem(&mut self, layout: &PhvLayout, f: FieldRef, elem: usize, v: u64) {
        let (cell, w, bit) = match layout.slots[&f] {
            Slot::Scalar(i) => {
                debug_assert_eq!(elem, 0);
                (&mut self.scalars[i], layout.scalar_widths[i], i)
            }
            Slot::Array(i) => {
                let bit = self.scalars.len() + i;
                (&mut self.arrays[i][elem], layout.array_dims[i].0, bit)
            }
        };
        *cell = mask_to(v, w);
        self.dirty[bit / 64] |= 1 << (bit % 64);
    }

    /// Forget every write so far: the parser hands a PHV out this way,
    /// because extraction puts nothing in it that the frame does not hold.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// The elements of `f` if it was written since the parse (`None` for an
    /// untouched field) — what the deparser patches into the frame.
    pub fn written<'a>(&'a self, layout: &PhvLayout, f: FieldRef) -> Option<&'a [u64]> {
        let (bit, vals) = match layout.slots[&f] {
            Slot::Scalar(i) => (i, std::slice::from_ref(&self.scalars[i])),
            Slot::Array(i) => (self.scalars.len() + i, &self.arrays[i][..]),
        };
        ((self.dirty[bit / 64] >> (bit % 64)) & 1 == 1).then_some(vals)
    }

    /// True if nothing was written since the parse.
    pub fn is_clean(&self) -> bool {
        self.dirty.iter().all(|&w| w == 0)
    }

    /// Mark a header as present in this packet.
    pub fn set_valid(&mut self, h: HeaderId) {
        self.valid[h.0 as usize] = true;
    }

    /// Is a header present?
    pub fn is_valid(&self, h: HeaderId) -> bool {
        self.valid.get(h.0 as usize).copied().unwrap_or(false)
    }
}

fn mask_to(v: u64, bits: u8) -> u64 {
    if bits >= 64 {
        v
    } else {
        v & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldDef, FieldId};

    fn layout() -> (Vec<HeaderDef>, PhvLayout) {
        let headers = vec![
            HeaderDef::new(
                "eth",
                vec![FieldDef::scalar("dst", 48), FieldDef::scalar("type", 16)],
            ),
            HeaderDef::new(
                "kv",
                vec![FieldDef::scalar("op", 8), FieldDef::array("keys", 32, 8)],
            ),
        ];
        let l = PhvLayout::build(&headers);
        (headers, l)
    }

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(HeaderId(h), FieldId(f))
    }

    #[test]
    fn layout_counts_and_bits() {
        let (_, l) = layout();
        assert_eq!(l.num_scalars(), 3);
        assert_eq!(l.num_arrays(), 1);
        assert_eq!(l.total_bits(), 48 + 16 + 8 + 256);
        assert!(l.is_array(fr(1, 1)));
        assert!(!l.is_array(fr(0, 0)));
        assert_eq!(l.array_dims_of(fr(1, 1)), Some((32, 8)));
        assert_eq!(l.array_dims_of(fr(0, 0)), None);
    }

    #[test]
    fn scalar_read_write_masks_width() {
        let (_, l) = layout();
        let mut phv = l.instantiate();
        phv.set(&l, fr(0, 1), 0x1_FFFF); // 16-bit field
        assert_eq!(phv.get(&l, fr(0, 1)), 0xFFFF);
        phv.set(&l, fr(1, 0), 0xABC); // 8-bit field
        assert_eq!(phv.get(&l, fr(1, 0)), 0xBC);
    }

    #[test]
    fn array_elements_are_independent() {
        let (_, l) = layout();
        let mut phv = l.instantiate();
        for i in 0..8 {
            phv.set_elem(&l, fr(1, 1), i, (i as u64 + 1) * 10);
        }
        assert_eq!(
            phv.get_array(&l, fr(1, 1)),
            &[10, 20, 30, 40, 50, 60, 70, 80]
        );
        assert_eq!(phv.get_elem(&l, fr(1, 1), 3), 40);
        // Element 0 doubles as the scalar view.
        assert_eq!(phv.get(&l, fr(1, 1)), 10);
    }

    #[test]
    fn header_validity_tracking() {
        let (_, l) = layout();
        let mut phv = l.instantiate();
        assert!(!phv.is_valid(HeaderId(0)));
        phv.set_valid(HeaderId(0));
        assert!(phv.is_valid(HeaderId(0)));
        assert!(!phv.is_valid(HeaderId(1)));
        assert!(!phv.is_valid(HeaderId(9)), "unknown header is not valid");
    }

    #[test]
    fn dirty_set_tracks_slots_not_values() {
        let (_, l) = layout();
        let all = [fr(0, 0), fr(0, 1), fr(1, 0), fr(1, 1)];
        let mut phv = l.instantiate();
        assert!(phv.is_clean());
        // Lane 7 of the array marks the array's slot and no other.
        phv.set_elem(&l, fr(1, 1), 7, 5);
        assert!(!phv.is_clean());
        assert_eq!(
            phv.written(&l, fr(1, 1)),
            Some(&[0, 0, 0, 0, 0, 0, 0, 5][..])
        );
        for f in &all[..3] {
            assert_eq!(phv.written(&l, *f), None, "{f}");
        }
        // A scalar write marks its own slot; the value handed back is masked.
        phv.set(&l, fr(0, 1), 0x1_FFFF);
        assert_eq!(phv.written(&l, fr(0, 1)), Some(&[0xFFFF][..]));
        assert_eq!(phv.written(&l, fr(0, 0)), None);
        // Dirty bits are not part of the value: same values, different routes.
        let mut other = l.instantiate();
        other.set_elem(&l, fr(1, 1), 7, 5);
        other.set(&l, fr(0, 1), 0xFFFF);
        other.clear_dirty();
        assert!(other.is_clean());
        assert_eq!(phv, other);
        other.set(&l, fr(0, 0), 1);
        assert_ne!(phv, other);
        // Recycling hands back an empty set, whatever the PHV held.
        l.reinstantiate(&mut phv);
        assert!(phv.is_clean());
        assert!(all.iter().all(|f| phv.written(&l, *f).is_none()));
        assert_eq!(phv, l.instantiate());
    }

    #[test]
    fn intrinsics_default_clean() {
        let (_, l) = layout();
        let phv = l.instantiate();
        assert_eq!(phv.intr.egress, EgressSpec::Unset);
        assert!(phv.intr.central_pipe.is_none());
        assert!(!phv.intr.recirculate);
        assert_eq!(phv.intr.elements, 0);
    }
}
