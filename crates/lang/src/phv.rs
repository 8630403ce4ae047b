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
//! a [`Phv`] is the per-packet instance. The layout gives every declared
//! field a *slot*, numbered header by header in declaration order, so a
//! [`FieldRef`] resolves to its slot by two array reads (the header's first
//! slot plus the field index, bounds-checked against the header's field
//! count) — no hashing anywhere on the packet path. A slot is also one
//! entry of its header's **extraction plan**: where the field sits in the
//! header, its width and element count, and where its values live in the
//! PHV's one flat value vector. The parser and the writeback walk those
//! plans ([`crate::parser`], [`crate::codec`]). The layout also knows its
//! total bit width, which the compiler checks against the target's PHV
//! budget.

use crate::header::{mask, FieldRef, HeaderDef, HeaderId};
use adcp_sim::packet::{EgressSpec, PortId};
use std::ops::Range;

/// One slot: a declared field, and one step of its header's extraction
/// plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldPlan {
    /// Bit offset of element 0 from the header start.
    pub(crate) off: u32,
    /// Width of one element.
    pub(crate) bits: u8,
    /// Element count (1 for a scalar).
    pub(crate) count: u16,
    /// Index of element 0 in the PHV's value vector.
    pub(crate) at: u32,
}

impl FieldPlan {
    /// Where the field's elements live in the PHV's value vector.
    fn values(&self) -> Range<usize> {
        self.at as usize..self.at as usize + self.count as usize
    }
}

/// One header's share of the layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeaderPlan {
    /// Slot of the header's first field; its fields are the next `fields`.
    pub(crate) base: u32,
    /// Number of fields.
    pub(crate) fields: u16,
    /// Wire size in whole bytes.
    pub(crate) bytes: u32,
}

impl HeaderPlan {
    /// The header's slots.
    pub(crate) fn slots(&self) -> Range<usize> {
        self.base as usize..self.base as usize + self.fields as usize
    }
}

/// Static layout: every declared field's slot, and each header's
/// extraction plan.
#[derive(Debug, Clone)]
pub struct PhvLayout {
    headers: Vec<HeaderPlan>,
    /// Every field, header-major: slot `i` is `slots[i]`.
    slots: Vec<FieldPlan>,
    /// Length of a PHV's value vector (the sum of element counts).
    values: usize,
    total_bits: u32,
}

impl PhvLayout {
    /// Build a layout covering all fields of the given headers
    /// (indexed by their position = `HeaderId`).
    pub fn build(headers: &[HeaderDef]) -> Self {
        let mut plans = Vec::with_capacity(headers.len());
        let mut slots = Vec::new();
        let mut values = 0u32;
        let mut total_bits = 0u32;
        for h in headers {
            plans.push(HeaderPlan {
                base: slots.len() as u32,
                fields: h.fields.len() as u16,
                bytes: h.total_bytes(),
            });
            let mut off = 0u32;
            for f in &h.fields {
                slots.push(FieldPlan {
                    off,
                    bits: f.bits,
                    count: f.count,
                    at: values,
                });
                off += f.total_bits();
                values += f.count as u32;
            }
            total_bits += off;
        }
        PhvLayout {
            headers: plans,
            slots,
            values: values as usize,
            total_bits,
        }
    }

    /// Total bits of all fields — compared against the target's PHV budget.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// The slot of `f`, or `None` if its header is not in the layout or its
    /// field index runs past that header's fields.
    fn slot(&self, f: FieldRef) -> Option<usize> {
        let h = self.headers.get(f.header.0 as usize)?;
        (f.field.0 < h.fields).then_some(h.base as usize + f.field.0 as usize)
    }

    /// The plan entry of `f`; panics on a field the layout does not hold
    /// (a program that failed validation).
    fn plan_of(&self, f: FieldRef) -> (usize, &FieldPlan) {
        let i = self
            .slot(f)
            .unwrap_or_else(|| panic!("field {f} is not in this PHV layout"));
        (i, &self.slots[i])
    }

    /// Element width and count of the array slot holding `f`, if it is one.
    pub fn array_dims_of(&self, f: FieldRef) -> Option<(u8, u16)> {
        let s = &self.slots[self.slot(f)?];
        (s.count > 1).then_some((s.bits, s.count))
    }

    /// True if `f` names an array field.
    pub fn is_array(&self, f: FieldRef) -> bool {
        self.array_dims_of(f).is_some()
    }

    /// Header `h`'s share of the layout; panics on an unknown header.
    pub(crate) fn header(&self, h: HeaderId) -> &HeaderPlan {
        &self.headers[h.0 as usize]
    }

    /// The extraction plan of a header: its slots' entries, in wire order.
    pub(crate) fn plan(&self, h: &HeaderPlan) -> &[FieldPlan] {
        &self.slots[h.slots()]
    }

    /// Create an empty PHV instance for this layout.
    pub fn instantiate(&self) -> Phv {
        let mut phv = Phv::empty();
        self.reinstantiate(&mut phv);
        phv
    }

    /// Reshape a recycled [`Phv`] to this layout in place — the zero-state
    /// of [`PhvLayout::instantiate`] without reallocating. Hot parse paths
    /// cycle one scratch PHV per pipeline this way.
    pub fn reinstantiate(&self, phv: &mut Phv) {
        phv.values.clear();
        phv.values.resize(self.values, 0);
        phv.valid.clear();
        phv.valid.resize(self.headers.len(), false);
        phv.dirty.clear();
        phv.dirty.resize(self.slots.len().div_ceil(64), 0);
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
    /// Every field's elements, slot after slot (see [`FieldPlan::at`]).
    values: Vec<u64>,
    valid: Vec<bool>,
    /// Slots written since the parse, one bit each (a whole array slot is
    /// one bit): what the deparser has to put back on the wire.
    /// Bookkeeping, not part of the PHV's value.
    dirty: Vec<u64>,
    /// Intrinsic metadata.
    pub intr: Intrinsics,
}

/// Two PHVs are equal when they hold the same values, whichever writes got
/// them there.
impl PartialEq for Phv {
    fn eq(&self, o: &Phv) -> bool {
        (&self.values, &self.valid, &self.intr) == (&o.values, &o.valid, &o.intr)
    }
}

impl Phv {
    /// An empty shell with no field storage; shape it with
    /// [`PhvLayout::reinstantiate`] before use. Exists so recycling pools
    /// have a cheap starting value.
    pub fn empty() -> Phv {
        Phv {
            values: Vec::new(),
            valid: Vec::new(),
            dirty: Vec::new(),
            intr: Intrinsics::default(),
        }
    }

    /// Read a scalar field (element 0 of arrays).
    pub fn get(&self, layout: &PhvLayout, f: FieldRef) -> u64 {
        self.get_elem(layout, f, 0)
    }

    /// Read one element of a field (scalar fields only have element 0).
    pub fn get_elem(&self, layout: &PhvLayout, f: FieldRef, elem: usize) -> u64 {
        self.values[layout.plan_of(f).1.values()][elem]
    }

    /// Read a whole array field (one-element slice view for scalars).
    pub fn get_array<'a>(&'a self, layout: &PhvLayout, f: FieldRef) -> &'a [u64] {
        &self.values[layout.plan_of(f).1.values()]
    }

    /// Write a scalar field (element 0 of arrays), masking to the field
    /// width.
    pub fn set(&mut self, layout: &PhvLayout, f: FieldRef, v: u64) {
        self.set_elem(layout, f, 0, v);
    }

    /// Write one element of a field, masking to the field width, and mark
    /// the field's slot dirty.
    pub fn set_elem(&mut self, layout: &PhvLayout, f: FieldRef, elem: usize, v: u64) {
        let (slot, s) = layout.plan_of(f);
        self.values[s.values()][elem] = v & mask(s.bits);
        self.dirty[slot / 64] |= 1 << (slot % 64);
    }

    /// The value vector, for the parser to extract into.
    pub(crate) fn values_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }

    /// The elements of slot `s` if it was written since the parse.
    pub(crate) fn written_slot(&self, slot: usize, s: &FieldPlan) -> Option<&[u64]> {
        let dirty = (self.dirty[slot / 64] >> (slot % 64)) & 1 == 1;
        dirty.then(|| &self.values[s.values()])
    }

    /// Mark every slot in `slots` written.
    pub(crate) fn mark_dirty(&mut self, slots: Range<usize>) {
        for slot in slots {
            self.dirty[slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Forget every write so far.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// The elements of `f` if it was written since the parse (`None` for an
    /// untouched field) — what the deparser patches into the frame.
    pub fn written<'a>(&'a self, layout: &PhvLayout, f: FieldRef) -> Option<&'a [u64]> {
        let (slot, s) = layout.plan_of(f);
        self.written_slot(slot, s)
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
        assert_eq!(l.total_bits(), 48 + 16 + 8 + 256);
        assert!(l.is_array(fr(1, 1)));
        assert!(!l.is_array(fr(0, 0)));
        assert_eq!(l.array_dims_of(fr(1, 1)), Some((32, 8)));
        assert_eq!(l.array_dims_of(fr(0, 0)), None);
    }

    #[test]
    fn plan_holds_offsets_widths_and_value_slots() {
        let (_, l) = layout();
        let plan = |h| {
            let hp = l.header(HeaderId(h));
            let steps = l.plan(hp).iter().map(|s| (s.off, s.bits, s.count, s.at));
            (hp.bytes, steps.collect::<Vec<_>>())
        };
        // (bit offset in header, bits, count, first value): values are laid
        // out slot after slot — dst, type, op, keys[0..8].
        assert_eq!(plan(0), (8, vec![(0, 48, 1, 0), (48, 16, 1, 1)]));
        assert_eq!(plan(1), (33, vec![(0, 8, 1, 2), (8, 32, 8, 3)]));
        assert_eq!(l.instantiate().values.len(), 11);
    }

    /// A field index one past its header's fields would land on the next
    /// header's first slot in a flat table: it must not resolve at all.
    #[test]
    fn out_of_range_fields_do_not_alias() {
        let (headers, l) = layout();
        let past = fr(0, headers[0].fields.len() as u16);
        let unknown = fr(headers.len() as u16, 0);
        for f in [past, unknown] {
            assert!(!l.is_array(f), "{f}");
            assert_eq!(l.array_dims_of(f), None, "{f}");
            let phv = l.instantiate();
            let get = std::panic::catch_unwind(|| phv.get(&l, f));
            assert!(get.is_err(), "get({f}) must panic");
            let set = std::panic::catch_unwind(|| {
                let mut phv = l.instantiate();
                phv.set(&l, f, 1);
            });
            assert!(set.is_err(), "set({f}) must panic");
        }
        // The field `past` would alias is an ordinary scalar.
        assert_eq!(l.slot(past), None);
        assert_eq!(l.slot(fr(1, 0)), Some(2));
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
