//! Parse and writeback: the two ends of every pipeline traversal, shared by
//! both switch models.
//!
//! Everything in `adcp_sim::datapath` moves a packet without reading it;
//! this is the part that reads it. A [`PacketCodec`] owns the program, its
//! PHV layout and the traversal's PHV, fills that PHV from frame bytes at a
//! pipeline's head ([`PacketCodec::parse`]), lends it to the region run as
//! a field ([`PacketCodec::phv`]), and writes its modifications back into
//! frame bytes and metadata at the tail ([`PacketCodec::writeback`]); the
//! PHV never leaves the codec. No action adds or removes a header, so a
//! frame keeps its length and layout through a pipeline and the tail only
//! has to patch the fields the pipeline wrote, where they already sit: the
//! writeback walks the same per-header extraction plan the parser ran
//! ([`PhvLayout`]) and tests each slot's dirty bit by index. The full
//! rebuild, [`crate::parser::deparse`], places fields by its own offset
//! arithmetic instead of the plan and is the reference this is checked
//! against — on every traversal of a debug build.

use crate::header::{deposit_bits, HeaderId};
use crate::parser::ParseError;
use crate::phv::{Phv, PhvLayout};
use crate::program::Program;
use adcp_sim::packet::Packet;
use std::sync::Arc;

/// A switch's program plus the parse/deparse state around it.
pub struct PacketCodec {
    /// Shared, immutable after build: pipelines borrow it per event instead
    /// of cloning.
    pub program: Arc<Program>,
    /// The program's PHV layout.
    pub layout: PhvLayout,
    /// The current traversal's PHV: filled by [`PacketCodec::parse`], run
    /// on by the pipeline's region (borrowed beside `program` and `layout`
    /// as disjoint fields), read by the writeback. Parse to writeback is
    /// straight-line within one handler, so one PHV suffices.
    pub phv: Phv,
    /// Headers the current traversal extracted, in wire order.
    extracted: Vec<HeaderId>,
}

impl PacketCodec {
    /// Codec for `program`.
    pub fn new(program: Program) -> Self {
        PacketCodec {
            layout: program.layout(),
            program: Arc::new(program),
            phv: Phv::empty(),
            extracted: Vec::new(),
        }
    }

    /// Global index of the table named `table`; panics on an unknown name
    /// (a control-plane bug, not a runtime condition).
    pub fn table_index(&self, table: &str) -> usize {
        let tables = &self.program.tables;
        tables
            .iter()
            .position(|t| t.name == table)
            .unwrap_or_else(|| panic!("no table named {table}"))
    }

    /// Parse `pkt` into the codec's PHV, with the ingress-port intrinsic
    /// set; returns the parse depth (states visited).
    #[inline]
    pub fn parse(&mut self, pkt: &Packet) -> Result<u32, ParseError> {
        let program = &self.program;
        let (_, depth) = program.parser.parse_into(
            &program.headers,
            &self.layout,
            &pkt.data,
            &mut self.phv,
            &mut self.extracted,
        )?;
        self.phv.intr.ingress_port = pkt.meta.ingress_port;
        Ok(depth)
    }

    /// Deparse: the pipeline's modifications become the packet. Each field
    /// written since the parse is deposited at its wire offset in the
    /// packet's own buffer; a pass that wrote nothing touches no byte, and
    /// a shared (multicast) frame is copied once, at its first such field.
    #[inline]
    pub fn deparse(&self, pkt: &mut Packet) {
        let (layout, phv) = (&self.layout, &self.phv);
        #[cfg(debug_assertions)]
        let rebuilt = {
            let consumed: u32 = (self.extracted.iter())
                .map(|h| layout.header(*h).bytes)
                .sum();
            let payload = &pkt.data[consumed as usize..];
            let headers = &self.program.headers;
            crate::parser::deparse(headers, layout, phv, &self.extracted, payload)
        };
        if !phv.is_clean() {
            let mut base = 0u32;
            for h in &self.extracted {
                let hdr = layout.header(*h);
                for (slot, f) in hdr.slots().zip(layout.plan(hdr)) {
                    if let Some(vals) = phv.written_slot(slot, f) {
                        let frame = pkt.data.make_mut();
                        for (e, &v) in vals.iter().enumerate() {
                            let at = base + f.off + e as u32 * f.bits as u32;
                            let ok = deposit_bits(frame, at, f.bits, v);
                            debug_assert!(ok, "the parser read this field from this frame");
                        }
                    }
                }
                base += hdr.bytes * 8;
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(&pkt.data[..], &rebuilt[..], "patch != rebuild");
        pkt.meta.elements = pkt.meta.elements.max(phv.intr.elements);
    }

    /// [`PacketCodec::deparse`], then move the forwarding decision and
    /// sort key from the PHV's intrinsics into the metadata. Returns the
    /// program's `(central_pipe, recirculate)` choices, which the two
    /// targets fold into the metadata differently.
    #[inline]
    pub fn writeback(&mut self, pkt: &mut Packet) -> (Option<u32>, bool) {
        self.deparse(pkt);
        let intr = &mut self.phv.intr;
        pkt.meta.egress = std::mem::take(&mut intr.egress);
        if let Some(k) = intr.sort_key {
            pkt.meta.sort_key = Some(k);
        }
        (intr.central_pipe, intr.recirculate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldDef, FieldId, FieldRef, HeaderDef};
    use crate::parser::{deparse, ParserSpec, ParserState, StateId, Transition};
    use crate::program::ProgramBuilder;
    use adcp_sim::packet::FlowId;

    /// `states` extractions of one `tag:8, val:16` header, then accept.
    fn codec(states: u16) -> PacketCodec {
        let mut b = ProgramBuilder::new("t");
        let fields = vec![FieldDef::scalar("tag", 8), FieldDef::scalar("val", 16)];
        let h = b.header(HeaderDef::new("h", fields));
        let state = |i| ParserState {
            extracts: h,
            transition: if i + 1 == states {
                Transition::Accept
            } else {
                Transition::Goto(StateId(i + 1))
            },
        };
        b.parser(ParserSpec {
            states: (0..states).map(state).collect(),
        });
        PacketCodec::new(b.build())
    }

    fn val() -> FieldRef {
        FieldRef::new(HeaderId(0), FieldId(1))
    }

    #[test]
    fn every_parse_hands_out_a_clean_phv() {
        let mut c = codec(1);
        let mut pkt = Packet::new(1, FlowId(1), [1, 2, 3, 0xEE]);
        assert_eq!(c.parse(&pkt), Ok(1));
        assert!(c.phv.is_clean(), "extraction is not a write");
        c.phv.set(&c.layout, val(), 0xABCD);
        assert!(!c.phv.is_clean());
        c.writeback(&mut pkt);
        assert_eq!(&pkt.data[..], &[1, 0xAB, 0xCD, 0xEE]);
        // The last traversal left the PHV dirty; the next parse does not.
        c.parse(&pkt).unwrap();
        assert!(c.phv.is_clean());
    }

    #[test]
    fn header_extracted_twice_is_written_back_at_both() {
        let mut c = codec(2);
        let mut pkt = Packet::new(1, FlowId(1), [1, 2, 3, 4, 5, 6, 0xEE]);
        assert_eq!(c.parse(&pkt), Ok(2));
        // The PHV holds the second instance; the rebuild replays it twice.
        assert_eq!(c.phv.get(&c.layout, val()), 0x0506);
        let headers = &c.program.headers;
        let want = deparse(headers, &c.layout, &c.phv, &c.extracted, &pkt.data[6..]);
        c.writeback(&mut pkt);
        assert_eq!(&pkt.data[..], &[4, 5, 6, 4, 5, 6, 0xEE]);
        assert_eq!(&pkt.data[..], &want[..]);
    }
}
