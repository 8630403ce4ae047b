//! Parse and writeback: the two ends of every pipeline traversal, shared by
//! both switch models.
//!
//! Everything in `adcp_sim::datapath` moves a packet without reading it;
//! this is the part that reads it. A [`PacketCodec`] owns the program, its
//! PHV layout and one recycled parse scratch, turns frame bytes into a PHV
//! at a pipeline's head ([`PacketCodec::parse`]) and the PHV's
//! modifications back into frame bytes and metadata at its tail
//! ([`PacketCodec::writeback`]). No action adds or removes a header, so a
//! frame keeps its length and layout through a pipeline and the tail only
//! has to patch the fields the pipeline wrote, where they already sit: the
//! writeback walks the same per-header extraction plan the parser ran
//! ([`PhvLayout`]) and tests each slot's dirty bit by index. The full
//! rebuild, [`crate::parser::deparse`], places fields by its own offset
//! arithmetic instead of the plan and is the reference this is checked
//! against — on every traversal of a debug build.

use crate::header::{deposit_bits, HeaderId};
use crate::parser::{ParseError, ParseOutcome};
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
    /// Parse-to-writeback is straight-line within one handler, so a single
    /// slot suffices.
    scratch: Option<(Phv, Vec<HeaderId>)>,
}

impl PacketCodec {
    /// Codec for `program`.
    pub fn new(program: Program) -> Self {
        PacketCodec {
            layout: program.layout(),
            program: Arc::new(program),
            scratch: None,
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

    /// Parse `pkt` into a PHV built from the recycled scratch (or a fresh
    /// one), with the ingress-port intrinsic set.
    #[inline]
    pub fn parse(&mut self, pkt: &Packet) -> Result<ParseOutcome, ParseError> {
        let (phv, extracted) = self
            .scratch
            .take()
            .unwrap_or_else(|| (Phv::empty(), Vec::new()));
        let (program, layout) = (&self.program, &self.layout);
        let mut out =
            program
                .parser
                .parse_reusing(&program.headers, layout, &pkt.data, phv, extracted)?;
        out.phv.intr.ingress_port = pkt.meta.ingress_port;
        Ok(out)
    }

    /// Deparse: the pipeline's modifications become the packet. Each field
    /// written since the parse is deposited at its wire offset in the
    /// packet's own buffer; a pass that wrote nothing touches no byte, and
    /// a shared (multicast) frame is copied once, at its first such field.
    #[inline]
    pub fn deparse(&self, pkt: &mut Packet, phv: &Phv, extracted: &[HeaderId]) {
        let layout = &self.layout;
        #[cfg(debug_assertions)]
        let rebuilt = {
            let consumed: u32 = extracted.iter().map(|h| layout.header(*h).bytes).sum();
            let payload = &pkt.data[consumed as usize..];
            crate::parser::deparse(&self.program.headers, layout, phv, extracted, payload)
        };
        if !phv.is_clean() {
            let mut base = 0u32;
            for h in extracted {
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

    /// Hand a finished traversal's PHV back for the next parse.
    #[inline]
    pub fn recycle(&mut self, phv: Phv, extracted: Vec<HeaderId>) {
        self.scratch = Some((phv, extracted));
    }

    /// [`PacketCodec::deparse`], then move the forwarding decision and
    /// sort key from the PHV's intrinsics into the metadata and recycle the
    /// PHV. Returns the program's `(central_pipe, recirculate)` choices,
    /// which the two targets fold into the metadata differently.
    #[inline]
    pub fn writeback(
        &mut self,
        pkt: &mut Packet,
        mut phv: Phv,
        extracted: Vec<HeaderId>,
    ) -> (Option<u32>, bool) {
        self.deparse(pkt, &phv, &extracted);
        pkt.meta.egress = std::mem::take(&mut phv.intr.egress);
        if let Some(k) = phv.intr.sort_key {
            pkt.meta.sort_key = Some(k);
        }
        let choices = (phv.intr.central_pipe, phv.intr.recirculate);
        self.recycle(phv, extracted);
        choices
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
        let out = c.parse(&pkt).unwrap();
        assert!(out.phv.is_clean(), "extraction is not a write");
        let mut phv = out.phv;
        phv.set(&c.layout, val(), 0xABCD);
        assert!(!phv.is_clean());
        c.writeback(&mut pkt, phv, out.extracted);
        assert_eq!(&pkt.data[..], &[1, 0xAB, 0xCD, 0xEE]);
        // The recycled scratch was dirty; the next PHV is not.
        assert!(c.parse(&pkt).unwrap().phv.is_clean());
    }

    #[test]
    fn header_extracted_twice_is_written_back_at_both() {
        let mut c = codec(2);
        let mut pkt = Packet::new(1, FlowId(1), [1, 2, 3, 4, 5, 6, 0xEE]);
        let out = c.parse(&pkt).unwrap();
        // The PHV holds the second instance; the rebuild replays it twice.
        assert_eq!(out.phv.get(&c.layout, val()), 0x0506);
        let payload = &pkt.data[out.consumed..];
        let headers = &c.program.headers;
        let want = deparse(headers, &c.layout, &out.phv, &out.extracted, payload);
        c.writeback(&mut pkt, out.phv, out.extracted);
        assert_eq!(&pkt.data[..], &[4, 5, 6, 4, 5, 6, 0xEE]);
        assert_eq!(&pkt.data[..], &want[..]);
    }
}
