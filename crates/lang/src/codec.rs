//! Parse and writeback: the two ends of every pipeline traversal, shared by
//! both switch models.
//!
//! Everything in `adcp_sim::datapath` moves a packet without reading it;
//! this is the part that reads it. A [`PacketCodec`] owns the program, its
//! PHV layout and one recycled parse scratch, turns frame bytes into a PHV
//! at a pipeline's head ([`PacketCodec::parse`]) and the (possibly
//! modified) PHV back into frame bytes and metadata at its tail
//! ([`PacketCodec::writeback`]).

use crate::header::HeaderId;
use crate::parser::{deparse_into, ParseError, ParseOutcome};
use crate::phv::{Phv, PhvLayout};
use crate::program::Program;
use adcp_sim::packet::{FrameBuf, Packet, PacketStore};
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

    /// Deparse: the pipeline's modifications become the packet. The
    /// rebuilt frame goes into a buffer recycled through `store`; the
    /// packet's previous buffer (when exclusively owned) returns to it.
    #[inline]
    pub fn deparse(
        &self,
        store: &mut PacketStore,
        pkt: &mut Packet,
        phv: &Phv,
        extracted: &[HeaderId],
        consumed: usize,
    ) {
        let mut buf = store.take();
        let payload = &pkt.data[consumed.min(pkt.data.len())..];
        deparse_into(
            &mut buf,
            &self.program.headers,
            &self.layout,
            phv,
            extracted,
            payload,
        );
        if let FrameBuf::Owned(v) = std::mem::replace(&mut pkt.data, FrameBuf::Owned(buf)) {
            store.recycle(v);
        }
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
        store: &mut PacketStore,
        pkt: &mut Packet,
        mut phv: Phv,
        extracted: Vec<HeaderId>,
        consumed: usize,
    ) -> (Option<u32>, bool) {
        self.deparse(store, pkt, &phv, &extracted, consumed);
        pkt.meta.egress = std::mem::take(&mut phv.intr.egress);
        if let Some(k) = phv.intr.sort_key {
            pkt.meta.sort_key = Some(k);
        }
        let choices = (phv.intr.central_pipe, phv.intr.recirculate);
        self.recycle(phv, extracted);
        choices
    }
}
