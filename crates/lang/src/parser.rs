//! Programmable packet parsing.
//!
//! A [`ParserSpec`] is a parse graph in the style of Gibb et al. (the
//! paper's reference [11], which it cites when noting that "parsing
//! efficiency is linked to the complexity of structure within packets
//! rather than port speed"): states extract one header each and select the
//! next state from a field of the header just extracted.
//!
//! The engine produces a [`Phv`] and reports the number of states visited —
//! the parse *depth* — which the timing models use, since parse latency
//! scales with structural depth, not port speed.
//!
//! Extraction is planned: each state runs its header's extraction plan,
//! compiled once into the [`PhvLayout`], as one flat loop with no per-field
//! offset arithmetic. The reference deparser [`deparse`] deliberately does
//! not use the plan: it places every element with
//! [`HeaderDef::bit_offset`] and [`crate::header::deposit_bits`], so the
//! debug-build check that compares it with the in-place writeback
//! ([`crate::codec`]) also checks the plan.

use crate::header::{extract_bits, FieldId, FieldRef, HeaderDef, HeaderId};
use crate::phv::{FieldPlan, Phv, PhvLayout};
use serde::Serialize;

/// Identifies a parser state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StateId(pub u16);

/// Transition out of a parser state.
#[derive(Debug, Clone, Serialize)]
pub enum Transition {
    /// Parsing is complete; hand the PHV to the pipeline.
    Accept,
    /// Unconditionally continue to another state.
    Goto(StateId),
    /// Select the next state by the value of a field extracted in this
    /// state. Unmatched values fall through to `default`.
    Select {
        /// Field (of this state's header) the decision is made on.
        field: FieldId,
        /// (value, next-state) cases.
        cases: Vec<(u64, StateId)>,
        /// Where to go when no case matches (`None` = reject the packet).
        default: Option<StateId>,
    },
}

/// One parser state: extract a header, then transition.
#[derive(Debug, Clone, Serialize)]
pub struct ParserState {
    /// Header type extracted when this state runs.
    pub extracts: HeaderId,
    /// What happens next.
    pub transition: Transition,
}

/// A complete parse graph. State 0 is the start state.
#[derive(Debug, Clone, Serialize)]
pub struct ParserSpec {
    /// All states, indexed by [`StateId`].
    pub states: Vec<ParserState>,
}

/// Why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Packet too short for the header a state wanted to extract.
    Truncated {
        /// The state that failed.
        state: StateId,
        /// Bytes that were available.
        available: usize,
        /// Bytes the header needed.
        needed: usize,
    },
    /// A select found no matching case and no default.
    NoTransition {
        /// The state that rejected.
        state: StateId,
        /// The selector value seen.
        value: u64,
    },
    /// The graph looped longer than the state count (malformed spec).
    DepthExceeded,
}

/// A successful parse.
#[derive(Debug)]
pub struct ParseOutcome {
    /// Extracted field values.
    pub phv: Phv,
    /// Bytes of the packet consumed by headers (the rest is payload).
    pub consumed: usize,
    /// Number of parser states visited — the structural depth that parse
    /// timing scales with.
    pub depth: u32,
    /// Headers in extraction (wire) order — what the deparser replays.
    pub extracted: Vec<HeaderId>,
}

/// Reassemble a packet from a (possibly modified) PHV: the extracted
/// headers are re-serialized in wire order, followed by the untouched
/// payload. This is the reference deparser: the switches patch written
/// fields in place (`PacketCodec::deparse`), and the reference interpreter,
/// the property tests and every debug-build traversal compare that against
/// this rebuild.
pub fn deparse(
    headers: &[HeaderDef],
    layout: &PhvLayout,
    phv: &Phv,
    extracted: &[HeaderId],
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::new();
    deparse_into(&mut out, headers, layout, phv, extracted, payload);
    out
}

/// [`deparse`] into a caller-supplied buffer (cleared first). `pub` only
/// because the frozen `benchmark/src/probes.rs` spells it, like
/// `adcp_sim::packet::PacketStore` (see there).
pub fn deparse_into(
    out: &mut Vec<u8>,
    headers: &[HeaderDef],
    layout: &PhvLayout,
    phv: &Phv,
    extracted: &[HeaderId],
    payload: &[u8],
) {
    let hdr_bytes: usize = extracted
        .iter()
        .map(|h| headers[h.0 as usize].total_bytes() as usize)
        .sum();
    out.clear();
    out.resize(hdr_bytes, 0);
    let mut base = 0u32;
    for h in extracted {
        let hdr = &headers[h.0 as usize];
        for (fi, f) in hdr.fields.iter().enumerate() {
            let fid = FieldId(fi as u16);
            for e in 0..f.count {
                let off = base + hdr.bit_offset(fid, e);
                let v = phv.get_elem(layout, FieldRef::new(*h, fid), e as usize);
                let ok = crate::header::deposit_bits(out, off, f.bits, v);
                debug_assert!(ok, "deparse buffer sized from the same headers");
            }
        }
        base += hdr.total_bits();
    }
    out.extend_from_slice(payload);
}

impl ParserSpec {
    /// A trivial spec: extract exactly one header type and accept.
    pub fn single(header: HeaderId) -> Self {
        ParserSpec {
            states: vec![ParserState {
                extracts: header,
                transition: Transition::Accept,
            }],
        }
    }

    /// The maximum depth of the graph (`states.len()` is a safe bound for
    /// acyclic graphs; cyclic specs are caught at runtime).
    pub fn max_depth(&self) -> u32 {
        self.states.len() as u32
    }

    /// Run the parser over `data`, extracting into a fresh PHV.
    pub fn parse(
        &self,
        headers: &[HeaderDef],
        layout: &PhvLayout,
        data: &[u8],
    ) -> Result<ParseOutcome, ParseError> {
        self.parse_reusing(headers, layout, data, Phv::empty(), Vec::new())
    }

    /// [`ParserSpec::parse`], but recycling a scratch PHV and extraction
    /// list from a previous outcome: [`ParserSpec::parse_into`] wrapped
    /// into a [`ParseOutcome`].
    pub fn parse_reusing(
        &self,
        headers: &[HeaderDef],
        layout: &PhvLayout,
        data: &[u8],
        mut phv: Phv,
        mut extracted: Vec<HeaderId>,
    ) -> Result<ParseOutcome, ParseError> {
        let (consumed, depth) = self.parse_into(headers, layout, data, &mut phv, &mut extracted)?;
        Ok(ParseOutcome {
            phv,
            consumed,
            depth,
            extracted,
        })
    }

    /// Parse `data` into `phv` and `extracted` where they are, returning
    /// `(consumed, depth)`. The PHV is reshaped to the layout's zero state
    /// first, so any previous contents are irrelevant, and is left with an
    /// empty dirty set; on an error both hold a partial parse.
    ///
    /// Each state runs its header's extraction plan from the layout
    /// straight into the PHV's value vector: a byte-aligned 8/16/32/64-bit
    /// field is read with `from_be_bytes`, any other with one window read
    /// per element ([`extract_bits`]); an array field is one loop over its
    /// elements. `headers` must be the definitions `layout` was built from.
    pub fn parse_into(
        &self,
        headers: &[HeaderDef],
        layout: &PhvLayout,
        data: &[u8],
        phv: &mut Phv,
        extracted: &mut Vec<HeaderId>,
    ) -> Result<(usize, u32), ParseError> {
        layout.reinstantiate(phv);
        extracted.clear();
        let mut offset = 0usize;
        let mut state = StateId(0);
        let mut depth = 0u32;
        let mut repeated = false;
        loop {
            depth += 1;
            if depth > self.states.len() as u32 {
                return Err(ParseError::DepthExceeded);
            }
            let st = &self.states[state.0 as usize];
            repeated |= phv.is_valid(st.extracts);
            let hdr = layout.header(st.extracts);
            debug_assert_eq!(hdr.bytes, headers[st.extracts.0 as usize].total_bytes());
            let hdr_bytes = hdr.bytes as usize;
            if offset + hdr_bytes > data.len() {
                return Err(ParseError::Truncated {
                    state,
                    available: data.len().saturating_sub(offset),
                    needed: hdr_bytes,
                });
            }
            let (bytes, values) = (&data[offset..offset + hdr_bytes], phv.values_mut());
            for f in layout.plan(hdr) {
                extract(bytes, f, values);
            }
            phv.set_valid(st.extracts);
            extracted.push(st.extracts);
            offset += hdr_bytes;
            match &st.transition {
                Transition::Accept => {
                    // Extraction is not a write — unless a header was
                    // extracted twice: the PHV holds its last instance and
                    // the deparser replays that at both, so every extracted
                    // field is dirty.
                    if repeated {
                        for h in extracted.iter() {
                            phv.mark_dirty(layout.header(*h).slots());
                        }
                    }
                    return Ok((offset, depth));
                }
                Transition::Goto(next) => state = *next,
                Transition::Select {
                    field,
                    cases,
                    default,
                } => {
                    let v = phv.get(layout, FieldRef::new(st.extracts, *field));
                    match cases.iter().find(|(cv, _)| *cv == v) {
                        Some((_, next)) => state = *next,
                        None => match default {
                            Some(next) => state = *next,
                            None => return Err(ParseError::NoTransition { state, value: v }),
                        },
                    }
                }
            }
        }
    }
}

/// Run one plan entry: extract field `f` of the header whose bytes are
/// `header` into the field's values.
#[inline]
fn extract(header: &[u8], f: &FieldPlan, values: &mut [u64]) {
    let dst = &mut values[f.at as usize..][..f.count as usize];
    let src = &header[f.off as usize / 8..];
    match (f.off % 8, f.bits) {
        (0, 8) => words(dst, src, |[b]| b as u64),
        (0, 16) => words(dst, src, |b| u16::from_be_bytes(b) as u64),
        (0, 32) => words(dst, src, |b| u32::from_be_bytes(b) as u64),
        (0, 64) => words(dst, src, u64::from_be_bytes),
        _ => {
            for (e, d) in dst.iter_mut().enumerate() {
                let at = f.off + e as u32 * f.bits as u32;
                *d = extract_bits(header, at, f.bits).expect("the plan lies inside its header");
            }
        }
    }
}

/// Fill `dst` with consecutive big-endian `N`-byte words from `src`.
#[inline]
fn words<const N: usize>(dst: &mut [u64], src: &[u8], word: impl Fn([u8; N]) -> u64) {
    let src = &src[..dst.len() * N];
    for (d, w) in dst.iter_mut().zip(src.chunks_exact(N)) {
        *d = word(w.try_into().expect("chunks_exact yields N bytes"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldDef, FieldRef};

    /// eth(type) -> [0x0800 -> ipv4ish -> accept | 0x88B5 -> kv -> accept]
    fn spec() -> (Vec<HeaderDef>, PhvLayout, ParserSpec) {
        let headers = vec![
            HeaderDef::new(
                "eth",
                vec![
                    FieldDef::scalar("dst", 48),
                    FieldDef::scalar("src", 48),
                    FieldDef::scalar("type", 16),
                ],
            ),
            HeaderDef::new(
                "ip",
                vec![FieldDef::scalar("proto", 8), FieldDef::scalar("addr", 32)],
            ),
            HeaderDef::new(
                "kv",
                vec![FieldDef::scalar("op", 8), FieldDef::array("keys", 16, 4)],
            ),
        ];
        let layout = PhvLayout::build(&headers);
        let spec = ParserSpec {
            states: vec![
                ParserState {
                    extracts: HeaderId(0),
                    transition: Transition::Select {
                        field: FieldId(2),
                        cases: vec![(0x0800, StateId(1)), (0x88B5, StateId(2))],
                        default: None,
                    },
                },
                ParserState {
                    extracts: HeaderId(1),
                    transition: Transition::Accept,
                },
                ParserState {
                    extracts: HeaderId(2),
                    transition: Transition::Accept,
                },
            ],
        };
        (headers, layout, spec)
    }

    fn eth_frame(ethertype: u16, rest: &[u8]) -> Vec<u8> {
        let mut v = vec![0u8; 12];
        v.extend_from_slice(&ethertype.to_be_bytes());
        v.extend_from_slice(rest);
        v
    }

    #[test]
    fn parses_ip_branch() {
        let (headers, layout, spec) = spec();
        let data = eth_frame(0x0800, &[6, 10, 0, 0, 1, 99, 99]);
        let out = spec.parse(&headers, &layout, &data).unwrap();
        assert_eq!(out.depth, 2);
        assert_eq!(out.consumed, 14 + 5);
        assert!(out.phv.is_valid(HeaderId(1)));
        assert!(!out.phv.is_valid(HeaderId(2)));
        assert_eq!(
            out.phv.get(&layout, FieldRef::new(HeaderId(1), FieldId(0))),
            6
        );
        assert_eq!(
            out.phv.get(&layout, FieldRef::new(HeaderId(1), FieldId(1))),
            0x0A000001
        );
    }

    #[test]
    fn parses_kv_branch_with_array() {
        let (headers, layout, spec) = spec();
        let mut kv = vec![0x01u8]; // op
        for k in [100u16, 200, 300, 400] {
            kv.extend_from_slice(&k.to_be_bytes());
        }
        let data = eth_frame(0x88B5, &kv);
        let out = spec.parse(&headers, &layout, &data).unwrap();
        assert!(out.phv.is_valid(HeaderId(2)));
        let keys = out
            .phv
            .get_array(&layout, FieldRef::new(HeaderId(2), FieldId(1)));
        assert_eq!(keys, &[100, 200, 300, 400]);
    }

    #[test]
    fn unknown_ethertype_rejected() {
        let (headers, layout, spec) = spec();
        let data = eth_frame(0x9999, &[0; 16]);
        match spec.parse(&headers, &layout, &data) {
            Err(ParseError::NoTransition { state, value }) => {
                assert_eq!(state, StateId(0));
                assert_eq!(value, 0x9999);
            }
            other => panic!("expected NoTransition, got {other:?}"),
        }
    }

    #[test]
    fn truncated_packet_rejected() {
        let (headers, layout, spec) = spec();
        let data = eth_frame(0x0800, &[6, 10]); // ip header needs 5 bytes
        match spec.parse(&headers, &layout, &data) {
            Err(ParseError::Truncated {
                available, needed, ..
            }) => {
                assert_eq!(available, 2);
                assert_eq!(needed, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_graph_caught() {
        let headers = vec![HeaderDef::new("h", vec![FieldDef::scalar("x", 8)])];
        let layout = PhvLayout::build(&headers);
        let spec = ParserSpec {
            states: vec![ParserState {
                extracts: HeaderId(0),
                transition: Transition::Goto(StateId(0)),
            }],
        };
        let data = vec![0u8; 64];
        assert!(matches!(
            spec.parse(&headers, &layout, &data),
            Err(ParseError::DepthExceeded)
        ));
    }

    #[test]
    fn deparse_roundtrips_modified_fields() {
        let (headers, layout, spec) = spec();
        let mut kv = vec![0x01u8];
        for k in [100u16, 200, 300, 400] {
            kv.extend_from_slice(&k.to_be_bytes());
        }
        let mut data = eth_frame(0x88B5, &kv);
        data.extend_from_slice(&[0xAA, 0xBB]); // payload
        let out = spec.parse(&headers, &layout, &data).unwrap();
        let mut phv = out.phv;
        // Switch rewrites key lane 2.
        phv.set_elem(&layout, FieldRef::new(HeaderId(2), FieldId(1)), 2, 999);
        let rebuilt = deparse(
            &headers,
            &layout,
            &phv,
            &out.extracted,
            &data[out.consumed..],
        );
        assert_eq!(rebuilt.len(), data.len());
        // Re-parse the rebuilt frame: lane 2 is updated, others intact.
        let again = spec.parse(&headers, &layout, &rebuilt).unwrap();
        let keys = again
            .phv
            .get_array(&layout, FieldRef::new(HeaderId(2), FieldId(1)));
        assert_eq!(keys, &[100, 200, 999, 400]);
        // Payload preserved.
        assert_eq!(&rebuilt[rebuilt.len() - 2..], &[0xAA, 0xBB]);
    }

    #[test]
    fn single_spec_accepts_immediately() {
        let headers = vec![HeaderDef::new("h", vec![FieldDef::scalar("x", 32)])];
        let layout = PhvLayout::build(&headers);
        let spec = ParserSpec::single(HeaderId(0));
        let out = spec.parse(&headers, &layout, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(out.consumed, 4);
        assert_eq!(out.depth, 1);
        assert_eq!(spec.max_depth(), 1);
    }
}
