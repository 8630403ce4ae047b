//! Canonical protocol headers and a realistic parse graph.
//!
//! The app programs in this repository use bespoke single-header formats
//! (which is what in-network-computing packets actually look like on the
//! wire inside a rack: an Ethernet type dispatching to an app header).
//! This module provides the standard framing around them — Ethernet II,
//! IPv4, UDP — and a builder that assembles the classic parse graph:
//!
//! ```text
//! ethernet --0x0800--> ipv4 --17--> udp --app_port--> <app header>
//!        \--app_ethertype------------------------------^
//! ```
//!
//! so programs can accept both raw-Ethernet app packets (the low-latency
//! path) and UDP-encapsulated ones (the routable path), like SwitchML does.

use crate::header::{FieldDef, HeaderDef, HeaderId};
use crate::parser::{ParserSpec, ParserState, StateId, Transition};
use crate::program::ProgramBuilder;

/// EtherType carried by raw app-on-Ethernet packets.
const APP_ETHERTYPE: u64 = 0x88B5; // IEEE local experimental
/// IPv4 protocol number for UDP.
const IPPROTO_UDP: u64 = 17;

/// Ethernet II: dst, src, ethertype.
pub fn ethernet() -> HeaderDef {
    HeaderDef::new(
        "ethernet",
        vec![
            FieldDef::scalar("dst", 48),
            FieldDef::scalar("src", 48),
            FieldDef::scalar("ethertype", 16),
        ],
    )
}

/// IPv4 (fixed 20-byte header; options unsupported, as on most ASIC
/// parsers' fast path).
pub fn ipv4() -> HeaderDef {
    HeaderDef::new(
        "ipv4",
        vec![
            FieldDef::scalar("version_ihl", 8),
            FieldDef::scalar("dscp_ecn", 8),
            FieldDef::scalar("total_len", 16),
            FieldDef::scalar("identification", 16),
            FieldDef::scalar("flags_frag", 16),
            FieldDef::scalar("ttl", 8),
            FieldDef::scalar("protocol", 8),
            FieldDef::scalar("checksum", 16),
            FieldDef::scalar("src", 32),
            FieldDef::scalar("dst", 32),
        ],
    )
}

/// UDP.
pub fn udp() -> HeaderDef {
    HeaderDef::new(
        "udp",
        vec![
            FieldDef::scalar("sport", 16),
            FieldDef::scalar("dport", 16),
            FieldDef::scalar("length", 16),
            FieldDef::scalar("checksum", 16),
        ],
    )
}

/// Metadata words per INT hop stamp (see [`int_hop`] for the layout).
pub const INT_HOP_FIELDS: usize = 6;

/// The INT shim a stamping switch would prepend to the app payload: how
/// many hop records follow, and how many further hops found the region
/// full (a real shim's remaining-hop-count reaching zero). The simulator
/// carries the equivalent state in packet metadata (`meta.int`) so that
/// delivered frames stay byte-identical across targets — this header pins
/// the canonical wire layout that state corresponds to.
pub fn int_shim() -> HeaderDef {
    HeaderDef::new(
        "int_shim",
        vec![
            FieldDef::scalar("hop_count", 8),
            FieldDef::scalar("truncated", 16),
        ],
    )
}

/// One INT hop record: stamping device, site code (which RX port /
/// pipeline / TM inside it), enter/exit timestamps in picoseconds, and
/// the TM queue depth and buffer occupancy observed at the hop. One of
/// these per hop follows the [`int_shim`], up to the region bound.
pub fn int_hop() -> HeaderDef {
    HeaderDef::new(
        "int_hop",
        vec![
            FieldDef::scalar("device", 16),
            FieldDef::scalar("site", 64),
            FieldDef::scalar("enter_ps", 64),
            FieldDef::scalar("exit_ps", 64),
            FieldDef::scalar("queue_depth", 32),
            FieldDef::scalar("buffer_cells", 64),
        ],
    )
}

/// Handles to the framing headers registered by [`standard_framing`].
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// Ethernet header id.
    pub eth: HeaderId,
    /// IPv4 header id.
    pub ip: HeaderId,
    /// UDP header id.
    pub udp: HeaderId,
    /// The application header id the graph dispatches to.
    pub app: HeaderId,
}

/// Register ethernet/ipv4/udp around an app header and install the parse
/// graph: raw app EtherType and UDP `app_port` both reach the app header;
/// anything else is rejected (parse error → counted drop).
pub fn standard_framing(b: &mut ProgramBuilder, app_header: HeaderDef, app_port: u16) -> Framing {
    let eth = b.header(ethernet());
    let ip = b.header(ipv4());
    let udp_h = b.header(udp());
    let app = b.header(app_header);
    let spec = ParserSpec {
        states: vec![
            // 0: ethernet
            ParserState {
                extracts: eth,
                transition: Transition::Select {
                    field: crate::header::FieldId(2), // ethertype
                    cases: vec![(0x0800, StateId(1)), (APP_ETHERTYPE, StateId(3))],
                    default: None,
                },
            },
            // 1: ipv4
            ParserState {
                extracts: ip,
                transition: Transition::Select {
                    field: crate::header::FieldId(6), // protocol
                    cases: vec![(IPPROTO_UDP, StateId(2))],
                    default: None,
                },
            },
            // 2: udp
            ParserState {
                extracts: udp_h,
                transition: Transition::Select {
                    field: crate::header::FieldId(1), // dport
                    cases: vec![(app_port as u64, StateId(3))],
                    default: None,
                },
            },
            // 3: the application header
            ParserState {
                extracts: app,
                transition: Transition::Accept,
            },
        ],
    };
    b.parser(spec);
    Framing {
        eth,
        ip,
        udp: udp_h,
        app,
    }
}

/// Serialize an Ethernet frame carrying the app header directly.
pub fn raw_app_frame(app_bytes: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(14 + app_bytes.len());
    f.extend_from_slice(&[0u8; 12]); // dst+src
    f.extend_from_slice(&(APP_ETHERTYPE as u16).to_be_bytes());
    f.extend_from_slice(app_bytes);
    f
}

/// Serialize an Ethernet+IPv4+UDP frame carrying the app header.
pub fn udp_app_frame(app_port: u16, app_bytes: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(42 + app_bytes.len());
    f.extend_from_slice(&[0u8; 12]);
    f.extend_from_slice(&0x0800u16.to_be_bytes());
    // ipv4: version/ihl 0x45, then plausible fixed fields.
    f.push(0x45);
    f.push(0);
    f.extend_from_slice(&((20 + 8 + app_bytes.len()) as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
    f.push(64); // ttl
    f.push(IPPROTO_UDP as u8);
    f.extend_from_slice(&[0, 0]); // checksum (unvalidated in the model)
    f.extend_from_slice(&[10, 0, 0, 1]);
    f.extend_from_slice(&[10, 0, 0, 2]);
    // udp
    f.extend_from_slice(&40_000u16.to_be_bytes());
    f.extend_from_slice(&app_port.to_be_bytes());
    f.extend_from_slice(&((8 + app_bytes.len()) as u16).to_be_bytes());
    f.extend_from_slice(&[0, 0]);
    f.extend_from_slice(app_bytes);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::FieldRef;
    use crate::phv::PhvLayout;

    fn setup() -> (
        Vec<HeaderDef>,
        crate::parser::ParserSpec,
        Framing,
        PhvLayout,
    ) {
        let mut b = ProgramBuilder::new("framed");
        let app = HeaderDef::new(
            "app",
            vec![
                FieldDef::scalar("op", 8),
                FieldDef::scalar("key", 32),
                FieldDef::scalar("pad", 8),
            ],
        );
        let framing = standard_framing(&mut b, app, 9999);
        let p = b.build();
        let layout = p.layout();
        (p.headers, p.parser, framing, layout)
    }

    fn app_bytes() -> Vec<u8> {
        let mut v = vec![7u8];
        v.extend_from_slice(&0xDEADBEEFu32.to_be_bytes());
        v.push(0);
        v
    }

    #[test]
    fn raw_path_parses_to_app_header() {
        let (headers, spec, framing, layout) = setup();
        let frame = raw_app_frame(&app_bytes());
        let out = spec.parse(&headers, &layout, &frame).unwrap();
        assert_eq!(out.depth, 2, "ethernet + app");
        assert!(out.phv.is_valid(framing.app));
        assert!(!out.phv.is_valid(framing.ip));
        let key = out.phv.get(
            &layout,
            FieldRef::new(framing.app, crate::header::FieldId(1)),
        );
        assert_eq!(key, 0xDEADBEEF);
    }

    #[test]
    fn udp_path_parses_through_the_full_stack() {
        let (headers, spec, framing, layout) = setup();
        let frame = udp_app_frame(9999, &app_bytes());
        let out = spec.parse(&headers, &layout, &frame).unwrap();
        assert_eq!(out.depth, 4, "ethernet + ipv4 + udp + app");
        assert!(out.phv.is_valid(framing.eth));
        assert!(out.phv.is_valid(framing.ip));
        assert!(out.phv.is_valid(framing.udp));
        assert!(out.phv.is_valid(framing.app));
        let ttl = out.phv.get(
            &layout,
            FieldRef::new(framing.ip, crate::header::FieldId(5)),
        );
        assert_eq!(ttl, 64);
        let key = out.phv.get(
            &layout,
            FieldRef::new(framing.app, crate::header::FieldId(1)),
        );
        assert_eq!(key, 0xDEADBEEF);
    }

    #[test]
    fn foreign_traffic_is_rejected() {
        let (headers, spec, _, layout) = setup();
        // Wrong UDP port.
        let frame = udp_app_frame(53, &app_bytes());
        assert!(spec.parse(&headers, &layout, &frame).is_err());
        // Unknown ethertype (ARP).
        let mut arp = vec![0u8; 12];
        arp.extend_from_slice(&0x0806u16.to_be_bytes());
        arp.extend_from_slice(&[0u8; 28]);
        assert!(spec.parse(&headers, &layout, &arp).is_err());
        // Non-UDP IP protocol (TCP).
        let mut frame = udp_app_frame(9999, &app_bytes());
        frame[23] = 6; // protocol = TCP
        assert!(spec.parse(&headers, &layout, &frame).is_err());
    }

    #[test]
    fn deparse_preserves_the_full_stack() {
        let (headers, spec, _, layout) = setup();
        let frame = udp_app_frame(9999, &app_bytes());
        let out = spec.parse(&headers, &layout, &frame).unwrap();
        let rebuilt = crate::parser::deparse(
            &headers,
            &layout,
            &out.phv,
            &out.extracted,
            &frame[out.consumed..],
        );
        assert_eq!(rebuilt, frame);
    }

    #[test]
    fn int_headers_pin_the_wire_layout() {
        let shim = int_shim();
        assert_eq!(shim.fields.len(), 2);
        assert_eq!(shim.total_bits(), 24);
        let hop = int_hop();
        assert_eq!(hop.fields.len(), INT_HOP_FIELDS);
        // device 16 + site 64 + two 64-bit timestamps + qdepth 32 + cells 64.
        assert_eq!(hop.total_bits(), 16 + 64 + 64 + 64 + 32 + 64);
        // A full 32-hop region is shim + 32 hop records: bounded, and small
        // enough to ride a jumbo frame (the bound INT_MAX_HOPS enforces).
        let region_bytes = (shim.total_bits() + 32 * hop.total_bits()) / 8;
        assert_eq!(region_bytes, 3 + 32 * 38);
        assert!(region_bytes < 1280);
    }

    #[test]
    fn parse_depth_differs_by_path() {
        // §3.3: "parsing efficiency is linked to the complexity of
        // structure within packets" — the raw path is half the depth of
        // the UDP path, i.e. structure, not speed, sets the cost.
        let (headers, spec, _, layout) = setup();
        let raw = spec
            .parse(&headers, &layout, &raw_app_frame(&app_bytes()))
            .unwrap();
        let udp = spec
            .parse(&headers, &layout, &udp_app_frame(9999, &app_bytes()))
            .unwrap();
        assert_eq!(raw.depth, 2);
        assert_eq!(udp.depth, 4);
        assert_eq!(raw.consumed, 14 + 6);
        assert_eq!(udp.consumed, 14 + 20 + 8 + 6);
    }
}
