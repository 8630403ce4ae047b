//! In-band network telemetry (INT): datapath-stamped per-hop metadata.
//!
//! The journey tracer ([`crate::trace`]) is the *simulator's* flight
//! recorder — omniscient out-of-band instrumentation that sees the truth
//! by construction. This module models the opposite regime: telemetry the
//! **datapath itself** writes onto transiting packets, hop by hop, the way
//! an INT-capable ASIC pushes metadata words onto an INT header stack.
//! Each stamping switch appends an [`IntStamp`] (device id, site,
//! enter/exit times, queue/buffer/epoch context) to the packet's bounded
//! [`IntStack`]; at TX the switch emits a [`Postcard`] — a sink-style
//! export of the accumulated stack — for the collector to drain.
//!
//! Because the simulator knows the ground truth, the INT subsystem gets a
//! conformance obligation no real deployment can have: every stamp must
//! match the journey tracer's hop record byte for byte (site, times,
//! context), and the `int/*` metrics counters must agree with what a
//! collector actually drains. A datapath that stamps *plausible* but
//! wrong telemetry is a lying datapath, and the harness must catch it.
//!
//! # Modeling choice: stamps ride packet metadata, not frame bytes
//!
//! Real INT rewrites the wire frame (and the sink strips the stack before
//! host delivery, so hosts never see it). This repository pins delivered
//! frames byte-identical across targets and against the one-big-switch
//! fabric reference; an in-frame stack would make every INT run a
//! different wire program. The stack therefore rides [`PacketMeta`]
//! (`meta.int`) — the post-sink view — while the bounded-capacity,
//! truncation-counted behavior of a real header region is preserved.
//! [`int_shim`] and [`int_hop`] (in `adcp-lang::protocols`) define the
//! canonical wire layout a real shim would use; their widths are what
//! [`INT_MAX_HOPS`] bounds.
//!
//! [`PacketMeta`]: crate::packet::PacketMeta
//! [`int_shim`]: ../adcp_lang/protocols/fn.int_shim.html
//! [`int_hop`]: ../adcp_lang/protocols/fn.int_hop.html

use crate::time::SimTime;
use crate::trace::{sample_hash, HopCtx, Site};
use serde::{Map, Value};

/// Maximum stamps one packet can carry — the modeled INT header region
/// holds this many metadata words; further hops increment the stack's
/// truncation count instead of growing it (mirroring a real INT shim's
/// remaining-hop-count field reaching zero).
pub const INT_MAX_HOPS: usize = 32;

/// Capacity of a switch's postcard sink FIFO. A real sink streams
/// postcards to an off-switch collector; when nobody drains the FIFO it
/// fills and further postcards are shed (counted, not silently lost).
/// Bounding it also keeps INT-on memory flat on runs whose harness never
/// drains — the postcard buffer is the only per-run-unbounded INT state.
pub const POSTCARDS_CAP: usize = 65_536;

/// Typical stamp count of a single-switch traversal (rx, ingress, tm1,
/// central, tm2, egress, tx) — the initial stack capacity, so the common
/// path allocates once and only multi-device or recirculating journeys
/// regrow.
pub const INT_TYPICAL_HOPS: usize = 8;

/// A stable numeric code for a [`Site`], folded into path digests.
/// Distinct sites (including distinct pipes/ports) map to distinct codes.
pub fn site_code(site: Site) -> u64 {
    match site {
        Site::Rx(p) => (1 << 32) | p.0 as u64,
        Site::IngressPipe(i) => (2 << 32) | i as u64,
        Site::Tm1 => 3 << 32,
        Site::CentralPipe(i) => (4 << 32) | i as u64,
        Site::Tm2 => 5 << 32,
        Site::EgressPipe(i) => (6 << 32) | i as u64,
        Site::Tx(p) => (7 << 32) | p.0 as u64,
        Site::Recirculated => 8 << 32,
        Site::Dropped => 9 << 32,
    }
}

/// One hop's worth of datapath-stamped telemetry: which device, where in
/// it, the span, and the queue/buffer/epoch context observed at the hop.
/// Field-for-field this is a [`crate::trace::Hop`] plus the device id —
/// deliberately, so the honesty conformance check can compare the two
/// representations exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntStamp {
    /// Stamping device (single switch: 0; fabric: leaf `l` = `l`,
    /// spine `s` = `n_leaves + s`).
    pub device: u16,
    /// Where in the device.
    pub site: Site,
    /// When the packet entered the site.
    pub enter: SimTime,
    /// When it left.
    pub exit: SimTime,
    /// Queue depth / buffer cells / partition epoch observed at the hop.
    pub ctx: HopCtx,
}

/// The bounded INT header region of one transiting packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntStack {
    /// Stamps in hop order (capped at [`INT_MAX_HOPS`]).
    pub stamps: Vec<IntStamp>,
    /// Stamps that did not fit the header region.
    pub truncated: u16,
}

impl IntStack {
    /// An empty stack.
    pub fn new() -> Self {
        IntStack::default()
    }

    /// An empty stack pre-sized for a typical single-switch traversal
    /// ([`INT_TYPICAL_HOPS`]) — what datapaths allocate on first stamp.
    pub fn with_typical_capacity() -> Self {
        IntStack {
            stamps: Vec::with_capacity(INT_TYPICAL_HOPS),
            truncated: 0,
        }
    }

    /// Append a stamp; returns `false` (and counts the truncation) when
    /// the header region is full.
    pub fn push(&mut self, stamp: IntStamp) -> bool {
        if self.stamps.len() >= INT_MAX_HOPS {
            self.truncated = self.truncated.saturating_add(1);
            return false;
        }
        self.stamps.push(stamp);
        true
    }

    /// FNV-1a digest over the `(device, site)` sequence — the path
    /// fingerprint the collector watches for flips. Context and times are
    /// deliberately excluded: the digest identifies the *route*, not the
    /// conditions along it.
    pub fn path_digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for s in &self.stamps {
            for b in (s.device as u64)
                .to_le_bytes()
                .into_iter()
                .chain(site_code(s.site).to_le_bytes())
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The maximum TM queue depth any stamp observed, if any did.
    pub fn max_queue_depth(&self) -> Option<u32> {
        self.stamps.iter().filter_map(|s| s.ctx.queue_depth).max()
    }
}

/// A sink export: when a stamping switch transmits a sampled packet, it
/// emits the accumulated stack (plus identity) for the collector. In a
/// fabric every device postcards at its own TX, so the collector sees the
/// path grow hop by hop — INT-XD style — while the final host-delivery
/// postcard carries the complete end-to-end chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postcard {
    /// The transmitting device.
    pub device: u16,
    /// Packet id.
    pub pkt: u64,
    /// Flow id.
    pub flow: u64,
    /// TX port on the transmitting device.
    pub port: u16,
    /// Transmit-complete time.
    pub time: SimTime,
    /// Snapshot of the packet's INT stack at transmit.
    pub stack: IntStack,
}

impl Postcard {
    /// JSON shape consumed by telemetry tooling (times in picoseconds).
    pub fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("device".into(), Value::U64(self.device as u64));
        o.insert("pkt".into(), Value::U64(self.pkt));
        o.insert("flow".into(), Value::U64(self.flow));
        o.insert("port".into(), Value::U64(self.port as u64));
        o.insert("time_ps".into(), Value::U64(self.time.as_ps()));
        o.insert("path_digest".into(), Value::U64(self.stack.path_digest()));
        o.insert("truncated".into(), Value::U64(self.stack.truncated as u64));
        let stamps: Vec<Value> = self
            .stack
            .stamps
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("device".into(), Value::U64(s.device as u64));
                m.insert("site".into(), Value::String(s.site.to_string()));
                m.insert("enter_ps".into(), Value::U64(s.enter.as_ps()));
                m.insert("exit_ps".into(), Value::U64(s.exit.as_ps()));
                if let Some(d) = s.ctx.queue_depth {
                    m.insert("queue_depth".into(), Value::U64(d as u64));
                }
                if let Some(b) = s.ctx.buffer_cells {
                    m.insert("buffer_cells".into(), Value::U64(b));
                }
                if let Some(e) = s.ctx.epoch {
                    m.insert("epoch".into(), Value::U64(e));
                }
                Value::Object(m)
            })
            .collect();
        o.insert("stamps".into(), Value::Array(stamps));
        Value::Object(o)
    }
}

/// The `ADCP_INT` knob: whether a switch stamps, and at what sampling
/// rate. Mirrors the `ADCP_TRACE` / `ADCP_METRICS` conventions — unset
/// defers to the switch config flag, `off`/`0`/`false` force-disables,
/// `on`/`true` force-enables at rate 1, a number `N` force-enables with
/// sampling rate `N` (stamp packet ids where `fnv(id) % N == 0`, the same
/// deterministic hash the tracer samples with, so the stamped set and the
/// traced set coincide when the rates agree).
#[derive(Debug, Clone, Copy)]
pub struct IntKnob {
    enabled: bool,
    sample: u64,
}

impl IntKnob {
    /// An enabled knob at sampling rate `sample` (0 is treated as 1).
    pub fn with_sample(sample: u64) -> Self {
        IntKnob {
            enabled: true,
            sample: sample.max(1),
        }
    }

    /// A disabled knob (stamps nothing; one branch per call site).
    pub fn disabled() -> Self {
        IntKnob {
            enabled: false,
            sample: 1,
        }
    }

    /// Resolve from the `ADCP_INT` environment variable, deferring to the
    /// switch config flag when unset or unparseable.
    pub fn from_env(cfg_int: bool) -> Self {
        match std::env::var("ADCP_INT") {
            Ok(v) => {
                let v = v.trim();
                if v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false") {
                    Self::disabled()
                } else if v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("true") {
                    Self::with_sample(1)
                } else if let Ok(n) = v.parse::<u64>() {
                    Self::with_sample(n)
                } else if cfg_int {
                    Self::with_sample(1)
                } else {
                    Self::disabled()
                }
            }
            Err(_) if cfg_int => Self::with_sample(1),
            Err(_) => Self::disabled(),
        }
    }

    /// Is stamping active at all? Hot paths branch on this before
    /// computing per-hop context, so a disabled knob costs one
    /// predictable branch per call site.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// The sampling rate `N`.
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Does this knob stamp packet `pkt`?
    #[inline]
    pub fn samples(&self, pkt: u64) -> bool {
        self.enabled && sample_hash(pkt).is_multiple_of(self.sample)
    }
}

/// Per-flow telemetry aggregated in central register state (ADCP only):
/// a fixed array of cells indexed by `fnv(flow) % cells`, each tracking
/// the flow's worst observed queue depth, hop count, current path digest,
/// and how many times that digest flipped — the switch-resident summary
/// the paper argues stateful central pipes exist to hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntFlowCell {
    /// A flow has landed in this cell.
    pub active: bool,
    /// Worst TM queue depth any of the flow's stamps observed.
    pub max_queue_depth: u32,
    /// Hops on the flow's most recent packet.
    pub hop_count: u32,
    /// Path digest of the flow's most recent packet.
    pub path_digest: u64,
    /// Digest flips observed (path changes).
    pub path_changes: u64,
    /// Packets folded into this cell.
    pub packets: u64,
}

/// The central-register-resident per-flow aggregation table.
#[derive(Debug, Clone)]
pub struct IntFlowTable {
    cells: Vec<IntFlowCell>,
}

impl IntFlowTable {
    /// A table of `cells` flow slots (flows hash onto slots; collisions
    /// merge, as they would in real register state).
    pub fn new(cells: usize) -> Self {
        IntFlowTable {
            cells: vec![IntFlowCell::default(); cells.max(1)],
        }
    }

    /// The cell index flow `flow` hashes onto.
    pub fn slot_of(&self, flow: u64) -> usize {
        (sample_hash(flow) % self.cells.len() as u64) as usize
    }

    /// Fold one completed packet's stack into the flow's cell. Returns
    /// `true` when the fold flipped the flow's path digest (a path
    /// change).
    pub fn fold(&mut self, flow: u64, stack: &IntStack) -> bool {
        let slot = self.slot_of(flow);
        let cell = &mut self.cells[slot];
        let digest = stack.path_digest();
        let mut flipped = false;
        if cell.active && cell.path_digest != digest {
            cell.path_changes += 1;
            flipped = true;
        }
        cell.active = true;
        cell.path_digest = digest;
        cell.hop_count = stack.stamps.len() as u32;
        if let Some(d) = stack.max_queue_depth() {
            cell.max_queue_depth = cell.max_queue_depth.max(d);
        }
        cell.packets += 1;
        flipped
    }

    /// The cell flow `flow` hashes onto.
    pub fn cell(&self, flow: u64) -> &IntFlowCell {
        &self.cells[self.slot_of(flow)]
    }

    /// Cells with at least one flow folded in.
    pub fn active_cells(&self) -> u64 {
        self.cells.iter().filter(|c| c.active).count() as u64
    }

    /// Total path changes across every cell.
    pub fn total_path_changes(&self) -> u64 {
        self.cells.iter().map(|c| c.path_changes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PortId;

    fn stamp(device: u16, site: Site, t: u64) -> IntStamp {
        IntStamp {
            device,
            site,
            enter: SimTime(t),
            exit: SimTime(t + 1),
            ctx: HopCtx::NONE,
        }
    }

    #[test]
    fn stack_bounds_and_counts_truncation() {
        let mut st = IntStack::new();
        for i in 0..(INT_MAX_HOPS as u64 + 5) {
            st.push(stamp(0, Site::Tm1, i));
        }
        assert_eq!(st.stamps.len(), INT_MAX_HOPS);
        assert_eq!(st.truncated, 5);
    }

    #[test]
    fn path_digest_tracks_route_not_conditions() {
        let mut a = IntStack::new();
        a.push(stamp(0, Site::Rx(PortId(1)), 0));
        a.push(stamp(0, Site::Tx(PortId(2)), 5));
        let mut b = IntStack::new();
        // Same route, different times and context.
        b.push(IntStamp {
            ctx: HopCtx {
                queue_depth: Some(9),
                buffer_cells: Some(100),
                epoch: Some(3),
            },
            ..stamp(0, Site::Rx(PortId(1)), 50)
        });
        b.push(stamp(0, Site::Tx(PortId(2)), 80));
        assert_eq!(a.path_digest(), b.path_digest());
        // Different route (other TX port) digests differently.
        let mut c = IntStack::new();
        c.push(stamp(0, Site::Rx(PortId(1)), 0));
        c.push(stamp(0, Site::Tx(PortId(3)), 5));
        assert_ne!(a.path_digest(), c.path_digest());
        // Different device, same sites: also a different path.
        let mut d = IntStack::new();
        d.push(stamp(1, Site::Rx(PortId(1)), 0));
        d.push(stamp(1, Site::Tx(PortId(2)), 5));
        assert_ne!(a.path_digest(), d.path_digest());
    }

    #[test]
    fn knob_env_semantics_mirror_trace() {
        std::env::set_var("ADCP_INT", "8");
        let k = IntKnob::from_env(false);
        assert!(k.on());
        assert_eq!(k.sample(), 8);
        std::env::set_var("ADCP_INT", "off");
        assert!(!IntKnob::from_env(true).on());
        std::env::set_var("ADCP_INT", "on");
        let k = IntKnob::from_env(false);
        assert!(k.on());
        assert_eq!(k.sample(), 1);
        std::env::remove_var("ADCP_INT");
        assert!(IntKnob::from_env(true).on());
        assert!(!IntKnob::from_env(false).on());
    }

    #[test]
    fn knob_sampling_matches_tracer_hash() {
        let k = IntKnob::with_sample(64);
        for id in 0..500u64 {
            assert_eq!(k.samples(id), sample_hash(id).is_multiple_of(64));
        }
        assert!(!IntKnob::disabled().samples(0));
    }

    #[test]
    fn flow_table_folds_and_detects_path_changes() {
        let mut t = IntFlowTable::new(64);
        let mut a = IntStack::new();
        a.push(IntStamp {
            ctx: HopCtx {
                queue_depth: Some(4),
                buffer_cells: None,
                epoch: None,
            },
            ..stamp(0, Site::Tm1, 1)
        });
        a.push(stamp(0, Site::Tx(PortId(0)), 2));
        assert!(!t.fold(7, &a), "first fold is never a path change");
        assert!(!t.fold(7, &a), "same route again: no change");
        let mut b = IntStack::new();
        b.push(stamp(0, Site::Tm1, 1));
        b.push(stamp(0, Site::Tx(PortId(1)), 2));
        assert!(t.fold(7, &b), "route flip must be detected");
        let c = t.cell(7);
        assert_eq!(c.path_changes, 1);
        assert_eq!(c.packets, 3);
        assert_eq!(c.max_queue_depth, 4);
        assert_eq!(c.hop_count, 2);
        assert_eq!(t.total_path_changes(), 1);
        assert_eq!(t.active_cells(), 1);
    }

    #[test]
    fn postcard_json_has_stable_shape() {
        let mut st = IntStack::new();
        st.push(IntStamp {
            ctx: HopCtx {
                queue_depth: Some(2),
                buffer_cells: Some(16),
                epoch: Some(1),
            },
            ..stamp(3, Site::Tm1, 10)
        });
        let pc = Postcard {
            device: 3,
            pkt: 42,
            flow: 7,
            port: 1,
            time: SimTime(99),
            stack: st,
        };
        let v = pc.to_json();
        assert_eq!(v.get("device").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("pkt").and_then(|x| x.as_u64()), Some(42));
        let stamps = v.get("stamps").and_then(|x| x.as_array()).unwrap();
        assert_eq!(stamps.len(), 1);
        assert_eq!(stamps[0].get("site").and_then(|x| x.as_str()), Some("tm1"));
        assert_eq!(
            stamps[0].get("queue_depth").and_then(|x| x.as_u64()),
            Some(2)
        );
        assert!(v.get("path_digest").is_some());
    }
}
