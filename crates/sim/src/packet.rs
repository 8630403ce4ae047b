//! Packets, flows, and coflows.
//!
//! A [`Packet`] is a byte buffer plus simulation metadata. The byte buffer is
//! what parsers (in `adcp-lang`) extract header fields from; the metadata is
//! simulation bookkeeping: identity, flow/coflow membership, timestamps, and
//! the forwarding decision the switch has made so far.
//!
//! Coflows follow Chowdhury & Stoica's definition (the paper's reference
//! [6]): a set of flows that belong to one application-level exchange and
//! complete together. The paper's core argument is that switches should
//! process *coflows*, not independent flows, so coflow identity is first
//! class here.

use std::fmt;
use std::sync::Arc;

use crate::time::SimTime;

/// Ethernet framing overhead on the wire: 7 B preamble + 1 B SFD + 12 B
/// inter-frame gap. This is why the paper's Table 2 lists the minimum
/// 10 Gbps packet as 84 B: a 64 B minimum frame plus this 20 B overhead.
pub const WIRE_OVERHEAD_BYTES: u32 = 20;

/// Minimum Ethernet frame size (without wire overhead).
pub const MIN_FRAME_BYTES: u32 = 64;

/// Minimum on-wire footprint of any packet: 64 + 20 = 84 B.
pub const MIN_WIRE_BYTES: u32 = MIN_FRAME_BYTES + WIRE_OVERHEAD_BYTES;

/// Identifies a physical switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a flow (5-tuple stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifies a coflow: a set of flows that form one application exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoflowId(pub u32);

/// The forwarding decision attached to a packet as it moves through a switch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EgressSpec {
    /// No decision yet (packet still in ingress processing).
    #[default]
    Unset,
    /// Forward to one TX port.
    Unicast(PortId),
    /// Replicate to several TX ports (the ADCP TM2 supports this natively;
    /// the parameter-server example uses it to broadcast aggregated weights).
    Multicast(Vec<PortId>),
    /// Drop the packet (filtered, or resource exhaustion).
    Drop,
    /// Send the packet back through the ingress pipeline (the RMT workaround
    /// the paper calls out as having "a great bandwidth and application
    /// complexity cost").
    Recirculate,
}

impl EgressSpec {
    /// Ports this spec will transmit on (empty for non-transmitting specs).
    pub fn ports(&self) -> &[PortId] {
        match self {
            EgressSpec::Unicast(p) => std::slice::from_ref(p),
            EgressSpec::Multicast(ps) => ps,
            _ => &[],
        }
    }
}

/// Simulation metadata carried alongside the packet bytes.
#[derive(Debug, Clone)]
pub struct PacketMeta {
    /// Unique packet id (assigned by the source).
    pub id: u64,
    /// Flow membership.
    pub flow: FlowId,
    /// Coflow membership, if the packet belongs to a coordinated exchange.
    pub coflow: Option<CoflowId>,
    /// RX port the switch received the packet on.
    pub ingress_port: Option<PortId>,
    /// Time the packet was created at its source.
    pub created: SimTime,
    /// Time the packet finished arriving at the switch.
    pub arrived: SimTime,
    /// Forwarding decision so far.
    pub egress: EgressSpec,
    /// Sort key for order-preserving merge scheduling (§3.1: the first TM
    /// "could keep a sort order while it merges flows that are themselves
    /// sorted").
    pub sort_key: Option<u64>,
    /// Number of recirculation passes this packet has taken (RMT only).
    pub recirc_count: u8,
    /// Switch-internal: this packet asked for another ingress pass.
    pub recirculate: bool,
    /// Switch-internal: central pipeline chosen by the program (ADCP) or
    /// the pipe hosting the coflow state (RMT recirculation).
    pub central_pipe: Option<u32>,
    /// Application data elements carried (keys/weights/rows) — the §3.2
    /// unit of switch performance.
    pub elements: u32,
    /// Bytes of application payload (goodput accounting); headers and
    /// padding are excluded.
    pub goodput_bytes: u32,
    /// Frame check sequence stamped by the sender over `data` (the FCS
    /// stand-in: real NICs append a CRC32; the simulator uses the 64-bit
    /// word-wise [`frame_check`]). `None` means the source did not seal
    /// the frame, and switches skip the integrity check — legacy workloads
    /// keep working. Fault-injected bit flips leave the stamp stale, which
    /// is exactly how switches detect and discard corrupted frames.
    pub fcs: Option<u64>,
    /// Buffer-pool allocation token: the cell count charged when this packet
    /// was admitted to a traffic manager. Release must return exactly this
    /// many cells — recomputing from the frame length at release time drifts
    /// whenever the frame was rewritten (deparse writeback, header grow or
    /// shrink) while buffered. `None` when the packet holds no cells.
    pub buf_cells: Option<u32>,
    /// Time the packet was admitted to the traffic manager it currently sits
    /// in (or last sat in). Used for TM-residency stage spans.
    pub tm_enqueued: SimTime,
    /// Queue depth (packets across the TM's queues, this one included)
    /// observed when the packet was admitted. Carried so the journey
    /// tracer can attach enqueue-time context to the TM-residency hop it
    /// records at dequeue. `None` while not TM-resident.
    pub tm_q_depth: Option<u32>,
    /// Buffer-pool occupancy (cells, this packet's included) observed when
    /// the packet was admitted to the traffic manager.
    pub tm_buf_used: Option<u64>,
    /// Switch-internal (ADCP): the partition-map bucket TM1 routed this
    /// packet under. Drives the in-flight fence of the live-migration
    /// protocol. `None` until TM1 routes the packet, or when no partition
    /// map is installed.
    pub part_bucket: Option<u32>,
    /// Switch-internal (ADCP): the partition-map epoch in force when TM1
    /// routed this packet. Epoch-tagging is what guarantees no packet ever
    /// observes a half-applied map: a central pipe can always tell whether
    /// a dequeued packet was routed under the previous map.
    pub map_epoch: Option<u64>,
    /// In-band telemetry header region: the bounded stack of per-hop
    /// stamps the datapath has written onto this packet so far. `None`
    /// (8 bytes, no allocation) for unstamped packets — see
    /// [`crate::int`] for why the stack rides metadata rather than frame
    /// bytes.
    pub int: Option<Box<crate::int::IntStack>>,
}

impl PacketMeta {
    fn new(id: u64, flow: FlowId) -> Self {
        PacketMeta {
            id,
            flow,
            coflow: None,
            ingress_port: None,
            created: SimTime::ZERO,
            arrived: SimTime::ZERO,
            egress: EgressSpec::Unset,
            sort_key: None,
            recirc_count: 0,
            recirculate: false,
            central_pipe: None,
            elements: 0,
            goodput_bytes: 0,
            fcs: None,
            buf_cells: None,
            tm_enqueued: SimTime::ZERO,
            tm_q_depth: None,
            tm_buf_used: None,
            part_bucket: None,
            map_epoch: None,
            int: None,
        }
    }
}

/// Compute the frame check sequence over frame bytes: a length-seeded,
/// word-wise fold `h ← (h ⊕ w)·P` over the frame's little-endian 8-byte
/// words, the last one zero-padded (FNV's offset basis and prime).
///
/// It only has to make a damaged frame disagree with its stamp, and it
/// does so with certainty for any damage confined to one word, which
/// includes every single-bit flip a `FaultInjector` makes: each step is
/// injective in `w` for a given `h`, and a bijection in `h` for a given
/// `w` (xor, then a multiply by an odd `P` modulo 2⁶⁴), so two equal-length
/// frames that differ in one word fold to different values from that word
/// on. The length seed does the same for frames that pad to the same words
/// but differ in length (a zero byte appended or cut inside the last
/// word), where the two folds start apart and stay apart. One multiply per
/// 8 bytes where FNV-1a made one per byte; the check runs at the source
/// seal, at RX and at the TX re-seal of every packet.
pub fn frame_check(data: &[u8]) -> u64 {
    const P: u64 = 0x0000_0100_0000_01B3;
    let fold = |h: u64, w: [u8; 8]| (h ^ u64::from_le_bytes(w)).wrapping_mul(P);
    let mut words = data.chunks_exact(8);
    let mut h = 0xCBF2_9CE4_8422_2325 ^ data.len() as u64;
    for w in &mut words {
        h = fold(h, w.try_into().expect("chunks_exact yields 8 bytes"));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = fold(h, w);
    }
    h
}

/// Frame bytes of one packet: either an exclusively-owned buffer or a
/// shared immutable one.
///
/// The hot path — deparse writeback at the end of every pipeline traversal
/// — patches the fields the pipeline wrote into an *owned* `Vec<u8>` in
/// place. The multicast path wants *shared* bytes so replicating a packet
/// to `n` ports bumps a refcount `n` times instead of copying the frame `n`
/// times. This enum gives each path its shape: buffers start `Owned`,
/// [`FrameBuf::make_shared`] converts once before a fan-out, clones of a
/// `Shared` buffer stay cheap, and [`FrameBuf::make_mut`] gives a copy its
/// own bytes back the first time a pipeline writes to it.
#[derive(Debug, Clone)]
pub enum FrameBuf {
    /// Exclusively owned, mutable in place, recyclable.
    Owned(Vec<u8>),
    /// Refcounted immutable bytes (multicast copies, long-lived captures).
    Shared(Arc<[u8]>),
}

impl FrameBuf {
    /// Convert to the shared representation in place (idempotent; one
    /// allocation + copy when currently owned) so that subsequent clones
    /// are refcount bumps.
    pub fn make_shared(&mut self) {
        if let FrameBuf::Owned(v) = self {
            *self = FrameBuf::Shared(std::mem::take(v).into());
        }
    }

    /// The bytes, writable in place. Copy-on-write: a shared frame becomes
    /// an owned copy first (one allocation + copy, so that the sibling
    /// clones never see the write); an owned one is handed out as is.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if let FrameBuf::Shared(a) = self {
            *self = FrameBuf::Owned(a.to_vec());
        }
        match self {
            FrameBuf::Owned(v) => v,
            FrameBuf::Shared(_) => unreachable!("made owned above"),
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            FrameBuf::Owned(v) => v,
            FrameBuf::Shared(a) => a,
        }
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> Self {
        FrameBuf::Owned(v)
    }
}

impl From<Arc<[u8]>> for FrameBuf {
    fn from(a: Arc<[u8]>) -> Self {
        FrameBuf::Shared(a)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(s: &[u8]) -> Self {
        FrameBuf::Owned(s.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for FrameBuf {
    fn from(a: [u8; N]) -> Self {
        FrameBuf::Owned(a.to_vec())
    }
}

/// Recycling arena for frame buffers.
///
/// Nothing on the run path uses one: writeback patches a frame in its own
/// buffer, so there is no per-pass buffer to hand out or take back. Like
/// `adcp_lang::deparse_into`, it stays `pub` only because the frozen
/// `benchmark/src/probes.rs` spells it (`sim.store_ns_per_frame`); both go
/// with the probe at the next `benchmark` PR.
#[derive(Debug, Default)]
pub struct PacketStore {
    free: Vec<Vec<u8>>,
}

/// Free-list depth cap: past this the arena stops hoarding.
const STORE_MAX_FREE: usize = 4096;

impl PacketStore {
    /// Fresh empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get an empty buffer, reusing a recycled one when available.
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the free list (cleared, capacity kept).
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < STORE_MAX_FREE && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// A simulated packet: bytes plus metadata.
///
/// The payload is a [`FrameBuf`]: owned along the straight-line pipeline
/// path (so deparse writeback can patch it in place), converted to shared
/// refcounted bytes once when a multicast fan-out is about to clone it.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Frame contents (headers followed by payload).
    pub data: FrameBuf,
    /// Simulation bookkeeping.
    pub meta: PacketMeta,
}

impl Packet {
    /// Build a packet from raw bytes.
    pub fn new(id: u64, flow: FlowId, data: impl Into<FrameBuf>) -> Self {
        Packet {
            data: data.into(),
            meta: PacketMeta::new(id, flow),
        }
    }

    /// Builder-style: set coflow membership.
    pub fn with_coflow(mut self, c: CoflowId) -> Self {
        self.meta.coflow = Some(c);
        self
    }

    /// Builder-style: set creation timestamp.
    pub fn with_created(mut self, t: SimTime) -> Self {
        self.meta.created = t;
        self
    }

    /// Builder-style: set sort key for merge scheduling.
    pub fn with_sort_key(mut self, k: u64) -> Self {
        self.meta.sort_key = Some(k);
        self
    }

    /// Builder-style: set goodput byte count.
    pub fn with_goodput(mut self, bytes: u32) -> Self {
        self.meta.goodput_bytes = bytes;
        self
    }

    /// Builder-style: set the carried data-element count.
    pub fn with_elements(mut self, n: u32) -> Self {
        self.meta.elements = n;
        self
    }

    /// Builder-style: stamp the frame check sequence over the current
    /// frame bytes. Switch models verify sealed frames on injection and
    /// discard mismatches (counted as `fcs_drops`) before any table or
    /// register state can be touched.
    pub fn seal(mut self) -> Self {
        self.reseal();
        self
    }

    /// Re-stamp the frame check sequence after a legitimate in-switch
    /// rewrite (deparse writeback changes the bytes on purpose; the
    /// transmitting switch re-seals like a NIC recomputing the CRC).
    pub fn reseal(&mut self) {
        self.meta.fcs = Some(frame_check(&self.data));
    }

    /// Does the frame pass its integrity check? Unsealed frames
    /// (`fcs: None`) vacuously pass — the check is opt-in per source.
    pub fn fcs_ok(&self) -> bool {
        match self.meta.fcs {
            Some(stamp) => frame_check(&self.data) == stamp,
            None => true,
        }
    }

    /// Frame length in bytes (as stored; below-minimum frames are padded on
    /// the wire but not in the buffer).
    pub fn frame_bytes(&self) -> u32 {
        self.data.len() as u32
    }

    /// On-wire footprint: frame length padded to the Ethernet minimum, plus
    /// preamble and inter-frame gap. This is the size that determines
    /// serialization delay and the packet rates in the paper's Table 2.
    pub fn wire_bytes(&self) -> u32 {
        self.frame_bytes().max(MIN_FRAME_BYTES) + WIRE_OVERHEAD_BYTES
    }

    /// Bits on the wire.
    pub fn wire_bits(&self) -> u64 {
        self.wire_bytes() as u64 * 8
    }
}

/// Convenience constructor for test/synthetic packets of a given size.
pub fn synthetic_packet(id: u64, flow: FlowId, frame_len: usize) -> Packet {
    let mut buf = vec![0u8; frame_len];
    // Stamp the id into the first bytes so that corrupt/reorder faults are
    // observable in tests.
    let stamp = id.to_be_bytes();
    let n = stamp.len().min(frame_len);
    buf[..n].copy_from_slice(&stamp[..n]);
    Packet::new(id, flow, buf)
}

/// Maximum packet rate (packets per second) of a link, given its rate in
/// gigabits per second and the assumed minimum on-wire packet size in bytes.
///
/// This is the arithmetic behind the paper's scalability argument (§2 issue
/// ③): `64 × 10 Gbps` ports at 84 B minimum packets generate
/// `640e9 / (84 × 8) ≈ 952 Mpps`, hence the original RMT's ~1 GHz pipeline.
pub fn max_packet_rate_pps(gbps: f64, min_wire_bytes: u32) -> f64 {
    (gbps * 1e9) / (min_wire_bytes as f64 * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_includes_overhead_and_padding() {
        let p = synthetic_packet(1, FlowId(1), 64);
        assert_eq!(p.wire_bytes(), 84);
        let tiny = synthetic_packet(2, FlowId(1), 10);
        assert_eq!(tiny.wire_bytes(), 84, "padded to minimum frame");
        let big = synthetic_packet(3, FlowId(1), 1500);
        assert_eq!(big.wire_bytes(), 1520);
    }

    #[test]
    fn packet_rate_matches_paper_examples() {
        // §2 ③: "64x 10 Gbps ... around 952 Mpps".
        let pps = max_packet_rate_pps(640.0, 84);
        assert!((pps / 1e6 - 952.38).abs() < 0.5, "pps = {pps}");
        // "64x 100 Gbps ports can generate just about 9.5 Bpps".
        let pps = max_packet_rate_pps(6400.0, 84);
        assert!((pps / 1e9 - 9.52).abs() < 0.05, "pps = {pps}");
        // §3.3: "1.6 Tbps ... around 2.38 Bpps using the smallest packet".
        let pps = max_packet_rate_pps(1600.0, 84);
        assert!((pps / 1e9 - 2.38).abs() < 0.01, "pps = {pps}");
    }

    #[test]
    fn egress_spec_ports() {
        assert!(EgressSpec::Unset.ports().is_empty());
        assert!(EgressSpec::Drop.ports().is_empty());
        assert_eq!(EgressSpec::Unicast(PortId(3)).ports(), &[PortId(3)]);
        let m = EgressSpec::Multicast(vec![PortId(1), PortId(2)]);
        assert_eq!(m.ports().len(), 2);
    }

    #[test]
    fn fcs_seal_check_and_reseal() {
        let p = synthetic_packet(5, FlowId(2), 96);
        assert!(p.fcs_ok(), "unsealed frames pass vacuously");
        assert_eq!(p.meta.fcs, None);

        let sealed = p.seal();
        assert!(sealed.fcs_ok());

        // A single flipped bit must be detected.
        let mut corrupted = sealed.clone();
        let mut buf = corrupted.data.to_vec();
        buf[40] ^= 0x01;
        corrupted.data = buf.into();
        assert!(!corrupted.fcs_ok());

        // Resealing blesses the new bytes (the deparse-writeback path).
        corrupted.reseal();
        assert!(corrupted.fcs_ok());
    }

    /// A frame of `len` bytes: all zero (the hardest case for zero
    /// extension) or a byte pattern with no zero word.
    fn frame(len: usize, zero: bool) -> Vec<u8> {
        let byte = |i: usize| (i as u8).wrapping_mul(37) | 1;
        (0..len).map(|i| if zero { 0 } else { byte(i) }).collect()
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for len in 0..=136 {
            for zero in [false, true] {
                let mut f = frame(len, zero);
                let stamp = frame_check(&f);
                for bit in 0..len * 8 {
                    f[bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(frame_check(&f), stamp, "len {len}, bit {bit}");
                    f[bit / 8] ^= 1 << (bit % 8);
                }
            }
        }
    }

    #[test]
    fn zero_extension_and_truncation_are_detected() {
        for len in 0..=136 {
            for zero in [false, true] {
                let f = frame(len, zero);
                let stamp = frame_check(&f);
                for k in 1..=8 {
                    let mut longer = f.clone();
                    longer.resize(len + k, 0);
                    assert_ne!(frame_check(&longer), stamp, "len {len} + {k}");
                    if k <= len {
                        assert_ne!(frame_check(&f[..len - k]), stamp, "len {len} - {k}");
                    }
                }
            }
        }
    }

    /// The sampling hash picks traced and INT-stamped packets, so it is
    /// pinned to the values it had when it was the frame check itself
    /// (byte-serial FNV-1a over the id's little-endian bytes).
    #[test]
    fn sample_hash_is_pinned() {
        use crate::trace::sample_hash;
        let pinned = [
            (0, 0xA8C7_F832_281A_39C5),
            (1, 0x89CD_3129_1D2A_EFA4),
            (63, 0x5401_6ACE_AFD2_0A5A),
            (64, 0x6779_BA74_E3EC_C205),
            (1 << 32, 0x08CD_4C29_D1E4_7D34),
            (u64::MAX, 0x8CF5_1A8B_FCA3_883D),
        ];
        for (id, h) in pinned {
            assert_eq!(sample_hash(id), h, "id {id}");
        }
    }

    #[test]
    fn builder_sets_meta() {
        let p = synthetic_packet(9, FlowId(4), 128)
            .with_coflow(CoflowId(7))
            .with_created(SimTime::from_ns(5))
            .with_sort_key(44)
            .with_goodput(100);
        assert_eq!(p.meta.coflow, Some(CoflowId(7)));
        assert_eq!(p.meta.created, SimTime::from_ns(5));
        assert_eq!(p.meta.sort_key, Some(44));
        assert_eq!(p.meta.goodput_bytes, 100);
        assert_eq!(&p.data[..8], &9u64.to_be_bytes());
    }
}
