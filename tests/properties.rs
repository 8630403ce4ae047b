//! Property-based tests over the substrate and IR invariants DESIGN.md
//! commits to.
//!
//! Inputs are generated with the simulator's own deterministic [`SimRng`]
//! (the offline build cannot fetch proptest): every test draws a few hundred
//! random cases from a fixed seed, so failures reproduce exactly.

use adcp::lang::{deposit_bits, extract_bits, fold_hash, FieldDef, HeaderDef, PhvLayout};
use adcp::sim::datapath::Agenda;
use adcp::sim::event::EventQueue;
use adcp::sim::packet::{synthetic_packet, FlowId, Packet, MIN_WIRE_BYTES};
use adcp::sim::queue::{BoundedQueue, BufferPool, Held};
use adcp::sim::rng::SimRng;
use adcp::sim::sched::{Policy, ScheduledQueues};
use adcp::sim::stats::LatencyHist;
use adcp::sim::time::{Duration, Freq, SimTime};

const CASES: usize = 128;

/// Bit deposit followed by extract returns the (masked) value, for any
/// alignment that fits.
#[test]
fn deposit_extract_roundtrip() {
    let mut rng = SimRng::seed_from(0xD3B0);
    for _ in 0..CASES {
        let off = rng.range(0u32..96);
        let bits = rng.range(1u8..=64);
        let value = rng.u64();
        let mut buf = [0u8; 24]; // 192 bits, always fits off+bits
        assert!(deposit_bits(&mut buf, off, bits, value));
        let read = extract_bits(&buf, off, bits).unwrap();
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        assert_eq!(read, value & mask, "off={off} bits={bits}");
    }
}

/// Bit-serial extraction, one bit per step: the reference the word-wise
/// [`extract_bits`] is checked against.
fn ref_extract(data: &[u8], bit_off: u32, bits: u8) -> Option<u64> {
    if bit_off as u64 + bits as u64 > data.len() as u64 * 8 {
        return None;
    }
    let mut v: u64 = 0;
    for b in bit_off..bit_off + bits as u32 {
        let bit = (data[(b / 8) as usize] >> (7 - (b % 8))) & 1;
        v = (v << 1) | bit as u64;
    }
    Some(v)
}

/// Bit-serial deposit: the reference for [`deposit_bits`].
fn ref_deposit(data: &mut [u8], bit_off: u32, bits: u8, value: u64) -> bool {
    if bit_off as u64 + bits as u64 > data.len() as u64 * 8 {
        return false;
    }
    for i in 0..bits as u32 {
        let b = bit_off + i;
        let mask = 1u8 << (7 - (b % 8));
        if (value >> (bits as u32 - 1 - i)) & 1 == 1 {
            data[(b / 8) as usize] |= mask;
        } else {
            data[(b / 8) as usize] &= !mask;
        }
    }
    true
}

/// The word-wise bit access agrees with the bit-serial reference at every
/// sub-byte offset and every width, on spans inside the buffer and spans
/// ending exactly at its last bit; a span one bit past the end, or starting
/// past it, is refused by both and writes nothing.
#[test]
fn word_wise_bits_match_bit_serial() {
    let mut rng = SimRng::seed_from(0xB175);
    for lead in 0u32..=7 {
        for bits in 1u8..=64 {
            for (skip, pad) in [(0usize, 0usize), (0, 1), (1, 0), (2, 1)] {
                let len = skip + (lead + bits as u32).div_ceil(8) as usize + pad;
                let data: Vec<u8> = (0..len).map(|_| rng.range(0u8..=255)).collect();
                let end = len as u32 * 8;
                let at = [skip as u32 * 8 + lead, end - bits as u32];
                for off in at {
                    let case = format!("off={off} bits={bits} len={len}");
                    assert_eq!(
                        extract_bits(&data, off, bits),
                        ref_extract(&data, off, bits)
                    );
                    assert!(extract_bits(&data, off, bits).is_some(), "{case}");
                    let value = rng.u64();
                    let (mut got, mut want) = (data.clone(), data.clone());
                    assert!(deposit_bits(&mut got, off, bits, value), "{case}");
                    assert!(ref_deposit(&mut want, off, bits, value), "{case}");
                    assert_eq!(got, want, "{case}");
                }
                for off in [end - bits as u32 + 1, end + lead] {
                    assert_eq!(extract_bits(&data, off, bits), None);
                    assert_eq!(ref_extract(&data, off, bits), None);
                    let mut got = data.clone();
                    assert!(!deposit_bits(&mut got, off, bits, u64::MAX));
                    assert_eq!(got, data, "refused deposit wrote at off={off} bits={bits}");
                }
            }
        }
    }
}

/// Deposits to disjoint bit ranges never interfere.
#[test]
fn disjoint_deposits_independent() {
    let mut rng = SimRng::seed_from(0xD15C);
    for _ in 0..CASES {
        let a_bits = rng.range(1u8..=32);
        let b_bits = rng.range(1u8..=32);
        let a = rng.u64();
        let b = rng.u64();
        let mut buf = [0u8; 16];
        deposit_bits(&mut buf, 0, a_bits, a);
        deposit_bits(&mut buf, 64, b_bits, b);
        let a_mask = (1u64 << a_bits) - 1;
        let b_mask = (1u64 << b_bits) - 1;
        assert_eq!(extract_bits(&buf, 0, a_bits).unwrap(), a & a_mask);
        assert_eq!(extract_bits(&buf, 64, b_bits).unwrap(), b & b_mask);
    }
}

/// PHV writes mask to the declared field width.
#[test]
fn phv_masks_to_width() {
    let mut rng = SimRng::seed_from(0x9437);
    for _ in 0..CASES {
        let bits = rng.range(1u8..=63);
        let v = rng.u64();
        let headers = vec![HeaderDef::new("h", vec![FieldDef::scalar("f", bits)])];
        let layout = PhvLayout::build(&headers);
        let mut phv = layout.instantiate();
        let f = adcp::lang::FieldRef::new(adcp::lang::HeaderId(0), adcp::lang::FieldId(0));
        phv.set(&layout, f, v);
        assert!(phv.get(&layout, f) < (1u64 << bits));
        assert_eq!(phv.get(&layout, f), v & ((1u64 << bits) - 1));
    }
}

/// The event queue pops in non-decreasing time order with FIFO ties, for
/// any schedule.
#[test]
fn event_queue_ordering() {
    let mut rng = SimRng::seed_from(0xE0E0);
    for _ in 0..CASES {
        let n = rng.range(1usize..200);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime(rng.range(0u64..10_000)), i);
        }
        let mut last_t = 0u64;
        let mut seen_at_t: Vec<usize> = Vec::new();
        while let Some((t, idx)) = q.pop() {
            assert!(t.as_ps() >= last_t);
            if t.as_ps() != last_t {
                seen_at_t.clear();
                last_t = t.as_ps();
            }
            // FIFO among equal times: indices increase.
            if let Some(&prev) = seen_at_t.last() {
                assert!(idx > prev);
            }
            seen_at_t.push(idx);
        }
    }
}

/// Park `pkt` in `slab` and describe it for a TM queue, as a switch does.
fn held(slab: &mut Agenda<()>, pkt: Packet) -> Held {
    let h = slab.park(pkt);
    Held::new(slab.pkt(&h), h)
}

/// MergeOrder emits a sorted stream whenever the per-queue inputs are
/// sorted and fully backlogged (the exact-merge precondition), and each
/// departing handle still names its own packet.
#[test]
fn merge_scheduler_sorts() {
    let mut rng = SimRng::seed_from(0x3E26);
    let mut slab = Agenda::default();
    for _ in 0..CASES {
        let nstreams = rng.range(1usize..6);
        let mut s = ScheduledQueues::new(nstreams, 64, Policy::MergeOrder);
        let mut id = 0u64;
        for qi in 0..nstreams {
            let len = rng.range(0usize..20);
            let mut keys: Vec<u64> = (0..len).map(|_| rng.range(0u64..1000)).collect();
            keys.sort_unstable();
            for k in keys {
                let p = synthetic_packet(id, FlowId(qi as u64), 64).with_sort_key(k);
                s.enqueue(qi, held(&mut slab, p)).expect("room");
                id += 1;
            }
            s.mark_ended(qi);
        }
        assert!(s.merge_ready());
        let mut last = 0u64;
        while let Some((qi, p)) = s.dequeue() {
            let k = p.key.unwrap();
            assert!(k >= last, "merge out of order");
            last = k;
            let pkt = slab.take(p.h);
            assert_eq!(
                (pkt.meta.sort_key, pkt.meta.flow),
                (p.key, FlowId(qi as u64))
            );
        }
        assert_eq!(slab.parked(), 0);
    }
}

/// Queue byte accounting is exact under any push/pop interleaving.
#[test]
fn queue_byte_accounting() {
    let mut rng = SimRng::seed_from(0xACC7);
    for _ in 0..64 {
        let ops = rng.range(1usize..200);
        let mut q = BoundedQueue::new(64).with_byte_limit(20_000);
        let mut slab = Agenda::default();
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut id = 0u64;
        for _ in 0..ops {
            let push = rng.chance(0.5);
            let len = rng.range(64usize..1500);
            if push {
                let p = synthetic_packet(id, FlowId(0), len);
                id += 1;
                let expect_room =
                    model.len() < 64 && model.iter().sum::<u64>() + len as u64 <= 20_000;
                let got = q.push(held(&mut slab, p)).map_err(|p| slab.free(p.h));
                assert_eq!(got.is_ok(), expect_room);
                if got.is_ok() {
                    model.push_back(len as u64);
                }
            } else if let Some(expected) = model.pop_front() {
                let p = q.pop().unwrap();
                assert_eq!(p.bytes as u64, expected);
                assert_eq!(slab.take(p.h).frame_bytes() as u64, expected);
            } else {
                assert!(q.pop().is_none());
            }
            assert_eq!(q.bytes(), model.iter().sum::<u64>());
            assert_eq!(q.len(), model.len());
            assert_eq!(slab.parked(), model.len());
        }
    }
}

/// Buffer-pool allocation never exceeds capacity and release restores it
/// exactly.
#[test]
fn buffer_pool_accounting() {
    let mut rng = SimRng::seed_from(0xB00F);
    for _ in 0..CASES {
        let n = rng.range(1usize..100);
        let mut pool = BufferPool::new(100, 80);
        let mut held: Vec<Packet> = Vec::new();
        for i in 0..n {
            let len = rng.range(1usize..2000);
            let mut p = synthetic_packet(i as u64, FlowId(0), len);
            if pool.try_alloc(&mut p) {
                held.push(p);
            }
            assert!(pool.used() <= pool.capacity());
        }
        for mut p in held.drain(..) {
            pool.release(&mut p);
        }
        assert_eq!(pool.used(), 0);
    }
}

/// Buffer-pool invariant under the conformance fault schedule: with every
/// packet carrying its allocation token, `used == Σ outstanding tokens` at
/// every step — even when frames are rewritten (grown or shrunk) while they
/// sit in the buffer, which is exactly the alloc/release mismatch the token
/// fixes — and the pool never underflows back through zero.
#[test]
fn buffer_pool_tokens_survive_faults_and_rewrites() {
    use adcp::sim::fault::{FaultConfig, FaultInjector, FaultOutcome};

    let mut rng = SimRng::seed_from(0xFA17);
    for case in 0..CASES {
        let mut inj = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.15,
                corrupt_chance: 0.15,
                delay_chance: 0.2,
                max_delay: Duration(5_000),
            },
            SimRng::seed_from(0xFA17_0000 + case as u64),
        );
        let mut pool = BufferPool::new(4096, 80);
        let mut held: Vec<Packet> = Vec::new();
        let mut outstanding: u64 = 0;
        for i in 0..rng.range(50usize..300) {
            // Admit or drain with equal probability, faulting each arrival.
            if rng.chance(0.5) || held.is_empty() {
                let len = rng.range(MIN_WIRE_BYTES as usize..2000);
                let mut p = synthetic_packet(i as u64, FlowId(0), len);
                // A link drop never touches the pool; corrupted and
                // delayed frames still occupy buffer.
                if inj.apply(&mut p) == FaultOutcome::Dropped {
                    continue;
                }
                if pool.try_alloc(&mut p) {
                    outstanding += u64::from(p.meta.buf_cells.expect("token"));
                    held.push(p);
                }
            } else {
                let k = rng.range(0..held.len());
                let mut p = held.swap_remove(k);
                // Rewrite some frames in flight: the token, not the current
                // length, must drive the release.
                if rng.chance(0.5) {
                    let newlen = rng.range(MIN_WIRE_BYTES as usize..2500);
                    p.data = vec![0u8; newlen].into();
                }
                let token = u64::from(p.meta.buf_cells.expect("token"));
                pool.release(&mut p);
                assert!(p.meta.buf_cells.is_none(), "release must consume token");
                outstanding -= token;
            }
            assert_eq!(
                pool.used(),
                outstanding,
                "used cells diverged from outstanding tokens (case {case})"
            );
            assert!(pool.used() <= pool.capacity());
        }
        for mut p in held.drain(..) {
            pool.release(&mut p);
        }
        assert_eq!(pool.used(), 0);
    }
}

/// fold_hash spreads any key set across 4 buckets without leaving a bucket
/// empty (for reasonably sized sets).
#[test]
fn hash_partitions_cover() {
    let mut rng = SimRng::seed_from(0x4A54);
    for _ in 0..CASES {
        let target = rng.range(64usize..256);
        let mut keys = std::collections::HashSet::new();
        while keys.len() < target {
            keys.insert(rng.u64());
        }
        let mut buckets = [0u32; 4];
        for k in &keys {
            buckets[(fold_hash([*k]) % 4) as usize] += 1;
        }
        for b in buckets {
            assert!(b > 0, "empty bucket over {} keys", keys.len());
        }
    }
}

/// Latency histogram percentiles are monotone and bounded by min/max.
#[test]
fn histogram_percentiles_monotone() {
    let mut rng = SimRng::seed_from(0x4157);
    for _ in 0..CASES {
        let n = rng.range(1usize..300);
        let mut h = LatencyHist::new();
        for _ in 0..n {
            h.record(Duration(rng.range(1u64..1_000_000)));
        }
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut last = 0;
        for q in qs {
            let p = h.percentile_ps(q);
            assert!(p >= last);
            last = p;
        }
        // Bucket low-edge rounding can undershoot the true min slightly,
        // never overshoot the max.
        assert!(h.percentile_ps(1.0) <= h.max_ps());
    }
}

/// Histogram percentiles agree with a sorted-sample oracle to within one
/// log-linear bucket (width ≤ value/64), across several sample shapes.
/// This is the regression property for the midpoint fix: the old
/// lower-edge answer sat a whole bucket below the oracle systematically;
/// the midpoint can only miss by half a bucket plus clamping.
#[test]
fn histogram_percentiles_match_sorted_oracle() {
    let mut rng = SimRng::seed_from(0x0AC1);
    for case in 0..CASES {
        let n = rng.range(1usize..500);
        // Draw from one of four shapes per case: uniform, log-uniform
        // (heavy tail), constant, and bimodal.
        let shape = case % 4;
        let samples: Vec<u64> = (0..n)
            .map(|_| match shape {
                0 => rng.range(1u64..1_000_000),
                1 => {
                    let mag = rng.range(0u32..40);
                    rng.range(1u64..2 << mag)
                }
                2 => 777_777,
                _ => {
                    if rng.chance(0.5) {
                        rng.range(1u64..1_000)
                    } else {
                        rng.range(1_000_000u64..2_000_000)
                    }
                }
            })
            .collect();
        let mut h = LatencyHist::new();
        for &s in &samples {
            h.record(Duration(s));
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            // The histogram's rank rule: smallest value with at least
            // ceil(q·n) samples at or below it.
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let oracle = sorted[rank - 1];
            let p = h.percentile_ps(q);
            let hi = h.percentile_upper_ps(q);
            // One sub-bucket of slack: width ≤ value/64 + 1.
            let w = oracle / 64 + 1;
            assert!(
                p >= oracle.saturating_sub(w) && p <= oracle + w,
                "case {case} q={q}: midpoint {p} vs oracle {oracle} (±{w})"
            );
            assert!(
                hi >= oracle && hi <= oracle + w,
                "case {case} q={q}: upper bound {hi} vs oracle {oracle}"
            );
            assert!(p <= hi, "midpoint above upper bound");
        }
        // Constant distributions must come back exact, not bucket-rounded.
        if shape == 2 {
            assert_eq!(h.percentile_ps(0.5), 777_777);
            assert_eq!(h.percentile_ps(0.99), 777_777);
        }
    }
}

/// Frequency/period conversion round-trips within rounding error.
#[test]
fn freq_period_roundtrip() {
    let mut rng = SimRng::seed_from(0xF2E0);
    for _ in 0..CASES {
        let khz = rng.range(100_000u64..5_000_000);
        let f = Freq::from_khz(khz);
        let period = f.period().as_ps();
        let back = 1_000_000_000.0 / period as f64; // kHz
        let err = (back - khz as f64).abs() / khz as f64;
        // The period is quantized to integer picoseconds: the relative
        // error bound is half a picosecond over the period.
        let bound = 0.5 / period as f64 + 1e-9;
        assert!(err <= bound, "err = {err}, bound = {bound}");
    }
}

/// Random header layouts: parse → deparse reproduces the header bytes
/// exactly (the end of each pipeline is a lossless re-serialization).
mod parse_roundtrip {
    use super::*;
    use adcp::lang::{
        FieldId, FieldRef, HeaderId, PacketCodec, ParseError, ParseOutcome, ParserSpec,
        ParserState, Phv, ProgramBuilder, StateId, Transition,
    };
    use adcp::sim::packet::FrameBuf;

    fn arb_header(rng: &mut SimRng, max_count: u16) -> HeaderDef {
        let nfields = rng.range(1usize..5);
        let mut fs: Vec<FieldDef> = (0..nfields)
            .map(|i| {
                let bits = rng.range(1u8..=64);
                let count = rng.range(1u16..=max_count);
                if count > 1 {
                    FieldDef::array(format!("f{i}"), bits, count)
                } else {
                    FieldDef::scalar(format!("f{i}"), bits)
                }
            })
            .collect();
        // Pad to byte alignment so the header is parseable.
        let total: u32 = fs.iter().map(|f| f.total_bits()).sum();
        let pad = (8 - (total % 8)) % 8;
        if pad > 0 {
            fs.push(FieldDef::scalar("pad", pad as u8));
        }
        HeaderDef::new("h", fs)
    }

    #[test]
    fn parse_then_deparse_is_identity() {
        let mut rng = SimRng::seed_from(0x9A25);
        let mut tried = 0;
        while tried < CASES {
            let headers = vec![arb_header(&mut rng, 4)];
            let layout = PhvLayout::build(&headers);
            let spec = ParserSpec::single(HeaderId(0));
            let need = headers[0].total_bytes() as usize;
            let avail = rng.range(64usize..96);
            if need > avail {
                continue; // header doesn't fit the drawn buffer; redraw
            }
            tried += 1;
            let mut data: Vec<u8> = (0..need).map(|_| rng.range(0u8..=255)).collect();
            let payload_len = rng.range(0usize..64);
            data.extend((0..payload_len).map(|_| rng.range(0u8..=255)));
            let out = spec.parse(&headers, &layout, &data).unwrap();
            let rebuilt = adcp::lang::deparse(
                &headers,
                &layout,
                &out.phv,
                &out.extracted,
                &data[out.consumed..],
            );
            assert_eq!(rebuilt, data);
        }
    }

    /// The switches' deparser patches the fields a pipeline wrote into the
    /// packet's own buffer; `adcp::lang::deparse` rebuilds the whole frame.
    /// Same bytes for any header shape (arrays up to 33 wide), any subset of
    /// fields written, any values (wider than the field: masked) — for an
    /// owned frame and for a shared multicast copy, whose sibling must not
    /// see the write. Nothing written: no byte moves and no buffer changes.
    #[test]
    fn writeback_in_place_matches_rebuild() {
        let mut rng = SimRng::seed_from(0x1B17);
        for case in 0..CASES {
            let mut b = ProgramBuilder::new("p");
            let h = b.header(arb_header(&mut rng, 33));
            b.parser(ParserSpec::single(h));
            let mut codec = PacketCodec::new(b.build());
            let fields = codec.program.headers[0].fields.clone();
            let len = codec.program.headers[0].total_bytes() as usize + rng.range(0usize..64);
            let data: Vec<u8> = (0..len).map(|_| rng.range(0u8..=255)).collect();
            let mut writes = Vec::new();
            for (fi, f) in fields.iter().enumerate() {
                if case % 4 != 0 && rng.range(0u8..2) == 1 {
                    let field = FieldRef::new(h, FieldId(fi as u16));
                    for _ in 0..rng.range(1u16..=f.count) {
                        writes.push((field, rng.range(0..f.count) as usize, rng.u64()));
                    }
                }
            }
            for shared in [false, true] {
                let mut pkt = Packet::new(1, FlowId(1), data.clone());
                if shared {
                    pkt.data.make_shared();
                }
                let sibling = pkt.clone();
                let buf = pkt.data.as_ptr();
                assert_eq!(codec.parse(&pkt), Ok(1));
                for &(f, e, v) in &writes {
                    codec.phv.set_elem(&codec.layout, f, e, v);
                }
                let (headers, layout) = (&codec.program.headers, &codec.layout);
                let payload = &data[headers[0].total_bytes() as usize..];
                let want = adcp::lang::deparse(headers, layout, &codec.phv, &[h], payload);
                codec.deparse(&mut pkt);
                assert_eq!(&pkt.data[..], &want[..], "case {case} shared={shared}");
                assert_eq!(&sibling.data[..], &data[..], "sibling copy written");
                let still_shared = matches!(pkt.data, FrameBuf::Shared(_));
                if writes.is_empty() {
                    assert_eq!(&pkt.data[..], &data[..]);
                    assert_eq!(still_shared, shared);
                } else {
                    assert!(!still_shared, "a written frame owns its bytes");
                }
                // In place: only a shared frame that was written moves.
                let moved = pkt.data.as_ptr() != buf;
                assert_eq!(moved, shared && !writes.is_empty(), "case {case}");
            }
        }
    }

    /// The parse loop the extraction plan replaced, kept as its reference:
    /// every element of every field placed by `bit_offset`, read bit by
    /// bit and stored through `set_elem`; the dirty set is emptied at
    /// accept unless a header was extracted twice.
    fn ref_parse(
        spec: &ParserSpec,
        headers: &[HeaderDef],
        layout: &PhvLayout,
        data: &[u8],
    ) -> Result<ParseOutcome, ParseError> {
        let mut phv = layout.instantiate();
        let mut extracted = Vec::new();
        let (mut offset, mut state, mut depth, mut repeated) = (0usize, StateId(0), 0u32, false);
        loop {
            depth += 1;
            if depth > spec.states.len() as u32 {
                return Err(ParseError::DepthExceeded);
            }
            let st = &spec.states[state.0 as usize];
            repeated |= phv.is_valid(st.extracts);
            let hdr = &headers[st.extracts.0 as usize];
            let needed = hdr.total_bytes() as usize;
            if offset + needed > data.len() {
                let available = data.len().saturating_sub(offset);
                return Err(ParseError::Truncated {
                    state,
                    available,
                    needed,
                });
            }
            for (fi, f) in hdr.fields.iter().enumerate() {
                let fid = FieldId(fi as u16);
                for e in 0..f.count {
                    let off = offset as u32 * 8 + hdr.bit_offset(fid, e);
                    let v = ref_extract(data, off, f.bits).expect("bounds checked above");
                    phv.set_elem(layout, FieldRef::new(st.extracts, fid), e as usize, v);
                }
            }
            phv.set_valid(st.extracts);
            extracted.push(st.extracts);
            offset += needed;
            state = match &st.transition {
                Transition::Accept => {
                    if !repeated {
                        phv.clear_dirty();
                    }
                    let consumed = offset;
                    return Ok(ParseOutcome {
                        phv,
                        consumed,
                        depth,
                        extracted,
                    });
                }
                Transition::Goto(next) => *next,
                Transition::Select {
                    field,
                    cases,
                    default,
                } => {
                    let value = phv.get(layout, FieldRef::new(st.extracts, *field));
                    match cases.iter().find(|(cv, _)| *cv == value) {
                        Some((_, next)) => *next,
                        None => default.ok_or(ParseError::NoTransition { state, value })?,
                    }
                }
            };
        }
    }

    /// A random parse graph over `headers`: mostly forward edges (so most
    /// graphs accept), some backward ones (loops, repeated headers), and
    /// selects on any field of the state's header with small case values.
    fn arb_graph(rng: &mut SimRng, headers: &[HeaderDef]) -> ParserSpec {
        let n = rng.range(1usize..=6);
        let states = (0..n)
            .map(|i| {
                let extracts = HeaderId(rng.range(0..headers.len()) as u16);
                let target = |rng: &mut SimRng| {
                    let lo = if i + 1 < n && rng.chance(0.8) {
                        i + 1
                    } else {
                        0
                    };
                    StateId(rng.range(lo..n) as u16)
                };
                let transition = match rng.range(0u8..4) {
                    _ if i + 1 == n && rng.chance(0.7) => Transition::Accept,
                    0 => Transition::Accept,
                    1 => Transition::Goto(target(rng)),
                    _ => Transition::Select {
                        field: FieldId(
                            rng.range(0..headers[extracts.0 as usize].fields.len()) as u16
                        ),
                        cases: (0..rng.range(1usize..=3))
                            .map(|_| (rng.range(0u64..3), target(rng)))
                            .collect(),
                        default: rng.chance(0.5).then(|| target(rng)),
                    },
                };
                ParserState {
                    extracts,
                    transition,
                }
            })
            .collect();
        ParserSpec { states }
    }

    /// The planned parse gives the reference loop's outcome — PHV,
    /// `consumed`, `depth`, `extracted` and dirty set — or its error, on
    /// multi-state graphs (selects, gotos, repeated headers, loops) over
    /// 1–3 random headers with 1–64-bit fields and 1–33-wide arrays, on
    /// whole and truncated frames, recycling a dirty scratch PHV of another
    /// layout every time.
    #[test]
    fn planned_parse_matches_reference_loop() {
        let mut rng = SimRng::seed_from(0x9A27);
        let mut scratch = (Phv::empty(), Vec::new());
        // accepted, accepted with a repeated header, truncated, no
        // transition, depth exceeded
        let mut seen = [0usize; 5];
        for case in 0..CASES * 4 {
            let nheaders = rng.range(1usize..=3);
            let headers: Vec<HeaderDef> = (0..nheaders).map(|_| arb_header(&mut rng, 33)).collect();
            let layout = PhvLayout::build(&headers);
            let spec = arb_graph(&mut rng, &headers);
            let max: usize = (spec.states.iter())
                .map(|s| headers[s.extracts.0 as usize].total_bytes() as usize)
                .sum();
            let len = if rng.chance(0.25) {
                rng.range(0..=max)
            } else {
                max + rng.range(0usize..8)
            };
            // Half the frames are all 0/1 bytes, so selects often match.
            let top = if case % 2 == 0 { 1 } else { 255 };
            let data: Vec<u8> = (0..len).map(|_| rng.range(0u8..=top)).collect();
            let want = ref_parse(&spec, &headers, &layout, &data);
            let got = spec.parse_reusing(&headers, &layout, &data, scratch.0, scratch.1);
            scratch = (Phv::empty(), Vec::new());
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    let shape = |o: &ParseOutcome| (o.consumed, o.depth, o.extracted.clone());
                    assert_eq!(shape(&got), shape(&want), "case {case}");
                    assert_eq!(got.phv, want.phv, "case {case}");
                    for (hi, h) in headers.iter().enumerate() {
                        for fi in 0..h.fields.len() {
                            let f = FieldRef::new(HeaderId(hi as u16), FieldId(fi as u16));
                            let dirty = |o: &ParseOutcome| o.phv.written(&layout, f).is_some();
                            assert_eq!(dirty(&got), dirty(&want), "case {case}: dirty {f}");
                        }
                    }
                    let mut sorted = got.extracted.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    seen[if sorted.len() < got.extracted.len() {
                        1
                    } else {
                        0
                    }] += 1;
                    // Hand the next parse a dirty scratch.
                    let mut phv = got.phv;
                    phv.set(&layout, FieldRef::new(got.extracted[0], FieldId(0)), 1);
                    scratch = (phv, got.extracted);
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "case {case}");
                    seen[match got {
                        ParseError::Truncated { .. } => 2,
                        ParseError::NoTransition { .. } => 3,
                        ParseError::DepthExceeded => 4,
                    }] += 1;
                }
                (got, want) => panic!("case {case}: planned {got:?}, reference {want:?}"),
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every outcome reached: {seen:?}"
        );
    }
}
