//! The checks: what a device must look like after a run, what the INT
//! stamps must say, what the fault schedule must add up to, and the
//! comparison of a row's [`Outcome`] against the reference.

use std::collections::BTreeMap;

use adcp_sim::datapath::{Delivered, Shell};
use adcp_sim::int::Postcard;
use adcp_sim::packet::Packet;
use adcp_sim::telemetry::Collector;
use adcp_sim::trace::{Hop, Site};

use super::gen::PreparedPacket;
use super::reference::Outcome;

/// The [`Outcome`] fields a row is held to the reference on. Frames,
/// filtered and FCS counts and register state are what conformance means,
/// so every row answers for them; the rest is per row.
#[derive(Clone, Copy)]
pub(super) struct Mask {
    /// Compare `lookups` / `hits`.
    pub(super) mat: bool,
}

impl Mask {
    /// Every field.
    pub(super) const ALL: Mask = Mask { mat: true };
}

/// What any one device — a switch on its own, or a leaf or spine of a
/// fabric — must look like once its run is idle: the journey tracer's
/// forensic drop aggregation equals the exported drop counters (through
/// the exporter/cross-check path `adcp trace --forensics` uses; exact at
/// any sampling rate, and skipped when `ADCP_TRACE=off` / `ADCP_METRICS=off`
/// leave nothing to check), nothing fell through parsing, forwarding or
/// the TMs, nothing was replicated, and every packet that entered is
/// delivered or in a counted drop class.
pub(super) fn check_device(name: &str, sw: &Shell) -> Result<(), String> {
    // The drop classes forensics reads are all the shell's: no target tail.
    if let Some(f) = crate::journey::forensics(&sw.trace_json(), &sw.metrics_json(&[], &[])) {
        if !f.ok() {
            return Err(format!(
                "{name}: drop forensics disagree with the exported counters: {}",
                f.mismatches.join("; ")
            ));
        }
    }
    let c = &sw.counters;
    for (n, what) in [
        (c.parse_errors, "unexpected parse errors"),
        (
            c.tm[0].total() + c.tm[1].total(),
            "unexpected TM/queue drops",
        ),
        (c.mcast_copies, "unexpected multicast copies"),
    ] {
        if n != 0 {
            return Err(format!("{name}: {n} {what}"));
        }
    }
    if c.no_decision != 0 || c.bad_port != 0 {
        return Err(format!(
            "{name}: forwarding fell through (no_decision={}, bad_port={})",
            c.no_decision, c.bad_port
        ));
    }
    let total_drops = c.total_drops();
    if c.injected != c.delivered + total_drops {
        return Err(format!(
            "{name}: conservation violated: injected={} != delivered={} + drops={total_drops}",
            c.injected, c.delivered
        ));
    }
    Ok(())
}

/// The frames a target handed to its hosts as `(id, port, bytes)` sorted by
/// packet id: every one re-sealed, and as many as its counter says.
pub(super) fn sealed_frames(
    name: &str,
    delivered: Vec<Delivered>,
    counted: u64,
) -> Result<Vec<(u64, u16, Vec<u8>)>, String> {
    let mut frames = Vec::with_capacity(delivered.len());
    for d in delivered {
        let (id, port) = (d.meta.id, d.port.0);
        let bytes = d.data.to_vec();
        let pkt = Packet {
            data: d.data,
            meta: d.meta,
        };
        if !pkt.fcs_ok() {
            return Err(format!("{name}: delivered packet {id} was not re-sealed"));
        }
        frames.push((id, port, bytes));
    }
    frames.sort_by_key(|(id, _, _)| *id);
    if frames.len() as u64 != counted {
        return Err(format!("{name}: delivered count disagrees with counter"));
    }
    Ok(frames)
}

/// Degradation invariants of the fault schedule (trivially true in the
/// clean phase): corrupted frames are all rejected by the frame check, and
/// every packet is accounted to exactly one fate.
pub(super) fn degradation_invariants(
    prepared: &[PreparedPacket],
    reference: &Outcome,
) -> Result<(), String> {
    let total = prepared.len() as u64;
    let link_dropped = prepared.iter().filter(|p| p.link_dropped).count() as u64;
    let corrupted = prepared.iter().filter(|p| p.corrupted).count() as u64;
    if reference.fcs_drops != corrupted {
        return Err(format!(
            "reference: fcs_drops {} != corrupted {corrupted}",
            reference.fcs_drops
        ));
    }
    if total != link_dropped + corrupted + reference.filtered + reference.delivered.len() as u64 {
        return Err(format!(
            "accounting leak: {total} packets != {link_dropped} link-dropped + {corrupted} \
             corrupted + {} filtered + {} delivered",
            reference.filtered,
            reference.delivered.len()
        ));
    }
    Ok(())
}

/// The INT honesty keystone: every hop chain and queue depth the datapath
/// stamped into a postcard must match the journey tracer's ground truth
/// byte-for-byte, and the collector's deduplicated drain must agree with
/// the datapath's own `int/*` totals.
///
/// The final (longest) stack per packet is split into consecutive
/// per-device segments; each segment must equal — site, enter, exit, and
/// hop context, all compared exactly — that device's non-drop journey for
/// the packet. `journey_of` returns `None` for a device the harness does
/// not know (an error: a stamp is lying about where it came from) and an
/// empty journey when the tracer did not retain the packet (sampled out
/// or ring-evicted — skipped, not failed). Truncated stacks are skipped
/// too: the chain cannot be reconstructed once hops were shed.
pub(super) fn int_honesty_check(
    name: &str,
    postcards: &[Postcard],
    raw: (u64, u64, u64),
    mut journey_of: impl FnMut(u16, u64) -> Option<Vec<Hop>>,
) -> Result<(), String> {
    // The collector must account for exactly the postcards the datapath
    // emitted, and can never have seen more stamps or truncations than the
    // datapath recorded (fewer is legal: stamps on packets that were later
    // filtered or dropped never reach a postcard).
    let mut collector = Collector::default();
    for pc in postcards {
        collector.ingest(pc);
    }
    let (c_stamps, c_postcards, c_trunc) = collector.totals();
    let (r_stamps, r_postcards, r_trunc) = raw;
    if c_postcards != r_postcards {
        return Err(format!(
            "{name}: collector drained {c_postcards} postcards but the datapath counted {r_postcards}"
        ));
    }
    if c_stamps > r_stamps || c_trunc > r_trunc {
        return Err(format!(
            "{name}: collector saw {c_stamps} stamps / {c_trunc} truncations, more than the \
             datapath recorded ({r_stamps} / {r_trunc})"
        ));
    }

    // Longest stack per packet = the full end-to-end chain (shorter ones
    // are transit-hop prefixes of it).
    let mut best: BTreeMap<u64, &Postcard> = Default::default();
    for pc in postcards {
        let cur = best.entry(pc.pkt).or_insert(pc);
        if pc.stack.stamps.len() > cur.stack.stamps.len() {
            *cur = pc;
        }
    }
    for (pkt, pc) in best {
        if pc.stack.truncated > 0 {
            continue;
        }
        for seg in pc.stack.stamps.chunk_by(|a, b| a.device == b.device) {
            let device = seg[0].device;
            let Some(journey) = journey_of(device, pkt) else {
                return Err(format!(
                    "{name}: pkt {pkt} carries a stamp from unknown device {device}"
                ));
            };
            let hops: Vec<_> = journey.iter().filter(|h| h.site != Site::Dropped).collect();
            let retained = hops.first().is_some_and(|h| matches!(h.site, Site::Rx(_)));
            if retained {
                if hops.len() != seg.len() {
                    return Err(format!(
                        "{name}: pkt {pkt} device {device}: INT reports {} hops but the \
                         tracer recorded {}",
                        seg.len(),
                        hops.len()
                    ));
                }
                for (s, h) in seg.iter().zip(&hops) {
                    if s.site != h.site || s.enter != h.enter || s.exit != h.exit || s.ctx != h.ctx
                    {
                        return Err(format!(
                            "{name}: pkt {pkt} device {device}: INT stamp at {} \
                             (enter={}, exit={}, ctx={:?}) != tracer hop at {} \
                             (enter={}, exit={}, ctx={:?})",
                            s.site, s.enter.0, s.exit.0, s.ctx, h.site, h.enter.0, h.exit.0, h.ctx
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Diff a row's outcome against the reference on the fields its mask
/// names; `Err` pinpoints the first disagreement.
pub(super) fn compare(
    name: &str,
    reference: &Outcome,
    got: &Outcome,
    mask: Mask,
) -> Result<(), String> {
    for (what, got, want) in [
        ("filtered", got.filtered, reference.filtered),
        ("fcs_drops", got.fcs_drops, reference.fcs_drops),
    ] {
        if got != want {
            return Err(format!("{name}: {what} {got} != reference {want}"));
        }
    }
    if mask.mat && (got.lookups != reference.lookups || got.hits != reference.hits) {
        return Err(format!(
            "{name}: mat lookups/hits {}/{} != reference {}/{}",
            got.lookups, got.hits, reference.lookups, reference.hits
        ));
    }
    if got.delivered.len() != reference.delivered.len() {
        return Err(format!(
            "{name}: delivered {} packets != reference {}",
            got.delivered.len(),
            reference.delivered.len()
        ));
    }
    for ((gid, gport, gdata), (rid, rport, rdata)) in
        got.delivered.iter().zip(reference.delivered.iter())
    {
        if gid != rid || gport != rport {
            return Err(format!(
                "{name}: delivered (id={gid}, port={gport}) != reference (id={rid}, port={rport})"
            ));
        }
        if gdata != rdata {
            return Err(format!("{name}: packet {gid} frame bytes diverge"));
        }
    }
    for (i, (g, r)) in got.regs.iter().zip(reference.regs.iter()).enumerate() {
        if g != r {
            let cell = g.iter().zip(r.iter()).position(|(a, b)| a != b);
            return Err(format!(
                "{name}: register {i} diverges at cell {cell:?} (got {:?}, want {:?})",
                cell.map(|c| g[c]),
                cell.map(|c| r[c]),
            ));
        }
    }
    Ok(())
}
