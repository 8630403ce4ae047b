//! The reference interpreter and the [`Outcome`] every leg is held to.

use adcp_lang::{deparse, PhvLayout, Program, Region, RegionState};
use adcp_sim::packet::{EgressSpec, PortId};

use super::gen::{GenCase, PreparedPacket};

/// What one target observed; equivalence means every leg agrees with the
/// reference on the fields its mask names.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Outcome {
    /// Delivered frames `(id, port, bytes)`, sorted by packet id.
    pub(super) delivered: Vec<(u64, u16, Vec<u8>)>,
    /// Packets dropped by a program `Drop`/`MarkDrop` action.
    pub(super) filtered: u64,
    /// Corrupted frames rejected by the frame check.
    pub(super) fcs_drops: u64,
    /// Match-table key lookups (all regions, all lanes).
    pub(super) lookups: u64,
    /// Lookups that hit an installed entry.
    pub(super) hits: u64,
    /// Final cells of every stateful register, in `state_regs` order.
    pub(super) regs: Vec<Vec<u64>>,
}

/// Parse → run one region → deparse; the reference's per-region step,
/// mirroring the switch models' writeback semantics exactly (the forwarding
/// decision rides in `EgressSpec`, moved into the PHV intrinsics before the
/// region runs and moved back out after).
fn ref_stage(
    program: &Program,
    layout: &PhvLayout,
    state: &mut RegionState,
    data: &[u8],
    carried: EgressSpec,
    port: u16,
) -> Result<(Vec<u8>, EgressSpec), String> {
    let out = program
        .parser
        .parse(&program.headers, layout, data)
        .map_err(|e| format!("reference parse error: {e:?}"))?;
    let mut phv = out.phv;
    phv.intr.ingress_port = Some(PortId(port));
    phv.intr.egress = carried;
    state.run(program, layout, &mut phv);
    let payload = &data[out.consumed.min(data.len())..];
    let new_data = deparse(&program.headers, layout, &phv, &out.extracted, payload);
    Ok((new_data, std::mem::take(&mut phv.intr.egress)))
}

/// Run the case on the reference interpreter: one packet at a time through
/// ingress → central → egress with explicit deparse/re-parse between
/// regions (the ADCP flow with the timing model removed).
pub(super) fn run_reference(
    case: &GenCase,
    prepared: &[PreparedPacket],
) -> Result<Outcome, String> {
    let program = &case.program;
    let layout = program.layout();
    let mut ing = RegionState::new(program, Region::Ingress);
    let mut cen = RegionState::new(program, Region::Central);
    let mut egr = RegionState::new(program, Region::Egress);
    for (name, entry) in &case.installs {
        let region = program
            .tables
            .iter()
            .find(|t| &t.name == name)
            .map(|t| t.region)
            .ok_or_else(|| format!("reference: no table {name}"))?;
        let state = match region {
            Region::Ingress => &mut ing,
            Region::Central => &mut cen,
            Region::Egress => &mut egr,
        };
        state
            .install_by_name(program, name, entry.clone())
            .map_err(|e| format!("reference install into {name}: {e:?}"))?;
    }

    let mut delivered = Vec::new();
    let mut filtered = 0u64;
    let mut fcs_drops = 0u64;
    for p in prepared {
        if p.link_dropped {
            continue;
        }
        if p.corrupted {
            fcs_drops += 1;
            continue;
        }
        let (data, egress) = ref_stage(
            program,
            &layout,
            &mut ing,
            &p.pkt.data,
            EgressSpec::Unset,
            p.port,
        )?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        let (data, egress) = ref_stage(program, &layout, &mut cen, &data, egress, p.port)?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        let EgressSpec::Unicast(out_port) = egress else {
            return Err(format!(
                "reference: packet {} left central with no decision ({egress:?})",
                p.pkt.meta.id
            ));
        };
        let (data, egress) = ref_stage(
            program,
            &layout,
            &mut egr,
            &data,
            EgressSpec::Unicast(out_port),
            p.port,
        )?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        delivered.push((p.pkt.meta.id, out_port.0, data));
    }
    delivered.sort_by_key(|(id, _, _)| *id);

    Ok(Outcome {
        delivered,
        filtered,
        fcs_drops,
        lookups: ing.stats.lookups + cen.stats.lookups + egr.stats.lookups,
        hits: ing.stats.hits + cen.stats.hits + egr.stats.hits,
        regs: case
            .state_regs
            .iter()
            .map(|r| cen.register(*r).snapshot())
            .collect(),
    })
}
