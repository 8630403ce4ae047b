//! Quickstart: build a tiny switch program, run it on both architectures,
//! and watch one packet walk through each.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The program forwards on an exact-match `dst` field and keeps a per-
//! destination packet counter in the central region — the minimal
//! "stateful in-network computing" program. On the ADCP the counter lives
//! in the global partitioned area; on RMT the compiler has to lower it
//! (egress-pinned by default) and tells you so.

use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::lang::{
    ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
    KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, Region,
    RegisterDef, TableDef, TargetModel,
};
use adcp::rmt::{RmtConfig, RmtSwitch};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::time::SimTime;

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

/// dst:16, pad:16 | exact-match route + central per-dst counter.
fn program() -> Program {
    let mut b = ProgramBuilder::new("quickstart");
    let h = b.header(HeaderDef::new(
        "fwd",
        vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
    ));
    b.parser(ParserSpec::single(h));
    let ctr = b.register(RegisterDef::new("per_dst_pkts", 64, 64));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(0),
            kind: MatchKind::Exact,
            bits: 16,
        }),
        actions: vec![
            ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Param(0))]),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ],
        default_action: 1,
        default_params: vec![],
        size: 64,
    });
    b.table(TableDef {
        name: "count".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "count",
            vec![ActionOp::RegRmw {
                reg: ctr,
                index: Operand::Field(fr(0)),
                op: RegAluOp::Add,
                value: Operand::Const(1),
                fetch: None,
            }],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn pkt(id: u64, dst: u16) -> Packet {
    let mut data = vec![0u8; 64];
    data[..2].copy_from_slice(&dst.to_be_bytes());
    Packet::new(id, FlowId(dst as u64), data)
}

fn main() {
    println!("the program, as the compiler sees it:\n");
    println!("{}\n", adcp::lang::describe_program(&program()));

    // ---------------- ADCP ----------------
    println!("building the ADCP switch (16x800G, 1:2 demux, 4 central pipes)...");
    let mut adcp = AdcpSwitch::new(
        program(),
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig {
            trace: true,
            ..Default::default()
        },
    )
    .expect("compiles");
    println!("{}\n", adcp::lang::describe_placement(&adcp.placement));
    adcp.install_all(
        "route",
        Entry {
            value: MatchValue::Exact(7),
            action: 0,
            params: vec![12],
        },
    )
    .unwrap();
    adcp.inject(PortId(3), pkt(1, 7), SimTime::ZERO);
    adcp.run_until_idle();
    print!("{}", adcp.tracer.format_journey(1));
    let out = adcp.take_delivered();
    let counted: u64 = (0..adcp.num_central())
        .map(|c| {
            adcp.central_register(c, adcp::lang::RegId(0))
                .unwrap()
                .peek(7)
        })
        .sum();
    println!(
        "  delivered on {} at {} (per-dst counter now {counted})\n",
        out[0].port, out[0].time,
    );

    // ---------------- RMT ----------------
    println!("building the RMT baseline (32x400G, 4 pipelines)...");
    let mut rmt = RmtSwitch::new(
        program(),
        TargetModel::rmt_12t(),
        CompileOptions::default(),
        RmtConfig {
            trace: true,
            ..Default::default()
        },
    )
    .expect("compiles");
    println!("  compiler notes:");
    for n in &rmt.placement.notes {
        println!("    - {n}");
    }
    rmt.install_all(
        "route",
        Entry {
            value: MatchValue::Exact(7),
            action: 0,
            params: vec![12],
        },
    )
    .unwrap();
    rmt.inject(PortId(3), pkt(2, 7), SimTime::ZERO);
    rmt.run_until_idle();
    print!("{}", rmt.tracer.format_journey(2));
    let out = rmt.take_delivered();
    println!("  delivered on {} at {}", out[0].port, out[0].time);
    println!("\nNext: cargo run -p adcp-bench -- exp table1 --quick");
}
