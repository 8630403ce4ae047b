//! The residue-major register layout (DESIGN §6): a central register file
//! striped over its `S` sibling pipes is a permutation of the cells inside
//! one file, so every accessor answers as a dense array would; and a pipe
//! that owns the keys `≡ p (mod S)` keeps pages only for its own stripe.

use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::lang::{
    ActionDef, ActionOp, CompileOptions, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand,
    ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef, RegisterFile,
    RmtCentralStrategy, TableDef, TargetModel,
};
use adcp::rmt::{RmtConfig, RmtSwitch};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::SimTime;
use std::collections::BTreeMap;

const PAGE: usize = 4096;

/// A model of one register file: its length, its nonzero cells and the
/// op count.
struct Model {
    len: usize,
    cells: BTreeMap<usize, u64>,
    mask: u64,
    ops: u64,
}

impl Model {
    fn get(&self, idx: usize) -> u64 {
        self.cells.get(&idx).copied().unwrap_or(0)
    }

    fn set(&mut self, idx: usize, v: u64) {
        if idx < self.len && v & self.mask != 0 {
            self.cells.insert(idx, v & self.mask);
        } else {
            self.cells.remove(&idx);
        }
    }

    fn rmw(&mut self, idx: usize, op: RegAluOp, v: u64) -> u64 {
        self.ops += 1;
        let old = self.get(idx);
        self.set(
            idx,
            match op {
                RegAluOp::Write => v,
                RegAluOp::Add => old.wrapping_add(v),
                RegAluOp::Max => old.max(v),
                RegAluOp::Min => old.min(v),
            },
        );
        old
    }

    fn dense(&self) -> Vec<u64> {
        let mut out = vec![0; self.len];
        self.cells.iter().for_each(|(&i, &c)| out[i] = c);
        out
    }

    fn nonzero(&self) -> Vec<(usize, u64)> {
        self.cells.iter().map(|(&i, &c)| (i, c)).collect()
    }
}

/// An index that lands near page edges, in a hot window, or anywhere, and
/// now and then past the end.
fn index(rng: &mut SimRng, len: usize) -> usize {
    match rng.index(8) {
        0 => len + rng.index(8),
        1 | 2 => (rng.index(len.div_ceil(PAGE)) * PAGE + rng.index(8)).min(len - 1),
        3 | 4 => rng.index(len.min(64)),
        _ => rng.index(len),
    }
}

/// Every readout of `f` against the model: the dense snapshot, the nonzero
/// cells, resident iteration over assorted ranges (ascending, inside the
/// range, values as the model, no nonzero cell missed), and `ops`.
fn check(f: &RegisterFile, m: &Model, rng: &mut SimRng, what: &str) {
    let len = m.len;
    let dense = m.dense();
    assert_eq!(f.snapshot(), dense, "{what}: snapshot");
    assert_eq!(
        f.iter_nonzero().collect::<Vec<_>>(),
        m.nonzero(),
        "{what}: iter_nonzero"
    );
    assert_eq!(f.ops, m.ops, "{what}: ops");
    let a = rng.index(len + 1);
    let ranges = [
        0..len,
        0..len + 100,
        a..(a + rng.index(3 * PAGE)),
        a / 2..a,
        len..len + 10,
        a + 1..a,
    ];
    for cells in ranges {
        let got: Vec<_> = f.iter_resident(cells.clone()).collect();
        let want = cells.start..cells.end.min(len).max(cells.start);
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: iter_resident({cells:?}) out of order"
        );
        for &(i, v) in &got {
            assert!(
                want.contains(&i),
                "{what}: iter_resident({cells:?}) yielded {i}"
            );
            assert_eq!(v, dense[i], "{what}: iter_resident({cells:?}) cell {i}");
        }
        let yielded: Vec<_> = got.into_iter().filter(|&(_, v)| v != 0).collect();
        let nonzero: Vec<_> = m.cells.range(want).map(|(&i, &c)| (i, c)).collect();
        assert_eq!(
            yielded, nonzero,
            "{what}: iter_resident({cells:?}) missed a cell"
        );
    }
}

#[test]
fn striped_files_answer_like_a_dense_array() {
    let lens = [1, 4095, 4096, 4097, 3 * PAGE + 17, 1 << 20];
    let mut rng = SimRng::seed_from(0x5712_1BE5);
    for stripes in [1, 3, 4] {
        for len in lens {
            let bits = [64, 13][rng.index(2)];
            let def = RegisterDef::new("r", len as u32, bits);
            let mut f = RegisterFile::striped(&def, stripes);
            let mut m = Model {
                len,
                cells: BTreeMap::new(),
                mask: if bits == 64 {
                    u64::MAX
                } else {
                    (1 << bits) - 1
                },
                ops: 0,
            };
            // Every drain and full readout of the 2²⁰-cell file walks a
            // million cells in a debug build: fewer steps there.
            let (steps, every) = if len > PAGE * PAGE {
                (120, 60)
            } else {
                (400, 50)
            };
            for step in 0..steps {
                let what = format!("stripes {stripes}, len {len}, step {step}");
                let idx = index(&mut rng, len);
                match rng.index(20) {
                    0..=11 => {
                        let op = [RegAluOp::Write, RegAluOp::Add, RegAluOp::Max, RegAluOp::Min]
                            [rng.index(4)];
                        let v = rng.u64() >> rng.index(64);
                        let old = m.rmw(idx, op, v);
                        assert_eq!(f.rmw(idx as u64, op, v), old, "{what}: rmw");
                    }
                    12 | 13 => {
                        let old = m.get(idx);
                        m.set(idx, 0);
                        assert_eq!(f.extract(idx), old, "{what}: extract");
                    }
                    14..=16 => {
                        let v = [0, rng.u64()][rng.index(2)];
                        m.set(idx, v);
                        f.restore(idx, v);
                    }
                    17 | 18 => {
                        let r = rng.index(3);
                        let want: Vec<_> = m
                            .nonzero()
                            .into_iter()
                            .filter(|&(i, _)| i % 3 == r)
                            .collect();
                        want.iter().for_each(|&(i, _)| m.set(i, 0));
                        assert_eq!(f.drain(|i| i % 3 == r), want, "{what}: drain");
                    }
                    _ => {
                        if rng.index(4) == 0 {
                            m.cells.clear();
                            f.clear();
                        }
                    }
                }
                assert_eq!(f.peek(idx as u64), m.get(idx), "{what}: peek");
                if step % every == every - 1 {
                    check(&f, &m, &mut rng, &what);
                }
            }
        }
    }
}

/// `agg` in small: ingress steers by key, the central region adds 1 into
/// a 2²⁰ × 64-bit register at the key (with the RMT recirculation pass
/// when `recirculate`).
fn agg_program(recirculate: bool) -> (Program, RegId) {
    let mut b = ProgramBuilder::new("agg-layout");
    let h = b.header(HeaderDef::new("agg", vec![FieldDef::scalar("key", 32)]));
    b.parser(ParserSpec::single(h));
    let reg = b.register(RegisterDef::new("acc", 1 << 20, 64));
    let key = FieldRef::new(HeaderId(0), FieldId(0));
    let mut steer = vec![
        ActionOp::SetCentralPipe(Operand::Field(key)),
        ActionOp::SetEgress(Operand::Const(0)),
    ];
    if recirculate {
        steer.push(ActionOp::Recirculate);
    }
    let mut table = |name: &str, region, ops| {
        b.table(TableDef {
            name: name.into(),
            region,
            key: None,
            actions: vec![ActionDef::new("act", ops)],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
    };
    table("steer", Region::Ingress, steer);
    let add = ActionOp::RegRmw {
        reg,
        index: Operand::Field(key),
        op: RegAluOp::Add,
        value: Operand::Const(1),
        fetch: None,
    };
    table("accumulate", Region::Central, vec![add]);
    (b.build(), reg)
}

/// 8192 packets whose keys walk the register with an odd stride: every
/// residue mod 4, and every page of every pipe's keys.
fn agg_packets() -> impl Iterator<Item = (PortId, Packet, SimTime)> {
    (0..8192u64).map(|i| {
        let key = (i * 1031) % (1 << 20);
        let mut data = (key as u32).to_be_bytes().to_vec();
        data.resize(64, 0);
        let pkt = Packet::new(i, FlowId(i), data).seal();
        (PortId(0), pkt, SimTime::from_ns(i * 20))
    })
}

/// Each pipe's file holds its share of the packets, and pages only for
/// its quarter of the cells: at most ¼ of the dense 8 MiB plus one page
/// and the page table.
fn assert_quarter_resident(files: &[&RegisterFile]) {
    let dense = (1 << 20) * 8;
    let table = 256 * std::mem::size_of::<usize>();
    let mut total = 0;
    for (pipe, f) in files.iter().enumerate() {
        let held: u64 = f.iter_nonzero().map(|(_, c)| c).sum();
        assert!(
            held > 0,
            "pipe {pipe} holds nothing: the pin would be vacuous"
        );
        total += held;
        let bytes = f.resident_bytes();
        assert!(
            bytes <= dense / 4 + PAGE * 8 + table,
            "pipe {pipe}: {bytes} B resident, want at most a quarter of {dense} B"
        );
    }
    assert_eq!(total, 8192, "every packet counted once");
}

#[test]
fn adcp_central_pipes_keep_only_their_stripe() {
    let (prog, reg) = agg_program(false);
    let target = TargetModel::adcp_reference();
    assert_eq!(target.central_pipes, 4);
    let mut sw = AdcpSwitch::new(
        prog,
        target,
        CompileOptions::default(),
        AdcpConfig::default(),
    )
    .unwrap();
    for (port, pkt, at) in agg_packets() {
        sw.inject(port, pkt, at);
    }
    sw.run_until_idle();
    sw.check_conservation();
    let files: Vec<_> = (0..4)
        .map(|p| sw.central_register(p, reg).unwrap())
        .collect();
    assert_quarter_resident(&files);
}

#[test]
fn rmt_recirculating_pipes_keep_only_their_stripe() {
    let (prog, reg) = agg_program(true);
    // The 64 Mbit register needs 8 Mbit of register SRAM per stage, four
    // times the 12.8T preset's; nothing else differs from `rmt_12t`.
    let target = TargetModel {
        stage_reg_bits: 8 * 1024 * 1024,
        ..TargetModel::rmt_12t()
    };
    assert_eq!(target.num_pipes(), 4);
    let mut sw = RmtSwitch::new(
        prog,
        target,
        CompileOptions {
            rmt_central: RmtCentralStrategy::Recirculate,
        },
        RmtConfig::default(),
    )
    .unwrap();
    for (port, pkt, at) in agg_packets() {
        sw.inject(port, pkt, at);
    }
    sw.run_until_idle();
    sw.check_conservation();
    let files: Vec<_> = (0..4).map(|p| sw.central_register(p, reg)).collect();
    assert_quarter_resident(&files);
}
