//! The daemon's serving programs and their bounded-memory oracles.
//!
//! Both apps follow the partitioned-state serving idiom (cf. the
//! `partmigrate` app): the ingress pipeline folds a request key into one
//! of [`SHARDS`] shards of the global partitioned area and steers the
//! packet to the shard's owner pipeline; the central table performs one
//! stateful read-modify-write and echoes what it observed back into the
//! header, so every delivered response carries a receipt the oracle can
//! audit. Requests are **sealed** (FCS trailer armed), so wire-corruption
//! faults are detected and dropped at the MAC exactly as on hardware.
//!
//! The oracles are designed for soaks: per-shard state is O([`SHARDS`]),
//! never O(packets), so an hours-long run audits itself in constant
//! memory. They cross-check three independent books — the register file
//! (ground truth), the delivered receipts, and the switch drop counters —
//! and any disagreement is a correctness bug, not noise.

use adcp_core::AdcpSwitch;
use adcp_lang::{
    ActionDef, ActionOp, BinOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand,
    ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef, TableDef,
};
use adcp_sim::packet::{FlowId, Packet};

/// Shards in the partitioned area — also the partition-map bucket count
/// and the register size (the cell == partition-key convention the
/// migration protocol relies on).
pub const SHARDS: u64 = 64;

const F_DST: u16 = 0;
const F_KEY: u16 = 1;
const F_IDX: u16 = 2;
const F_VAL: u16 = 3;

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

/// Which serving program the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeApp {
    /// Per-shard request counting: central `Add 1`, echo the
    /// pre-increment count. Strongest oracle (exact increment audit).
    ShardCount,
    /// Per-shard running maximum: central `Max key`, echo the pre-op
    /// value. Oracle bounds the register between the echoes and the
    /// injected keys.
    ShardMax,
}

impl ServeApp {
    /// Stable app name used in reports, SLO scopes, and trace categories.
    pub fn name(&self) -> &'static str {
        match self {
            ServeApp::ShardCount => "shardcount",
            ServeApp::ShardMax => "shardmax",
        }
    }

    /// Parse a `--app` flag value.
    pub fn parse(s: &str) -> Option<ServeApp> {
        match s {
            "shardcount" | "count" => Some(ServeApp::ShardCount),
            "shardmax" | "max" => Some(ServeApp::ShardMax),
            _ => None,
        }
    }
}

/// A compiled-ready serving program plus the handle of its state register.
#[derive(Debug, Clone)]
pub struct ServeProgram {
    /// The program (header {dst,key,idx,val}, ingress fold+steer, central
    /// RMW, egress by `dst`).
    pub program: Program,
    /// The per-shard state register (cells == [`SHARDS`]).
    pub reg: RegId,
}

/// Build the serving program for `app`.
pub fn build(app: ServeApp) -> ServeProgram {
    let mut b = ProgramBuilder::new(app.name());
    let h = b.header(HeaderDef::new(
        "rq",
        vec![
            FieldDef::scalar("dst", 16),
            FieldDef::scalar("key", 16),
            FieldDef::scalar("idx", 16),
            FieldDef::scalar("val", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let reg = b.register(RegisterDef::new("shard_state", SHARDS as u32, 32));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fold",
            vec![
                ActionOp::Bin {
                    dst: fr(F_IDX),
                    op: BinOp::And,
                    a: Operand::Field(fr(F_KEY)),
                    b: Operand::Const(SHARDS - 1),
                },
                ActionOp::SetCentralPipe(Operand::Field(fr(F_IDX))),
                ActionOp::CountElements(Operand::Const(1)),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    let (op, value) = match app {
        ServeApp::ShardCount => (RegAluOp::Add, Operand::Const(1)),
        ServeApp::ShardMax => (RegAluOp::Max, Operand::Field(fr(F_KEY))),
    };
    b.table(TableDef {
        name: "serve".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "rmw",
            vec![
                ActionOp::RegRmw {
                    reg,
                    index: Operand::Field(fr(F_IDX)),
                    op,
                    value,
                    fetch: Some(fr(F_VAL)),
                },
                ActionOp::SetEgress(Operand::Field(fr(F_DST))),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    ServeProgram {
        program: b.build(),
        reg,
    }
}

/// Build one sealed request packet. `dst` is the response port, `key`
/// selects the shard (`key & (SHARDS-1)`).
pub fn request(id: u64, dst: u16, key: u16) -> Packet {
    let mut data = Vec::with_capacity(10 + 8);
    data.extend_from_slice(&dst.to_be_bytes());
    data.extend_from_slice(&key.to_be_bytes());
    data.extend_from_slice(&[0u8; 2]); // idx (computed in ingress)
    data.extend_from_slice(&[0u8; 4]); // val (echoed centrally)
    data.extend_from_slice(&[0u8; 8]); // payload
    Packet::new(id, FlowId(key as u64), data)
        .with_goodput(8)
        .with_elements(1)
        .seal()
}

/// Key field of a delivered response frame.
pub fn delivered_key(data: &[u8]) -> u16 {
    u16::from_be_bytes(data[2..4].try_into().expect("rq frame"))
}

/// Echoed pre-RMW value of a delivered response frame.
pub fn delivered_val(data: &[u8]) -> u64 {
    u32::from_be_bytes(data[6..10].try_into().expect("rq frame")) as u64
}

/// Shard a key folds onto.
pub fn shard_of(key: u16) -> usize {
    (key as u64 & (SHARDS - 1)) as usize
}

/// Constant-memory correctness oracle for a serving run.
///
/// Feed it every injected key ([`Oracle::on_inject`]) and every delivered
/// response ([`Oracle::on_deliver`]); at quiescence, [`Oracle::check`]
/// audits the registers against the receipts and the drop counters:
///
/// * **shardcount** — the total of the shard counters must equal
///   `delivered + post-central drops` (every packet that reached the
///   central region incremented exactly once: a lost or duplicated
///   update under migration breaks the identity), every shard must have
///   at least as many increments as responses, and the largest echoed
///   pre-increment count must be strictly below the shard's final count.
/// * **shardmax** — every echo is `≤` its shard's final register value,
///   and the final value is `≤` the largest key ever injected for that
///   shard (a corrupted or misrouted RMW would exceed it).
#[derive(Debug, Clone)]
pub struct Oracle {
    app: ServeApp,
    delivered: [u64; SHARDS as usize],
    max_echo: [u64; SHARDS as usize],
    max_injected: [u64; SHARDS as usize],
    echoes: u64,
}

impl Oracle {
    /// Fresh oracle for one app.
    pub fn new(app: ServeApp) -> Self {
        Oracle {
            app,
            delivered: [0; SHARDS as usize],
            max_echo: [0; SHARDS as usize],
            max_injected: [0; SHARDS as usize],
            echoes: 0,
        }
    }

    /// Record a key offered to the switch (post-fault, i.e. actually
    /// injected — wire-dropped packets never existed as far as the
    /// switch's books are concerned).
    pub fn on_inject(&mut self, key: u16) {
        let s = shard_of(key);
        self.max_injected[s] = self.max_injected[s].max(key as u64);
    }

    /// Record one delivered response frame.
    pub fn on_deliver(&mut self, data: &[u8]) {
        let s = shard_of(delivered_key(data));
        let v = delivered_val(data);
        self.delivered[s] += 1;
        self.max_echo[s] = self.max_echo[s].max(v);
        self.echoes += 1;
    }

    /// Total responses audited.
    pub fn responses(&self) -> u64 {
        self.echoes
    }

    /// Audit the quiescent switch. Returns human-readable violations
    /// (empty == healthy). Reads each shard cell from its **owning**
    /// central pipeline per the live partition map — the only
    /// authoritative copy across migrations.
    pub fn check(&self, sw: &AdcpSwitch, reg: RegId) -> Vec<String> {
        let mut bad = Vec::new();
        let Some(map) = sw.partition_map() else {
            bad.push("no partition map installed".into());
            return bad;
        };
        let mut reg_total = 0u64;
        for s in 0..SHARDS as usize {
            let owner = map.owner_of_bucket(s as u32) as usize;
            let Some(file) = sw.central_register(owner, reg) else {
                bad.push(format!("shard {s}: owner pipe {owner} has no register"));
                continue;
            };
            let v = file.peek(s as u64);
            reg_total += v;
            match self.app {
                ServeApp::ShardCount => {
                    if self.delivered[s] > v {
                        bad.push(format!(
                            "shard {s}: {} responses but only {v} increments",
                            self.delivered[s]
                        ));
                    }
                    if self.delivered[s] > 0 && self.max_echo[s] >= v {
                        bad.push(format!(
                            "shard {s}: echoed pre-increment {} >= final count {v}",
                            self.max_echo[s]
                        ));
                    }
                }
                ServeApp::ShardMax => {
                    if self.max_echo[s] > v {
                        bad.push(format!(
                            "shard {s}: echo {} exceeds final max {v}",
                            self.max_echo[s]
                        ));
                    }
                    if v > self.max_injected[s] {
                        bad.push(format!(
                            "shard {s}: register {v} exceeds max injected key {}",
                            self.max_injected[s]
                        ));
                    }
                }
            }
        }
        if self.app == ServeApp::ShardCount {
            // Every packet that cleared TM1 into the central region bumped
            // exactly one cell; it then either egressed or died in TM2.
            let c = &sw.counters;
            let expect = c.delivered + c.tm[1].total();
            if reg_total != expect {
                bad.push(format!(
                    "register total {reg_total} != delivered {} + tm2 drops {} (lost or duplicated increments)",
                    c.delivered,
                    c.tm[1].total()
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_core::{AdcpConfig, PartitionMap};
    use adcp_lang::{CompileOptions, TargetModel};
    use adcp_sim::packet::PortId;
    use adcp_sim::time::SimTime;

    fn serve(app: ServeApp, keys: &[u16]) -> (AdcpSwitch, Oracle, RegId) {
        let sp = build(app);
        let mut sw = AdcpSwitch::new(
            sp.program,
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            AdcpConfig::default(),
        )
        .expect("serving program compiles");
        let n_pipes = sw.num_central() as u32;
        sw.install_partition_map(PartitionMap::uniform(SHARDS as u32, n_pipes))
            .unwrap();
        let mut oracle = Oracle::new(app);
        for (i, &k) in keys.iter().enumerate() {
            oracle.on_inject(k);
            sw.inject(
                PortId(0),
                request(i as u64, 1, k),
                SimTime(i as u64 * 50_000),
            );
        }
        sw.run_until_idle();
        sw.check_conservation();
        for d in sw.take_delivered() {
            oracle.on_deliver(&d.data);
        }
        (sw, oracle, sp.reg)
    }

    #[test]
    fn shardcount_oracle_accepts_a_clean_run() {
        let keys: Vec<u16> = (0..600).map(|i| (i * 7) % 1024).collect();
        let (sw, oracle, reg) = serve(ServeApp::ShardCount, &keys);
        assert_eq!(oracle.responses(), 600);
        assert_eq!(oracle.check(&sw, reg), Vec::<String>::new());
    }

    #[test]
    fn shardmax_oracle_accepts_a_clean_run() {
        let keys: Vec<u16> = (0..600).map(|i| (i * 13) % 2048).collect();
        let (sw, oracle, reg) = serve(ServeApp::ShardMax, &keys);
        assert_eq!(oracle.check(&sw, reg), Vec::<String>::new());
    }

    #[test]
    fn shardcount_oracle_flags_a_tampered_register() {
        let keys: Vec<u16> = (0..200).map(|i| i % 256).collect();
        let (mut sw, oracle, reg) = serve(ServeApp::ShardCount, &keys);
        // Sabotage one authoritative cell: the books no longer balance.
        let owner = sw.partition_map().unwrap().owner_of_bucket(3) as usize;
        sw.central_register_mut(owner, reg)
            .unwrap()
            .rmw(3, RegAluOp::Add, 5);
        assert!(!oracle.check(&sw, reg).is_empty());
    }

    #[test]
    fn sealed_requests_fail_fcs_after_corruption() {
        let p = request(0, 1, 42);
        assert!(p.fcs_ok());
        // Corruption is exercised end-to-end by the daemon tests; here we
        // only pin that requests are sealed at all.
        assert!(p.meta.fcs.is_some());
    }
}
