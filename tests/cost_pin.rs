//! Exact per-packet costs, pinned one-sided: the repository's perf check.
//! Wall time is the repository benchmark's (`benchmark/`); these counts do
//! not drift with the host, so CI can fail on them.
//!
//! Two runs are driven the way the repository benchmark drives its
//! workloads — a chunk of frames is built, injected up front and run to its
//! last arrival — and the first chunk of each is a warm-up:
//!
//! - `fabric_demo`: the 2-spine × 4-leaf demo fabric (`demo_fabric`),
//!   partitioned-counter frames 4 ns apart;
//! - `fwd_switch`: one ADCP switch forwarding 64 B frames to 8 ports,
//!   694 ps apart.
//!
//! Over the chunks after the warm-up the test counts heap allocations made
//! by `inject` and the run (frames are built outside the count) and events
//! scheduled on every device's queue, and divides both by the packets
//! injected. Two more kinds of run are counted whole, set-up included, for
//! allocations per injected packet only:
//!
//! - `apps/<app>/<target>`: one quick run of every `suite::APPS` row on
//!   every target it runs on;
//! - `soak`: 32 slices of the `adcpd` quick soak.
//!
//! The counts are exact, so they are compared with
//! `tests/golden/cost_pin.json` one-sided: a count may fall, and a re-bless
//! records the new floor; it may not rise. The golden and the runs must
//! name the same rows. Debug builds rebuild every patched frame to check
//! it, which allocates, so the golden keeps one entry per build profile:
//!
//! ```text
//! COST_PIN_UPDATE=1 cargo test --test cost_pin
//! COST_PIN_UPDATE=1 cargo test --release --test cost_pin
//! ```
//!
//! It is its own test binary, holding one test, because the counting
//! allocator is global and counts every thread while a count is on — a
//! fabric advances its devices on a worker thread as well — and the three
//! observability knobs are set process-wide.
//!
//! Bless and check with libtest's output capture on, as a plain `cargo
//! test` runs: under `--nocapture` the `fabric_demo` row counts 2 fewer
//! allocations per counted chunk (6 in all), because with capture on each
//! worker thread a `Fabric::run` spawns first sets up the capture hand-off,
//! which allocates. The rows that fell are written to the process's stderr
//! directly, which libtest does not capture, so a plain run shows them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use adcp::apps::suite::{self, Scale};
use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::fabric::{demo_fabric, Fabric, FabricConfig, DEMO_CELLS};
use adcp::lang::{
    deposit_bits, ActionDef, ActionOp, CompileOptions, FieldDef, FieldId, FieldRef, HeaderDef,
    HeaderId, Operand, ParserSpec, Program, ProgramBuilder, Region, TableDef, TargetModel,
};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::SimTime;
use adcpd::daemon::{Daemon, DaemonCfg};
use serde_json::{Map, Value};

/// Counting is on for every thread of the process: whatever a run does on
/// a thread it spawns is its cost too. The harness's own threads wait for
/// the one test while it runs, so they allocate nothing meanwhile.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, plus a counter of the calls made while counting.
struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn note() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the flag and the counter
// are plain atomics, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; returns its result and the allocations it
/// made, on any thread, threads it spawned and joined included.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let a0 = ALLOCS.load(Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, ALLOCS.load(Relaxed) - a0)
}

/// What a run cost. Only the runs driven chunk by chunk count events.
struct Cost {
    pkts: u64,
    allocs: u64,
    events: Option<u64>,
}

impl Cost {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("pkts".into(), Value::U64(self.pkts));
        m.insert("allocs".into(), Value::U64(self.allocs));
        if let Some(events) = self.events {
            m.insert("events".into(), Value::U64(events));
        }
        Value::Object(m)
    }
}

const CHUNKS: u64 = 4;

/// A device under the pin: inject, run, drain, and its event count.
trait Dut {
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime);
    fn run_to(&mut self, t: Option<SimTime>);
    /// Take the frames delivered so far; returns how many.
    fn take(&mut self) -> u64;
    fn events(&self) -> u64;
}

impl Dut for Fabric {
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime) {
        Fabric::inject(self, port, pkt, t);
    }
    fn run_to(&mut self, t: Option<SimTime>) {
        match t {
            Some(t) => self.run_until(t),
            None => self.run_until_idle(),
        };
    }
    fn take(&mut self) -> u64 {
        self.take_delivered().len() as u64
    }
    fn events(&self) -> u64 {
        let leaves = (0..self.n_leaves()).map(|l| self.leaf(l).events_scheduled());
        let spines = (0..self.n_spines()).map(|s| self.spine(s).events_scheduled());
        leaves.chain(spines).sum()
    }
}

impl Dut for AdcpSwitch {
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime) {
        AdcpSwitch::inject(self, PortId(port as u16), pkt, t);
    }
    fn run_to(&mut self, t: Option<SimTime>) {
        match t {
            Some(t) => self.run_until(t),
            None => self.run_until_idle(),
        };
    }
    fn take(&mut self) -> u64 {
        self.take_delivered().len() as u64
    }
    fn events(&self) -> u64 {
        self.events_scheduled()
    }
}

/// Drive `dut` through `CHUNKS` chunks of `per_chunk` frames from `chunk`
/// (which fills the vector with `(port, packet, arrival)`), the last one
/// run to idle, and cost every chunk but the first.
fn drive(
    dut: &mut impl Dut,
    per_chunk: u64,
    mut chunk: impl FnMut(u64, &mut Vec<(u32, Packet, SimTime)>),
) -> Cost {
    let (mut pkts, mut allocs, mut events) = (0, 0, 0);
    let mut batch = Vec::with_capacity(per_chunk as usize);
    let mut delivered = 0;
    for c in 0..CHUNKS {
        for i in c * per_chunk..(c + 1) * per_chunk {
            chunk(i, &mut batch);
        }
        let until = (c + 1 < CHUNKS).then(|| batch.last().expect("a full chunk").2);
        let events0 = dut.events();
        let ((), chunk_allocs) = count(|| {
            for (port, pkt, at) in batch.drain(..) {
                dut.inject(port, pkt, at);
            }
            dut.run_to(until);
        });
        delivered += dut.take();
        if c > 0 {
            pkts += per_chunk;
            allocs += chunk_allocs;
            events += dut.events() - events0;
        }
    }
    assert_eq!(delivered, CHUNKS * per_chunk, "every frame is delivered");
    Cost {
        pkts,
        allocs,
        events: Some(events),
    }
}

fn fabric_demo() -> Cost {
    let (mut fabric, _program) = demo_fabric(7, FabricConfig::default());
    let ports = u64::from(fabric.spec().logical_ports());
    let mut rng = SimRng::seed_from(7);
    let cost = drive(&mut fabric, 1024, |i, out| {
        // The demo's partitioned-counter wire format: op:8 key:32 idx:16
        // val:32, the fabric's scratch fields left zero.
        let mut frame = vec![0u8; 14];
        deposit_bits(&mut frame, 0, 8, 1);
        deposit_bits(&mut frame, 8, 32, rng.range(0u64..1 << 32));
        deposit_bits(&mut frame, 40, 16, rng.range(0..DEMO_CELLS as u64));
        deposit_bits(&mut frame, 56, 32, rng.range(1u64..1000));
        let pkt = Packet::new(i, FlowId(1000 + i), frame).seal();
        out.push(((i % ports) as u32, pkt, SimTime(1_000 + i * 4_000)));
    });
    fabric.check_conservation();
    cost
}

/// Forward every frame to the port its first field names.
fn fwd_program() -> Program {
    let mut b = ProgramBuilder::new("fwd");
    let h = b.header(HeaderDef::new(
        "fwd",
        vec![FieldDef::scalar("dst", 16), FieldDef::scalar("seq", 48)],
    ));
    b.parser(ParserSpec::single(h));
    let dst = FieldRef::new(HeaderId(0), FieldId(0));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fwd",
            vec![ActionOp::SetEgress(Operand::Field(dst))],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn fwd_switch() -> Cost {
    let target = TargetModel::adcp_reference();
    let opts = CompileOptions::default();
    let mut sw = AdcpSwitch::new(fwd_program(), target, opts, AdcpConfig::default())
        .expect("the forwarding program compiles for the ADCP");
    let mut rng = SimRng::seed_from(7);
    let cost = drive(&mut sw, 4096, |i, out| {
        let mut frame = vec![0u8; 64];
        deposit_bits(&mut frame, 0, 16, rng.range(0u64..8));
        deposit_bits(&mut frame, 16, 48, i);
        let pkt = Packet::new(i, FlowId(i), frame).seal();
        out.push(((i % 8) as u32, pkt, SimTime(1_000 + i * 694)));
    });
    sw.check_conservation();
    cost
}

/// Every `suite::APPS` row on every target it runs on: one whole quick
/// run each, set-up included.
fn apps() -> Vec<(String, Cost)> {
    let mut rows = Vec::new();
    for app in &suite::APPS {
        for kind in app.kinds() {
            let (report, allocs) = count(|| (app.run)(kind, Scale::Quick));
            let cost = Cost {
                pkts: report.injected,
                allocs,
                events: None,
            };
            rows.push((format!("apps/{}/{}", app.name, report.target), cost));
        }
    }
    rows
}

/// 32 slices of the `adcpd` quick soak, set-up and drain included.
fn soak() -> Cost {
    let cfg = DaemonCfg {
        slices: 32,
        ..DaemonCfg::soak_quick(7)
    };
    let (report, allocs) = count(|| Daemon::new(cfg).expect("daemon builds").run());
    assert!(report.healthy, "soak drift: {:?}", report.drift);
    Cost {
        pkts: report.injected,
        allocs,
        events: None,
    }
}

#[test]
fn per_packet_costs_do_not_rise() {
    for knob in ["ADCP_TRACE", "ADCP_INT"] {
        std::env::set_var(knob, "off");
    }
    std::env::set_var("ADCP_METRICS", "on");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut runs = vec![
        ("fabric_demo".to_string(), fabric_demo()),
        ("fwd_switch".to_string(), fwd_switch()),
    ];
    runs.extend(apps());
    runs.push(("soak".to_string(), soak()));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cost_pin.json");
    let golden = std::fs::read_to_string(&path)
        .map(|text| serde_json::from_str(&text).expect("golden parses"))
        .unwrap_or(Value::Object(Map::new()));
    if std::env::var_os("COST_PIN_UPDATE").is_some() {
        let Value::Object(mut all) = golden else {
            panic!("golden is an object keyed by profile");
        };
        let mut now = Map::new();
        for (name, cost) in &runs {
            now.insert(name.clone(), cost.to_value());
        }
        all.insert(profile.into(), Value::Object(now));
        let text = serde_json::to_string_pretty(&Value::Object(all)).expect("serializable");
        std::fs::write(&path, text + "\n").expect("write golden");
        return;
    }

    let Some(Value::Object(pinned_rows)) = golden.get(profile) else {
        panic!("no {profile} entry in the golden; bless it");
    };
    let orphans: Vec<&String> = pinned_rows
        .iter()
        .map(|(name, _)| name)
        .filter(|name| runs.iter().all(|(run, _)| run != *name))
        .collect();
    assert!(
        orphans.is_empty(),
        "golden rows no run produced (renamed or removed? re-bless): {orphans:?}"
    );
    let mut risen = Vec::new();
    for (name, cost) in &runs {
        let pinned = |key: &str| {
            pinned_rows
                .get(name)
                .and_then(|p| p.get(key))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("no {profile}/{name}/{key} in the golden; bless it"))
        };
        assert_eq!(cost.pkts, pinned("pkts"), "{name}: the run changed size");
        for (key, now) in [("allocs", Some(cost.allocs)), ("events", cost.events)] {
            let Some(now) = now else { continue };
            let (was, per) = (pinned(key), |n: u64| n as f64 / cost.pkts as f64);
            let line = format!(
                "{name} {key}/pkt: {:.4} pinned, {:.4} now",
                per(was),
                per(now)
            );
            if now > was {
                risen.push(line);
            } else if now < was {
                // Straight to the process's stderr: libtest captures
                // `eprintln!`, so a plain run would hide the line.
                let _ = writeln!(
                    std::io::stderr(),
                    "{line}: fell; re-bless to record the new floor"
                );
            }
        }
    }
    assert!(
        risen.is_empty(),
        "per-packet costs rose:\n{}",
        risen.join("\n")
    );
}
