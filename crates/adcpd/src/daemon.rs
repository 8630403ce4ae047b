//! The serving event loop: bounded slices, closed-loop scaling, graceful
//! drain, and the zero-drift soak report.
//!
//! # Shape of the loop
//!
//! Simulation time advances in fixed **slices** ([`DaemonCfg::slice`]).
//! Per slice the daemon (1) pulls the open-loop arrival process up to the
//! slice boundary and injects each request — after passing it through the
//! active fault window, if any; (2) runs the switch to the boundary;
//! (3) folds the completed responses into a slice latency histogram and
//! pushes it at the [`crate::slo::SloTracker`]; (4) gives the controller
//! one [`adcp_ctrl::Controller::tick_serving`] with the current burn
//! signal — which may scale the active central-pipe set up or down, or
//! start a skew rebalance; and (5) appends to the rotating observability
//! stream. The loop polls [`adcp_sim::shutdown::requested`] between
//! slices; a SIGINT therefore never interrupts a slice mid-event.
//!
//! # The pocket model
//!
//! The paper-scale reference model's central pipes forward ~600 Mpps
//! each; saturating one inside a CI-sized soak is impossible. The daemon
//! therefore serves on [`serving_model`] — the same architecture (demux
//! ingress, dual TMs, partitioned central region) clocked at 1 MHz with
//! 10G ports — so one central pipe saturates near 1 Mpps and a diurnal
//! peak of ~2 Mpps genuinely needs the autoscaler. Every invariant the
//! daemon certifies is clock-independent.
//!
//! # Determinism contract
//!
//! A [`SoakReport`] is a pure function of [`DaemonCfg`]: it contains sim
//! time, event counts and SLO math — never wall-clock readings or file
//! paths. The daemon runs on one thread, so two runs of one configuration
//! must produce **byte-identical** reports; the soak test pins that,
//! plain and with INT on.

use crate::menu::{self, Oracle, ServeApp, ServeProgram, SHARDS};
use crate::slo::{SloPolicy, SloTracker};
use crate::stream::{MetricsStream, StreamCfg, TraceBuilder};
use adcp_core::{AdcpConfig, AdcpSwitch, MigrationStrategy, PartitionMap};
use adcp_ctrl::{Controller, RebalanceKind, ScalePolicy, SkewPolicy};
use adcp_lang::{Arch, CompileOptions, RegId, TargetModel};
use adcp_sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp_sim::packet::PortId;
use adcp_sim::rng::SimRng;
use adcp_sim::shutdown;
use adcp_sim::stats::LatencyHist;
use adcp_sim::telemetry::{Collector, BURST_FACTOR, EWMA_ALPHA, MIN_BURST_DEPTH};
use adcp_sim::time::{Duration, SimTime, TimeSlicer};
use adcp_sim::trace::JourneyTracer;
use adcp_workloads::arrival::{DiurnalCfg, MmppCfg, OpenLoopSource};
use adcp_workloads::keys::ZipfKeys;
use serde::Serialize;

/// Independent RNG stream salts (one seed drives the whole daemon).
const KEY_SALT: u64 = 0x6b65_7973;
const FAULT_SALT: u64 = 0x6661_756c;

/// The scaled-down serving target: reference ADCP geometry (1:1 demux,
/// dual TMs, 4 central pipes) at a 1 MHz pipe clock and 10G ports, so a
/// compressed soak can saturate — and the autoscaler can rescue — a
/// single central pipe with tractable packet counts.
pub fn serving_model() -> TargetModel {
    TargetModel {
        name: "adcp-serving-pocket".into(),
        arch: Arch::Adcp,
        ports: 8,
        port_speed_gbps: 10,
        ports_per_pipe: 1,
        demux_factor: 1,
        pipe_ghz: 0.001,
        ingress_stages: 10,
        egress_stages: 10,
        central_stages: 12,
        central_pipes: 4,
        maus_per_stage: 16,
        mau_mem_bits: 1_024 * 1_024,
        stage_reg_bits: 4 * 1_024 * 1_024,
        phv_bits: 8_192,
        max_array_width: 16,
        min_wire_bytes: 84,
        recirc_reserved: 0.0,
        pooled_table_memory: false,
    }
}

/// One entry of the fault schedule: `cfg` applies to requests arriving in
/// `[from, to)`.
#[derive(Debug, Clone)]
pub struct FaultWindow {
    /// Window start (inclusive), sim time.
    pub from: SimTime,
    /// Window end (exclusive), sim time.
    pub to: SimTime,
    /// Drop/corrupt/delay probabilities inside the window.
    pub cfg: FaultConfig,
}

/// Complete, deterministic description of one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonCfg {
    /// Which serving program to run.
    pub app: ServeApp,
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// Slice width (control-loop cadence).
    pub slice: Duration,
    /// Slices to run before draining (`u64::MAX` ≈ serve until signal).
    pub slices: u64,
    /// Diurnal base rate profile of the client population.
    pub diurnal: DiurnalCfg,
    /// Burst regime modulation (`None` = plain diurnal Poisson).
    pub mmpp: Option<MmppCfg>,
    /// Distinct request keys.
    pub keyspace: usize,
    /// Zipf skew of key popularity.
    pub zipf_skew: f64,
    /// Popularity-rank-to-key multiplier (hot-key shard collisions).
    pub stride: u64,
    /// Client ports used round-robin (responses go to the next port up).
    pub clients: u16,
    /// Per-queue depth in the TMs (bounds worst-case queueing latency).
    pub queue_depth: usize,
    /// Latency objectives and window.
    pub slo: SloPolicy,
    /// Autoscaling policy.
    pub scale: ScalePolicy,
    /// Skew-rebalance policy (the fall-through check each tick).
    pub skew_policy: SkewPolicy,
    /// Central pipes active at start.
    pub initial_pipes: u32,
    /// Inert: the daemon is single-threaded. The last field of
    /// `adcp_core::AdcpConfig` says why this one is still here.
    #[doc(hidden)]
    pub workers: usize,
    /// Fault schedule (non-overlapping windows; first match wins).
    pub faults: Vec<FaultWindow>,
    /// Rotating observability stream (`None` = in-memory only).
    pub stream: Option<StreamCfg>,
    /// Slices between stream snapshots.
    pub stream_every: u64,
    /// Stamp INT telemetry on the datapath and stream the collector's
    /// report per snapshot. Off by default: stamping is paid per hop and
    /// the plain soak reads no postcards.
    pub int: bool,
}

impl DaemonCfg {
    /// The compressed CI soak: ~5 diurnal periods in 64 ms of sim time,
    /// bursty arrivals peaking past a single pocket-pipe's capacity, and
    /// a drop → corrupt → delay fault schedule. Deterministically
    /// produces at least one scale-up and one scale-down under the
    /// default policies (pinned by `tests/soak.rs`).
    pub fn soak_quick(seed: u64) -> Self {
        let ms = |n: u64| SimTime::from_ms(n);
        DaemonCfg {
            app: ServeApp::ShardCount,
            seed,
            slice: Duration::from_us(250),
            slices: 256,
            diurnal: DiurnalCfg {
                base_pps: 550_000.0,
                amplitude: 0.85,
                period: Duration::from_ms(12),
                phase: 0.0,
            },
            mmpp: Some(MmppCfg {
                burst_factor: 2.2,
                mean_quiet: Duration::from_ms(2),
                mean_burst: Duration::from_us(700),
            }),
            keyspace: 4_096,
            zipf_skew: 1.1,
            stride: 4,
            clients: 4,
            queue_depth: 512,
            slo: SloPolicy {
                p50_ns: 25_000,
                p99_ns: 80_000,
                window: 8,
            },
            scale: ScalePolicy::default(),
            skew_policy: SkewPolicy {
                max_over_mean: 1.6,
                min_samples: 4_096,
                strategy: MigrationStrategy::Incremental,
            },
            initial_pipes: 1,
            workers: 1,
            faults: vec![
                FaultWindow {
                    from: ms(8),
                    to: ms(12),
                    cfg: FaultConfig {
                        drop_chance: 0.02,
                        ..FaultConfig::default()
                    },
                },
                FaultWindow {
                    from: ms(20),
                    to: ms(24),
                    cfg: FaultConfig {
                        corrupt_chance: 0.02,
                        ..FaultConfig::default()
                    },
                },
                FaultWindow {
                    from: ms(32),
                    to: ms(36),
                    cfg: FaultConfig {
                        delay_chance: 0.05,
                        max_delay: Duration::from_us(40),
                        ..FaultConfig::default()
                    },
                },
            ],
            stream: None,
            stream_every: 16,
            int: false,
        }
    }

    /// The full soak: the same choreography over 4× the sim time.
    pub fn soak(seed: u64) -> Self {
        DaemonCfg {
            slices: 1_024,
            ..DaemonCfg::soak_quick(seed)
        }
    }
}

/// One scale/rebalance action as it appears in the report.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleAction {
    /// `scale_up`, `scale_down`, or `skew`.
    pub kind: String,
    /// Sim time of the decision, ns.
    pub at_ns: u64,
    /// Active pipes after the action.
    pub pipes: u32,
    /// Partition-map epoch it created.
    pub to_epoch: u64,
    /// Buckets whose owner changed.
    pub moved_buckets: u64,
}

/// One drop-forensics line of the report.
#[derive(Debug, Clone, Serialize)]
pub struct DropLine {
    /// Drop reason label.
    pub reason: String,
    /// Traffic manager (0 = not TM-specific).
    pub tm: u64,
    /// Exact occurrences.
    pub count: u64,
}

/// INT telemetry outcome over the whole run (present only when
/// [`DaemonCfg::int`] was on).
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySummary {
    /// Postcards the collector ingested (exactly the datapath's count —
    /// a mismatch is drift).
    pub postcards: u64,
    /// Deduplicated per-hop stamps behind those postcards.
    pub stamps: u64,
    /// Stamps lost to the per-packet stack bound.
    pub truncated: u64,
    /// Distinct packets with telemetry.
    pub pkts: u64,
    /// Sample-level microbursts the collector detected.
    pub microbursts: u64,
    /// Slices whose max observed TM depth stood burst-factor above the
    /// slice-granularity EWMA baseline.
    pub microburst_slices: u64,
    /// Per-flow path-digest flips.
    pub path_changes: u64,
    /// Microburst slices that coincided with SLO burn — the correlated
    /// alert an operator pages on.
    pub alerts: u64,
}

/// SLO outcome over the whole run.
#[derive(Debug, Clone, Serialize)]
pub struct SloSummary {
    /// Lifetime median, ns.
    pub p50_ns: u64,
    /// Lifetime tail, ns.
    pub p99_ns: u64,
    /// The objectives it was judged against.
    pub objective_p50_ns: u64,
    /// Tail objective, ns.
    pub objective_p99_ns: u64,
    /// Slices evaluated.
    pub slices: u64,
    /// Slices that violated an objective.
    pub violations: u64,
    /// Burn rate over the final window.
    pub final_burn_rate: f64,
}

/// The deterministic end-of-run report (see the crate docs for the
/// byte-identical-rerun contract).
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Serving program name.
    pub app: String,
    /// Master seed.
    pub seed: u64,
    /// Slices completed before the drain.
    pub slices_run: u64,
    /// Quiescence time, ns.
    pub sim_ns: u64,
    /// True when the run ended early on a shutdown request.
    pub shutdown_requested: bool,
    /// Open-loop arrivals generated.
    pub arrivals: u64,
    /// Arrivals eaten by the wire (fault `Dropped`) before the switch.
    pub wire_dropped: u64,
    /// Packets actually offered to the switch.
    pub injected: u64,
    /// Responses delivered.
    pub delivered: u64,
    /// Exact per-reason drop forensics (tracer side).
    pub drops: Vec<DropLine>,
    /// SLO-driven scale-up actions.
    pub scale_ups: u64,
    /// SLO-driven scale-down actions.
    pub scale_downs: u64,
    /// Skew-driven rebalances.
    pub skew_rebalances: u64,
    /// Most recent actions (controller log, capped).
    pub actions: Vec<ScaleAction>,
    /// Completed migrations.
    pub migrations: u64,
    /// Register cells moved live.
    pub moved_keys: u64,
    /// Epoch-consistency violations (must be 0).
    pub misroutes: u64,
    /// Active pipes at the end.
    pub final_pipes: u32,
    /// Partition-map epoch at the end.
    pub final_epoch: u64,
    /// Latency outcome.
    pub slo: SloSummary,
    /// INT telemetry summary (`null` when stamping was off).
    pub telemetry: Option<TelemetrySummary>,
    /// Observability snapshots written.
    pub snapshots_written: u64,
    /// Forensics ≡ registry mismatches (must be empty).
    pub drift: Vec<String>,
    /// Serving-correctness oracle violations (must be empty).
    pub oracle: Vec<String>,
    /// Packet-conservation identity held at quiescence.
    pub conservation_ok: bool,
    /// All invariants held.
    pub healthy: bool,
}

impl SoakReport {
    /// Pretty-printed JSON (stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The CI soak bar: healthy *and* the autoscaler demonstrably closed
    /// the loop in both directions.
    pub fn meets_soak_bar(&self) -> bool {
        self.healthy && self.scale_ups >= 1 && self.scale_downs >= 1
    }
}

/// The long-running serving daemon. Construct with [`Daemon::new`], then
/// either [`Daemon::run`] (slices + graceful drain, the binary's path) or
/// [`Daemon::run_slices`] / [`Daemon::finish`] for step-wise driving.
pub struct Daemon {
    cfg: DaemonCfg,
    sw: AdcpSwitch,
    reg: RegId,
    ctl: Controller,
    slo: SloTracker,
    oracle: Oracle,
    source: OpenLoopSource,
    zipf: ZipfKeys,
    key_rng: SimRng,
    faults: Vec<(FaultWindow, FaultInjector)>,
    slicer: TimeSlicer,
    stream: Option<MetricsStream>,
    trace: TraceBuilder,
    collector: PortId,
    telemetry: Collector,
    burst_ewma: Option<f64>,
    microburst_slices: u64,
    telemetry_alerts: u64,
    next_id: u64,
    arrivals_buf: Vec<SimTime>,
    // Run accounting (all sim-derived).
    arrivals: u64,
    wire_dropped: u64,
    injected: u64,
    slices_run: u64,
    scale_ups: u64,
    scale_downs: u64,
    skew_rebalances: u64,
    shutdown_seen: bool,
}

impl Daemon {
    /// Build the switch, install the program and the initial partition
    /// map, and arm the traffic/fault processes.
    pub fn new(cfg: DaemonCfg) -> Result<Daemon, String> {
        assert!(cfg.clients >= 1, "need at least one client port");
        let model = serving_model();
        assert!(
            cfg.clients < model.ports,
            "clients + collector must fit the pocket model's ports"
        );
        let ServeProgram { program, reg } = menu::build(cfg.app);
        let mut sw = AdcpSwitch::new(
            program,
            model,
            CompileOptions::default(),
            AdcpConfig {
                queue_depth: cfg.queue_depth,
                int: cfg.int,
                ..AdcpConfig::default()
            },
        )
        .map_err(|e| format!("serving program failed to compile: {e:?}"))?;
        // Drops-only tracing: exact forensics at zero hop-ring cost.
        sw.tracer = JourneyTracer::with_sample(0, 1);
        let pipes = cfg.initial_pipes.clamp(1, sw.num_central() as u32);
        sw.install_partition_map(PartitionMap::uniform(SHARDS as u32, pipes))
            .map_err(|e| format!("initial partition map rejected: {e:?}"))?;
        let stream = match cfg.stream.clone() {
            Some(sc) => Some(MetricsStream::new(sc)?),
            None => None,
        };
        let faults = cfg
            .faults
            .iter()
            .enumerate()
            .map(|(i, w)| {
                (
                    w.clone(),
                    FaultInjector::new(
                        w.cfg,
                        SimRng::seed_from(cfg.seed ^ FAULT_SALT ^ (i as u64) << 32),
                    ),
                )
            })
            .collect();
        Ok(Daemon {
            source: OpenLoopSource::new(cfg.diurnal, cfg.mmpp, cfg.seed),
            zipf: ZipfKeys::new(cfg.keyspace, cfg.zipf_skew),
            key_rng: SimRng::seed_from(cfg.seed ^ KEY_SALT),
            ctl: Controller::with_scale(cfg.skew_policy, cfg.scale),
            slo: SloTracker::new(cfg.slo),
            oracle: Oracle::new(cfg.app),
            slicer: TimeSlicer::new(SimTime::ZERO, cfg.slice),
            collector: PortId(cfg.clients),
            faults,
            stream,
            trace: TraceBuilder::new(),
            telemetry: Collector::default(),
            burst_ewma: None,
            microburst_slices: 0,
            telemetry_alerts: 0,
            next_id: 0,
            arrivals_buf: Vec::new(),
            arrivals: 0,
            wire_dropped: 0,
            injected: 0,
            slices_run: 0,
            scale_ups: 0,
            scale_downs: 0,
            skew_rebalances: 0,
            shutdown_seen: false,
            sw,
            reg,
            cfg,
        })
    }

    /// Active central pipes right now (autoscaler's current answer).
    pub fn active_pipes(&self) -> usize {
        self.sw.active_central_pipes()
    }

    /// Run exactly one time slice: admit arrivals (through the fault
    /// schedule), advance the switch, score the SLO, tick the controller,
    /// and stream a snapshot when due.
    pub fn run_slice(&mut self) {
        let slice = self.slicer.next().expect("slicer is infinite");
        self.arrivals_buf.clear();
        let mut buf = std::mem::take(&mut self.arrivals_buf);
        self.source.arrivals_until(slice.end, &mut buf);
        self.arrivals += buf.len() as u64;
        let mut injected_now = 0u64;
        for &at in &buf {
            let key = ((self.zipf.sample(&mut self.key_rng) * self.cfg.stride)
                % self.cfg.keyspace as u64) as u16;
            let id = self.next_id;
            self.next_id += 1;
            let port = PortId((id % self.cfg.clients as u64) as u16);
            let mut pkt = menu::request(id, self.collector.0, key);
            let mut outcome = FaultOutcome::Pass;
            for (w, inj) in self.faults.iter_mut() {
                if at >= w.from && at < w.to {
                    outcome = inj.apply(&mut pkt);
                    break;
                }
            }
            match outcome {
                FaultOutcome::Dropped => {
                    // Lost on the wire: the switch never saw it, so no
                    // book anywhere may count it.
                    self.wire_dropped += 1;
                }
                FaultOutcome::Corrupted => {
                    // Will die at the MAC (FCS): injected, never served.
                    self.sw.inject(port, pkt, at);
                    injected_now += 1;
                }
                FaultOutcome::Delayed(d) => {
                    // Late on the wire: latency accrues from the original
                    // send time, so delay faults burn the SLO budget.
                    self.oracle.on_inject(key);
                    self.sw.inject(port, pkt.with_created(at), at + d);
                    injected_now += 1;
                }
                FaultOutcome::Pass => {
                    self.oracle.on_inject(key);
                    self.sw.inject(port, pkt, at);
                    injected_now += 1;
                }
            }
        }
        self.arrivals_buf = buf;
        self.injected += injected_now;
        self.sw.run_until(slice.end);

        let mut h = LatencyHist::new();
        let mut delivered_now = 0u64;
        for d in self.sw.take_delivered() {
            h.record_span(d.meta.created, d.time);
            self.oracle.on_deliver(&d.data);
            delivered_now += 1;
        }
        let verdict = self.slo.push_slice(h);
        let signal = self.slo.signal();
        if self.cfg.int {
            // Stream the collector's input per slice, and run a
            // slice-granularity microburst detector (EWMA over the max
            // observed TM depth, the collector's own thresholds) so a
            // burst can be correlated with the same slice's SLO verdict.
            let cards = self.sw.take_postcards();
            let mut slice_depth = 0u32;
            for pc in &cards {
                for s in &pc.stack.stamps {
                    if let Some(d) = s.ctx.queue_depth {
                        slice_depth = slice_depth.max(d);
                    }
                }
                self.telemetry.ingest(pc);
            }
            let burst = self.burst_ewma.is_some_and(|base| {
                slice_depth >= MIN_BURST_DEPTH && slice_depth as f64 >= BURST_FACTOR * base
            });
            let a = EWMA_ALPHA;
            self.burst_ewma = Some(match self.burst_ewma {
                None => slice_depth as f64,
                Some(base) => a * slice_depth as f64 + (1.0 - a) * base,
            });
            if burst {
                self.microburst_slices += 1;
                if verdict.violated || signal.burn_rate > 0.0 {
                    // The page-worthy alert: a queue standing far above
                    // its baseline in the same window the SLO burns.
                    self.telemetry_alerts += 1;
                    self.trace.instant(
                        "microburst-slo-alert",
                        slice.end,
                        &[
                            ("depth", slice_depth as u64),
                            ("burn_pct", (signal.burn_rate * 100.0) as u64),
                            ("violated", verdict.violated as u64),
                        ],
                    );
                }
            }
        }
        if let Some(ev) = self.ctl.tick_serving(&mut self.sw, slice.end, &signal) {
            let name = match ev.kind {
                RebalanceKind::ScaleUp => {
                    self.scale_ups += 1;
                    "scale-up"
                }
                RebalanceKind::ScaleDown => {
                    self.scale_downs += 1;
                    "scale-down"
                }
                RebalanceKind::Skew => {
                    self.skew_rebalances += 1;
                    "skew-rebalance"
                }
            };
            self.trace.instant(
                name,
                slice.end,
                &[
                    ("pipes", ev.pipes as u64),
                    ("to_epoch", ev.to_epoch),
                    ("moved_buckets", ev.moved_buckets as u64),
                ],
            );
        }
        self.trace.slice(
            self.cfg.app.name(),
            slice.start,
            slice.end,
            &[
                ("injected", injected_now),
                ("delivered", delivered_now),
                ("p50_ns", verdict.p50_ns),
                ("p99_ns", verdict.p99_ns),
                ("violated", verdict.violated as u64),
                ("burn_pct", (signal.burn_rate * 100.0) as u64),
                ("pipes", self.sw.active_central_pipes() as u64),
            ],
        );
        self.slices_run += 1;
        if self.slices_run.is_multiple_of(self.cfg.stream_every.max(1)) {
            self.snapshot(slice.end);
        }
    }

    fn snapshot(&mut self, at: SimTime) {
        if self.stream.is_none() {
            return;
        }
        let telemetry = self.cfg.int.then(|| self.telemetry.report());
        let metrics = self.sw.metrics_json();
        if let Some(st) = &mut self.stream {
            st.snapshot(at, &metrics, &mut self.trace, telemetry.as_ref())
                .expect("stream snapshot validates and writes");
        }
    }

    /// Run up to `n` slices, stopping early on a shutdown request.
    /// Returns the slices actually run.
    pub fn run_slices(&mut self, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            if shutdown::requested() {
                self.shutdown_seen = true;
                break;
            }
            self.run_slice();
            done += 1;
        }
        done
    }

    /// Graceful drain and final audit: stop admitting, run the switch to
    /// quiescence, finalize any in-flight migration, fold the tail
    /// responses into the SLO books, cross-check every ledger, and write
    /// the final stream snapshot. Consumes the daemon — the books close
    /// exactly once.
    pub fn finish(mut self) -> SoakReport {
        let mut end = self.sw.run_until_idle();
        if self.sw.migration_active() {
            // An incremental migration with no traffic left cannot
            // receive further redirects; finalize commits it.
            let _ = self.sw.finalize_migration();
            end = self.sw.run_until_idle();
        }
        let mut tail = LatencyHist::new();
        for d in self.sw.take_delivered() {
            tail.record_span(d.meta.created, d.time);
            self.oracle.on_deliver(&d.data);
        }
        if tail.count() > 0 {
            self.slo.push_slice(tail);
        }
        let telemetry = if self.cfg.int {
            // Tail postcards from the drain, then the exact drop totals.
            for pc in self.sw.take_postcards() {
                self.telemetry.ingest(&pc);
            }
            let device = self.sw.device();
            self.telemetry
                .ingest_drops(device, &self.sw.tracer.to_json());
            let (stamps, postcards, truncated) = self.telemetry.totals();
            let (bursts, _) = self.telemetry.microbursts();
            let (changes, _) = self.telemetry.path_changes();
            Some(TelemetrySummary {
                postcards,
                stamps,
                truncated,
                pkts: self.telemetry.pkts() as u64,
                microbursts: bursts.len() as u64,
                microburst_slices: self.microburst_slices,
                path_changes: changes.len() as u64,
                alerts: self.telemetry_alerts,
            })
        } else {
            None
        };

        // ---- the books ----
        let mut drift = self.drift_check();
        if let Some(t) = &telemetry {
            // Collector ≡ datapath: every postcard the switch emitted must
            // have reached the collector, and the deduplicated stamp count
            // can never exceed what the datapath stamped.
            let (dp_stamps, dp_postcards, dp_truncated) = self.sw.int_totals();
            if t.postcards != dp_postcards {
                drift.push(format!(
                    "collector ingested {} postcards but datapath emitted {}",
                    t.postcards, dp_postcards
                ));
            }
            if t.stamps > dp_stamps || t.truncated > dp_truncated {
                drift.push(format!(
                    "collector stamps {}/truncated {} exceed datapath {}/{}",
                    t.stamps, t.truncated, dp_stamps, dp_truncated
                ));
            }
        }
        if self.sw.migration_active() {
            drift.push("migration still in flight after drain".into());
        }
        if self.sw.in_flight() != 0 {
            drift.push(format!(
                "{} packets still in flight at idle",
                self.sw.in_flight()
            ));
        }
        let oracle = self.oracle.check(&self.sw, self.reg);
        let c = &self.sw.counters;
        let conservation_ok =
            c.injected + c.mcast_copies == c.delivered + c.total_drops() + self.sw.in_flight();
        if self.injected != c.injected {
            drift.push(format!(
                "daemon injected {} but switch counted {}",
                self.injected, c.injected
            ));
        }
        let stats = self.sw.migration_stats().clone();
        let drops: Vec<DropLine> = self
            .sw
            .tracer
            .drop_totals_by_reason()
            .into_iter()
            .map(|((reason, tm), count)| DropLine {
                reason: reason.to_string(),
                tm: tm as u64,
                count,
            })
            .collect();
        let cum = self.slo.cumulative();
        let report = SoakReport {
            app: self.cfg.app.name().to_string(),
            seed: self.cfg.seed,
            slices_run: self.slices_run,
            sim_ns: end.as_ps() / 1_000,
            shutdown_requested: self.shutdown_seen,
            arrivals: self.arrivals,
            wire_dropped: self.wire_dropped,
            injected: self.injected,
            delivered: c.delivered,
            drops,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            skew_rebalances: self.skew_rebalances,
            actions: self
                .ctl
                .events()
                .iter()
                .map(|ev| ScaleAction {
                    kind: match ev.kind {
                        RebalanceKind::ScaleUp => "scale_up".into(),
                        RebalanceKind::ScaleDown => "scale_down".into(),
                        RebalanceKind::Skew => "skew".into(),
                    },
                    at_ns: ev.at_ns,
                    pipes: ev.pipes,
                    to_epoch: ev.to_epoch,
                    moved_buckets: ev.moved_buckets as u64,
                })
                .collect(),
            migrations: stats.migrations,
            moved_keys: stats.moved_keys,
            misroutes: stats.misroutes,
            final_pipes: self.sw.active_central_pipes() as u32,
            final_epoch: self.sw.partition_epoch(),
            slo: SloSummary {
                p50_ns: cum.percentile_ps(0.50) / 1_000,
                p99_ns: cum.percentile_ps(0.99) / 1_000,
                objective_p50_ns: self.cfg.slo.p50_ns,
                objective_p99_ns: self.cfg.slo.p99_ns,
                slices: self.slo.slices_total(),
                violations: self.slo.violations_total(),
                final_burn_rate: self.slo.burn_rate(),
            },
            telemetry,
            snapshots_written: 0, // patched below (borrow order)
            drift,
            oracle,
            conservation_ok,
            healthy: false, // patched below
        };
        let mut report = report;
        self.snapshot(end);
        report.snapshots_written = self.stream.as_ref().map_or(0, |s| s.written);
        report.healthy = report.drift.is_empty()
            && report.oracle.is_empty()
            && report.conservation_ok
            && report.misroutes == 0;
        report
    }

    /// The binary's path: run the configured slices (or until a shutdown
    /// request), then drain and report.
    pub fn run(mut self) -> SoakReport {
        let n = self.cfg.slices;
        self.run_slices(n);
        self.finish()
    }

    /// Forensics ≡ ledger: the tracer's per-reason drop totals must equal
    /// the counter class each reason charges, for every reason the
    /// architecture can produce — and the two grand totals must agree, so
    /// a reason outside this list cannot hide on either side.
    fn drift_check(&self) -> Vec<String> {
        let totals = self.sw.tracer.drop_totals_by_reason();
        let c = &self.sw.counters;
        let mut bad = Vec::new();
        for (reason, tm, counter) in [
            ("fcs_bad", 0, c.fcs_drops),
            ("parse_error", 0, c.parse_errors),
            ("filtered", 0, c.filtered),
            ("no_decision", 0, c.no_decision),
            ("bad_port", 0, c.bad_port),
            ("queue_tail", 1, c.tm[0].queue),
            ("queue_tail", 2, c.tm[1].queue),
            ("buffer_exhausted", 1, c.tm[0].buffer),
            ("buffer_exhausted", 2, c.tm[1].buffer),
        ] {
            let forensic = totals.get(&(reason, tm)).copied().unwrap_or(0);
            if forensic != counter {
                bad.push(format!(
                    "{reason}(tm{tm}): forensics {forensic} != counter {counter}"
                ));
            }
        }
        let t_total = self.sw.tracer.total_drops();
        let c_total = c.total_drops();
        if t_total != c_total {
            bad.push(format!("tracer total {t_total} != counter total {c_total}"));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_check_catches_a_tracer_that_loses_drops() {
        // The quick soak's first burst overflows a TM2 queue within 32
        // slices; the tracer then forgets every other one of those drops.
        let cfg = DaemonCfg {
            slices: 32,
            ..DaemonCfg::soak_quick(7)
        };
        let mut d = Daemon::new(cfg).expect("daemon builds");
        d.sw.tracer.set_drop_forensics_loss(true);
        let r = d.run();
        assert!(
            r.drift.iter().any(|line| line.contains("forensics")),
            "lost forensics went unreported: {:?}",
            r.drift
        );
        assert!(!r.healthy);
    }
}
