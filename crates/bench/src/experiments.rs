//! The experiments: one row per paper table or figure regenerator.
//!
//! [`ROWS`] is the one list that `adcp exp <name>` dispatches from, that
//! the golden snapshots iterate and that the EXPERIMENTS.md check renders.
//! A row's `run` returns a [`Rendered`]: every named table's serialized
//! rows (what `--json` prints and `tests/golden/<table>.json` pins), the
//! console text (what EXPERIMENTS.md quotes), and the experiment's own
//! verdict.

use adcp_apps::suite::Scale;
use serde::{Serialize, Value};

use crate::report::{eng, table};
use crate::{
    exp_ablations, exp_faults, exp_figs, exp_load, exp_migrate, exp_sched, exp_soak, exp_tables,
    exp_tse,
};

/// One regenerator.
pub struct Experiment {
    /// The name `adcp exp` takes.
    pub name: &'static str,
    /// Its EXPERIMENTS.md section and the paper artifact it reproduces.
    pub paper_ref: &'static str,
    /// Run it at one size.
    pub run: fn(Scale) -> Rendered,
}

/// What one run of an experiment produced.
pub struct Rendered {
    /// Each named table's rows, serialized as one JSON array.
    pub tables: Vec<(&'static str, Value)>,
    /// The console text, byte for byte.
    pub text: String,
    /// False when a row failed the experiment's own check (exit 1).
    pub ok: bool,
}

impl Rendered {
    fn new() -> Self {
        Rendered {
            tables: Vec::new(),
            text: String::new(),
            ok: true,
        }
    }

    /// Add the table `name`: its rows serialized, and in the text the
    /// `cells` of each row under `title` and the whitespace-separated
    /// column names of `header`.
    fn table<T: Serialize>(
        mut self,
        name: &'static str,
        title: &str,
        header: &str,
        rows: &[T],
        cells: impl Fn(&T) -> Vec<String>,
    ) -> Self {
        let header: Vec<&str> = header.split_whitespace().collect();
        let cells: Vec<Vec<String>> = rows.iter().map(cells).collect();
        self.text.push_str(&table(title, &header, &cells));
        let rows = serde_json::to_value(rows).expect("rows serialize");
        self.tables.push((name, rows));
        self
    }

    /// Append one line of text.
    fn line(mut self, line: &str) -> Self {
        self.text.push_str(line);
        self.text.push('\n');
        self
    }
}

type Run = fn(Scale) -> Rendered;

const fn row(name: &'static str, paper_ref: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        paper_ref,
        run,
    }
}

/// Every regenerator, in EXPERIMENTS.md order.
pub static ROWS: [Experiment; 17] = [
    row("fig1_fig4", "E-F1/E-F4: Figs. 1 and 4", fig1_fig4),
    row("table1", "E-T1: Table 1", table1),
    row("table2", "E-T2: Table 2", table2),
    row("table3", "E-T3: Table 3", table3),
    row("fig2", "E-F2: Fig. 2", fig2),
    row("fig3", "E-F3: Fig. 3", fig3),
    row("fig5", "E-F5: Fig. 5", fig5),
    row("fig6", "E-F6: Fig. 6, §3.2", fig6),
    row("ablate_demux", "E-A1: §3.3", ablate_demux),
    row("ablate_tm_floorplan", "E-A2: §4", ablate_tm_floorplan),
    row("ablate_multiclock", "E-A3: §4", ablate_multiclock),
    row("ablate_sched", "E-X1: §5 extension", ablate_sched),
    row("ablate_faults", "E-X2: loss sweep", ablate_faults),
    row("ablate_load", "E-X4: offered load vs latency", ablate_load),
    row("exp_migrate", "E-M1: §3.1 live repartitioning", exp_migrate),
    row("exp_tse", "E-TS1: TE/security at 10^6 flows", exp_tse),
    row("exp_soak", "E-D1: the adcpd serving-daemon soak", exp_soak),
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ROWS.iter().find(|e| e.name == name)
}

fn fig1_fig4(_: Scale) -> Rendered {
    Rendered {
        text: exp_figs::fig1_fig4(),
        ..Rendered::new()
    }
}

fn table1(scale: Scale) -> Rendered {
    let rows = exp_tables::table1(scale == Scale::Quick);
    let mut r = Rendered::new().table(
        "table1",
        "Table 1 — coflow applications on both architectures (live runs)",
        "app target correct in out recirc makespan_ns goodput_Gbps elems/s p99_ns",
        &rows,
        |r| {
            vec![
                r.app.clone(),
                r.target.clone(),
                r.correct.to_string(),
                r.injected.to_string(),
                r.delivered.to_string(),
                r.recirc_passes.to_string(),
                format!("{:.1}", r.makespan_ns),
                format!("{:.3}", r.goodput_gbps),
                format!("{:.3e}", r.elements_per_sec),
                format!("{:.1}", r.latency.p99_ns),
            ]
        },
    );
    for row in &rows {
        for n in &row.notes {
            r = r.line(&format!("  note[{} {}]: {n}", row.app, row.target));
        }
    }
    r
}

const SCALING_HEADER: &str = "thr_Gbps port_Gbps pipes ports/pipe min_pkt_B freq_GHz paper match";

fn scaling_cells(r: &exp_tables::ScalingCmpRow) -> Vec<String> {
    vec![
        r.derived.throughput_gbps.to_string(),
        r.derived.port_speed_gbps.to_string(),
        r.derived.num_pipelines.to_string(),
        r.derived.ports_per_pipeline.to_string(),
        r.derived.min_packet_bytes.to_string(),
        format!("{:.2}", r.derived.pipeline_freq_ghz),
        format!("{}B/{:.2}GHz", r.paper_min_packet, r.paper_freq_ghz),
        if r.matches_paper { "yes" } else { "NO" }.into(),
    ]
}

fn table2(_: Scale) -> Rendered {
    Rendered::new()
        .table(
            "table2",
            "Table 2 — port multiplexing poor scalability (derived vs paper)",
            SCALING_HEADER,
            &exp_tables::table2(),
            scaling_cells,
        )
        .line(
            "\nnote: the paper's printed row 4 labels an 8x8x800G configuration \
             as 25.6 Tbps; the per-pipeline figures (which the argument rests on) \
             are reproduced exactly.",
        )
}

fn table3(_: Scale) -> Rendered {
    Rendered::new().table(
        "table3",
        "Table 3 — port demultiplexing (derived vs paper)",
        SCALING_HEADER,
        &exp_tables::table3(),
        scaling_cells,
    )
}

fn fig2(scale: Scale) -> Rendered {
    Rendered::new().table(
        "fig2",
        "Fig. 2 — coflow convergence restrictions (8-worker aggregation, width 1)",
        "target correct reach recirc/pkt makespan_ns p99_ns",
        &exp_figs::fig2(scale == Scale::Quick),
        |r| {
            vec![
                r.target.clone(),
                r.correct.to_string(),
                format!("{}/{}", r.reachable_ports, r.total_ports),
                format!("{:.2}", r.recirc_per_packet),
                format!("{:.1}", r.makespan_ns),
                format!("{:.1}", r.p99_ns),
            ]
        },
    )
}

fn fig3(scale: Scale) -> Rendered {
    Rendered::new()
        .table(
            "fig3",
            "Fig. 3 — replication cost of a 1024-entry table keyed on a width-w array",
            "width rmt_replicas rmt_KiB adcp_KiB rmt_max drmt_max adcp_max capacity_x",
            &exp_figs::fig3(),
            |r| {
                vec![
                    r.width.to_string(),
                    r.rmt_replicas.to_string(),
                    r.rmt_mem_kib.to_string(),
                    r.adcp_mem_kib.to_string(),
                    r.rmt_max_entries.to_string(),
                    r.drmt_max_entries.to_string(),
                    r.adcp_max_entries.to_string(),
                    format!("{:.1}", r.capacity_ratio),
                ]
            },
        )
        .table(
            "fig3_hit_rates",
            "Fig. 3 (consequence) — Zipf(0.99) cache hit rate at equal stage memory",
            "target width cache_entries hit_rate",
            &exp_figs::fig3_hit_rates(scale == Scale::Quick),
            |r| {
                vec![
                    r.target.clone(),
                    r.width.to_string(),
                    r.cache_entries.to_string(),
                    format!("{:.3}", r.hit_rate),
                ]
            },
        )
}

fn fig5(scale: Scale) -> Rendered {
    Rendered::new().table(
        "fig5",
        "Fig. 5 — hash placement across central pipelines; any-port output",
        "central_pipe busy_cycles distinct_out_ports",
        &exp_figs::fig5(scale == Scale::Quick),
        |r| {
            vec![
                r.central_pipe.to_string(),
                r.busy_cycles.to_string(),
                r.distinct_output_ports.to_string(),
            ]
        },
    )
}

fn fig6(scale: Scale) -> Rendered {
    Rendered::new().table(
        "fig6",
        "Fig. 6 — array matching lifts the key rate (analytic + measured)",
        "width analytic_keys/s measured_elems/s speedup",
        &exp_figs::fig6(scale == Scale::Quick),
        |r| {
            vec![
                r.width.to_string(),
                eng(r.analytic_keys_per_sec),
                eng(r.measured_elements_per_sec),
                format!("{:.1}x", r.measured_speedup),
            ]
        },
    )
}

fn ablate_demux(_: Scale) -> Rendered {
    Rendered::new().table(
        "ablate_demux",
        "Ablation — demux ratio (84 B minimum packets)",
        "port_Gbps m pipe_GHz rel_power rel_area tm_pipes@51T",
        &exp_ablations::ablate_demux(),
        |r| {
            vec![
                r.port_gbps.to_string(),
                r.demux.to_string(),
                format!("{:.2}", r.pipe_ghz),
                format!("{:.3}", r.rel_power),
                format!("{:.2}", r.rel_area),
                r.tm_pipelines_51t.to_string(),
            ]
        },
    )
}

fn ablate_tm_floorplan(_: Scale) -> Rendered {
    Rendered::new().table(
        "ablate_tm_floorplan",
        "Ablation — TM boundary g-cell utilization (>0.8 = congestion risk)",
        "pipelines mono_util inter_util mono_ok inter_ok",
        &exp_ablations::ablate_tm_floorplan(),
        |r| {
            vec![
                r.pipelines.to_string(),
                format!("{:.2}", r.monolithic_util),
                format!("{:.2}", r.interleaved_util),
                r.monolithic_routable.to_string(),
                r.interleaved_routable.to_string(),
            ]
        },
    )
}

fn ablate_multiclock(_: Scale) -> Rendered {
    Rendered::new().table(
        "ablate_multiclock",
        "Ablation — multi-clock MAT (SRAM limit 4 GHz): mem_freq = width x pipe_freq",
        "pipe_GHz width mem_GHz feasible",
        &exp_ablations::ablate_multiclock(),
        |r| {
            vec![
                format!("{:.2}", r.pipe_ghz),
                r.width.to_string(),
                format!("{:.2}", r.mem_ghz),
                r.feasible.to_string(),
            ]
        },
    )
}

fn ablate_sched(scale: Scale) -> Rendered {
    Rendered::new()
        .table(
            "ablate_sched",
            "Extension (§5) — programmable TM1: shortest-coflow-first vs FIFO",
            "tm1_policy short_cct_ns long_cct_ns makespan_ns",
            &exp_sched::ablate_sched(scale == Scale::Quick),
            |r| {
                vec![
                    r.policy.clone(),
                    format!("{:.1}", r.short_cct_ns),
                    format!("{:.1}", r.long_cct_ns),
                    format!("{:.1}", r.makespan_ns),
                ]
            },
        )
        .line(
            "\nreading: with the program computing each packet's rank (its coflow's\n\
             size), the PIFO lets the latency-sensitive coflow overtake the bulk\n\
             shuffle — its completion time collapses while the bulk's is unmoved.",
        )
}

fn ablate_faults(scale: Scale) -> Rendered {
    Rendered::new()
        .table(
            "ablate_faults",
            "Fault sweep — aggregation completion under per-link loss (8 workers)",
            "drop_p lost_pkts chunks completion (1-p)^8",
            &exp_faults::ablate_faults(scale == Scale::Quick),
            |r| {
                vec![
                    format!("{:.2}", r.drop_chance),
                    r.dropped.to_string(),
                    format!("{}/{}", r.completed_chunks, r.total_chunks),
                    format!("{:.3}", r.completion),
                    format!("{:.3}", r.expected_completion),
                ]
            },
        )
        .line(
            "\nreading: a chunk completes only if all 8 contributions survive, so\n\
             completion tracks (1-p)^8 — the all-or-nothing cost of in-network\n\
             aggregation that end-host retransmission protocols must cover.",
        )
}

fn ablate_load(scale: Scale) -> Rendered {
    Rendered::new()
        .table(
            "ablate_load",
            "Load sweep — 4 sources to 4 sinks, 256 B frames",
            "target load delivered drops p50_ns p99_ns",
            &exp_load::ablate_load(scale == Scale::Quick),
            |r| {
                vec![
                    r.target.clone(),
                    format!("{:.2}", r.load),
                    r.delivered.to_string(),
                    r.drops.to_string(),
                    format!("{:.1}", r.latency.p50_ns),
                    format!("{:.1}", r.latency.p99_ns),
                ]
            },
        )
        .line(
            "\nreading: every ADCP packet takes the extra TM1->central->TM2 hop\n\
             (the cost of the global area), offset here by its faster ports'\n\
             serialization. Load is relative to each target's own line rate:\n\
             latency is flat below saturation and backlogs at 1.2x (sources\n\
             block rather than drop in this sweep).",
        )
}

fn exp_migrate(scale: Scale) -> Rendered {
    Rendered::new()
        .table(
            "exp_migrate",
            "E-M1 — live repartitioning: drain vs incremental (same traffic, same final map)",
            "scenario delivered identical migs moved paused_ns redirected misroutes p99_ns \
             final_skew",
            &exp_migrate::exp_migrate(scale == Scale::Quick),
            |r| {
                vec![
                    r.scenario.clone(),
                    format!("{}/{}", r.delivered, r.packets),
                    r.identical_to_baseline.to_string(),
                    r.migrations.to_string(),
                    r.moved_keys.to_string(),
                    r.paused_ns.to_string(),
                    r.redirected_pkts.to_string(),
                    r.misroutes.to_string(),
                    format!("{:.1}", r.p99_ns),
                    format!("{:.2}", r.final_max_over_mean),
                ]
            },
        )
        .line(
            "\nreading: both strategies end at the same balance and reproduce the\n\
             never-migrated output byte for byte; the drain pause covers the whole\n\
             shard copy while incremental pays only the in-flight fence, so its\n\
             pause (and p99) is strictly lower.",
        )
}

fn exp_tse(scale: Scale) -> Rendered {
    let rows = exp_tse::exp_tse(scale == Scale::Quick);
    let mode = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full: 10^6 live flows",
    };
    let ok = rows.iter().all(|r| r.correct);
    Rendered {
        ok,
        ..Rendered::new()
    }
    .table(
        "exp_tse",
        &format!("E-TS1 — TE/security workloads ({mode} mode)"),
        "app target flows in out drops recirc detector ctrl p99_ns correct",
        &rows,
        |r| {
            let detector = if r.app == "flowlet-ldf" {
                format!("repicks={}", r.repicks)
            } else {
                format!("promo={} demo={}", r.promotions, r.demotions)
            };
            let ctrl = if r.app == "ddos" && r.target == "adcp" {
                format!(
                    "reshards={} moved={} misroutes={} skew {:.2}->{:.2}",
                    r.rebalances, r.moved_keys, r.misroutes, r.skew_before, r.skew_after
                )
            } else {
                "-".into()
            };
            vec![
                r.app.clone(),
                r.target.clone(),
                r.flows.to_string(),
                r.injected.to_string(),
                r.delivered.to_string(),
                r.drops.to_string(),
                r.recirc_passes.to_string(),
                detector,
                ctrl,
                format!("{:.1}", r.p99_ns),
                r.correct.to_string(),
            ]
        },
    )
    .line(
        "\nreading: both stateful apps verify exactly against their host\n\
             references on every target. The RMT recirc lowering pays one pass\n\
             per stateful packet; the pinned lowering funnels everything to the\n\
             collector port. On the ADCP the ddos security controller isolates\n\
             the promoted (attacked) key range into singleton buckets mid-ramp\n\
             and the live reshard completes with zero misroutes.",
    )
}

fn exp_soak(scale: Scale) -> Rendered {
    let rows = exp_soak::exp_soak(scale == Scale::Quick);
    let ok = (rows.iter())
        .all(|r| r.healthy && r.identical_rerun && r.scale_ups >= 1 && r.scale_downs >= 1);
    Rendered {
        ok,
        ..Rendered::new()
    }
    .table(
        "exp_soak",
        "E-D1 — serving-daemon soak: SLO autoscaling under faults",
        "app sim_ms arrivals delivered p99_ns up+down+skew misroutes healthy identical_rerun",
        &rows,
        |r| {
            vec![
                r.app.clone(),
                format!("{:.1}", r.sim_ns as f64 / 1e6),
                r.arrivals.to_string(),
                r.delivered.to_string(),
                r.p99_ns.to_string(),
                format!("{}+{}+{}", r.scale_ups, r.scale_downs, r.skew_rebalances),
                r.misroutes.to_string(),
                r.healthy.to_string(),
                r.identical_rerun.to_string(),
            ]
        },
    )
    .line(
        "\nreading: every run drains with forensics == registry (zero drift),\n\
             a clean serving oracle, exact conservation, and zero misroutes; the\n\
             burn-rate loop scales up at every diurnal peak and releases pipes in\n\
             the troughs; and a second run of the same configuration reports\n\
             the same bytes.",
    )
}
