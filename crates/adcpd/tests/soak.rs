//! End-to-end soak acceptance: the compressed choreography must close the
//! autoscaling loop in both directions with balanced books, a rerun of
//! the same configuration must report byte-identically, the rotating
//! observability stream must stay schema-valid, and a partial run must
//! drain gracefully into a healthy report.

use adcp_sim::schema::{load_chrome_trace_schema, load_metrics_schema, validate};
use adcpd::daemon::{Daemon, DaemonCfg};
use adcpd::menu::ServeApp;
use adcpd::stream::StreamCfg;

fn run(cfg: DaemonCfg) -> adcpd::daemon::SoakReport {
    Daemon::new(cfg).expect("daemon builds").run()
}

#[test]
fn soak_quick_report_is_byte_identical_on_rerun() {
    let r = &run(DaemonCfg::soak_quick(7));
    assert!(r.healthy, "drift: {:?} oracle: {:?}", r.drift, r.oracle);
    assert!(r.meets_soak_bar());
    assert!(r.scale_ups >= 1, "no scale-up: {}", r.to_json());
    assert!(r.scale_downs >= 1, "no scale-down: {}", r.to_json());
    assert_eq!(r.misroutes, 0);
    assert!(r.drift.is_empty());
    assert!(r.oracle.is_empty());
    assert!(r.conservation_ok);
    // Fault windows really bit: wire losses and FCS kills both nonzero.
    assert!(r.wire_dropped > 0, "drop window produced no wire losses");
    assert!(
        r.drops.iter().any(|d| d.reason == "fcs_bad" && d.count > 0),
        "corrupt window produced no FCS drops: {}",
        r.to_json()
    );
    // The report is a pure function of the configuration.
    let again = run(DaemonCfg::soak_quick(7));
    assert_eq!(r.to_json(), again.to_json(), "rerun diverged");
}

#[test]
fn shardmax_app_also_passes_the_soak_bar() {
    let mut cfg = DaemonCfg::soak_quick(11);
    cfg.app = ServeApp::ShardMax;
    let r = run(cfg);
    assert!(r.healthy, "drift: {:?} oracle: {:?}", r.drift, r.oracle);
    assert!(r.meets_soak_bar(), "{}", r.to_json());
}

#[test]
fn stream_files_rotate_and_validate() {
    let dir = std::env::temp_dir().join(format!("adcpd-soak-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DaemonCfg::soak_quick(7);
    cfg.stream = Some(StreamCfg {
        dir: dir.clone(),
        keep: 4,
    });
    cfg.stream_every = 32;
    let r = run(cfg);
    assert!(r.healthy);
    // 256 slices / every 32 = 8 in-run snapshots + 1 final.
    assert_eq!(r.snapshots_written, 9);
    let mut metrics = 0usize;
    let mut traces = 0usize;
    let mschema = load_metrics_schema().unwrap();
    let cschema = load_chrome_trace_schema().unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: bad json: {e:?}"));
        if name.starts_with("metrics-") {
            validate(&doc, &mschema).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            metrics += 1;
        } else if name.starts_with("trace-") {
            validate(&doc, &cschema).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(doc.get("traceEvents").is_some());
            traces += 1;
        } else {
            panic!("unexpected file {name}");
        }
    }
    // Rotation bounded both streams at `keep`.
    assert_eq!(metrics, 4);
    assert_eq!(traces, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn int_soak_streams_telemetry_and_reruns_byte_identical() {
    if !adcp_sim::int::IntKnob::from_env(true).on() {
        return; // ADCP_INT forced off in this environment.
    }
    let dir = std::env::temp_dir().join(format!("adcpd-soak-int-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mk = |dir: &std::path::Path| {
        let mut cfg = DaemonCfg::soak_quick(7);
        cfg.int = true;
        cfg.stream = Some(StreamCfg {
            dir: dir.to_path_buf(),
            keep: 4,
        });
        cfg.stream_every = 64;
        cfg
    };
    let r = run(mk(&dir));
    assert!(r.healthy, "drift: {:?} oracle: {:?}", r.drift, r.oracle);
    let t = r.telemetry.as_ref().expect("int on => telemetry summary");
    assert!(t.postcards > 0, "{}", r.to_json());
    assert!(t.stamps > t.postcards, "multi-hop stamps per postcard");
    assert_eq!(t.pkts as u64, t.postcards, "one postcard per delivered pkt");
    // Streamed telemetry generations exist and validate.
    let yschema = adcp_sim::schema::load_telemetry_schema().unwrap();
    let mut telemetry_files = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("telemetry-") {
            let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            validate(&doc, &yschema).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            telemetry_files += 1;
        }
    }
    assert!(telemetry_files > 0, "no telemetry generations written");
    let _ = std::fs::remove_dir_all(&dir);
    // With stamping on the report (stamped depths included) is still a
    // pure function of the configuration.
    let dir2 = dir.with_file_name(format!("adcpd-soak-int-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    let r2 = run(mk(&dir2));
    let _ = std::fs::remove_dir_all(&dir2);
    assert_eq!(r.to_json(), r2.to_json(), "rerun diverged under INT");
}

#[test]
fn partial_run_drains_gracefully_with_balanced_books() {
    let mut d = Daemon::new(DaemonCfg::soak_quick(3)).unwrap();
    // Stop mid-choreography, inside the first fault window's aftermath.
    let ran = d.run_slices(48);
    assert_eq!(ran, 48);
    let r = d.finish();
    assert_eq!(r.slices_run, 48);
    assert!(r.healthy, "drift: {:?} oracle: {:?}", r.drift, r.oracle);
    assert!(r.conservation_ok);
    assert_eq!(r.misroutes, 0);
    // A 12ms run covers one diurnal peak: the daemon scaled up but may
    // not have seen a deep trough yet — health must not depend on that.
    assert!(r.slo.slices >= 48);
}
