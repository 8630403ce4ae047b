//! The suite: one row per application, the one list every driver loops
//! over (`table1`, `adcp trace`, the datapath pin, the cost pin).
//!
//! Adding an app is one module plus one row here. A row names the app,
//! the RMT lowerings that make sense for it, and how to run it at either
//! of the suite's two sizes; the sizes themselves live beside each app's
//! `Default` as `Cfg::sized` (DESIGN.md §2 tabulates them).

use crate::driver::{AppReport, TargetKind};
use crate::{dbshuffle, ddos, flowlet, graphmine, groupcomm, kvcache, migrate, netlock, paramserv};
use adcp_core::MigrationStrategy;
use TargetKind::{RmtPinned, RmtRecirc};

/// Which of a row's two sizes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sanity size: the same program, seconds for the whole suite.
    Quick,
    /// The size results are reported at.
    Full,
}

impl Scale {
    /// The scale a binary's `--quick` flag selects.
    pub fn of(quick: bool) -> Scale {
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// One application of the suite.
pub struct App {
    /// The name it reports under (`AppReport::app`) and is looked up by.
    pub name: &'static str,
    /// The RMT lowerings that make sense for it, preferred first. An app
    /// with no central state lists only `RmtPinned`: the two lowerings
    /// compile to the same thing.
    pub rmt: &'static [TargetKind],
    /// Build, drive and verify it on one target at one size.
    pub run: fn(TargetKind, Scale) -> AppReport,
}

impl App {
    /// Every target the row runs on: the ADCP, then its RMT lowerings.
    pub fn kinds(&self) -> impl Iterator<Item = TargetKind> {
        [TargetKind::Adcp]
            .into_iter()
            .chain(self.rmt.iter().copied())
    }
}

const BOTH: &[TargetKind] = &[RmtRecirc, RmtPinned];

/// Every application, in menu order. The first [`TABLE1`] rows are the
/// paper's Table 1.
pub static APPS: [App; 9] = [
    App {
        name: "paramserv",
        rmt: BOTH,
        run: |k, s| paramserv::run(k, &paramserv::ParamServerCfg::sized(s)),
    },
    App {
        name: "dbshuffle",
        rmt: BOTH,
        run: |k, s| dbshuffle::run(k, &dbshuffle::DbShuffleCfg::sized(s)),
    },
    App {
        name: "graphmine",
        rmt: BOTH,
        run: |k, s| graphmine::run(k, &graphmine::GraphMineCfg::sized(s)),
    },
    App {
        name: "groupcomm",
        rmt: &[RmtPinned],
        run: |k, s| groupcomm::run(k, &groupcomm::GroupCommCfg::sized(s)),
    },
    // Pinning is listed too: its *failure* to hand off locks is part of
    // the result.
    App {
        name: "netlock",
        rmt: BOTH,
        run: |k, s| netlock::run(k, &netlock::NetLockCfg::sized(s)),
    },
    App {
        name: "kvcache",
        rmt: &[RmtPinned],
        run: |k, s| kvcache::run(k, &kvcache::KvCacheCfg::sized(s)).report,
    },
    App {
        name: "flowlet-ldf",
        rmt: BOTH,
        run: |k, s| flowlet::run(k, &flowlet::LdfCfg::sized(s)).report,
    },
    App {
        name: "ddos",
        rmt: BOTH,
        run: |k, s| ddos::run(k, &ddos::DdosCfg::sized(s)).report,
    },
    // The ADCP run includes a mid-workload migration (controller + state
    // copy on the event loop), so this row tracks the control plane too.
    App {
        name: PARTMIGRATE,
        rmt: BOTH,
        run: |k, s| migrate::run(k, &migrate::MigrateCfg::sized(s)).report,
    },
];

/// How many leading rows of [`APPS`] the `table1` regenerator runs.
pub const TABLE1: usize = 6;

/// The one row with a control-plane knob a driver may set
/// (`adcp trace --migrate`, through [`partmigrate_with`]).
pub const PARTMIGRATE: &str = "partmigrate";

/// Every row's name, in menu order.
pub fn names() -> impl Iterator<Item = &'static str> {
    APPS.iter().map(|a| a.name)
}

/// Look a row up by name.
pub fn app(name: &str) -> Option<&'static App> {
    APPS.iter().find(|a| a.name == name)
}

/// The `partmigrate` row under a caller-chosen controller policy (`None`
/// runs without a control plane).
pub fn partmigrate_with(
    kind: TargetKind,
    scale: Scale,
    strategy: Option<MigrationStrategy>,
) -> AppReport {
    let cfg = migrate::MigrateCfg {
        strategy,
        ..migrate::MigrateCfg::sized(scale)
    };
    migrate::run(kind, &cfg).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_the_menu_order() {
        let menu: Vec<&str> = names().collect();
        assert_eq!(
            menu,
            [
                "paramserv",
                "dbshuffle",
                "graphmine",
                "groupcomm",
                "netlock",
                "kvcache",
                "flowlet-ldf",
                "ddos",
                "partmigrate",
            ]
        );
        for a in &APPS {
            assert!(std::ptr::eq(app(a.name).expect("found by name"), a));
        }
        assert!(app("nosuchapp").is_none());
    }

    #[test]
    fn every_row_reports_under_its_own_name_and_kind() {
        for a in &APPS {
            assert!(!a.rmt.is_empty() && !a.rmt.contains(&TargetKind::Adcp));
            for kind in a.kinds() {
                let r = (a.run)(kind, Scale::Quick);
                assert_eq!(r.app, a.name);
                assert_eq!(r.target, kind.label(), "{}", a.name);
            }
        }
    }
}
