//! The app-set lane of the conformance story: every application in the
//! trace menu (`suite::APPS`, including the TE/security pair `flowlet-ldf`
//! and `ddos`) must pass its own reference oracle AND the drop-forensics
//! ↔ metrics-registry cross-check — the same invariant `adcp trace
//! --forensics` asserts interactively and the random-program conformance
//! harness asserts per generated case.
//!
//! This lives in its own integration-test binary because journey tracing
//! is enabled process-wide via `ADCP_TRACE`, which both switch models
//! read at construction time; a dedicated process keeps the env mutation
//! from leaking into unrelated tests.

use adcp_apps::{suite, TargetKind};
use adcp_bench::journey::forensics;
use adcp_bench::trace::run_one;

#[test]
fn every_app_passes_the_forensics_cross_check() {
    // Record every journey (sample stride 1) so forensic drop counts are
    // exact, then sweep the full app menu on both architectures.
    std::env::set_var("ADCP_TRACE", "1");
    for app in suite::names() {
        for kind in [TargetKind::Adcp, TargetKind::RmtPinned] {
            let r = run_one(app, kind, true).expect("known app");
            // Correctness is only asserted on the ADCP: Table 1's point is
            // precisely that some apps come up short on an RMT lowering
            // (the report records that as `correct = false`). The
            // forensics↔registry reconciliation below must hold anyway.
            if kind == TargetKind::Adcp {
                assert!(r.correct, "{app} on adcp failed its reference oracle");
            }
            let f = forensics(&r.trace, &r.metrics).unwrap_or_else(|| {
                panic!("{app} on {}: tracing or metrics disabled", kind.label())
            });
            assert!(
                f.ok(),
                "{app} on {}: forensics disagree with the registry: {:?}",
                kind.label(),
                f.mismatches
            );
        }
    }
    // The recirculating lowering is the interesting third variant for the
    // stateful TE/security pair: every packet's extra pass must still
    // reconcile drops exactly.
    for app in ["flowlet-ldf", "ddos"] {
        let r = run_one(app, TargetKind::RmtRecirc, true).expect("known app");
        assert!(r.correct, "{app} on rmt/recirc");
        let f = forensics(&r.trace, &r.metrics).expect("tracing enabled");
        assert!(f.ok(), "{app} on rmt/recirc: {:?}", f.mismatches);
    }
}
