//! Environment fingerprint: what machine and toolchain produced a number,
//! and whether the machine was steady while it did.

use serde::Serialize;
use std::process::Command;
use std::time::Instant;

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 100_000_000;

/// Two calibration readings further apart than this mark a run `noisy`.
pub const NOISY_SHARE: f64 = 0.10;

/// Time a fixed 10⁸-iteration dependent integer loop, in ns. The loop's
/// work never changes, so its time moves only with the machine's state
/// (frequency, a busy neighbour).
pub fn calibrate_ns() -> u64 {
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..CALIBRATION_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What ran the workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    /// Cores available to the process.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, `unknown` outside a git checkout.
    pub commit: String,
    /// Calibration loop before the workload, ns.
    pub calibration_before_ns: u64,
    /// Calibration loop after the workload, ns.
    pub calibration_after_ns: u64,
    /// The two calibration readings differ by more than [`NOISY_SHARE`].
    pub noisy: bool,
}

impl Fingerprint {
    /// Take the fingerprint's static parts and the first calibration.
    pub fn before() -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: tool_line("rustc", &["-V"]),
            commit: tool_line("git", &["rev-parse", "HEAD"]),
            calibration_before_ns: calibrate_ns(),
            calibration_after_ns: 0,
            noisy: false,
        }
    }

    /// Take the second calibration and decide `noisy`.
    pub fn after(mut self) -> Fingerprint {
        self.calibration_after_ns = calibrate_ns();
        let (a, b) = (
            self.calibration_before_ns as f64,
            self.calibration_after_ns as f64,
        );
        self.noisy = (a - b).abs() / a.min(b) > NOISY_SHARE;
        self
    }
}
