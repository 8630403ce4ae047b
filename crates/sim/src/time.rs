//! Simulation time and clock frequencies.
//!
//! The entire reproduction runs on integer **picosecond** timestamps
//! ([`SimTime`], [`Duration`]). The paper's arguments are about clock
//! frequencies (Tables 2 and 3 trade pipeline frequency against port
//! speed), so a [`Freq`] exists to be turned into its clock period
//! ([`Freq::period`]). The one-PHV-per-cycle rule is enforced where the
//! period is spent: a pipeline's [`crate::datapath::Slot`] claims one
//! period per packet.
//!
//! Integer picoseconds keep the simulation deterministic (no floating-point
//! drift) while still resolving the frequencies the paper discusses: a
//! 1.62 GHz pipeline has a period of 617 ps; an 800 Gbps port serializes one
//! byte every 10 ps.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never" for idle components.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    pub fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    pub fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Raw picosecond value.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Time expressed in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating difference (`self - earlier`), zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: Duration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "never");
        }
        if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= PS_PER_NS {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A span of simulation time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from picoseconds.
    pub fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Construct from nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    pub fn from_us(us: u64) -> Self {
        Duration(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    pub fn from_ms(ms: u64) -> Self {
        Duration(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * PS_PER_S)
    }

    /// Raw picoseconds.
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration in fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

/// A clock frequency.
///
/// Stored in kilohertz so that the frequencies in the paper (e.g. 0.95 GHz,
/// 1.19 GHz, 1.62 GHz) are represented exactly as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq {
    khz: u64,
}

impl Freq {
    /// Construct from gigahertz (fractional values allowed, e.g. `1.62`).
    pub fn ghz(g: f64) -> Self {
        assert!(g > 0.0, "frequency must be positive");
        Freq {
            khz: (g * 1_000_000.0).round() as u64,
        }
    }

    /// Construct from an exact kilohertz count.
    pub fn from_khz(khz: u64) -> Self {
        assert!(khz > 0, "frequency must be positive");
        Freq { khz }
    }

    /// Frequency in hertz.
    pub fn as_hz(self) -> u64 {
        self.khz * 1_000
    }

    /// Frequency in fractional gigahertz.
    pub fn as_ghz_f64(self) -> f64 {
        self.khz as f64 / 1_000_000.0
    }

    /// The clock period in picoseconds, rounded to the nearest integer.
    ///
    /// 1.62 GHz → 617 ps; 0.95 GHz → 1053 ps.
    pub fn period(self) -> Duration {
        // period_ps = 1e12 / hz = 1e9 / khz
        Duration((1_000_000_000 + self.khz / 2) / self.khz)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GHz", self.as_ghz_f64())
    }
}

/// An endless sequence of contiguous, equal-width simulation-time slices
/// `[start, end)`, the stepping discipline of a long-running serving loop:
/// inject what arrives inside the slice, run the event loop to the slice
/// boundary, then do control-plane work (SLO accounting, autoscaler tick,
/// metrics streaming) with bounded per-iteration latency instead of
/// running the switch to idle.
#[derive(Debug, Clone)]
pub struct TimeSlicer {
    next: SimTime,
    width: Duration,
}

/// One slice produced by [`TimeSlicer`]: `start <= t < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Inclusive slice start.
    pub start: SimTime,
    /// Exclusive slice end.
    pub end: SimTime,
}

impl TimeSlicer {
    /// Slices of `width` starting at `origin`. Panics on zero width.
    pub fn new(origin: SimTime, width: Duration) -> Self {
        assert!(width.as_ps() > 0, "slice width must be positive");
        TimeSlicer {
            next: origin,
            width,
        }
    }

    /// The slice index the next `next()` call will return.
    pub fn upcoming_index(&self) -> u64 {
        self.next.as_ps() / self.width.as_ps()
    }
}

impl Iterator for TimeSlicer {
    type Item = Slice;

    fn next(&mut self) -> Option<Slice> {
        let start = self.next;
        let end = start + self.width;
        self.next = end;
        Some(Slice { start, end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_slicer_is_contiguous_and_gapless() {
        let mut s = TimeSlicer::new(SimTime::from_us(3), Duration::from_us(5));
        let mut prev_end = SimTime::from_us(3);
        for _ in 0..100 {
            let sl = s.next().unwrap();
            assert_eq!(sl.start, prev_end, "slices must tile without gaps");
            assert_eq!(sl.end - sl.start, Duration::from_us(5));
            prev_end = sl.end;
        }
        assert_eq!(s.upcoming_index(), (3 + 100 * 5) / 5);
    }

    #[test]
    fn thirty_day_horizon_is_exact_and_checked_add_stops_at_the_wrap() {
        // u64 picoseconds last about 213 days; a 30-day `adcpd` horizon is
        // 2.592e18 ps, so every step up to it must be exact integer math.
        const DAY_S: u64 = 86_400;
        let horizon = SimTime::ZERO + Duration::from_secs(30 * DAY_S);
        assert_eq!(horizon.as_ps(), 2_592_000 * PS_PER_S);
        assert_eq!(horizon.as_secs_f64(), 2_592_000.0);
        let mut t = SimTime::ZERO;
        for _ in 0..30 {
            t += Duration::from_secs(DAY_S);
        }
        assert_eq!(t, horizon);
        assert_eq!(horizon - SimTime::ZERO, Duration::from_secs(30 * DAY_S));
        let before = SimTime(horizon.as_ps() - 1);
        assert_eq!(horizon.saturating_since(before), Duration(1));
        assert_eq!(before.saturating_since(horizon), Duration::ZERO);
        // The daemon's 250 us slices reach the horizon on an exact index.
        let width = Duration::from_us(250);
        let mut last = TimeSlicer::new(SimTime(horizon.as_ps() - width.as_ps()), width);
        assert_eq!(last.upcoming_index(), 30 * DAY_S * 4_000 - 1);
        assert_eq!(last.next().map(|s| s.end), Some(horizon));
        // Past the wrap `checked_add` refuses instead of wrapping.
        assert_eq!(
            SimTime(u64::MAX - 1).checked_add(Duration(1)),
            Some(SimTime::NEVER)
        );
        assert_eq!(
            SimTime::NEVER.checked_add(Duration::ZERO),
            Some(SimTime::NEVER)
        );
        assert_eq!(SimTime::NEVER.checked_add(Duration(1)), None);
        assert_eq!(horizon.checked_add(Duration::from_secs(200 * DAY_S)), None);
    }

    #[test]
    fn period_of_paper_frequencies() {
        // The frequencies that appear in Tables 2 and 3 of the paper.
        assert_eq!(Freq::ghz(1.0).period(), Duration(1000));
        assert_eq!(Freq::ghz(1.62).period(), Duration(617));
        assert_eq!(Freq::ghz(1.25).period(), Duration(800));
        assert_eq!(Freq::ghz(0.95).period(), Duration(1053));
        assert_eq!(Freq::ghz(0.60).period(), Duration(1667));
        assert_eq!(Freq::ghz(1.19).period(), Duration(840));
    }

    #[test]
    fn time_arithmetic_and_display() {
        let t = SimTime::from_ns(3) + Duration::from_ps(500);
        assert_eq!(t.as_ps(), 3500);
        assert_eq!(t - SimTime::from_ns(1), Duration(2500));
        assert_eq!(SimTime(1500).to_string(), "1.500ns");
        assert_eq!(SimTime(999).to_string(), "999ps");
        assert_eq!(SimTime::NEVER.to_string(), "never");
        assert_eq!(
            SimTime::from_us(2).saturating_since(SimTime::from_us(5)),
            Duration::ZERO
        );
    }
}
