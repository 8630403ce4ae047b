//! Arrival processes: when packets hit the switch.
//!
//! The serving daemon (`adcpd`) needs *open-loop* sources that model a
//! large user population over long horizons: a diurnal rate profile
//! (day/night swing of an aggregate of millions of users) with a
//! Markov-modulated burst overlay (MMPP) on top. [`OpenLoopSource`]
//! composes both via Lewis–Shedler thinning, so arrival times are a pure
//! function of the seed — offered load can never depend on how fast the
//! switch serves (no feedback channel exists by construction).

use adcp_sim::rng::SimRng;
use adcp_sim::time::{Duration, SimTime};

/// Sinusoidal diurnal rate profile for an aggregate user population: the
/// instantaneous offered load swings around `base_pps` once per `period`.
#[derive(Debug, Clone, Copy)]
pub struct DiurnalCfg {
    /// Mean offered load in packets per second (the daily midpoint).
    pub base_pps: f64,
    /// Relative swing in `[0, 1)`: the rate peaks at `base_pps * (1 +
    /// amplitude)` and troughs at `base_pps * (1 - amplitude)`.
    pub amplitude: f64,
    /// Length of one (possibly compressed) "day".
    pub period: Duration,
    /// Phase offset as a fraction of the period in `[0, 1)`. Phase 0
    /// starts at the midpoint heading towards the peak.
    pub phase: f64,
}

impl DiurnalCfg {
    /// Instantaneous rate at simulated time `t`, in packets per second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let frac = (t.as_ps() % self.period.as_ps()) as f64 / self.period.as_ps() as f64;
        let theta = std::f64::consts::TAU * (frac + self.phase);
        self.base_pps * (1.0 + self.amplitude * theta.sin())
    }

    /// The profile's peak rate (used as the thinning majorant).
    pub fn peak_pps(&self) -> f64 {
        self.base_pps * (1.0 + self.amplitude)
    }
}

/// Two-state Markov-modulated burst overlay: the chain alternates between
/// a quiet regime and burst episodes during which the diurnal rate is
/// multiplied by `burst_factor`. Holding times are exponential, so the
/// composition with a Poisson arrival draw is an MMPP.
#[derive(Debug, Clone, Copy)]
pub struct MmppCfg {
    /// Rate multiplier while a burst episode is on (`>= 1`).
    pub burst_factor: f64,
    /// Mean quiet-regime holding time.
    pub mean_quiet: Duration,
    /// Mean burst-episode length.
    pub mean_burst: Duration,
}

/// The regime timeline of an [`MmppCfg`]: a pure function of the seed, so
/// burst episodes can be recomputed (and asserted on) independently of how
/// many arrivals each episode produced.
#[derive(Debug, Clone)]
struct RegimeClock {
    cfg: Option<MmppCfg>,
    rng: SimRng,
    in_burst: bool,
    /// Time at which the current regime ends.
    until: SimTime,
}

/// Salt mixed into the seed for the regime RNG stream, so the burst
/// schedule is independent of the arrival-candidate draw count.
const REGIME_SALT: u64 = 0x4d4d_5050; // "MMPP"

impl RegimeClock {
    fn new(cfg: Option<MmppCfg>, seed: u64) -> Self {
        let mut clock = RegimeClock {
            cfg,
            rng: SimRng::seed_from(seed ^ REGIME_SALT),
            in_burst: false,
            until: SimTime(u64::MAX),
        };
        if cfg.is_some() {
            // Start in the quiet regime: pretend we are in a burst and
            // flip, which toggles to quiet and draws a quiet holding time.
            clock.until = SimTime::ZERO;
            clock.in_burst = true;
            clock.flip();
        }
        clock
    }

    /// Draw the next holding time and toggle the regime.
    fn flip(&mut self) {
        let cfg = self.cfg.expect("flip without mmpp");
        self.in_burst = !self.in_burst;
        let mean = if self.in_burst {
            cfg.mean_burst
        } else {
            cfg.mean_quiet
        };
        let u = self.rng.f64().max(1e-12);
        let hold = ((-(u.ln())) * mean.as_ps() as f64) as u64;
        self.until += Duration(hold.max(1));
    }

    /// Advance the chain so that `t < self.until`, returning the regime
    /// in force at `t`.
    fn regime_at(&mut self, t: SimTime) -> bool {
        while t >= self.until {
            self.flip();
        }
        self.in_burst
    }
}

impl MmppCfg {
    /// The deterministic regime schedule for `seed` up to `horizon`:
    /// `(switch_time, enters_burst)` pairs in increasing time order. This
    /// is exactly the timeline an [`OpenLoopSource`] built with the same
    /// seed follows, so tests can cross-check burst episodes without
    /// observing arrivals.
    pub fn schedule(&self, seed: u64, horizon: SimTime) -> Vec<(SimTime, bool)> {
        let mut clock = RegimeClock::new(Some(*self), seed);
        let mut out = Vec::new();
        while clock.until < horizon {
            let at = clock.until;
            clock.flip();
            out.push((at, clock.in_burst));
        }
        out
    }
}

/// An open-loop arrival source: diurnal profile plus optional MMPP burst
/// overlay, realised by Lewis–Shedler thinning of a homogeneous Poisson
/// majorant at the peak achievable rate. The sequence of arrival times is
/// a pure function of `(cfg, seed)` — there is no feedback channel from
/// the server, so offered load is independent of service time by
/// construction (the property the serving daemon's SLO accounting relies
/// on).
#[derive(Debug, Clone)]
pub struct OpenLoopSource {
    diurnal: DiurnalCfg,
    mmpp: Option<MmppCfg>,
    regimes: RegimeClock,
    rng: SimRng,
    rate_max: f64,
    t: SimTime,
    /// An arrival generated past a window boundary by `arrivals_until`,
    /// handed out first by the next `next()` call.
    pending: Option<SimTime>,
}

impl OpenLoopSource {
    /// Build a source from a diurnal profile, an optional burst overlay
    /// and a seed. Panics on non-finite or out-of-range parameters.
    pub fn new(diurnal: DiurnalCfg, mmpp: Option<MmppCfg>, seed: u64) -> Self {
        assert!(diurnal.base_pps > 0.0 && diurnal.base_pps.is_finite());
        assert!((0.0..1.0).contains(&diurnal.amplitude));
        assert!(diurnal.period.as_ps() > 0);
        if let Some(m) = &mmpp {
            assert!(m.burst_factor >= 1.0 && m.burst_factor.is_finite());
            assert!(m.mean_quiet.as_ps() > 0 && m.mean_burst.as_ps() > 0);
        }
        let rate_max = diurnal.peak_pps() * mmpp.map_or(1.0, |m| m.burst_factor);
        OpenLoopSource {
            diurnal,
            mmpp,
            regimes: RegimeClock::new(mmpp, seed),
            rng: SimRng::seed_from(seed),
            rate_max,
            t: SimTime::ZERO,
            pending: None,
        }
    }

    /// The instantaneous target rate at `t` (diurnal x burst), in pps.
    /// Advances the regime chain, so queries must move forward in time —
    /// which the arrival loop guarantees.
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let mut rate = self.diurnal.rate_at(t);
        if let Some(m) = &self.mmpp {
            if self.regimes.regime_at(t) {
                rate *= m.burst_factor;
            }
        }
        rate
    }

    /// Next arrival time (strictly increasing).
    #[allow(clippy::should_implement_trait)] // infinite source, not an Iterator
    pub fn next(&mut self) -> SimTime {
        if let Some(at) = self.pending.take() {
            return at;
        }
        loop {
            // Candidate from the homogeneous majorant at `rate_max`.
            let u = self.rng.f64().max(1e-12);
            let gap = ((-(u.ln())) * 1e12 / self.rate_max) as u64;
            self.t += Duration(gap.max(1));
            // Accept with probability rate(t)/rate_max.
            let accept = self.rate_at(self.t) / self.rate_max;
            if self.rng.f64() < accept {
                return self.t;
            }
        }
    }

    /// The first `n` arrivals (consuming the source).
    pub fn take(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next()).collect()
    }

    /// All arrivals strictly before `horizon` (consuming the source).
    /// The internal clock ends past `horizon`, so interleaving
    /// `arrivals_until` calls over successive windows loses nothing: the
    /// first arrival of the next window is carried over.
    pub fn arrivals_until(&mut self, horizon: SimTime, out: &mut Vec<SimTime>) {
        if let Some(at) = self.pending {
            if at >= horizon {
                return;
            }
            self.pending = None;
            out.push(at);
        }
        loop {
            let at = self.next();
            if at >= horizon {
                // Rewind bookkeeping is unnecessary: `next` already
                // committed `self.t = at`, and the accept draw consumed
                // for it stays consumed — the sequence is still a pure
                // function of the seed. Remember it for the next window.
                self.pending = Some(at);
                return;
            }
            out.push(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal() -> DiurnalCfg {
        DiurnalCfg {
            base_pps: 1e9,
            amplitude: 0.5,
            period: Duration::from_us(100),
            phase: 0.0,
        }
    }

    fn mmpp() -> MmppCfg {
        MmppCfg {
            burst_factor: 4.0,
            mean_quiet: Duration::from_us(20),
            mean_burst: Duration::from_us(5),
        }
    }

    #[test]
    fn open_loop_strictly_increases() {
        let mut src = OpenLoopSource::new(diurnal(), Some(mmpp()), 7);
        let times = src.take(5_000);
        for w in times.windows(2) {
            assert!(w[1] > w[0], "{:?}", &w);
        }
    }

    #[test]
    fn open_loop_mean_rate_close_to_base() {
        // Over whole periods the sinusoid integrates out; without bursts
        // the long-run mean must track base_pps.
        let mut src = OpenLoopSource::new(diurnal(), None, 11);
        let horizon = SimTime(diurnal().period.as_ps() * 10);
        let mut times = Vec::new();
        src.arrivals_until(horizon, &mut times);
        let expect = diurnal().base_pps * horizon.as_ps() as f64 / 1e12;
        let got = times.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn windowed_consumption_equals_bulk() {
        // arrivals_until over many small windows must yield exactly the
        // take() sequence: the boundary carry-over loses nothing.
        let mut bulk = OpenLoopSource::new(diurnal(), Some(mmpp()), 13);
        let reference = bulk.take(2_000);
        let mut windowed = OpenLoopSource::new(diurnal(), Some(mmpp()), 13);
        let mut got = Vec::new();
        let step = Duration::from_us(3);
        let mut t = SimTime::ZERO;
        while got.len() < reference.len() {
            t += step;
            windowed.arrivals_until(t, &mut got);
        }
        assert_eq!(&got[..reference.len()], &reference[..]);
    }

    #[test]
    fn regime_schedule_alternates_and_is_deterministic() {
        let horizon = SimTime::from_ms(10);
        let a = mmpp().schedule(42, horizon);
        let b = mmpp().schedule(42, horizon);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // The chain starts quiet, so the first switch enters a burst and
        // regimes alternate from there.
        for (i, &(_, burst)) in a.iter().enumerate() {
            assert_eq!(burst, i % 2 == 0);
        }
    }
}
