//! Million-flow traffic mixes: heavy-tailed benign traffic, bursty
//! arrivals, and an adversarial attack ramp.
//!
//! The TE/security workloads (load-driven flowlet forwarding, DDoS
//! detection) need traffic that looks like a production edge: a Zipf
//! head over 10⁶–10⁷ live flows, on/off burstiness in the arrival
//! process, and — for the security scenario — a small set of attack
//! sources whose share of the traffic ramps from zero to a configured
//! peak mid-run. Generation is streaming and O(1) in the flow count
//! (the per-flow key comes from the rejection-inversion [`ZipfKeys`]
//! sampler), and deterministic per seed.

use crate::keys::ZipfKeys;
use adcp_sim::rng::SimRng;

/// One generated packet arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// Arrival time, picoseconds.
    pub time_ps: u64,
    /// Source / flow key. Benign keys are `0..flows`; attack sources are
    /// `flows..flows + attackers` so they form a compact hot range the
    /// control plane can rebalance.
    pub src: u64,
    /// True when the attack mix generated this packet.
    pub attack: bool,
}

/// The adversarial component: a linear ramp of attack traffic.
#[derive(Debug, Clone, Copy)]
pub struct AttackRamp {
    /// Number of distinct attack sources.
    pub attackers: u64,
    /// Run fraction (0..1) at which the ramp starts.
    pub start_frac: f64,
    /// Run fraction at which the ramp reaches its peak share.
    pub full_frac: f64,
    /// Attack share of the traffic at peak (0..1).
    pub peak_share: f64,
}

impl AttackRamp {
    /// Attack share of the mix at run progress `frac`.
    pub fn share_at(&self, frac: f64) -> f64 {
        if frac <= self.start_frac {
            0.0
        } else if frac >= self.full_frac {
            self.peak_share
        } else {
            self.peak_share * (frac - self.start_frac) / (self.full_frac - self.start_frac)
        }
    }
}

/// Traffic mix configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrafficCfg {
    /// Benign live-flow keyspace (keys `0..flows`).
    pub flows: u64,
    /// Total packets to generate.
    pub pkts: u64,
    /// Zipf skew of the benign key popularity.
    pub skew: f64,
    /// Mean inter-arrival gap, picoseconds.
    pub mean_gap_ps: u64,
    /// Burstiness: 0 = constant-rate; higher values compress a burst's
    /// inter-arrivals by `1 + burstiness` and stretch the off periods to
    /// keep the mean rate.
    pub burstiness: f64,
    /// Optional adversarial ramp.
    pub attack: Option<AttackRamp>,
    /// RNG seed; the full event stream is a pure function of the config.
    pub seed: u64,
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            flows: 1 << 20,
            pkts: 100_000,
            skew: 0.99,
            mean_gap_ps: 1_000,
            burstiness: 0.0,
            attack: None,
            seed: 1,
        }
    }
}

/// Streaming generator over [`TrafficCfg`]. O(1) memory: two `Copy`
/// samplers and a handful of counters.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    cfg: TrafficCfg,
    zipf: ZipfKeys,
    rng: SimRng,
    now_ps: u64,
    emitted: u64,
    /// Remaining packets in the current burst (0 = between bursts).
    burst_left: u32,
}

impl TrafficGen {
    /// Generator over `cfg`, deterministic per `cfg.seed`.
    pub fn new(cfg: TrafficCfg) -> Self {
        assert!(cfg.flows > 0 && cfg.pkts > 0 && cfg.mean_gap_ps > 0);
        if let Some(a) = &cfg.attack {
            assert!(a.attackers > 0);
            assert!((0.0..=1.0).contains(&a.peak_share));
            assert!(a.start_frac < a.full_frac);
        }
        TrafficGen {
            zipf: ZipfKeys::new(cfg.flows as usize, cfg.skew),
            rng: SimRng::seed_from(cfg.seed),
            cfg,
            now_ps: 0,
            emitted: 0,
            burst_left: 0,
        }
    }

    fn next_gap(&mut self) -> u64 {
        let mean = self.cfg.mean_gap_ps as f64;
        if self.cfg.burstiness <= 0.0 {
            return self.cfg.mean_gap_ps.max(1);
        }
        if self.burst_left == 0 && self.rng.chance(0.1) {
            self.burst_left = self.rng.range(4u32..32);
        }
        let gap = if self.burst_left > 0 {
            self.burst_left -= 1;
            // Inside a burst: arrivals compressed by (1 + burstiness)...
            mean / (1.0 + self.cfg.burstiness)
        } else {
            // ...paid back by stretched off-period gaps, so the long-run
            // rate stays near 1/mean_gap_ps.
            mean * (1.0 + self.cfg.burstiness * 0.3)
        };
        (gap as u64).max(1)
    }
}

impl Iterator for TrafficGen {
    type Item = FlowEvent;

    fn next(&mut self) -> Option<FlowEvent> {
        if self.emitted >= self.cfg.pkts {
            return None;
        }
        self.now_ps += self.next_gap();
        let frac = self.emitted as f64 / self.cfg.pkts as f64;
        self.emitted += 1;
        let (src, attack) = match &self.cfg.attack {
            Some(a) if self.rng.chance(a.share_at(frac)) => {
                (self.cfg.flows + self.rng.range(0..a.attackers), true)
            }
            _ => (self.zipf.sample(&mut self.rng), false),
        };
        Some(FlowEvent {
            time_ps: self.now_ps,
            src,
            attack,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ZipfCdf;

    #[test]
    fn heavy_tail_matches_pmf_oracle() {
        // The benign mix's empirical key frequencies must match the exact
        // CDF-oracle pmf: head keys individually, tail in aggregate.
        let cfg = TrafficCfg {
            flows: 1000,
            pkts: 200_000,
            skew: 0.99,
            ..TrafficCfg::default()
        };
        let oracle = ZipfCdf::new(1000, 0.99);
        let mut counts = vec![0u64; 1000];
        for ev in TrafficGen::new(cfg) {
            assert!(!ev.attack);
            counts[ev.src as usize] += 1;
        }
        let total = cfg.pkts as f64;
        for (k, &c) in counts.iter().enumerate().take(10) {
            let emp = c as f64 / total;
            let want = oracle.pmf(k);
            assert!(
                (emp - want).abs() < 0.01 + want * 0.1,
                "key {k}: empirical {emp} vs pmf {want}"
            );
        }
        let tail_emp: f64 = counts[10..].iter().sum::<u64>() as f64 / total;
        let tail_want: f64 = (10..1000).map(|k| oracle.pmf(k)).sum();
        assert!((tail_emp - tail_want).abs() < 0.01);
    }

    #[test]
    fn attack_ramp_is_deterministic_per_seed() {
        let cfg = TrafficCfg {
            flows: 10_000,
            pkts: 20_000,
            burstiness: 2.0,
            attack: Some(AttackRamp {
                attackers: 32,
                start_frac: 0.3,
                full_frac: 0.6,
                peak_share: 0.5,
            }),
            seed: 42,
            ..TrafficCfg::default()
        };
        let a: Vec<FlowEvent> = TrafficGen::new(cfg).collect();
        let b: Vec<FlowEvent> = TrafficGen::new(cfg).collect();
        assert_eq!(a, b, "same seed, same stream");
        let c: Vec<FlowEvent> = TrafficGen::new(TrafficCfg { seed: 43, ..cfg }).collect();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn attack_share_follows_the_ramp() {
        let ramp = AttackRamp {
            attackers: 16,
            start_frac: 0.5,
            full_frac: 0.75,
            peak_share: 0.6,
        };
        let cfg = TrafficCfg {
            flows: 1 << 20,
            pkts: 100_000,
            attack: Some(ramp),
            ..TrafficCfg::default()
        };
        let events: Vec<FlowEvent> = TrafficGen::new(cfg).collect();
        let share = |lo: usize, hi: usize| -> f64 {
            events[lo..hi].iter().filter(|e| e.attack).count() as f64 / (hi - lo) as f64
        };
        assert_eq!(share(0, 50_000), 0.0, "no attack before the ramp");
        let peak = share(80_000, 100_000);
        assert!(
            (peak - 0.6).abs() < 0.05,
            "peak share {peak}, configured 0.6"
        );
        // Attack sources sit in the compact range past the benign keys.
        for e in events.iter().filter(|e| e.attack) {
            assert!((cfg.flows..cfg.flows + 16).contains(&e.src));
        }
        for e in events.iter().filter(|e| !e.attack) {
            assert!(e.src < cfg.flows);
        }
    }

    #[test]
    fn bursty_arrivals_keep_monotone_time_and_mean_rate() {
        let cfg = TrafficCfg {
            flows: 1 << 16,
            pkts: 50_000,
            burstiness: 4.0,
            mean_gap_ps: 1_000,
            ..TrafficCfg::default()
        };
        let events: Vec<FlowEvent> = TrafficGen::new(cfg).collect();
        assert_eq!(events.len(), 50_000);
        let mut gaps = Vec::with_capacity(events.len());
        let mut prev = 0;
        for e in &events {
            assert!(e.time_ps > prev, "time strictly increases");
            gaps.push(e.time_ps - prev);
            prev = e.time_ps;
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (400.0..1600.0).contains(&mean),
            "long-run mean gap {mean} ps should stay near 1000 ps"
        );
        let (min, max) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
        assert!(min < max, "bursts compress some gaps: {min} vs {max}");
    }
}
