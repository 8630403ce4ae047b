//! Port and link models.
//!
//! Ports are where the paper's line-rate arithmetic becomes concrete: a port
//! of speed `R` Gbps serializes a `B`-byte wire packet in `8·B/R` ns, so its
//! maximum packet rate is `R / (8·B_min)` — the quantity Table 2 trades
//! against pipeline clock frequency.

use crate::packet::{Packet, PortId};
use crate::time::{Duration, SimTime};
use std::fmt;

/// Link speed in gigabits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkSpeed {
    gbps: u32,
}

impl LinkSpeed {
    /// 10 Gbps — the original RMT paper's port speed.
    pub const G10: LinkSpeed = LinkSpeed { gbps: 10 };
    /// 100 Gbps.
    pub const G100: LinkSpeed = LinkSpeed { gbps: 100 };
    /// 400 Gbps.
    pub const G400: LinkSpeed = LinkSpeed { gbps: 400 };
    /// 800 Gbps.
    pub const G800: LinkSpeed = LinkSpeed { gbps: 800 };
    /// 1.6 Tbps — the "upcoming" port speed in §3.3.
    pub const G1600: LinkSpeed = LinkSpeed { gbps: 1600 };

    /// Arbitrary speed in Gbps.
    pub fn gbps(g: u32) -> Self {
        assert!(g > 0, "link speed must be positive");
        LinkSpeed { gbps: g }
    }

    /// Speed in bits per second.
    pub fn bits_per_sec(self) -> u64 {
        self.gbps as u64 * 1_000_000_000
    }

    /// Time to serialize `bits` onto this link.
    ///
    /// `ps = bits × 1000 / gbps` (exact for the powers of ten used here;
    /// rounded up otherwise so a link can never exceed its physical rate).
    pub fn serialize(self, bits: u64) -> Duration {
        let num = bits * 1_000;
        Duration(num.div_ceil(self.gbps as u64))
    }

    /// Serialization time of one packet's wire footprint.
    pub fn packet_time(self, p: &Packet) -> Duration {
        self.serialize(p.wire_bits())
    }

    /// Maximum packets/s at a given minimum on-wire size.
    pub fn max_pps(self, min_wire_bytes: u32) -> f64 {
        self.bits_per_sec() as f64 / (min_wire_bytes as f64 * 8.0)
    }
}

impl fmt::Display for LinkSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gbps >= 1000 && self.gbps.is_multiple_of(100) {
            write!(f, "{:.1}Tbps", self.gbps as f64 / 1000.0)
        } else {
            write!(f, "{}Gbps", self.gbps)
        }
    }
}

/// Transmit side of a port: serializes packets one at a time.
///
/// A `TxPort` is a simple busy-until model: offering a packet at time `t`
/// schedules its last bit at `max(t, busy_until) + serialize(pkt)`. The TM
/// asks [`TxPort::ready_at`] before dequeuing so that it never over-runs the
/// line.
#[derive(Debug, Clone)]
pub struct TxPort {
    speed: LinkSpeed,
    busy_until: SimTime,
    /// Packets fully transmitted.
    pub pkts: u64,
    /// Wire bytes transmitted (including overhead and padding).
    pub wire_bytes: u64,
    /// Application-payload bytes transmitted (goodput numerator).
    pub goodput_bytes: u64,
}

impl TxPort {
    /// New idle TX port.
    pub fn new(speed: LinkSpeed) -> Self {
        TxPort {
            speed,
            busy_until: SimTime::ZERO,
            pkts: 0,
            wire_bytes: 0,
            goodput_bytes: 0,
        }
    }

    /// Earliest time a new packet could start serializing.
    pub fn ready_at(&self) -> SimTime {
        self.busy_until
    }

    /// Transmit a packet starting no earlier than `now`; returns the time
    /// the last bit leaves the port.
    pub fn transmit(&mut self, p: &Packet, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + self.speed.packet_time(p);
        self.busy_until = done;
        self.pkts += 1;
        self.wire_bytes += p.wire_bytes() as u64;
        self.goodput_bytes += p.meta.goodput_bytes as u64;
        done
    }

    /// Achieved throughput in Gbps over `[0, now]`.
    pub fn throughput_gbps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.wire_bytes as f64 * 8.0 / secs / 1e9
    }

    /// Achieved goodput in Gbps over `[0, now]`.
    pub fn goodput_gbps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.goodput_bytes as f64 * 8.0 / secs / 1e9
    }
}

/// Receive side of a port: paces packet arrivals at line rate.
///
/// Sources hand the RX port a packet; the port reports when its last bit has
/// arrived (which is when the parser may begin).
#[derive(Debug, Clone)]
pub struct RxPort {
    id: PortId,
    speed: LinkSpeed,
    busy_until: SimTime,
    /// Packets fully received.
    pub pkts: u64,
    /// Wire bytes received.
    pub wire_bytes: u64,
}

impl RxPort {
    /// New idle RX port.
    pub fn new(id: PortId, speed: LinkSpeed) -> Self {
        RxPort {
            id,
            speed,
            busy_until: SimTime::ZERO,
            pkts: 0,
            wire_bytes: 0,
        }
    }

    /// Receive a packet whose first bit arrives no earlier than `now`;
    /// returns the completion time and stamps `meta.arrived`.
    pub fn receive(&mut self, p: &mut Packet, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + self.speed.packet_time(p);
        self.busy_until = done;
        self.pkts += 1;
        self.wire_bytes += p.wire_bytes() as u64;
        p.meta.ingress_port = Some(self.id);
        p.meta.arrived = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{synthetic_packet, FlowId};

    #[test]
    fn serialization_times() {
        // 84 B on wire at 10 Gbps = 67.2 ns.
        let p = synthetic_packet(1, FlowId(1), 64);
        let d = LinkSpeed::G10.packet_time(&p);
        assert_eq!(d.as_ps(), 67_200);
        // Same packet at 800 Gbps = 0.84 ns.
        let d = LinkSpeed::G800.packet_time(&p);
        assert_eq!(d.as_ps(), 840);
    }

    #[test]
    fn tx_port_paces_back_to_back() {
        let mut tx = TxPort::new(LinkSpeed::G100);
        let p = synthetic_packet(1, FlowId(1), 64); // 84 B → 6.72 ns at 100G
        let t1 = tx.transmit(&p, SimTime::ZERO);
        assert_eq!(t1.as_ps(), 6_720);
        // Offered immediately again: starts only after the first finishes.
        let t2 = tx.transmit(&p, SimTime::ZERO);
        assert_eq!(t2.as_ps(), 13_440);
        assert_eq!(tx.pkts, 2);
        assert_eq!(tx.wire_bytes, 168);
    }

    #[test]
    fn tx_throughput_at_line_rate() {
        let mut tx = TxPort::new(LinkSpeed::G10);
        let p = synthetic_packet(1, FlowId(1), 1500);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            now = tx.transmit(&p, now);
        }
        let gbps = tx.throughput_gbps(now);
        assert!((gbps - 10.0).abs() < 0.01, "gbps = {gbps}");
    }

    #[test]
    fn rx_stamps_arrival_metadata() {
        let mut rx = RxPort::new(PortId(5), LinkSpeed::G400);
        let mut p = synthetic_packet(1, FlowId(2), 256);
        let done = rx.receive(&mut p, SimTime::from_ns(10));
        assert_eq!(p.meta.ingress_port, Some(PortId(5)));
        assert_eq!(p.meta.arrived, done);
        assert!(done > SimTime::from_ns(10));
    }

    #[test]
    fn max_pps_matches_table2_row1() {
        // One pipeline of 64×10G at 84 B → 0.952 Gpps (Table 2 row 1).
        let per_port = LinkSpeed::G10.max_pps(84);
        let total = per_port * 64.0;
        assert!((total / 1e9 - 0.952).abs() < 0.001);
    }

    #[test]
    fn display_formats() {
        assert_eq!(LinkSpeed::G10.to_string(), "10Gbps");
        assert_eq!(LinkSpeed::G1600.to_string(), "1.6Tbps");
    }
}
