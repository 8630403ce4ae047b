//! Inter-switch links for multi-switch fabrics.
//!
//! A [`Link`] models one direction of a point-to-point cable between two
//! switches: a serialization stage at the link speed plus a fixed
//! propagation latency. The model is **store-and-forward**: the sending
//! switch's TX port serializes the frame into the switch edge, and the link
//! then re-serializes it onto the wire (back-to-back frames queue behind
//! `busy_until`, exactly like [`crate::port::TxPort`]) before the
//! propagation delay. Latency must be strictly positive — it is the
//! lookahead of the fabric's windowed driving loop: a frame sent at `t`
//! reaches the peer no sooner than `t + latency`, so every switch may run
//! that far ahead alone.

use crate::packet::Packet;
use crate::port::LinkSpeed;
use crate::time::{Duration, SimTime};

/// One direction of an inter-switch cable.
#[derive(Debug, Clone)]
pub struct Link {
    speed: LinkSpeed,
    latency: Duration,
    /// When the wire finishes serializing the last accepted frame.
    busy_until: SimTime,
    /// Frames carried.
    pub frames: u64,
    /// Wire bytes carried (frame + minimum-size padding + overhead).
    pub wire_bytes: u64,
}

impl Link {
    /// A link with the given speed and propagation latency.
    ///
    /// Panics if `latency` is zero: a zero-latency link would let a frame
    /// arrive at the peer at the very timestamp the fabric loop is
    /// draining, breaking the strictly-causal hand-off argument.
    pub fn new(speed: LinkSpeed, latency: Duration) -> Self {
        assert!(
            latency.as_ps() > 0,
            "inter-switch links need positive latency"
        );
        Link {
            speed,
            latency,
            busy_until: SimTime::ZERO,
            frames: 0,
            wire_bytes: 0,
        }
    }

    /// Carry `p`, whose last bit left the sending switch at `tx_done`.
    /// Returns the arrival time at the peer switch: serialization onto the
    /// wire (queued behind any frame still being serialized) plus the
    /// propagation latency. Strictly greater than `tx_done`.
    pub fn transfer(&mut self, p: &Packet, tx_done: SimTime) -> SimTime {
        let depart = tx_done.max(self.busy_until);
        let done = depart + self.speed.packet_time(p);
        self.busy_until = done;
        self.frames += 1;
        self.wire_bytes += p.wire_bytes() as u64;
        done + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{synthetic_packet, FlowId};

    fn pkt(id: u64) -> Packet {
        synthetic_packet(id, FlowId(1), 128)
    }

    #[test]
    fn arrival_is_strictly_after_tx_done() {
        let mut l = Link::new(LinkSpeed::gbps(400), Duration::from_ns(200));
        let t0 = SimTime(1_000_000);
        let arrive = l.transfer(&pkt(0), t0);
        let p = pkt(0);
        assert_eq!(
            arrive,
            t0 + LinkSpeed::gbps(400).packet_time(&p) + Duration::from_ns(200)
        );
        assert!(arrive > t0);
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let mut l = Link::new(LinkSpeed::gbps(100), Duration::from_ns(50));
        let t0 = SimTime(0);
        let a1 = l.transfer(&pkt(0), t0);
        // Same tx_done: the second frame waits for the wire.
        let a2 = l.transfer(&pkt(1), t0);
        let ser = LinkSpeed::gbps(100).packet_time(&pkt(0));
        assert_eq!(a2, a1 + ser);
        assert_eq!(l.frames, 2);
        assert_eq!(l.wire_bytes, 2 * pkt(0).wire_bytes() as u64);
    }

    #[test]
    fn idle_wire_does_not_delay() {
        let mut l = Link::new(LinkSpeed::gbps(100), Duration::from_ns(50));
        l.transfer(&pkt(0), SimTime(0));
        // A much later frame sees an idle wire again.
        let late = SimTime(1_000_000_000);
        let a = l.transfer(&pkt(1), late);
        assert_eq!(
            a,
            late + LinkSpeed::gbps(100).packet_time(&pkt(1)) + Duration::from_ns(50)
        );
    }

    #[test]
    #[should_panic(expected = "positive latency")]
    fn zero_latency_rejected() {
        let _ = Link::new(LinkSpeed::gbps(100), Duration::from_ns(0));
    }
}
