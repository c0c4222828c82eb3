//! The bottleneck link: a FIFO tail-drop queue drained at a fixed rate.
//!
//! Every emulated experiment in the paper runs over a single dumbbell
//! bottleneck characterized by (bandwidth, RTT, buffer). This module models
//! that bottleneck exactly: packets offered to the link either fit in the
//! remaining buffer (and depart after queueing + serialization) or are
//! tail-dropped.
//!
//! The implementation uses a *virtual queue*: because service is FIFO and
//! work-conserving, a packet's departure time is fully determined at arrival
//! (`max(now, link_free_at) + serialization`), so no per-packet dequeue
//! events are needed. Each accepted packet instead joins a FIFO of pending
//! departures keyed by `(departure time, seq)`, where `seq` is the caller's
//! event sequence number for the departure. The FIFO is sorted by
//! construction — `free_at` is monotone and `seq` grows in admission order —
//! so [`BottleneckLink::release_before`] frees buffer space lazily by
//! popping its front: the caller releases every departure whose key sorts
//! before the event it is about to let read the occupancy, which leaves the
//! link in exactly the state an explicit per-departure event would have.

use std::collections::VecDeque;

use proteus_transport::{serialization_delay, Dur, Time};

/// Outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The packet was accepted and will finish serializing at this time.
    Departs(Time),
    /// The buffer was full; the packet is tail-dropped.
    Dropped,
}

/// An accepted packet whose buffer space is still held.
#[derive(Debug, Clone, Copy)]
struct Departure {
    at: Time,
    seq: u64,
    bytes: u64,
}

/// A fixed-rate, tail-drop FIFO bottleneck.
#[derive(Debug, Clone)]
pub struct BottleneckLink {
    rate_bps: f64,
    buffer_bytes: u64,
    /// Bytes currently queued or in service.
    queued_bytes: u64,
    /// Time the serializer becomes free.
    free_at: Time,
    /// Accepted packets not yet released, sorted by `(at, seq)`.
    departures: VecDeque<Departure>,
    /// Counters.
    accepted_pkts: u64,
    dropped_pkts: u64,
    delivered_bytes: u64,
}

impl BottleneckLink {
    /// Creates a link with the given rate (bits/sec) and buffer (bytes).
    ///
    /// # Panics
    /// Panics if the rate is not positive or the buffer is zero.
    pub fn new(rate_bps: f64, buffer_bytes: u64) -> Self {
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        assert!(buffer_bytes > 0, "a zero buffer cannot hold any packet");
        Self {
            rate_bps,
            buffer_bytes,
            queued_bytes: 0,
            free_at: Time::ZERO,
            departures: VecDeque::new(),
            accepted_pkts: 0,
            dropped_pkts: 0,
            delivered_bytes: 0,
        }
    }

    /// Link rate, bits/sec.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Changes the drain rate (time-varying links / fault injection).
    ///
    /// Packets already accepted keep the departure times committed at offer
    /// time — the virtual queue cannot cheaply re-plan them — so the new
    /// rate takes effect from the next offered packet. With per-packet
    /// serialization times in the sub-millisecond range the approximation
    /// error is one packet's worth of drain time.
    ///
    /// # Panics
    /// Panics if the rate is not positive and finite.
    pub fn set_rate(&mut self, rate_bps: f64) {
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        self.rate_bps = rate_bps;
    }

    /// Configured buffer size, bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// Bytes occupying the buffer (queued + in service), as of the last
    /// [`BottleneckLink::release_before`].
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Offers a packet of `bytes` at time `now`. If accepted, its departure
    /// joins the pending FIFO under the key `(departure time, seq)`; `seq`
    /// must exceed every key already offered at an equal or later time.
    ///
    /// The in-service packet counts against the buffer, matching a shared
    /// NIC ring: a packet is accepted iff `queued + bytes <= buffer`, where
    /// `queued` counts every departure not yet released — call
    /// [`BottleneckLink::release_before`] first.
    pub fn offer(&mut self, now: Time, bytes: u64, seq: u64) -> Offer {
        if self.queued_bytes + bytes > self.buffer_bytes {
            self.dropped_pkts += 1;
            return Offer::Dropped;
        }
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        let departs = start + serialization_delay(bytes, self.rate_bps);
        self.free_at = departs;
        debug_assert!(
            self.departures
                .back()
                .is_none_or(|d| (d.at, d.seq) < (departs, seq)),
            "departure keys must grow in admission order"
        );
        self.departures.push_back(Departure {
            at: departs,
            seq,
            bytes,
        });
        self.queued_bytes += bytes;
        self.accepted_pkts += 1;
        Offer::Departs(departs)
    }

    /// Releases the buffer space of every pending departure whose
    /// `(departure time, seq)` key sorts before `(now, seq)`, and returns
    /// how many were released. Pass `seq = u64::MAX` to release everything
    /// that has departed by `now`.
    pub fn release_before(&mut self, now: Time, seq: u64) -> u64 {
        let mut released = 0;
        while let Some(d) = self.departures.front() {
            if (d.at, d.seq) >= (now, seq) {
                break;
            }
            self.queued_bytes -= d.bytes;
            self.delivered_bytes += d.bytes;
            self.departures.pop_front();
            released += 1;
        }
        released
    }

    /// Queueing + serialization delay a hypothetical packet would see now.
    pub fn current_delay(&self, now: Time, bytes: u64) -> Dur {
        let wait = self.free_at.since(now);
        wait + serialization_delay(bytes, self.rate_bps)
    }

    /// Packets accepted so far.
    pub fn accepted_pkts(&self) -> u64 {
        self.accepted_pkts
    }

    /// Packets tail-dropped so far.
    pub fn dropped_pkts(&self) -> u64 {
        self.dropped_pkts
    }

    /// Bytes that completed service.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 Mbps -> 1500 B serializes in 1 ms. Handy for exact arithmetic.
    fn link() -> BottleneckLink {
        BottleneckLink::new(12_000_000.0, 4500)
    }

    #[test]
    fn idle_link_serializes_immediately() {
        let mut l = link();
        match l.offer(Time::from_millis(10), 1500, 1) {
            Offer::Departs(t) => assert_eq!(t, Time::from_millis(11)),
            Offer::Dropped => panic!("should accept"),
        }
        assert_eq!(l.queued_bytes(), 1500);
    }

    #[test]
    fn queueing_delays_accumulate() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500, 1) else {
            panic!()
        };
        let Offer::Departs(t2) = l.offer(Time::ZERO, 1500, 2) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        assert_eq!(t2, Time::from_millis(2));
    }

    #[test]
    fn tail_drop_when_full() {
        let mut l = link(); // 4500 B buffer = 3 packets
        for seq in 1..=3 {
            assert!(matches!(l.offer(Time::ZERO, 1500, seq), Offer::Departs(_)));
        }
        assert_eq!(l.offer(Time::ZERO, 1500, 4), Offer::Dropped);
        assert_eq!(l.dropped_pkts(), 1);
        assert_eq!(l.accepted_pkts(), 3);
    }

    #[test]
    fn departure_frees_space() {
        let mut l = link();
        for seq in 1..=3 {
            l.offer(Time::ZERO, 1500, seq);
        }
        // Departures at 1, 2 and 3 ms: only the first has left by 1.5 ms.
        assert_eq!(l.release_before(Time::from_micros(1500), 10), 1);
        assert_eq!(l.queued_bytes(), 3000);
        assert!(matches!(
            l.offer(Time::from_micros(1500), 1500, 11),
            Offer::Departs(_)
        ));
        assert_eq!(l.delivered_bytes(), 1500);
    }

    #[test]
    fn release_before_is_idempotent_and_flushes() {
        let mut l = link();
        for seq in 1..=3 {
            l.offer(Time::ZERO, 1500, seq);
        }
        assert_eq!(l.release_before(Time::ZERO, 10), 0);
        assert_eq!(l.release_before(Time::from_millis(2), u64::MAX), 2);
        assert_eq!(l.release_before(Time::from_millis(2), u64::MAX), 0);
        assert_eq!(l.release_before(Time::from_millis(9), u64::MAX), 1);
        assert_eq!(l.queued_bytes(), 0);
        assert_eq!(l.delivered_bytes(), 4500);
    }

    /// Same-instant ties: a departure at exactly `now` has left before an
    /// event iff its sequence number is lower than that event's — the
    /// order an explicit per-departure event would have been dispatched in.
    #[test]
    fn same_instant_departure_releases_by_seq() {
        // Fill the buffer at t = 0 with departures at 1, 2 and 3 ms whose
        // departure keys are seqs 10, 11 and 12; then offer one more packet
        // at exactly 1 ms from an event with sequence number `cur`.
        let offer_at_first_departure = |cur: u64| {
            let mut l = link();
            for seq in 10..=12 {
                assert!(matches!(l.offer(Time::ZERO, 1500, seq), Offer::Departs(_)));
            }
            let released = l.release_before(Time::from_millis(1), cur);
            (released, l.offer(Time::from_millis(1), 1500, 20), l)
        };

        // Current event sorts after the departure: its space is free.
        let (released, offer, l) = offer_at_first_departure(11);
        assert_eq!(released, 1);
        assert_eq!(offer, Offer::Departs(Time::from_millis(4)));
        assert_eq!(l.delivered_bytes(), 1500);
        assert_eq!(l.queued_bytes(), 4500);

        // Current event sorts before the departure: still full, tail drop.
        let (released, offer, l) = offer_at_first_departure(9);
        assert_eq!(released, 0);
        assert_eq!(offer, Offer::Dropped);
        assert_eq!(l.delivered_bytes(), 0);
        assert_eq!(l.queued_bytes(), 4500);
    }

    #[test]
    fn work_conserving_after_idle() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500, 1) else {
            panic!()
        };
        // Link idle 10ms, next packet serializes from its own arrival.
        assert_eq!(l.release_before(Time::from_millis(10), 2), 1);
        let Offer::Departs(t2) = l.offer(Time::from_millis(10), 1500, 3) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        assert_eq!(t2, Time::from_millis(11));
    }

    #[test]
    fn current_delay_reports_backlog() {
        let mut l = link();
        assert_eq!(l.current_delay(Time::ZERO, 1500), Dur::from_millis(1));
        l.offer(Time::ZERO, 1500, 1);
        l.offer(Time::ZERO, 1500, 2);
        assert_eq!(l.current_delay(Time::ZERO, 1500), Dur::from_millis(3));
    }

    #[test]
    fn set_rate_applies_to_subsequent_offers() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500, 1) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        // Halve the rate: the next packet serializes in 2 ms after the
        // committed backlog.
        l.set_rate(6_000_000.0);
        assert_eq!(l.rate_bps(), 6_000_000.0);
        let Offer::Departs(t2) = l.offer(Time::ZERO, 1500, 2) else {
            panic!()
        };
        assert_eq!(t2, Time::from_millis(3));
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        let _ = BottleneckLink::new(1e6, 0);
    }
}
