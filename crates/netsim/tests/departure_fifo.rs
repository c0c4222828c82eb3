//! Link departure FIFO structure on a staged 3-hop chain: buffer releases
//! never go through the scheduler, yet each counts as one `QueueDrain`
//! dispatch, exactly one per departure due by the end of the run, and every
//! link conserves packets (accepted = departed + still queued; the next hop
//! sees every departure as an offer). On the default wire path the same
//! clean chain runs on wire lanes, which serve every wire event outside
//! the scheduler.
//!
//! These are exact event counts, not timings, so they double as a
//! noise-free proxy for the engine's per-packet scheduler cost.

use proteus_netsim::{
    run, run_staged, FlowSpec, LinkSpec, Scenario, SimResult, Topology, EVENT_KIND_NAMES,
};
use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, Time, DEFAULT_PACKET_BYTES};

/// Fixed congestion window, ACK-clocked; ignores losses.
struct TestWindow {
    cwnd: u64,
}

impl CongestionControl for TestWindow {
    fn name(&self) -> &str {
        "test-window"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
}

fn kind(name: &str) -> usize {
    EVENT_KIND_NAMES
        .iter()
        .position(|&k| k == name)
        .expect("known event kind")
}

/// A 3-link chain whose middle link is the bottleneck, with one bulk flow
/// over all three hops overdriving it (so hop 1 tail-drops).
fn chain_scenario(duration_s: u64, stop_s: Option<u64>) -> Scenario {
    let topo = Topology::chain(vec![
        LinkSpec::new(30.0, Dur::from_millis(10), 60_000),
        LinkSpec::new(20.0, Dur::from_millis(10), 60_000),
        LinkSpec::new(30.0, Dur::from_millis(10), 60_000),
    ]);
    let mut flow = FlowSpec::bulk("w", Dur::ZERO, || Box::new(TestWindow { cwnd: 150_000 }));
    if let Some(s) = stop_s {
        flow = flow.with_stop(Dur::from_secs(s));
    }
    Scenario::over(topo, Dur::from_secs(duration_s))
        .flow(flow)
        .with_seed(5)
}

/// The chain on the staged reference path, where every event but a
/// released departure goes through the scheduler.
fn chain(duration_s: u64, stop_s: Option<u64>) -> SimResult {
    let r = run_staged(chain_scenario(duration_s, stop_s));
    assert_eq!(
        r.events.fused, 0,
        "the staged path serves nothing off the scheduler"
    );
    r
}

/// Departures each link released by the end of the run (every packet is
/// one full MTU).
fn departed(r: &SimResult, link: usize) -> u64 {
    assert_eq!(r.links[link].delivered_bytes % DEFAULT_PACKET_BYTES, 0);
    r.links[link].delivered_bytes / DEFAULT_PACKET_BYTES
}

#[test]
fn drained_chain_releases_every_departure_without_a_push() {
    // The flow stops at 2 s; by 6 s every packet has departed, every ACK
    // has returned and every pending timer has fired, so the scheduler
    // runs dry before the end.
    let r = chain(6, Some(2));
    let ev = &r.events;
    let drains = ev.pops[kind("QueueDrain")];
    assert!(r.links[1].dropped_pkts > 0, "the bottleneck must tail-drop");

    // Every departure is due before the end, so every accepted packet was
    // released, and each release counts as exactly one QueueDrain.
    let accepted: u64 = r.links.iter().map(|l| l.accepted_pkts).sum();
    let released: u64 = (0..3).map(|i| departed(&r, i)).sum();
    assert_eq!(drains, accepted);
    assert_eq!(drains, released);

    // The scheduler ran dry, so every push was dispatched: the pushes are
    // exactly the non-departure dispatches — no departure was pushed.
    assert_eq!(ev.pushes, ev.dispatched() - drains);

    // Conservation along the chain: each departure from hops 0 and 1 is
    // offered to the next hop (no wire loss here), and the last hop's
    // departures are the deliveries, each ACKed once.
    for k in 0..2 {
        let next = &r.links[k + 1];
        assert_eq!(next.accepted_pkts + next.dropped_pkts, departed(&r, k));
    }
    assert_eq!(
        ev.pops[kind("HopArrival")],
        departed(&r, 0) + departed(&r, 1)
    );
    assert_eq!(ev.pops[kind("Delivery")], departed(&r, 2));
    assert_eq!(ev.pops[kind("AckArrival")], ev.pops[kind("Delivery")]);
}

#[test]
fn run_end_releases_only_departures_due_by_the_end() {
    // The flow never stops: at the 3 s horizon the bottleneck still holds
    // a standing queue whose departures fall after the end.
    let r = chain(3, None);
    let ev = &r.events;
    let drains = ev.pops[kind("QueueDrain")];

    let released: u64 = (0..3).map(|i| departed(&r, i)).sum();
    assert_eq!(drains, released, "one QueueDrain per released departure");

    for (i, l) in r.links.iter().enumerate() {
        // accepted = departed by the end + still held at the end, and what
        // is held fits in the buffer.
        let held = l.accepted_pkts - departed(&r, i);
        assert!(
            held * DEFAULT_PACKET_BYTES <= 60_000,
            "link {i} holds {held}"
        );
    }
    assert!(
        r.links[1].accepted_pkts > departed(&r, 1),
        "the bottleneck's queue must outlive the run"
    );

    // Packets in flight between hops at the end were never offered.
    for k in 0..2 {
        let next = &r.links[k + 1];
        assert!(next.accepted_pkts + next.dropped_pkts <= departed(&r, k));
    }

    // Pushes only ever carry non-departure events: at least one per
    // non-departure dispatch, plus whatever was pending at the end.
    assert!(ev.pushes >= ev.dispatched() - drains);
}

#[test]
fn lanes_serve_every_wire_event_of_a_clean_chain() {
    let r = run(chain_scenario(6, Some(2)));
    let staged = chain(6, Some(2));
    let ev = &r.events;
    assert_eq!(
        ev.pops, staged.events.pops,
        "lanes keep the dispatch sequence"
    );

    // The scheduler ran dry, so its pushes are exactly the dispatches not
    // served outside it.
    assert_eq!(ev.pushes, ev.dispatched() - ev.fused);

    // A clean chain keeps every lane in order: every released departure
    // and every wire event is served outside the scheduler.
    let wire: u64 = ["QueueDrain", "HopArrival", "Delivery", "AckArrival"]
        .iter()
        .map(|k| ev.pops[kind(k)])
        .sum();
    assert_eq!(ev.fused, wire);
    assert_eq!(
        ev.pushes + wire,
        staged.events.pushes + ev.pops[kind("QueueDrain")]
    );
}
