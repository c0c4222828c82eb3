//! Timing decorators for the traced run.
//!
//! Every flow's controller and application is wrapped in a decorator that
//! delegates every trait method to the wrapped object and counts the call.
//! A clock-read pair costs several times a CUBIC per-ACK update, so timing
//! every call would distort the run it measures: each probe instead times
//! a pseudo-random one call in [`SAMPLE_EVERY`] on average and scales the
//! sampled mean by the call count. A sampled call times an empty span and
//! then the call, back to back, and keeps the difference of the two, so the
//! clock's own cost cancels at the host's speed of the moment.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use proteus_netsim::Scenario;
use proteus_transport::{
    AckInfo, Application, CcSnapshot, CongestionControl, FrameRecord, LossInfo, SentPacket, Time,
};

/// Mean gap between timed calls of one probe.
const SAMPLE_EVERY: u32 = 64;

/// Call counts and sampled time of one layer boundary.
pub struct Probe {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<i64>,
    countdown: Cell<u32>,
    rng: Cell<u64>,
}

/// A snapshot of a [`Probe`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeCounts {
    /// Calls made through the probe.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed duration of the timed calls less the empty spans timed
    /// beside them, ns.
    pub sampled_ns: i64,
}

impl ProbeCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            calls: self.calls - earlier.calls,
            sampled: self.sampled - earlier.sampled,
            sampled_ns: self.sampled_ns - earlier.sampled_ns,
        }
    }

    /// Estimated time spent inside the calls, seconds: the sampled mean
    /// times the call count.
    pub fn estimate_s(self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let mean_ns = self.sampled_ns as f64 / self.sampled as f64;
        mean_ns.max(0.0) * self.calls as f64 * 1e-9
    }
}

impl Probe {
    fn new(seed: u64) -> Self {
        let probe = Self {
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
            countdown: Cell::new(1),
            rng: Cell::new(seed | 1),
        };
        probe.countdown.set(probe.next_gap());
        probe
    }

    /// Uniform gap in `[1, 2 * SAMPLE_EVERY - 1]` (xorshift64), so the
    /// sampled calls cannot lock onto a periodic call pattern.
    fn next_gap(&self) -> u32 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        1 + (x % u64::from(2 * SAMPLE_EVERY - 1)) as u32
    }

    /// Runs `f`, counting the call and timing it if it is sampled.
    #[inline]
    fn span<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        let left = self.countdown.get() - 1;
        if left != 0 {
            self.countdown.set(left);
            return f();
        }
        self.countdown.set(self.next_gap());
        // The first read after engine work is slow (its clock data is out
        // of cache); it is discarded so both timed spans start warm.
        std::hint::black_box(Instant::now());
        let t0 = Instant::now();
        let t1 = Instant::now();
        let out = f();
        let t2 = Instant::now();
        let ns = (t2 - t1).as_nanos() as i64 - (t1 - t0).as_nanos() as i64;
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns.set(self.sampled_ns.get() + ns);
        out
    }

    /// The probe's counters so far.
    pub fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            calls: self.calls.get(),
            sampled: self.sampled.get(),
            sampled_ns: self.sampled_ns.get(),
        }
    }
}

/// The probes of one traced process: one per controller name (shared by
/// every flow running that controller) and one for all applications.
pub struct Ledger {
    cc: RefCell<BTreeMap<String, Rc<Probe>>>,
    apps: Rc<Probe>,
}

/// Counters of every probe in a [`Ledger`] at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerCounts {
    /// Per controller name.
    pub cc: BTreeMap<String, ProbeCounts>,
    /// All applications.
    pub apps: ProbeCounts,
}

impl LedgerCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            cc: self
                .cc
                .iter()
                .map(|(name, c)| {
                    let before = earlier.cc.get(name).copied().unwrap_or_default();
                    (name.clone(), c.since(before))
                })
                .collect(),
            apps: self.apps.since(earlier.apps),
        }
    }
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Rc<Self> {
        Rc::new(Self {
            cc: RefCell::new(BTreeMap::new()),
            apps: Rc::new(Probe::new(0xA995)),
        })
    }

    /// Current counters of every probe.
    pub fn counts(&self) -> LedgerCounts {
        LedgerCounts {
            cc: self
                .cc
                .borrow()
                .iter()
                .map(|(name, p)| (name.clone(), p.counts()))
                .collect(),
            apps: self.apps.counts(),
        }
    }

    fn cc_probe(&self, name: &str) -> Rc<Probe> {
        let mut map = self.cc.borrow_mut();
        let seed = 0xCC00 + map.len() as u64;
        Rc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Rc::new(Probe::new(seed))),
        )
    }

    fn wrap_cc(&self, inner: Box<dyn CongestionControl>) -> Box<dyn CongestionControl> {
        let probe = self.cc_probe(inner.name());
        Box::new(TimedCc { inner, probe })
    }

    fn wrap_app(&self, inner: Box<dyn Application>) -> Box<dyn Application> {
        Box::new(TimedApp {
            inner,
            probe: Rc::clone(&self.apps),
        })
    }

    /// Returns `sc` with every flow's controller and application, every
    /// churn class's controller and the cross-traffic controller wrapped
    /// in probes of this ledger. (Churn and cross-traffic flows get their
    /// applications inside the engine, out of the benchmark's reach.)
    pub fn instrument(self: &Rc<Self>, mut sc: Scenario) -> Scenario {
        for flow in &mut sc.flows {
            let cc = std::mem::replace(&mut flow.cc, Box::new(|| unreachable!()));
            let ledger = Rc::clone(self);
            flow.cc = Box::new(move || ledger.wrap_cc(cc()));
            let app = std::mem::replace(&mut flow.app, Box::new(|| unreachable!()));
            let ledger = Rc::clone(self);
            flow.app = Box::new(move || ledger.wrap_app(app()));
        }
        let factories = sc
            .churn
            .iter_mut()
            .flat_map(|ch| ch.classes.iter_mut().map(|class| &mut class.cc))
            .chain(sc.cross_traffic.iter_mut().map(|ct| &mut ct.cc));
        for factory in factories {
            let inner = std::mem::replace(factory, Box::new(|_| unreachable!()));
            let ledger = Rc::clone(self);
            *factory = Box::new(move |id| ledger.wrap_cc(inner(id)));
        }
        sc
    }
}

/// A controller that delegates every method through a [`Probe`].
struct TimedCc {
    inner: Box<dyn CongestionControl>,
    probe: Rc<Probe>,
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &str {
        self.probe.span(|| self.inner.name())
    }
    fn on_flow_start(&mut self, now: Time) {
        self.probe.span(|| self.inner.on_flow_start(now))
    }
    fn on_packet_sent(&mut self, now: Time, pkt: &SentPacket) {
        self.probe.span(|| self.inner.on_packet_sent(now, pkt))
    }
    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        self.probe.span(|| self.inner.on_ack(now, ack))
    }
    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        self.probe.span(|| self.inner.on_loss(now, loss))
    }
    fn pacing_rate(&self) -> Option<f64> {
        self.probe.span(|| self.inner.pacing_rate())
    }
    fn cwnd_bytes(&self) -> u64 {
        self.probe.span(|| self.inner.cwnd_bytes())
    }
    fn next_timer(&self) -> Option<Time> {
        self.probe.span(|| self.inner.next_timer())
    }
    fn on_timer(&mut self, now: Time) {
        self.probe.span(|| self.inner.on_timer(now))
    }
    fn snapshot(&self) -> Option<CcSnapshot> {
        self.probe.span(|| self.inner.snapshot())
    }
    fn drain_decisions(&mut self, out: &mut Vec<proteus_trace::DecisionEvent>) {
        self.probe.span(|| self.inner.drain_decisions(out))
    }
}

/// An application that delegates every method through a [`Probe`],
/// including `is_media`/`drain_frames`, so media metrics are unchanged.
struct TimedApp {
    inner: Box<dyn Application>,
    probe: Rc<Probe>,
}

impl Application for TimedApp {
    fn bytes_to_send(&mut self, now: Time) -> u64 {
        self.probe.span(|| self.inner.bytes_to_send(now))
    }
    fn consume(&mut self, bytes: u64) {
        self.probe.span(|| self.inner.consume(bytes))
    }
    fn on_delivered(&mut self, now: Time, bytes: u64) {
        self.probe.span(|| self.inner.on_delivered(now, bytes))
    }
    fn next_event(&self, now: Time) -> Option<Time> {
        self.probe.span(|| self.inner.next_event(now))
    }
    fn on_wakeup(&mut self, now: Time) {
        self.probe.span(|| self.inner.on_wakeup(now))
    }
    fn finished(&self, now: Time) -> bool {
        self.probe.span(|| self.inner.finished(now))
    }
    fn is_media(&self) -> bool {
        self.probe.span(|| self.inner.is_media())
    }
    fn drain_frames(&mut self, sink: &mut Vec<FrameRecord>) {
        self.probe.span(|| self.inner.drain_frames(sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::debug_digest;
    use crate::workloads::tests::short;
    use crate::workloads::EngineWorkload;
    use proteus_netsim::run;

    #[test]
    fn sampling_gap_averages_sample_every() {
        let probe = Probe::new(42);
        let n = 200_000u64;
        for _ in 0..n {
            probe.span(|| ());
        }
        let c = probe.counts();
        assert_eq!(c.calls, n);
        let every = n as f64 / c.sampled as f64;
        assert!((every - f64::from(SAMPLE_EVERY)).abs() < 1.0, "{every}");
    }

    #[test]
    fn instrumented_runs_are_identical_and_counted() {
        for w in [EngineWorkload::Dumbbell, EngineWorkload::Multipath] {
            let plain = debug_digest(&run(short(w, 3)));
            let ledger = Ledger::new();
            let traced = debug_digest(&run(ledger.instrument(short(w, 3))));
            assert_eq!(plain, traced, "{w:?}: probes changed the result");
            let counts = ledger.counts();
            assert!(counts.cc.values().all(|c| c.calls > 0), "{counts:?}");
            assert!(counts.apps.calls > 0);
        }
    }
}
