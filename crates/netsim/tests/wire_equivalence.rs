//! Wire-path equivalence: the fused wire path of `run` (the wire ring on
//! clean single-link runs, wire lanes everywhere else) and the staged
//! scheduler chain of `run_staged` must produce *identical* `SimResult`s,
//! because fusion preserves the exact `(time, push-sequence)` key of every
//! event it serves and the main loop merges the streams in that same total
//! order. Exercised on clean, lossy, paced, churn, noisy (with cross traffic
//! and queue sampling) and faulted scenarios, and by two
//! proptests: randomized single links (populations × churn × noise ×
//! faults; a quarter of draws are clean and run on the ring) and randomized
//! 1–4-link chains (churn sub-paths × per-link noise, reordering, ACK
//! compression and link changes), whose perturbations push out-of-order
//! events back to the scheduler.

use proptest::prelude::*;
use proteus_netsim::{
    run, run_staged, AckCompression, ChurnClass, ChurnSpec, CrossTrafficSpec, FaultSchedule,
    FlowSpec, GilbertElliott, LinkId, LinkSpec, NoiseConfig, ReorderConfig, Scenario, SimResult,
    Topology, EVENT_KIND_NAMES,
};
use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, Time};

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

/// Fixed pacing rate, no window.
struct TestPaced {
    rate: f64, // bytes/sec
}

impl CongestionControl for TestPaced {
    fn name(&self) -> &str {
        "test-paced"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Behavioral digest: the full `SimResult` debug rendering with the event
/// accounting zeroed out. `EventStats` measures queue *mechanics* — the
/// fused path deliberately pushes fewer scheduler events — so it is the one
/// field where staged and fused legitimately differ; everything observable
/// (metrics, samples, traces, decisions, fault stats) must match exactly.
fn digest(r: &SimResult) -> String {
    let mut scrubbed = r.clone();
    scrubbed.events = Default::default();
    format!("{scrubbed:?}")
}

fn kind(name: &str) -> usize {
    EVENT_KIND_NAMES
        .iter()
        .position(|&k| k == name)
        .expect("known event kind")
}

/// Mechanics both paths must share: the same dispatches by kind, none
/// served outside the scheduler on the staged path, and every event the
/// fused path served outside the scheduler (released departures aside) is
/// one scheduler push the staged path made and the fused path did not.
fn assert_mechanics(fused: &SimResult, staged: &SimResult, ctx: &dyn std::fmt::Debug) {
    let (f, s) = (&fused.events, &staged.events);
    assert_eq!(f.pops, s.pops, "dispatch counts differ: {ctx:?}");
    assert_eq!(
        s.fused, 0,
        "staged served events off the scheduler: {ctx:?}"
    );
    let off_sched = f.fused - f.pops[kind("QueueDrain")];
    assert!(
        f.pushes + off_sched <= s.pushes,
        "fused pushes {} + off-scheduler events {off_sched} exceed staged pushes {}: {ctx:?}",
        f.pushes,
        s.pushes
    );
}

/// Runs the scenario on both wire paths and asserts digest equality.
/// Returns the fused run's result for gate assertions.
fn assert_paths_agree(mk: impl Fn() -> Scenario) -> SimResult {
    let fused = run(mk());
    let staged = run_staged(mk());
    assert_eq!(
        digest(&fused),
        digest(&staged),
        "fused and staged wire paths diverged on an identical scenario"
    );
    assert_mechanics(&fused, &staged, &"fixed scenario");
    fused
}

#[test]
fn clean_ack_clocked_scenario_fuses_and_matches() {
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
            Dur::from_secs(5),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .flow(
            FlowSpec::bulk("paced", Dur::from_secs(1), || {
                Box::new(TestPaced { rate: 500_000.0 })
            })
            .with_stop(Dur::from_secs(4)),
        )
        .with_queue_sampling(Dur::from_millis(50))
        .with_trace(Dur::from_millis(100))
        .with_seed(7)
    });
    assert!(
        fused.events.fused > 0,
        "clean scenario selected Fused but dispatched nothing through the ring"
    );
    // Every data packet costs three wire dispatches minus the drain-only
    // entries; on a loss-free link the three stages account for the bulk of
    // all dispatches.
    assert!(fused.events.fused_fraction() > 0.5);
}

#[test]
fn clean_scenario_with_random_loss_fuses_and_matches() {
    // `random_loss` is fusion-compatible: the per-packet draw happens at
    // admission from the main RNG in both paths, in the same order.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(40.0, Dur::from_millis(30), 300_000).with_random_loss(0.01),
            Dur::from_secs(6),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: 3.0,
            size_range: (20_000, 100_000),
            cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
            start: Dur::ZERO,
            stop: Dur::from_secs(5),
        })
        .with_trace(Dur::from_millis(100))
        .with_seed(1234)
    });
    assert!(fused.events.fused > 0);
}

#[test]
fn churn_population_fuses_and_matches() {
    let fused = assert_paths_agree(|| {
        let classes = vec![
            ChurnClass::new(
                "win",
                2.0,
                proteus_transport::factory(|_| TestWindow { cwnd: 40_000 }),
            ),
            ChurnClass::new(
                "paced",
                1.0,
                proteus_transport::factory(|_| TestPaced { rate: 250_000.0 }),
            ),
        ];
        Scenario::new(
            LinkSpec::new(100.0, Dur::from_millis(20), 500_000),
            Dur::from_secs(10),
        )
        .with_churn(
            ChurnSpec::new(6.0, Dur::from_secs(2), classes)
                .with_initial(8)
                .with_window(Dur::ZERO, Dur::from_secs(8)),
        )
        .with_seed(42)
    });
    assert!(fused.events.fused > 0);
}

#[test]
fn noisy_scenario_runs_on_lanes_and_matches() {
    // Noise makes the wire ring inapplicable; wire lanes serve the packets
    // whose jittered arrivals stay in order and hand the rest to the
    // scheduler. Everything else the event stream exercises rides along:
    // window + paced flows, a late start/stop, Poisson cross traffic,
    // random loss, queue sampling (departure releases at a sample) and
    // telemetry.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(40.0, Dur::from_millis(30), 300_000)
                .with_random_loss(0.005)
                .with_noise(NoiseConfig::Gaussian {
                    std: Dur::from_micros(300),
                }),
            Dur::from_secs(8),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .flow(
            FlowSpec::bulk("paced", Dur::from_secs(1), || {
                Box::new(TestPaced { rate: 500_000.0 })
            })
            .with_stop(Dur::from_secs(6)),
        )
        .with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: 3.0,
            size_range: (20_000, 100_000),
            cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
            start: Dur::ZERO,
            stop: Dur::from_secs(7),
        })
        .with_queue_sampling(Dur::from_millis(50))
        .with_trace(Dur::from_millis(100))
        .with_seed(1234)
    });
    assert!(fused.events.fused > 0, "lanes must serve a noisy run");
    assert!(!fused.queue_samples.is_empty());
    assert!(fused.flows.len() > 2, "cross traffic spawned no flows");
}

#[test]
fn faulted_scenario_runs_on_lanes_and_matches() {
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(20.0, Dur::from_millis(30), 150_000),
            Dur::from_secs(10),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 100_000 })
        }))
        .with_faults(
            FaultSchedule::new()
                .bandwidth_step(Dur::from_secs(3), 8.0)
                .rtt_step(Dur::from_secs(5), Dur::from_millis(60))
                .outage(Dur::from_secs(7), Dur::from_millis(500))
                .with_burst_loss(GilbertElliott {
                    p_enter: 0.002,
                    p_exit: 0.3,
                    loss_good: 0.0,
                    loss_bad: 0.4,
                }),
        )
        .with_trace(Dur::from_millis(200))
        .with_seed(77)
    });
    assert!(fused.events.fused > 0, "lanes must serve a faulted run");
}

#[test]
fn empty_fault_schedule_still_fuses() {
    // Same normalization rule as `with_faults`: an empty schedule is the
    // static fast path, so it must not disable fusion either.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(30.0, Dur::from_millis(20), 200_000),
            Dur::from_secs(4),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 80_000 })
        }))
        .with_faults(FaultSchedule::new())
        .with_seed(5)
    });
    assert!(fused.events.fused > 0);
}

/// One randomized link of a chain: its shape plus optional latency noise
/// and an optional fault process.
#[derive(Debug, Clone)]
struct RandLink {
    rate_mbps: f64,
    rtt_ms: u64,
    buffer: u64,
    loss: f64,
    /// 0: none, 1: Gaussian, 2: WiFi.
    noise: u8,
    /// 0: none, 1: bandwidth step + outage, 2: reordering, 3: ACK
    /// compression, 4: RTT step down (earlier arrivals after the step).
    fault: u8,
}

impl RandLink {
    /// Draws every field from one random word.
    fn from_bits(b: u64) -> Self {
        let field = |shift: u32, n: u64| (b >> shift) % n;
        RandLink {
            rate_mbps: 10.0 + field(0, 91) as f64,
            rtt_ms: 5 + field(8, 55),
            buffer: 50_000 + 1_000 * field(16, 451),
            loss: match field(28, 4) {
                0 | 1 => 0.0,
                k => 0.005 * k as f64,
            },
            noise: field(32, 3) as u8,
            fault: field(40, 5) as u8,
        }
    }

    fn spec(&self) -> LinkSpec {
        LinkSpec::new(self.rate_mbps, Dur::from_millis(self.rtt_ms), self.buffer)
            .with_random_loss(self.loss)
            .with_noise(match self.noise {
                0 => NoiseConfig::None,
                1 => NoiseConfig::Gaussian {
                    std: Dur::from_micros(200),
                },
                _ => NoiseConfig::wifi_default(),
            })
    }

    fn faults(&self) -> Option<FaultSchedule> {
        let f = FaultSchedule::new();
        match self.fault {
            0 => None,
            1 => Some(
                f.bandwidth_step(Dur::from_millis(800), self.rate_mbps * 0.5)
                    .outage(Dur::from_millis(1200), Dur::from_millis(100)),
            ),
            2 => Some(f.with_reorder(ReorderConfig {
                prob: 0.05,
                max_extra: Dur::from_millis(8),
            })),
            3 => Some(f.with_ack_compression(AckCompression {
                every: Dur::from_millis(400),
                hold: Dur::from_millis(40),
            })),
            _ => Some(f.rtt_step(Dur::from_millis(700), Dur::from_millis(self.rtt_ms / 2))),
        }
    }
}

/// One randomized scenario: a 1–4-link chain, population shape and churn
/// vary; flows and churn classes take the full path or a sub-path, so
/// links carry a mix of mid-path and last-hop traffic. Fused-vs-staged
/// digest equality must hold everywhere.
#[derive(Debug, Clone)]
struct RandScenario {
    links: Vec<RandLink>,
    n_win: usize,
    n_paced: usize,
    churn: bool,
    /// Sub-path selector: flow `i` runs over links `[i·k % n, n)`.
    sub_path: usize,
    seed: u64,
}

impl RandScenario {
    /// Suffix of the chain starting at link `(i · sub_path) mod n`.
    fn path(&self, i: usize) -> Vec<LinkId> {
        let n = self.links.len();
        let first = (i * self.sub_path) % n;
        (first as LinkId..n as LinkId).collect()
    }

    fn build(&self) -> Scenario {
        let mut topo = Topology::chain(self.links.iter().map(RandLink::spec));
        for (i, l) in self.links.iter().enumerate() {
            if let Some(f) = l.faults() {
                topo = topo.with_faults(i as LinkId, f);
            }
        }
        let mut s = Scenario::over(topo, Dur::from_secs(2)).with_seed(self.seed);
        for i in 0..self.n_win {
            let cwnd = 40_000 + 20_000 * i as u64;
            s = s.flow(
                FlowSpec::bulk("win", Dur::from_millis(100 * i as u64), move || {
                    Box::new(TestWindow { cwnd })
                })
                .with_path(self.path(i)),
            );
        }
        for i in 0..self.n_paced {
            let rate = 200_000.0 + 150_000.0 * i as f64;
            s = s.flow(
                FlowSpec::bulk("paced", Dur::from_millis(50 * i as u64), move || {
                    Box::new(TestPaced { rate })
                })
                .with_path(self.path(i + 1)),
            );
        }
        if self.churn {
            let classes = vec![
                ChurnClass::new(
                    "churn-full",
                    1.0,
                    proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
                ),
                ChurnClass::new(
                    "churn-sub",
                    1.0,
                    proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
                )
                .with_path(self.path(2)),
            ];
            s = s.with_churn(
                ChurnSpec::new(4.0, Dur::from_millis(500), classes)
                    .with_initial(3)
                    .with_window(Dur::ZERO, Dur::from_millis(1500)),
            );
        }
        s
    }
}

/// Fused-vs-staged checks every randomized scenario must pass.
fn check_paths_agree(rs: &RandScenario) {
    let fused = run(rs.build());
    let staged = run_staged(rs.build());
    assert_eq!(
        digest(&fused),
        digest(&staged),
        "fused and staged diverged: {:?}",
        rs
    );
    assert_mechanics(&fused, &staged, rs);
    // Ring or lanes: any run that delivers a packet serves some event
    // outside the scheduler.
    if staged.events.pops[kind("Delivery")] > 0 {
        assert!(
            fused.events.fused > 0,
            "nothing served outside the scheduler: {:?}",
            rs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single links, the wire ring's oracle: a quarter of draws are clean
    /// (no noise, no faults) and run on the ring; the rest add Gaussian
    /// noise and/or a bandwidth step with an outage and run on lanes.
    #[test]
    fn randomized_scenarios_are_wire_path_independent(
        rate_mbps in 10.0f64..100.0,
        rtt_ms in 5u64..60,
        buffer in 50_000u64..500_000,
        loss in prop_oneof![Just(0.0), 0.001f64..0.02],
        n_win in 0usize..3,
        n_paced in 0usize..3,
        churn in any::<bool>(),
        noisy in any::<bool>(),
        faulted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let link = RandLink {
            rate_mbps,
            rtt_ms,
            buffer,
            loss,
            noise: noisy as u8,
            fault: faulted as u8,
        };
        let rs = RandScenario { links: vec![link], n_win, n_paced, churn, sub_path: 0, seed };
        check_paths_agree(&rs);
    }

    /// 1–4-link chains with per-link noise and fault processes.
    #[test]
    fn randomized_chains_are_wire_path_independent(
        links in prop::collection::vec(any::<u64>().prop_map(RandLink::from_bits), 1..5),
        n_win in 0usize..3,
        n_paced in 0usize..3,
        churn in any::<bool>(),
        sub_path in 0usize..4,
        seed in any::<u64>(),
    ) {
        let rs = RandScenario { links, n_win, n_paced, churn, sub_path, seed };
        check_paths_agree(&rs);
    }
}
