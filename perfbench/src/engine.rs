//! The engine workloads: one scenario, `Sim::run` repeatedly on one
//! thread.
//!
//! The first rep is a warm-up whose result digest is the reference; every
//! timed rep replays the same seed and must reproduce that digest.

use std::rc::Rc;
use std::time::{Duration, Instant};

use proteus_netsim::{Sim, SimResult, EVENT_KIND_NAMES};

use crate::host::{batch_mean, debug_digest, peak_rss_mb, process_cpu_s};
use crate::probe::{Ledger, LedgerCounts};
use crate::report::{Layers, Outcome, CONTROLLERS};
use crate::workloads::EngineWorkload;

/// Timed reps (or traced/untraced pairs) a run makes at the least.
const MIN_REPS: usize = 5;

/// The shortest set-up batch (see [`batch_mean`]).
const SETUP_BATCH: Duration = Duration::from_millis(5);

/// Mean seconds per set-up (scenario construction plus `Sim::new`, and
/// dropping the unrun simulator) over one batch.
fn setup_batch(w: EngineWorkload, seed: u64) -> f64 {
    batch_mean(SETUP_BATCH, || drop(Sim::new(w.scenario(seed))))
}

/// One rep's measurements.
struct Rep {
    /// Scenario construction plus `Sim::new` for this rep.
    build_s: f64,
    /// Mean set-up time over a batch made just before the rep.
    setup_s: f64,
    /// `Sim::run`.
    run_s: f64,
    /// Process CPU during `Sim::run`.
    cpu_s: f64,
    digest: u64,
    /// Probe counters accumulated during the rep (traced reps only).
    layers: Option<LedgerCounts>,
}

fn rep(w: EngineWorkload, seed: u64, ledger: Option<&Rc<Ledger>>) -> (Rep, SimResult) {
    let setup_s = setup_batch(w, seed);
    let before = ledger.map(|l| l.counts());
    let t0 = Instant::now();
    let sc = w.scenario(seed);
    let sc = match ledger {
        Some(l) => l.instrument(sc),
        None => sc,
    };
    let sim = Sim::new(sc);
    let t1 = Instant::now();
    let c1 = process_cpu_s();
    let result = sim.run();
    let cpu_s = process_cpu_s() - c1;
    let run_s = t1.elapsed().as_secs_f64();
    let layers = ledger.zip(before).map(|(l, b)| l.counts().since(&b));
    let rep = Rep {
        build_s: (t1 - t0).as_secs_f64(),
        setup_s,
        run_s,
        cpu_s,
        digest: debug_digest(&result),
        layers,
    };
    (rep, result)
}

fn digest_check(out: &mut Outcome, what: &str, i: usize, got: u64, want: u64) {
    out.check(got == want, || {
        format!("{what} rep {i}: result digest {got:016x} != reference {want:016x}")
    });
}

/// The untraced run: end-to-end metrics.
pub fn measure(w: EngineWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (reference, result) = rep(w, seed, None);
    out.attempted += 1;
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let (r, _) = rep(w, seed, None);
        digest_check(
            &mut out,
            "replay",
            reps.len() + 1,
            r.digest,
            reference.digest,
        );
        reps.push(r);
    }
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    out.timing("wall_s", &col(|r| r.run_s));
    out.timing("replay_s", &col(|r| r.build_s + r.run_s));
    out.timing("cpu_s", &col(|r| r.cpu_s));
    out.timing("setup_s", &col(|r| r.setup_s));
    out.metric("peak_rss_mb", peak_rss_mb(), String::new());
    provenance(&mut out, reps.len(), &reference, &result);
    out
}

/// Records the run's size and the reference rep: its result digest and the
/// events it dispatched (the work in one rep, which varies with the seed).
fn provenance(out: &mut Outcome, reps: usize, reference: &Rep, result: &SimResult) {
    out.provenance.push(("reps", reps.to_string()));
    out.provenance.push(("workers", "1".to_string()));
    out.provenance
        .push(("digest", format!("\"{:016x}\"", reference.digest)));
    out.provenance
        .push(("events", result.events.dispatched().to_string()));
}

/// The traced run: untraced and traced reps alternate, so the overhead
/// ratio (fastest traced rep over fastest untraced rep) compares reps made
/// under the same host conditions.
pub fn measure_traced(w: EngineWorkload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let ledger = Ledger::new();
    let (reference, result) = rep(w, seed, None);
    out.attempted += 1;
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.len() < MIN_REPS || start.elapsed() < budget {
        let i = traced.len() + 1;
        let (p, _) = rep(w, seed, None);
        digest_check(&mut out, "untraced", i, p.digest, reference.digest);
        let (t, _) = rep(w, seed, Some(&ledger));
        digest_check(&mut out, "traced", i, t.digest, reference.digest);
        plain.push(p);
        traced.push(t);
    }

    let mut layers = Layers::default();
    counters(&mut layers, &result);
    let fastest = |reps: &[Rep]| -> usize {
        (0..reps.len())
            .min_by(|&a, &b| reps[a].run_s.total_cmp(&reps[b].run_s))
            .expect("at least one rep")
    };
    let plain_s = plain[fastest(&plain)].run_s;
    let best = &traced[fastest(&traced)];
    layers.set("bench.trace_overhead", best.run_s / plain_s);
    let setup_s = plain
        .iter()
        .map(|r| r.setup_s)
        .fold(f64::INFINITY, f64::min);
    layers.set("netsim.setup_s", setup_s);

    // Layer times come from the fastest traced rep, the one the host
    // disturbed least (see `Outcome::timing`). The engine's self time is
    // the fastest untraced `Sim::run` less them, so the probes' own cost
    // stays out of it.
    let c = best.layers.as_ref().expect("traced reps carry counts");
    let cc_s: f64 = c.cc.values().map(|p| p.estimate_s()).sum();
    let apps_s = c.apps.estimate_s();
    let self_s = plain_s - cc_s - apps_s;
    layers.set("netsim.run_self_s", self_s);
    layers.set(
        "netsim.ns_per_event",
        self_s * 1e9 / result.events.dispatched() as f64,
    );
    layers.set("cc.self_s", cc_s);
    for (name, p) in &c.cc {
        if !CONTROLLERS.contains(&name.as_str()) {
            out.check(false, || {
                format!("controller {name} has no per-layer metric")
            });
            continue;
        }
        layers.set(format!("cc.{name}.calls"), p.calls as f64);
        layers.set(
            format!("cc.{name}.ns_per_call"),
            p.estimate_s() * 1e9 / p.calls.max(1) as f64,
        );
    }
    layers.set("apps.calls", c.apps.calls as f64);
    layers.set("apps.self_s", apps_s);
    out.metrics = layers.into_metrics();
    provenance(&mut out, traced.len(), &reference, &result);
    out.provenance
        .push(("wall_s_untraced", plain_s.to_string()));
    out.provenance
        .push(("wall_s_traced", best.run_s.to_string()));
    out
}

/// The engine's own counters, from one run's result.
fn counters(layers: &mut Layers, r: &SimResult) {
    let ev = &r.events;
    let pkts = r.flows.iter().map(|f| f.pkts_acked).sum::<u64>().max(1) as f64;
    layers.set("netsim.fused_frac", ev.fused_fraction());
    layers.set("netsim.sched_pushes_per_pkt", ev.pushes as f64 / pkts);
    layers.set("netsim.peak_sched_depth", ev.peak_queue as f64);
    layers.set("netsim.events_per_pkt", ev.dispatched() as f64 / pkts);
    for (kind, pops) in EVENT_KIND_NAMES.iter().zip(ev.pops) {
        layers.set(format!("netsim.pops.{kind}"), pops as f64 / pkts);
    }
    let (dropped, offered) = r.links.iter().fold((0, 0), |(d, o), l| {
        (d + l.dropped_pkts, o + l.dropped_pkts + l.accepted_pkts)
    });
    layers.set(
        "netsim.link_drop_frac",
        dropped as f64 / offered.max(1) as f64,
    );
    let peak_q = r.links.iter().map(|l| l.peak_queued_bytes).max();
    layers.set("netsim.peak_queued_bytes", peak_q.unwrap_or(0) as f64);
}
