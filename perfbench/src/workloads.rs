//! The two engine workloads, generated from the benchmark seed.
//!
//! Both are built only from the simulator's public scenario API and the
//! harness's protocol registry, so the benchmark measures the program as
//! its users drive it.

use proteus_apps::{MediaSource, MediaSpec};
use proteus_bench::cc;
use proteus_netsim::{
    ChurnClass, ChurnSpec, FaultSchedule, FlowSpec, GilbertElliott, LinkSpec, NoiseConfig,
    Scenario, Topology,
};
use proteus_transport::Dur;

/// An engine workload: one scenario, run repeatedly on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// §6 scavenger-vs-primary dumbbell: the fused wire path and the
    /// controllers do the work.
    Dumbbell,
    /// Three-hop chain with noise, faults, churn and a media call: the
    /// staged wire path, the scheduler and the app hooks do the work.
    Multipath,
}

impl EngineWorkload {
    /// Builds the workload's scenario for `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Self::Dumbbell => dumbbell(seed),
            Self::Multipath => multipath(seed),
        }
    }
}

/// SplitMix64 finalizer: derives independent per-flow seeds from the
/// workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bulk flow of protocol `proto` starting at `start_s`.
fn bulk(proto: &'static str, start_s: u64, seed: u64) -> FlowSpec {
    FlowSpec::bulk(proto, Dur::from_secs(start_s), move || cc(proto, seed))
}

/// The paper-default 50 Mbps / 30 ms / 375 KB clean link; CUBIC, LEDBAT,
/// Proteus-P and Proteus-S start 5 s apart over 60 simulated seconds.
fn dumbbell(seed: u64) -> Scenario {
    let mut sc = Scenario::new(LinkSpec::paper_default(), Dur::from_secs(60)).with_seed(seed);
    for (i, proto) in ["CUBIC", "LEDBAT", "Proteus-P", "Proteus-S"]
        .into_iter()
        .enumerate()
    {
        sc = sc.flow(bulk(proto, 5 * i as u64, mix(seed, i as u64 + 1)));
    }
    sc
}

/// A chain of three 50 Mbps / 10 ms hops. The middle hop has WiFi latency
/// noise, Gilbert–Elliott burst loss and two bandwidth steps. One long
/// CUBIC crosses every hop, LEDBAT runs on hop 0, Proteus-S on hop 1, a
/// Cross media call over hops 1–2, and short CUBIC flows churn over hops
/// 0–1 (30 at warm start, 10 arrivals/s, 3 s mean lifetime).
fn multipath(seed: u64) -> Scenario {
    const SECS: u64 = 15;
    let hop = LinkSpec::new(50.0, Dur::from_millis(10), 375_000);
    let middle = hop.with_noise(NoiseConfig::wifi_default());
    let faults = FaultSchedule::new()
        .with_burst_loss(GilbertElliott::default())
        .bandwidth_step(Dur::from_secs(5), 30.0)
        .bandwidth_step(Dur::from_secs(10), 50.0);
    let topology = Topology::chain([hop, middle, hop]).with_faults(1, faults);

    let media = MediaSpec {
        seed: mix(seed, 5),
        ..MediaSpec::default()
    };
    let churn_seed = mix(seed, 6);
    let short_cubic = ChurnClass::new(
        "short-CUBIC",
        1.0,
        Box::new(move |id| cc("CUBIC", churn_seed ^ id as u64)),
    )
    .with_path([0, 1]);

    Scenario::over(topology, Dur::from_secs(SECS))
        .with_seed(seed)
        .flow(bulk("CUBIC", 0, mix(seed, 1)))
        .flow(bulk("LEDBAT", 2, mix(seed, 2)).with_path([0]))
        .flow(bulk("Proteus-S", 4, mix(seed, 3)).with_path([1]))
        .flow(
            bulk("Cross", 1, mix(seed, 4))
                .with_app(move || Box::new(MediaSource::new(media)))
                .with_reliability(true)
                .with_path([1, 2]),
        )
        .with_churn(ChurnSpec::new(10.0, Dur::from_secs(3), vec![short_cubic]).with_initial(30))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::host::debug_digest;
    use proteus_netsim::run;

    /// A copy of `w` of at most 20 s, in which every flow has started.
    pub(crate) fn short(w: EngineWorkload, seed: u64) -> Scenario {
        let mut sc = w.scenario(seed);
        sc.duration = sc.duration.min(Dur::from_secs(20));
        sc
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in [EngineWorkload::Dumbbell, EngineWorkload::Multipath] {
            assert_eq!(
                format!("{:?}", w.scenario(7)),
                format!("{:?}", w.scenario(7)),
                "{w:?} description"
            );
            let a = debug_digest(&run(short(w, 7)));
            assert_eq!(a, debug_digest(&run(short(w, 7))), "{w:?} result");
            assert_ne!(a, debug_digest(&run(short(w, 8))), "{w:?} ignores its seed");
        }
    }

    #[test]
    fn workloads_take_their_intended_paths() {
        let db = run(short(EngineWorkload::Dumbbell, 1));
        assert!(db.events.fused_fraction() > 0.5, "dumbbell mostly fused");
        let mp = run(short(EngineWorkload::Multipath, 1));
        assert_eq!(mp.events.fused, 0, "multipath never fuses");
        assert_eq!(mp.links.len(), 3);
        assert!(mp.flows.iter().any(|f| f.media().is_some()), "media call");
        assert!(mp.flows.len() > 34, "churned flows are reported");
    }
}
