//! One module per figure/table of the paper; see each module's docs for the
//! exact setup. [`registry`] lists every runnable experiment.

pub mod ablation;
pub mod appendix_b;
pub mod equilibrium;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod rtc;
pub mod scale;
pub mod stress;
pub mod topology;
pub mod tune;
pub mod video_util;
pub mod wifi;

use crate::RunCfg;

/// A runnable experiment.
pub struct Experiment {
    /// CLI identifier (e.g. `"fig3"`).
    pub id: &'static str,
    /// What it reproduces.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(RunCfg) -> Outcome,
}

/// What one experiment run hands back to its caller (e.g. `repro`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// The rendered report text.
    pub report: String,
    /// One name per failed invariant check (`<cell> <check>`); empty when
    /// every check held or the experiment enforces none.
    pub failed: Vec<String>,
}

impl From<String> for Outcome {
    /// The outcome of an experiment that enforces no invariants.
    fn from(report: String) -> Self {
        Outcome {
            report,
            failed: Vec::new(),
        }
    }
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            description:
                "PDF of RTT deviation/gradient under Poisson CUBIC flows + confusion probability",
            run: |cfg| fig2::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig3",
            description: "Bottleneck saturation with varying buffer size (throughput + inflation)",
            run: |cfg| fig3::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig4",
            description: "Random-loss tolerance",
            run: |cfg| fig4::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig5",
            description: "Jain's fairness index vs number of flows",
            run: |cfg| fig5::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig6",
            description: "Scavenger vs primary: throughput ratio and utilization",
            run: |cfg| fig6::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig7",
            description: "95th-percentile RTT ratio under competition",
            run: |cfg| fig7::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig8",
            description: "Primary throughput ratio CDF across bottleneck configurations",
            run: |cfg| fig8::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig9",
            description: "WiFi single-flow throughput + yielding CDFs (also covers fig10/21/22)",
            run: |cfg| wifi::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig11",
            description: "DASH bitrate and page-load time with background scavengers",
            run: |cfg| fig11::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig12",
            description: "Proteus-H vs Proteus-P: adaptive video bitrate/rebuffering",
            run: |cfg| fig12::run_experiment(cfg).into(),
        },
        Experiment {
            id: "fig13",
            description: "Proteus-H vs Proteus-P: forced-max-bitrate rebuffering",
            run: |cfg| fig12::run_experiment_forced(cfg).into(),
        },
        Experiment {
            id: "fig14",
            description: "BBR-S: RTT-deviation yielding grafted onto BBR",
            run: |cfg| fig14::run_experiment(cfg).into(),
        },
        Experiment {
            id: "appB",
            description: "Appendix B: LEDBAT-25 cannot be saved by tuning (figs 15-20)",
            run: |cfg| appendix_b::run_experiment(cfg).into(),
        },
        Experiment {
            id: "ablation",
            description:
                "Design ablations: each S5 noise mechanism, majority rule, deviation coefficient",
            run: |cfg| ablation::run_experiment(cfg).into(),
        },
        Experiment {
            id: "theory",
            description: "Appendix A equilibria + S4.4 hybrid ideal allocation",
            run: |cfg| equilibrium::run_experiment(cfg).into(),
        },
        Experiment {
            id: "stress",
            description:
                "Robustness: fault profiles (outages, bursty loss, reordering, ACK compression) x protocols + invariant checker",
            run: stress::run_experiment,
        },
        Experiment {
            id: "scale",
            description:
                "ISP-scale populations: 1k/10k/100k churning flows with equilibrium-fairness and scavenger-harm invariants",
            run: scale::run_experiment,
        },
        Experiment {
            id: "topology",
            description:
                "Multi-bottleneck topologies: parking-lot fairness, RTT-unfairness chain, scavenger harm behind two bottlenecks",
            run: topology::run_experiment,
        },
        Experiment {
            id: "rtc",
            description:
                "Real-time media: frame-paced call (Cross) alone and vs Proteus-S/LEDBAT/CUBIC with latency-SLO invariants",
            run: rtc::run_experiment,
        },
        Experiment {
            id: "tune",
            description:
                "Offline parameter search + utility ablation: grid sweep and genetic refinement over ProteusConfig space",
            run: |cfg| tune::run_experiment(cfg).into(),
        },
    ]
}
