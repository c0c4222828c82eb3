//! The `stress` robustness campaign: deterministic, invariant-clean, and
//! pinned against a committed golden report.
//!
//! Everything env-dependent lives in the single `#[test]` below —
//! `PROTEUS_RESULTS_DIR` is process-global, so a second env-touching test in
//! this binary would race it. The pure ACK-compression test at the bottom
//! touches no environment and may run concurrently.

use std::fs;
use std::path::PathBuf;

use proteus_bench::experiments::stress;
use proteus_bench::RunCfg;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Runs the quick campaign twice (single-threaded, then on 4 workers) and
/// checks: byte-identical reports, all invariants pass, and the report
/// matches `results/golden/stress_quick.txt`.
#[test]
fn stress_campaign_is_deterministic_and_invariants_hold() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stress_robustness");
    let _ = fs::remove_dir_all(&scratch);
    std::env::set_var("PROTEUS_RESULTS_DIR", &scratch);

    // No cache: both runs must actually simulate, or the byte-identity
    // check would just compare a cache entry with itself.
    let cfg = RunCfg {
        cache: false,
        ..RunCfg::quick()
    };
    let serial = stress::run_with_outcome(cfg);
    let parallel = stress::run_with_outcome(RunCfg { jobs: 4, ..cfg });
    std::env::remove_var("PROTEUS_RESULTS_DIR");

    assert_eq!(
        serial.report, parallel.report,
        "stress report differs between --jobs 1 and --jobs 4 runs"
    );
    assert!(
        serial.all_pass(),
        "stress invariants failed:\n{:#?}",
        serial.failures()
    );
    // The campaign wrote its report files where the docs promise.
    assert!(scratch.join("stress/robustness.txt").is_file());
    assert!(scratch.join("stress/invariants.csv").is_file());

    // Golden pin: quick-mode stress must reproduce the committed report
    // byte for byte. Re-bless with
    // `PROTEUS_BLESS=1 cargo test -p proteus-bench --test stress_robustness`.
    let golden_path = repo_path("results/golden/stress_quick.txt");
    if std::env::var_os("PROTEUS_BLESS").is_some_and(|v| !v.is_empty()) {
        fs::create_dir_all(golden_path.parent().unwrap()).expect("create results/golden");
        fs::write(&golden_path, &serial.report).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .expect("missing results/golden/stress_quick.txt — bless it with PROTEUS_BLESS=1");
    assert_eq!(
        serial.report, golden,
        "quick-mode stress no longer matches results/golden/stress_quick.txt. \
         If intentional: PROTEUS_BLESS=1 cargo test -p proteus-bench --test \
         stress_robustness, regenerate results/stress with `repro --no-cache \
         stress`, and commit both."
    );
}

/// The pathology→mechanism link the campaign's `ack-filter-trips` invariant
/// summarizes, asserted directly on trace events: injected ACK compression
/// makes the §5 per-ACK burst filter start dropping RTT samples.
#[test]
fn ack_compression_trips_the_per_ack_filter() {
    use proteus_bench::cc_traced;
    use proteus_netsim::{run, AckCompression, FaultSchedule, FlowSpec, LinkSpec, Scenario};
    use proteus_trace::EventKind;
    use proteus_transport::Dur;

    let mk = |faults: FaultSchedule| {
        run(Scenario::new(LinkSpec::paper_default(), Dur::from_secs(20))
            .flow(FlowSpec::bulk("Proteus-P", Dur::ZERO, || {
                cc_traced("Proteus-P", 9)
            }))
            .with_seed(9)
            .with_trace(Dur::from_millis(100))
            .with_faults(faults))
    };
    let trips = |res: &proteus_netsim::SimResult| {
        res.decisions
            .iter()
            .filter(|fe| matches!(fe.event.kind, EventKind::AckFilter(a) if a.dropping))
            .count()
    };

    let clean = mk(FaultSchedule::new());
    let compressed = mk(FaultSchedule::new().with_ack_compression(AckCompression {
        every: Dur::from_secs(2),
        hold: Dur::from_millis(60),
    }));

    assert!(compressed.links[0].fault_stats.compressed_acks > 100);
    assert!(
        trips(&compressed) >= 1,
        "ACK compression did not trip the §5 per-ACK filter; decisions: {} events",
        compressed.decisions.len()
    );
    // The filter engages *because of* the injected pathology: the same
    // run without faults stays quiet.
    assert_eq!(trips(&clean), 0, "filter tripped on a clean path");
}
