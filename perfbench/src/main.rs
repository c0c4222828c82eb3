//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload dumbbell|multipath|campaign --seed N --seconds S --trace 0|1
//! perfbench --list-metrics
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it makes the separate traced run that gives the per-layer metrics and
//! the tracing overhead. It prints one line per metric, a provenance line
//! and, last, the result as one JSON object. `perfbench/run.py` builds it
//! and is the command to run (see `perfbench/README.md`).

mod campaign;
mod engine;
mod host;
mod probe;
mod report;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, per_layer, Outcome, END_TO_END};
use workloads::EngineWorkload;

const USAGE: &str = "usage: perfbench --workload dumbbell|multipath|campaign --seed N \
     --seconds S --trace 0|1 | --list-metrics";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Engine(EngineWorkload),
    Campaign,
}

/// The longest run `--seconds` may ask for: a run must end within three
/// minutes.
const MAX_SECONDS: u64 = 150;

#[derive(Debug)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} requires a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => {
                let s = number()?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(format!(
                        "--seconds must be within 1..={MAX_SECONDS}, got {s}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "dumbbell" => Workload::Engine(EngineWorkload::Dumbbell),
        "multipath" => Workload::Engine(EngineWorkload::Multipath),
        "campaign" => Workload::Campaign,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric vocabulary as JSON, for the smoke test to hold against
/// `BENCHMARK.json`.
fn list_metrics() {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u)| format!("[{}, {}]", json_str(n), json_str(u)))
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(n, u, b)| format!("[{}, {}, {}]", json_str(n), json_str(u), json_str(b)))
        .collect();
    println!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        e2e.join(", "),
        layers.join(", ")
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--list-metrics"] {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(raw.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock_pair_ns = host::clock_pair_ns();
    let budget = Duration::from_secs(args.seconds);
    let outcome = match (args.workload, args.trace) {
        (Workload::Engine(w), false) => Ok(engine::measure(w, args.seed, budget)),
        (Workload::Engine(w), true) => Ok(engine::measure_traced(w, args.seed, budget)),
        (Workload::Campaign, false) => campaign::measure(args.seed, budget),
        (Workload::Campaign, true) => campaign::measure_traced(args.seed, budget),
    };
    let mut outcome: Outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut prov = vec![
        ("workload", json_str(&args.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        ("clock_pair_ns", format!("{clock_pair_ns:.1}")),
    ];
    prov.append(&mut outcome.provenance);
    outcome.provenance = prov;
    outcome.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload multipath --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Engine(EngineWorkload::Multipath));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload web --seed 1 --seconds 1 --trace 0",
            "--workload campaign --seed x --seconds 1 --trace 0",
            "--workload campaign --seed 1 --seconds 0 --trace 0",
            "--workload campaign --seed 1 --seconds 151 --trace 0",
            "--workload campaign --seed 1 --seconds 1 --trace 2",
            "--workload campaign --seed 1 --seconds 1",
            "--workload campaign --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
