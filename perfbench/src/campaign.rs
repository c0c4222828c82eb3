//! The `campaign` workload: a Fig. 6 campaign through the experiment
//! runner, in process, at one worker per core with the result cache on.
//!
//! The campaign is every primary × scavenger-role cell of Fig. 6 at the
//! 375 KB buffer, built with the experiment's own `push_cell` (23 jobs: 18
//! pairs and 5 primary-alone runs, 10 simulated seconds each), at
//! `--seed`. A cycle empties the cache
//! directory, builds the campaign (the set-up), runs it cold (every job
//! executes and is stored), then replays it warm (builds it again and
//! answers every job from the cache) repeatedly for one batch. Before the
//! first cycle the same campaign runs once on one worker without the
//! cache; its outputs are the reference that every cold and warm pass must
//! reproduce.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proteus_bench::experiments::fig6::{push_cell, SCAV_ROLES};
use proteus_bench::{Traces, PRIMARIES};
use proteus_netsim::take_session_event_totals;
use proteus_runner::{take_session_stats, Campaign, CampaignOpts, CampaignStats};

use crate::host::{batch_mean, debug_digest, nproc, peak_rss_mb, process_cpu_s};
use crate::report::{Layers, Outcome};

/// Simulated seconds per job; in a pair the scavenger joins after 5 s.
/// (Fig. 6's quick mode runs 25 s; shorter jobs make the runner a larger
/// share of the pass, and fit more passes in a run.)
const SECS: f64 = 10.0;

/// The bottleneck buffer, bytes: the larger of Fig. 6's two, the paper's
/// default.
const BUFFER: u64 = 375_000;

/// Cycles a run makes at the least.
const MIN_CYCLES: usize = 3;

/// The shortest set-up batch (see [`batch_mean`]).
const SETUP_BATCH: Duration = Duration::from_millis(10);

/// Set-up batches per cycle; the last one's campaign is run.
const SETUP_BATCHES: usize = 5;

/// The shortest batch of warm replays (one takes well under a
/// millisecond).
const REPLAY_BATCH: Duration = Duration::from_millis(50);

/// The campaign for `seed`, run on `workers` threads with the cache at
/// `cache` (or no cache).
fn build(seed: u64, workers: usize, cache: Option<PathBuf>) -> Campaign {
    let opts = CampaignOpts {
        jobs: workers,
        cache,
        ..CampaignOpts::default()
    };
    let mut camp = Campaign::new("perfbench-fig6", opts);
    for &scav in SCAV_ROLES {
        for &primary in PRIMARIES.iter().filter(|&&p| p != scav) {
            push_cell(
                &mut camp,
                "perfbench",
                primary,
                scav,
                BUFFER,
                SECS,
                seed,
                Traces::off(),
            );
        }
    }
    camp
}

/// One run of the campaign.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    outputs: Vec<String>,
    stats: CampaignStats,
    /// Events the engine dispatched during the pass, and how many of them
    /// the fused wire path served.
    events: (u64, u64),
}

fn pass(camp: Campaign) -> Pass {
    take_session_event_totals();
    let (t, c) = (Instant::now(), process_cpu_s());
    let result = camp.run();
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - c);
    let totals = take_session_event_totals();
    // The runner logs every campaign; this run reads `result.stats`.
    take_session_stats();
    Pass {
        wall_s,
        cpu_s,
        outputs: result.outputs,
        stats: result.stats,
        events: (totals.dispatched, totals.fused),
    }
}

/// Checks a pass reproduced `reference`, and that the cache served
/// `cached` of its jobs.
fn check(p: &Pass, reference: &[String], cached: usize, what: &str, out: &mut Outcome) {
    out.check(p.outputs.len() == reference.len(), || {
        format!("{what} pass returned {} outputs", p.outputs.len())
    });
    for (i, (got, want)) in p.outputs.iter().zip(reference).enumerate() {
        out.check(got == want, || {
            format!("{what} pass job {i}: {got:?} != reference {want:?}")
        });
    }
    out.check(p.stats.cached == cached, || {
        format!("{what} pass took {} jobs from the cache", p.stats.cached)
    });
}

/// One cycle's measurements.
struct Cycle {
    /// Mean seconds per set-up, one per batch.
    setup_s: Vec<f64>,
    cold: Pass,
    /// Mean seconds per warm replay over one batch.
    replay_s: f64,
    /// The batch's last warm replay.
    warm: Pass,
    cache_bytes: u64,
}

fn cycle(seed: u64, workers: usize, dir: &Path, reference: &[String], out: &mut Outcome) -> Cycle {
    // A fresh, empty cache directory. File-system calls take from a tenth
    // of a millisecond to several on a shared host, so they stay out of the
    // timed set-up.
    if dir.exists() {
        fs::remove_dir_all(dir).unwrap_or_else(|e| panic!("clear {dir:?}: {e}"));
    }
    let cache = dir.join(".cache");
    fs::create_dir_all(&cache).unwrap_or_else(|e| panic!("create {cache:?}: {e}"));
    let mut camp = None;
    let setup_s = (0..SETUP_BATCHES)
        .map(|_| {
            batch_mean(SETUP_BATCH, || {
                camp = Some(build(seed, workers, Some(cache.clone())))
            })
        })
        .collect();
    let cold = pass(camp.expect("built"));
    check(&cold, reference, 0, "cold", out);
    let cache_bytes = dir_bytes(&cache);
    let mut warm = Vec::new();
    let replay_s = batch_mean(REPLAY_BATCH, || {
        warm.push(pass(build(seed, workers, Some(cache.clone()))));
    });
    for w in &warm {
        check(w, reference, reference.len(), "warm", out);
    }
    Cycle {
        setup_s,
        cold,
        replay_s,
        warm: warm.pop().expect("at least one warm replay"),
        cache_bytes,
    }
}

/// Total size of the files under `dir`, bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}"));
    entries
        .map(|e| {
            let path = e.expect("directory entry").path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                fs::metadata(&path).map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// The directory the harness writes reports and its cache to.
fn results_dir() -> Result<PathBuf, String> {
    match std::env::var_os("PROTEUS_RESULTS_DIR") {
        Some(d) if !d.is_empty() => Ok(PathBuf::from(d)),
        _ => Err("PROTEUS_RESULTS_DIR must name a scratch directory".into()),
    }
}

/// The reference outputs, then cycles until `budget` is spent (at least
/// [`MIN_CYCLES`]).
fn cycles(
    seed: u64,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(Vec<Cycle>, u64, usize), String> {
    let dir = results_dir()?.join("campaign");
    let workers = nproc();
    let reference = build(seed, 1, None).run().outputs;
    out.attempted += 1;
    let start = Instant::now();
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || start.elapsed() < budget {
        cycles.push(cycle(seed, workers, &dir, &reference, out));
    }
    Ok((cycles, debug_digest(&reference), workers))
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (cycles, digest, workers) = cycles(seed, budget, &mut out)?;
    let col = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    out.timing("wall_s", &col(|c| c.cold.wall_s));
    out.timing("replay_s", &col(|c| c.replay_s));
    out.timing("cpu_s", &col(|c| c.cold.cpu_s));
    let setups: Vec<f64> = cycles.iter().flat_map(|c| c.setup_s.clone()).collect();
    out.timing("setup_s", &setups);
    out.metric("peak_rss_mb", peak_rss_mb(), String::new());
    provenance(&mut out, &cycles, workers, digest);
    Ok(out)
}

/// The traced run: the runner's own accounting, from the cycle whose cold
/// pass was fastest. The spans are the pass timings the untraced run takes
/// as well, so the tracing overhead is 1 by construction.
pub fn measure_traced(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (cycles, digest, workers) = cycles(seed, budget, &mut out)?;
    let c = cycles
        .iter()
        .min_by(|a, b| a.cold.wall_s.total_cmp(&b.cold.wall_s))
        .expect("at least one cycle");
    let mut layers = Layers::default();
    let campaign_s = c.cold.stats.wall_secs;
    layers.set("runner.campaign_s", campaign_s);
    layers.set(
        "runner.pool_util",
        c.cold.cpu_s / (campaign_s * workers as f64),
    );
    layers.set("runner.jobs_executed", c.cold.stats.executed as f64);
    layers.set("runner.jobs_cached", c.warm.stats.cached as f64);
    layers.set(
        "runner.cache_hit_frac",
        c.warm.stats.cached as f64 / c.warm.stats.total as f64,
    );
    layers.set("runner.cache_bytes", c.cache_bytes as f64);
    let (dispatched, fused) = c.cold.events;
    layers.set("netsim.fused_frac", fused as f64 / dispatched.max(1) as f64);
    layers.set("bench.trace_overhead", 1.0);
    out.metrics = layers.into_metrics();
    provenance(&mut out, &cycles, workers, digest);
    Ok(out)
}

/// Records the run's size and the reference: the digest of its outputs and
/// the events a cold pass dispatches (the work in one pass, which varies
/// with the seed).
fn provenance(out: &mut Outcome, cycles: &[Cycle], workers: usize, digest: u64) {
    out.provenance.push(("reps", cycles.len().to_string()));
    out.provenance.push(("workers", workers.to_string()));
    out.provenance
        .push(("digest", format!("\"{digest:016x}\"")));
    out.provenance
        .push(("events", cycles[0].cold.events.0.to_string()));
}
