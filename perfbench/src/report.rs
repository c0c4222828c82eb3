//! The benchmark's metric vocabulary and its printed result.

use std::collections::BTreeMap;

use proteus_netsim::EVENT_KIND_NAMES;

/// End-to-end metrics: `(name, unit)`. Every workload prints each one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("replay_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Controllers the engine workloads run, by `CongestionControl::name`.
pub const CONTROLLERS: [&str; 5] = ["CUBIC", "LEDBAT", "Proteus-P", "Proteus-S", "Cross"];

/// Per-layer metrics: `(name, unit, better)`, in printing order. Every
/// workload prints each one; a layer that does no work on a workload, or
/// cannot be observed there from outside, reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    add("netsim.run_self_s".into(), "s", "lower");
    add("netsim.ns_per_event".into(), "ns", "lower");
    add("netsim.fused_frac".into(), "ratio", "higher");
    add("netsim.sched_pushes_per_pkt".into(), "1/pkt", "lower");
    add("netsim.peak_sched_depth".into(), "events", "lower");
    add("netsim.events_per_pkt".into(), "1/pkt", "lower");
    for kind in EVENT_KIND_NAMES {
        add(format!("netsim.pops.{kind}"), "1/pkt", "lower");
    }
    add("netsim.link_drop_frac".into(), "ratio", "lower");
    add("netsim.peak_queued_bytes".into(), "bytes", "lower");
    add("netsim.setup_s".into(), "s", "lower");
    for cc in CONTROLLERS {
        add(format!("cc.{cc}.calls"), "count", "lower");
        add(format!("cc.{cc}.ns_per_call"), "ns", "lower");
    }
    add("cc.self_s".into(), "s", "lower");
    add("apps.calls".into(), "count", "lower");
    add("apps.self_s".into(), "s", "lower");
    add("runner.campaign_s".into(), "s", "lower");
    add("runner.pool_util".into(), "ratio", "higher");
    add("runner.jobs_executed".into(), "count", "lower");
    add("runner.jobs_cached".into(), "count", "higher");
    add("runner.cache_hit_frac".into(), "ratio", "higher");
    add("runner.cache_bytes".into(), "bytes", "lower");
    add("bench.trace_overhead".into(), "ratio", "lower");
    m
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`per_layer`].
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The gated value.
    pub value: f64,
    /// Spread and sample count, for people reading the output.
    pub note: String,
}

/// Per-layer values keyed by metric name; names not set read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics on a value that is not finite (a bug in the benchmark).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    /// Every per-layer metric, in [`per_layer`] order.
    ///
    /// # Panics
    /// Panics if a value was recorded under a name [`per_layer`] lacks.
    pub fn into_metrics(self) -> Vec<Metric> {
        let vocab = per_layer();
        for name in self.0.keys() {
            assert!(
                vocab.iter().any(|(n, ..)| n == name),
                "unknown metric {name}"
            );
        }
        vocab
            .into_iter()
            .map(|(name, unit, _)| Metric {
                value: self.0.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
                note: String::new(),
            })
            .collect()
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reps, checked job outputs and cache passes).
    pub attempted: u64,
    /// Operations that failed a check; each has a line in `problems`.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Run facts: `(key, JSON value)`.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one checked operation, recording `problem` if it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Adds an end-to-end timing over repeats of identical work: the
    /// fastest sample, with the median, p90 and sample count in the note.
    ///
    /// Every repeat does the same work (the result digests prove it), so
    /// their spread is the host's alone. A shared 2-core KVM guest was
    /// measured alternating between two speed levels about 2x apart for
    /// seconds at a time, which moves the median of a run with the share
    /// of time spent at each level; the fastest repeat is the cost of the
    /// work at the fast level.
    pub fn timing(&mut self, name: &str, samples: &[f64]) {
        let p90 = proteus_stats::percentile(samples, 90.0).expect("at least one sample");
        let med = proteus_stats::median(samples).expect("at least one sample");
        let note = format!("median {med:.6}, p90 {p90:.6}, n={}", samples.len());
        let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
        self.metric(name, fastest, note);
    }

    /// Adds an end-to-end metric from [`END_TO_END`].
    ///
    /// # Panics
    /// Panics on an unknown name or a value that is not finite.
    pub fn metric(&mut self, name: &str, value: f64, note: String) {
        let (_, unit) = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        assert!(value.is_finite(), "{name} = {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        });
    }

    /// Prints the metrics for people, then the provenance line, then the
    /// result as one JSON object on the last line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {frac:>16.6} {:<6} {}/{} operations failed",
            "fail_frac", "ratio", self.failed, self.attempted
        );
        for p in &self.problems {
            println!("FAILED: {p}");
        }
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        println!("provenance {{{}}}", prov.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, ..)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(count - END_TO_END.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn layers_default_to_zero() {
        let mut l = Layers::default();
        l.set("apps.calls", 3.0);
        let m = l.into_metrics();
        assert_eq!(m.len(), per_layer().len());
        assert!(m
            .iter()
            .all(|m| m.value == if m.name == "apps.calls" { 3.0 } else { 0.0 }));
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn layers_reject_unknown_names() {
        let mut l = Layers::default();
        l.set("netsim.nonsense", 1.0);
        l.into_metrics();
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
