//! What one invocation produces, the metric vocabulary, and the sampling
//! helpers every workload shares.

use crate::check::Check;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics every workload reports on the result line, as
/// `(name, unit)`. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_eps", "events/s"),
    ("latency_et_mean", "event-time"),
    ("completeness", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics the traced run reports on the result line, as
/// `(name, unit)`. A layer a workload's path does not run reports 0 there
/// and `-` in the printed table. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("ingest_decode.qbin_ns_per_frame", "ns/frame"),
    ("ingest_decode.allocs_per_frame", "1/frame"),
    ("serve_shell.ns_per_event", "ns/event"),
    ("serve_shell.queue_depth_max", "count"),
    ("session.push_ns_per_event", "ns/event"),
    ("session_fanout.ns_per_query_event", "ns/query/event"),
    ("session_fanout.allocs_per_query_event", "1/query/event"),
    ("deliver.poll_ns_per_result", "ns/result"),
    ("deliver.overflow_dropped", "count"),
    ("strategy.ns_per_event", "ns/event"),
    ("strategy.allocs_per_event", "1/event"),
    ("strategy.watermarks_per_event", "1/event"),
    ("buffer.insert_ns_per_event", "ns/event"),
    ("buffer.max_len", "count"),
    ("estimator.observe_ns", "ns/call"),
    ("estimator.quantile_ns", "ns/call"),
    ("controller.update_ns", "ns/call"),
    ("route.ns_per_event", "ns/event"),
    ("route.skew", "ratio"),
    ("parallel.ns_per_event", "ns/event"),
    ("merge.residue_ns_per_event", "ns/event"),
    ("shard_stage.ns_per_event", "ns/event"),
    ("window_fold.ns_per_event", "ns/event"),
    ("window_finalize.ns_per_watermark", "ns/watermark"),
    ("window_finalize.ns_per_result", "ns/result"),
    ("window.allocs_per_event", "1/event"),
    ("window.agg_inserts_per_event", "1/event"),
    ("result_extract.ns_per_result", "ns/result"),
    ("quality_eval.oracle_ns_per_event", "ns/event"),
    ("quality_eval.score_ns_per_result", "ns/result"),
    ("runner.residue_ns_per_event", "ns/event"),
    ("residue.share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Figures the residue report's verdicts rest on, reported in the JSON
/// report line only: `WindowResult` extraction per input event, one
/// uncontended lock and unlock of the server's session lock type, and the
/// per-frame cost of front-shifting the server's receive buffer.
pub const AUX: [(&str, &str); 3] = [
    ("aux.extract_ns_per_event", "ns/event"),
    ("aux.lock_ns_per_event", "ns/event"),
    ("aux.front_shift_ns_per_frame", "ns/frame"),
];

/// Unit of a per-layer or auxiliary metric name.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(AUX.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// End-to-end metrics by name: `(value, unit)`. Includes the
    /// workload-specific ones (push percentiles, violation share, ...)
    /// beyond the result line's [`END_TO_END`] list.
    pub e2e: BTreeMap<String, (f64, String)>,
    /// Per-layer metrics by name (traced run only), each a median over the
    /// traced rounds.
    pub layers: BTreeMap<String, f64>,
    /// Reference checks.
    pub checks: Vec<Check>,
    /// Timed samples (untraced run) or traced rounds (traced run).
    pub samples: usize,
    /// Input events per sample.
    pub events: usize,
    /// Free-form facts for the printed report: shard counts, residue
    /// verdicts, notes on what a workload does not report.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.insert(name.into(), (value, unit.into()));
    }

    /// Record a fact for the printed report.
    pub fn fact(&mut self, key: &str, value: impl Into<String>) {
        self.facts.push((key.into(), value.into()));
    }

    /// Operations checked across every reference check.
    pub fn attempted(&self) -> u64 {
        self.checks.iter().map(|c| c.attempted).sum()
    }

    /// Failed operations across every reference check.
    pub fn failed(&self) -> u64 {
        self.checks.iter().map(|c| c.failed).sum()
    }

    /// Whether every reference check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(Check::passed)
    }
}

/// Call `f` until `seconds` have passed and it ran at least `min` times.
pub fn repeat_for<T>(seconds: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// Run `f` `reps` times, timing each; returns the last result and every
/// duration in seconds.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// Per-layer medians over rounds: each round maps layer metric names to
/// that round's value.
pub fn median_layers(rounds: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut names: Vec<&String> = rounds.iter().flat_map(|r| r.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let v: Vec<f64> = rounds.iter().filter_map(|r| r.get(n).copied()).collect();
            (n.clone(), stats::median(&v))
        })
        .collect()
}

/// Share of an end-to-end wall time the measured layers leave
/// unexplained: `(wall - sum(layers)) / wall`. Negative when the layers,
/// timed separately, add up to more than the path they make up.
pub fn residue_share(wall_ns: f64, layers_ns: &[f64]) -> f64 {
    if wall_ns <= 0.0 {
        return 0.0;
    }
    (wall_ns - layers_ns.iter().sum::<f64>()) / wall_ns
}

/// Unexplained time per unit of work: `(wall - sum(layers)) / units`.
pub fn residue_per(wall_ns: f64, layers_ns: &[f64], units: f64) -> f64 {
    if units <= 0.0 {
        return 0.0;
    }
    (wall_ns - layers_ns.iter().sum::<f64>()) / units
}

/// Relative cost of tracing: `(traced - untraced) / untraced`.
pub fn overhead_share(traced_ns: f64, untraced_ns: f64) -> f64 {
    if untraced_ns <= 0.0 {
        return 0.0;
    }
    (traced_ns - untraced_ns) / untraced_ns
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
