//! `batch-aq-netmon`: sequential `execute` of the netmon standard query
//! under `AqKSlack::for_completeness(0.99)` — the paper's headline path.

use super::{MIN_ROUNDS, MIN_SAMPLES, SETUP_REPS};
use crate::check::{check_against_oracle, Check};
use crate::inputs::{self, Scale, TARGET};
use crate::layers::{self, Layers};
use crate::run::{
    median_layers, overhead_share, per, repeat_for, residue_per, residue_share, timed_reps, Outcome,
};
use crate::spans::Tracer;
use crate::stats::median;
use quill_core::prelude::*;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "batch-aq-netmon";

/// Record the end-to-end metrics one `execute` output carries.
pub fn record_run_output(o: &mut Outcome, out: &RunOutput) {
    o.e2e("latency_et_mean", out.latency.mean, "event-time");
    o.e2e("latency_et_p50", out.latency.p50, "event-time");
    o.e2e("latency_et_p99", out.latency.p99, "event-time");
    o.e2e("completeness", out.quality.mean_completeness, "ratio");
    o.e2e(
        "violation_share",
        out.quality.violation_rate(TARGET),
        "ratio",
    );
}

/// Run the workload.
pub fn run(seed: u64, scale: Scale, seconds: f64, trace: bool) -> (Outcome, Vec<Tracer>) {
    let query = inputs::netmon_query();
    let (events, gen) = timed_reps(SETUP_REPS, || {
        inputs::netmon_events(scale, scale.netmon, seed)
    });
    let (mut o, first, tracers) = measure_execute(
        &events,
        &query,
        &ExecOptions::sequential(),
        seconds,
        trace,
        |wall, hint| traced_round(&events, &query, wall, hint),
    );
    o.e2e("setup_s", median(&gen), "s");
    o.checks.push(check_against_oracle(
        "execute vs naive full-sort oracle",
        &events,
        &query,
        &first.results,
        first.quality.mean_completeness,
    ));
    if trace {
        runner_verdict(&mut o);
    }
    (o, tracers)
}

/// Time `execute(events, AQ(0.99), query, opts)` for `seconds` — in a
/// traced run, each sample followed by `round(wall_s, results)` — and
/// record the end-to-end metrics. Every sample must repeat the first
/// sample's results; the first sample's output is returned for the
/// workload's reference checks.
pub fn measure_execute(
    events: &[Event],
    query: &QuerySpec,
    opts: &ExecOptions,
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(f64, usize) -> (Tracer, Layers),
) -> (Outcome, RunOutput, Vec<Tracer>) {
    let mut o = Outcome {
        events: events.len(),
        ..Outcome::default()
    };
    let mut same = Check::new("every sample repeats the first sample's results");
    let mut first: Option<RunOutput> = None;
    let mut tracers = Vec::new();
    let mut rounds = Vec::new();
    let min = if trace { MIN_ROUNDS } else { MIN_SAMPLES };
    let walls = repeat_for(seconds, min, || {
        let mut st = AqKSlack::for_completeness(TARGET);
        let t = Instant::now();
        let out = execute(events, &mut st, query, opts).expect("workload queries are valid");
        let wall = t.elapsed().as_secs_f64();
        let results = out.results.len();
        match &first {
            Some(f) => same.record(f.results == out.results, || {
                "results differ between samples of one seed".into()
            }),
            None => first = Some(out),
        }
        if trace {
            let (tr, layers) = round(wall, results);
            tracers.push(tr);
            rounds.push(layers);
        }
        wall
    });
    let first = first.expect("at least one sample ran");
    o.samples = walls.len();
    o.fact("sample_walls_s", format!("{walls:?}"));
    o.layers = median_layers(&rounds);
    o.e2e(
        "throughput_eps",
        events.len() as f64 / median(&walls),
        "events/s",
    );
    record_run_output(&mut o, &first);
    o.checks.push(same);
    (o, first, tracers)
}

/// One traced round: the path `execute` runs, replayed layer by layer, then
/// the strategy's parts alone. `wall_s` is the untraced `execute` call of
/// the same round; `hint` the expected result count.
fn traced_round(events: &[Event], query: &QuerySpec, wall_s: f64, hint: usize) -> (Tracer, Layers) {
    let mut tr = Tracer::new();
    let mut st = AqKSlack::for_completeness(TARGET);
    let (staged, replay, results, agg_inserts) = tr.span("path", |tr| {
        let mut staged = layers::stage(tr, events, &mut st);
        let elements = std::mem::take(&mut staged.elements);
        let mut op = layers::window_op(query);
        let replay = tr.span("window", |tr| {
            layers::replay(
                tr,
                &mut op,
                elements,
                "window_fold",
                "window_finalize",
                hint,
            )
        });
        let results = layers::extract(tr, &replay.rows);
        layers::quality(tr, events, query, &results);
        (staged, replay, results, op.stats().agg_inserts)
    });
    let path_ns = tr.busy_ns("path") as f64;
    let mut out = Layers::new();
    let n = events.len();
    // Every finalize call but the trailing flush is a watermark.
    let watermarks = replay.finalizes.saturating_sub(1) as usize;
    layers::strategy_metrics(&tr, n, watermarks, st.buffer_stats().max_buffered, &mut out);
    layers::window_metrics(
        &tr,
        replay.events,
        results.len() as u64,
        agg_inserts,
        &mut out,
    );
    out.insert(
        "result_extract.ns_per_result".into(),
        per(tr.busy_ns("result_extract") as f64, results.len() as f64),
    );
    layers::quality_metrics(&tr, n, results.len(), &mut out);
    layers::disorder_parts(&mut tr, events, staged.k_series.mean(), &mut out);

    let wall_ns = wall_s * 1e9;
    let parts = [
        tr.busy_ns("strategy") as f64,
        tr.busy_ns("window_fold") as f64,
        tr.busy_ns("window_finalize") as f64,
        tr.busy_ns("quality_eval.oracle") as f64,
        tr.busy_ns("quality_eval.score") as f64,
    ];
    out.insert(
        "runner.residue_ns_per_event".into(),
        residue_per(wall_ns, &parts, n as f64),
    );
    out.insert("residue.share".into(), residue_share(wall_ns, &parts));
    out.insert(
        "trace.overhead_share".into(),
        overhead_share(path_ns, wall_ns),
    );
    out.insert(
        "aux.extract_ns_per_event".into(),
        per(tr.busy_ns("result_extract") as f64, n as f64),
    );
    (tr, out)
}

/// The ROADMAP suspect for `execute`'s unexplained time: `WindowResult`
/// extraction. Cleared when the residue is under 5% of the call (within
/// run-to-run noise, or negative); otherwise confirmed when extraction, timed alone,
/// accounts for at least half of the residue, cleared when it accounts for
/// less than a tenth, and open in between.
pub fn runner_verdict(o: &mut Outcome) {
    let get = |k: &str| o.layers.get(k).copied().unwrap_or(0.0);
    let (residue, share) = (get("runner.residue_ns_per_event"), get("residue.share"));
    let extract = get("aux.extract_ns_per_event");
    let of_residue = per(extract, residue) * 100.0;
    let verdict = if share < 0.05 {
        // Negative when the layers, timed alone, add up to more than the call.
        format!(
            "cleared: the residue is {:.1}% of the call, within noise",
            share * 100.0
        )
    } else if of_residue >= 50.0 {
        format!("confirmed: extraction is {of_residue:.0}% of the residue")
    } else if of_residue < 10.0 {
        format!("cleared: extraction is only {of_residue:.0}% of the residue")
    } else {
        format!("open: extraction is {of_residue:.0}% of the residue")
    };
    o.fact(
        "suspect.execute_residue",
        format!(
            "runner residue {residue:.1} ns/event, WindowResult extraction {extract:.1} ns/event -> {verdict}"
        ),
    );
}
