//! `session-fanout`: a `Session` with 32 queries registered before the
//! first event — the serve soak's four shapes with targets rotating over
//! 0.9/0.95/0.99 — under one AQ at the strictest target, on the netmon
//! stream. Every handle is polled once per [`POLL_EVERY`] events.

use super::{MIN_ROUNDS, MIN_SAMPLES, SETUP_REPS};
use crate::check::{compare_results, Check};
use crate::inputs::{self, Scale, POLL_EVERY, TARGET};
use crate::layers::{self, Layers};
use crate::run::{
    median_layers, overhead_share, per, repeat_for, residue_share, timed_reps, Outcome,
};
use crate::spans::Tracer;
use crate::stats::{self, median};
use quill_core::prelude::*;
use quill_metrics::quality_eval::{oracle_results, score};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "session-fanout";

type Queries = Vec<(String, QuerySpec, QueryConfig)>;

/// A session with every query registered; registrations it refused are
/// counted in `refused`.
fn open(queries: &Queries, refused: &mut Check) -> (Session, Vec<QueryHandle>) {
    let mut session = Session::new(Box::new(AqKSlack::for_completeness(TARGET)));
    let mut handles = Vec::with_capacity(queries.len());
    for (dsl, spec, cfg) in queries {
        match session.register_with(spec, cfg.clone()) {
            Ok(h) => {
                refused.record(true, String::new);
                handles.push(h);
            }
            Err(e) => refused.record(false, || format!("`{dsl}` refused: {e}")),
        }
    }
    (session, handles)
}

/// What one timed sample observed.
struct Sample {
    wall_s: f64,
    setup_s: f64,
    /// Wall time of every `Session::push`, in nanoseconds, sorted.
    push_ns: Vec<f64>,
    /// Results polled, per query.
    results: Vec<Vec<WindowResult>>,
    handles: Vec<QueryHandle>,
    applied: u64,
}

fn sample(events: &[Event], queries: &Queries, refused: &mut Check) -> Sample {
    let t = Instant::now();
    let (mut session, handles) = open(queries, refused);
    let setup_s = t.elapsed().as_secs_f64();
    let arrivals = events.to_vec();
    let mut push_ns = Vec::with_capacity(arrivals.len());
    let mut results: Vec<Vec<WindowResult>> = vec![Vec::new(); handles.len()];
    let poll_all = |results: &mut Vec<Vec<WindowResult>>| {
        for (h, acc) in handles.iter().zip(results.iter_mut()) {
            acc.extend(h.poll());
        }
    };
    let t0 = Instant::now();
    for (i, e) in arrivals.into_iter().enumerate() {
        let p = Instant::now();
        session.push(e);
        push_ns.push(p.elapsed().as_nanos() as f64);
        if (i + 1) % POLL_EVERY == 0 {
            poll_all(&mut results);
        }
    }
    session.finish();
    poll_all(&mut results);
    let wall_s = t0.elapsed().as_secs_f64();
    push_ns.sort_by(|a, b| a.total_cmp(b));
    Sample {
        wall_s,
        setup_s,
        push_ns,
        results,
        handles,
        applied: session.stats().events,
    }
}

/// Run the workload.
pub fn run(seed: u64, scale: Scale, seconds: f64, trace: bool) -> (Outcome, Vec<Tracer>) {
    let queries = inputs::session_queries();
    let (events, gen) = timed_reps(SETUP_REPS, || {
        inputs::netmon_events(scale, scale.session, seed)
    });
    let mut o = Outcome {
        events: events.len(),
        ..Outcome::default()
    };
    let mut refused = Check::new("query registrations accepted");
    let mut lost = Check::new("events applied == events pushed");
    let mut same = Check::new("every sample repeats the first sample's results");
    let mut first: Option<Sample> = None;
    let (mut p50, mut p99, mut tail, mut setups) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let tail_pct = stats::highest_supported_percentile(events.len()).unwrap_or(50.0);
    let mut tracers = Vec::new();
    let mut rounds = Vec::new();
    let min = if trace { MIN_ROUNDS } else { MIN_SAMPLES };
    let walls = repeat_for(seconds, min, || {
        let s = sample(&events, &queries, &mut refused);
        lost.record(s.applied == events.len() as u64, || {
            format!("{} of {} events applied", s.applied, events.len())
        });
        p50.push(stats::percentile_sorted(&s.push_ns, 50.0) / 1e3);
        p99.push(stats::percentile_sorted(&s.push_ns, 99.0) / 1e3);
        tail.push(stats::percentile_sorted(&s.push_ns, tail_pct) / 1e3);
        setups.push(s.setup_s);
        let wall = s.wall_s;
        match &first {
            Some(f) => same.record(f.results == s.results, || {
                "results differ between samples of one seed".into()
            }),
            None => first = Some(s),
        }
        if trace {
            let hints: Vec<usize> = first
                .as_ref()
                .map_or(Vec::new(), |f| f.results.iter().map(Vec::len).collect());
            let (tr, layers) = traced_round(&events, &queries, wall, &hints);
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
    o.e2e("setup_s", median(&gen) + median(&setups), "s");
    o.e2e("push_p50_us", median(&p50), "us");
    o.e2e("push_p99_us", median(&p99), "us");
    o.fact(
        "push_tail",
        format!(
            "p{tail_pct} = {:.3} us ({} pushes per sample; the highest percentile with at least 10 beyond it)",
            median(&tail),
            events.len()
        ),
    );
    // Latency: the session's mean over every result of every query, and
    // the worst query's quantiles.
    let (mut lat_sum, mut emitted) = (0.0f64, 0u64);
    for h in &first.handles {
        let st = h.stats();
        lat_sum += st.mean_latency * st.emitted as f64;
        emitted += st.emitted;
    }
    o.e2e(
        "latency_et_mean",
        per(lat_sum, emitted as f64),
        "event-time",
    );
    let worst = |q: f64| {
        first
            .handles
            .iter()
            .map(|h| h.latency_quantile(q).unwrap_or(0) as f64)
            .fold(0.0f64, f64::max)
    };
    o.e2e("latency_et_p50", worst(0.5), "event-time");
    o.e2e("latency_et_p99", worst(0.99), "event-time");

    // Quality, outside the timed region: every query's polled results
    // scored against the in-order oracle, window-weighted.
    let (mut windows, mut complete, mut below) = (0usize, 0.0f64, 0usize);
    for ((_, spec, cfg), results) in queries.iter().zip(&first.results) {
        let oracle = oracle_results(&events, spec.window, &spec.aggregates, spec.key_field);
        let q = score(results, &oracle);
        windows += q.per_window.len();
        complete += q.mean_completeness * q.per_window.len() as f64;
        let target = cfg.required_completeness.unwrap_or(TARGET);
        below += (q.violation_rate(target) * q.per_window.len() as f64).round() as usize;
    }
    o.e2e("completeness", per(complete, windows as f64), "ratio");
    o.e2e(
        "violation_share",
        per(below as f64, windows as f64),
        "ratio",
    );

    // Reference: each query alone through batch `execute` under the same
    // strictest-target AQ must produce exactly what the session delivered.
    let mut dropped = Check::new("no result dropped by a full subscription queue");
    for h in &first.handles {
        let d = h.stats().overflow_dropped;
        dropped.record(d == 0, || format!("query {} dropped {d} results", h.id()));
    }
    let mut agree = Check::new("session queries vs their batch execute");
    for (i, ((dsl, spec, _), results)) in queries.iter().zip(&first.results).enumerate() {
        let mut st = AqKSlack::for_completeness(TARGET);
        let batch = execute(&events, &mut st, spec, &ExecOptions::sequential())
            .expect("session queries are valid");
        agree.absorb(
            compare_results("", results, &batch.results, spec, false),
            &format!("query {i} `{dsl}`: "),
        );
    }
    o.checks.extend([refused, lost, same, dropped, agree]);
    (o, tracers)
}

/// One traced round: the session path with every push and poll timed,
/// then the strategy driven alone and each query's window operator
/// replayed alone on the released stream. `wall_s` is the untraced
/// sample of the same round; `hints` the result count per query.
fn traced_round(
    events: &[Event],
    queries: &Queries,
    wall_s: f64,
    hints: &[usize],
) -> (Tracer, Layers) {
    let mut tr = Tracer::new();
    let mut refused = Check::new("registrations");
    let (mut session, handles) = open(queries, &mut refused);
    let arrivals = events.to_vec();
    let mut polled: Vec<Vec<WindowResult>> = vec![Vec::new(); handles.len()];
    tr.span("path", |tr| {
        let push = tr.group("push");
        let poll = tr.group("poll");
        let mut poll_all = |tr: &mut Tracer| {
            for (h, acc) in handles.iter().zip(polled.iter_mut()) {
                let got = tr.piece(poll, || h.poll());
                acc.extend(got);
            }
        };
        for (i, e) in arrivals.into_iter().enumerate() {
            tr.piece(push, || session.push(e));
            if (i + 1) % POLL_EVERY == 0 {
                poll_all(tr);
            }
        }
        tr.span("finish", |_| session.finish());
        poll_all(tr);
    });
    let path_ns = tr.busy_ns("path") as f64;
    let n = events.len() as f64;
    let nq = handles.len() as f64;
    let mut out = Layers::new();

    let mut strategy = AqKSlack::for_completeness(TARGET);
    let (released, mean_k) = layers::drive(&mut tr, events.to_vec(), &mut strategy);
    let (mut op_events, mut results, mut agg_inserts) = (0u64, 0u64, 0u64);
    for (i, (_, spec, _)) in queries.iter().enumerate() {
        let mut op = layers::window_op(spec);
        let hint = hints.get(i).copied().unwrap_or(0);
        let replay = layers::replay(
            &mut tr,
            &mut op,
            released.clone(),
            "window_fold",
            "window_finalize",
            hint,
        );
        op_events += replay.events;
        results += replay
            .rows
            .iter()
            .filter(|r| r.as_event().is_some())
            .count() as u64;
        agg_inserts += op.stats().agg_inserts;
    }

    let push_ns = tr.busy_ns("push") as f64;
    let strategy_ns = tr.busy_ns("strategy") as f64;
    out.insert("session.push_ns_per_event".into(), per(push_ns, n));
    out.insert(
        "session_fanout.ns_per_query_event".into(),
        per(push_ns - strategy_ns, nq * n),
    );
    out.insert(
        "session_fanout.allocs_per_query_event".into(),
        per(
            tr.allocs("push") as f64 - tr.allocs("strategy") as f64,
            nq * n,
        ),
    );
    out.insert(
        "deliver.poll_ns_per_result".into(),
        per(
            tr.busy_ns("poll") as f64,
            polled.iter().map(Vec::len).sum::<usize>() as f64,
        ),
    );
    out.insert(
        "deliver.overflow_dropped".into(),
        handles
            .iter()
            .map(|h| h.stats().overflow_dropped)
            .sum::<u64>() as f64,
    );
    layers::strategy_metrics(
        &tr,
        events.len(),
        layers::watermarks(&released),
        strategy.buffer_stats().max_buffered,
        &mut out,
    );
    layers::window_metrics(&tr, op_events, results, agg_inserts, &mut out);
    layers::disorder_parts(&mut tr, events, mean_k, &mut out);

    // Quality evaluation is not in the session's timed path; it is timed
    // here on the polled results for the table and left out of the residue.
    for ((_, spec, _), results) in queries.iter().zip(&polled) {
        layers::quality(&mut tr, events, spec, results);
    }
    let polled_total: usize = polled.iter().map(Vec::len).sum();
    layers::quality_metrics(&tr, events.len() * queries.len(), polled_total, &mut out);

    let wall_ns = wall_s * 1e9;
    let parts = [
        strategy_ns,
        tr.busy_ns("window_fold") as f64,
        tr.busy_ns("window_finalize") as f64,
        tr.busy_ns("poll") as f64,
    ];
    out.insert("residue.share".into(), residue_share(wall_ns, &parts));
    out.insert(
        "trace.overhead_share".into(),
        overhead_share(path_ns, wall_ns),
    );
    (tr, out)
}
