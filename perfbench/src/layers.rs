//! Traced replays shared by the workloads: each calls one layer's public
//! functions on the workload's own data inside named spans.

use crate::inputs::TARGET;
use crate::run::per;
use crate::spans::Tracer;
use quill_core::prelude::*;
use quill_core::runner::{stage_strategy, StagedStream};
use quill_metrics::quality_eval::{oracle_results, score, QualityReport};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Layer metrics of one traced round, by name.
pub type Layers = BTreeMap<String, f64>;

/// The window operator `execute` and `Session` build for `query`.
///
/// # Panics
/// If the query is invalid; the workloads only use valid static queries.
pub fn window_op(query: &QuerySpec) -> WindowAggregateOp {
    WindowAggregateOp::new(
        query.window,
        query.aggregates.clone(),
        query.key_field,
        LatePolicy::Drop,
    )
    .expect("static workload query is valid")
    .with_window_state(ExecOptions::default().window_state)
}

/// Stage `strategy` over `events` the way `execute` does, in span
/// `strategy`.
pub fn stage(
    tr: &mut Tracer,
    events: &[Event],
    strategy: &mut dyn DisorderControl,
) -> StagedStream {
    let opts = ExecOptions::sequential();
    tr.span("strategy", |_| stage_strategy(events, strategy, &opts))
}

/// Drive `strategy` the way `Session::push` does — one reused staging
/// vector, `on_event` per arrival, `finish` at the end — in span
/// `strategy`. Returns the released stream and the mean K over arrivals.
pub fn drive(
    tr: &mut Tracer,
    events: Vec<Event>,
    strategy: &mut dyn DisorderControl,
) -> (Vec<StreamElement>, f64) {
    let n = events.len().max(1) as f64;
    let mut released = Vec::with_capacity(events.len() * 2 + 1);
    let mut k_sum = 0.0;
    tr.span("strategy", |_| {
        let mut staged = Vec::new();
        for e in events {
            staged.clear();
            strategy.on_event(e, &mut staged);
            released.append(&mut staged);
            k_sum += strategy.current_k().as_f64();
        }
        strategy.finish(&mut released);
    });
    (released, k_sum / n)
}

/// What a replay through an operator produced.
pub struct Replay {
    /// Output elements (window result rows), in emission order.
    pub rows: Vec<StreamElement>,
    /// Events the operator processed.
    pub events: u64,
    /// Watermarks and flushes the operator processed.
    pub finalizes: u64,
}

/// Replay `elements` through `op`, timing each run of consecutive events
/// as one piece of group `fold` and each watermark or flush as one piece of
/// group `finalize`. `hint` is the expected result count: the output vector
/// is sized up front for it plus the forwarded watermarks, so collecting
/// rows does not reallocate inside a piece.
pub fn replay<O: Operator>(
    tr: &mut Tracer,
    op: &mut O,
    elements: Vec<StreamElement>,
    fold: &'static str,
    finalize: &'static str,
    hint: usize,
) -> Replay {
    let fold = tr.group(fold);
    let finalize = tr.group(finalize);
    let forwarded = elements
        .iter()
        .filter(|e| !matches!(e, StreamElement::Event(_)))
        .count();
    let mut rows: Vec<StreamElement> = Vec::with_capacity(hint + forwarded);
    let (mut events, mut finalizes) = (0u64, 0u64);
    let mut it = elements.into_iter().peekable();
    while let Some(first) = it.next() {
        let mut emit = |o: StreamElement| rows.push(o);
        if matches!(first, StreamElement::Event(_)) {
            events += tr.piece(fold, || {
                let mut n = 1u64;
                op.process(first, &mut emit);
                while let Some(e) = it.next_if(|e| matches!(e, StreamElement::Event(_))) {
                    op.process(e, &mut emit);
                    n += 1;
                }
                n
            });
        } else {
            tr.piece(finalize, || op.process(first, &mut emit));
            finalizes += 1;
        }
    }
    Replay {
        rows,
        events,
        finalizes,
    }
}

/// Parse window results out of operator output rows, in span
/// `result_extract`.
pub fn extract(tr: &mut Tracer, rows: &[StreamElement]) -> Vec<WindowResult> {
    tr.span("result_extract", |_| {
        rows.iter()
            .filter_map(|el| el.as_event())
            .filter_map(|e| WindowResult::from_row(&e.row))
            .collect()
    })
}

/// Score `results` the way `execute` does, in spans
/// `quality_eval.oracle` and `quality_eval.score`.
pub fn quality(
    tr: &mut Tracer,
    events: &[Event],
    query: &QuerySpec,
    results: &[WindowResult],
) -> QualityReport {
    let oracle = tr.span("quality_eval.oracle", |_| {
        oracle_results(events, query.window, &query.aggregates, query.key_field)
    });
    tr.span("quality_eval.score", |_| score(results, &oracle))
}

/// Metrics of the window layer from spans named `window_fold` /
/// `window_finalize`: `events` delivered to operators, `results` emitted
/// and `agg_inserts` aggregate folds. Per-event figures are per operator
/// call, so a fan-out of N queries counts every event N times.
pub fn window_metrics(tr: &Tracer, events: u64, results: u64, agg_inserts: u64, out: &mut Layers) {
    let events = events as f64;
    let fold = tr.busy_ns("window_fold") as f64;
    let fin = tr.busy_ns("window_finalize") as f64;
    out.insert("window_fold.ns_per_event".into(), per(fold, events));
    out.insert(
        "window_finalize.ns_per_watermark".into(),
        per(fin, tr.calls("window_finalize") as f64),
    );
    out.insert(
        "window_finalize.ns_per_result".into(),
        per(fin, results as f64),
    );
    out.insert(
        "window.allocs_per_event".into(),
        per(
            (tr.allocs("window_fold") + tr.allocs("window_finalize")) as f64,
            events,
        ),
    );
    out.insert(
        "window.agg_inserts_per_event".into(),
        per(agg_inserts as f64, events),
    );
}

/// Metrics of the quality-evaluation layer.
pub fn quality_metrics(tr: &Tracer, events: usize, results: usize, out: &mut Layers) {
    out.insert(
        "quality_eval.oracle_ns_per_event".into(),
        per(tr.busy_ns("quality_eval.oracle") as f64, events as f64),
    );
    out.insert(
        "quality_eval.score_ns_per_result".into(),
        per(tr.busy_ns("quality_eval.score") as f64, results as f64),
    );
}

/// The strategy's own parts, each replayed alone on the workload's
/// arrivals: `SlackBuffer::insert` at the run's mean K, a `DistEstimator`
/// of `AqConfig`'s kind and capacity fed the arrival delays with a
/// quantile read at the `adapt_every` cadence, and `PiController::update`
/// once per adaptation step.
pub fn disorder_parts(tr: &mut Tracer, events: &[Event], mean_k: f64, out: &mut Layers) {
    let cfg = AqConfig::completeness(TARGET);
    let n = events.len() as f64;

    let arrivals = events.to_vec();
    let mut buf = SlackBuffer::new(TimeDelta::from_f64(mean_k));
    tr.span("buffer.insert", |_| {
        let mut out = Vec::new();
        for e in arrivals {
            out.clear();
            buf.insert(e, &mut out);
        }
        black_box(&out);
    });
    out.insert(
        "buffer.insert_ns_per_event".into(),
        per(tr.busy_ns("buffer.insert") as f64, n),
    );

    // Delay of each arrival against the clock before it, as AQ computes it.
    let mut clock: Option<Timestamp> = None;
    let delays: Vec<TimeDelta> = events
        .iter()
        .map(|e| {
            let d = clock.map_or(TimeDelta::ZERO, |c| c.delta_since(e.ts));
            clock = Some(clock.map_or(e.ts, |c| c.max(e.ts)));
            d
        })
        .collect();
    let mut est = DistEstimator::new(cfg.estimator, cfg.sample_capacity);
    let observe = tr.group("estimator.observe");
    let quantile = tr.group("estimator.quantile");
    for chunk in delays.chunks(cfg.adapt_every as usize) {
        tr.piece(observe, || {
            for &d in chunk {
                est.observe(d);
            }
        });
        black_box(tr.piece(quantile, || est.quantile(TARGET)));
    }
    out.insert(
        "estimator.observe_ns".into(),
        per(tr.get(observe).busy_ns as f64, n),
    );
    out.insert(
        "estimator.quantile_ns".into(),
        per(
            tr.get(quantile).busy_ns as f64,
            tr.get(quantile).calls as f64,
        ),
    );

    // The controller is a few flops per step: time enough steps to read.
    const REPEAT: usize = 64;
    let steps = (events.len() / cfg.adapt_every as usize).max(1);
    let errors: Vec<f64> = (0..steps).map(|i| ((i % 7) as f64 - 3.0) * 1e-3).collect();
    let mut pi = PiController::new(cfg.kp, cfg.ki, cfg.margin_min, cfg.margin_max);
    tr.span("controller.update", |_| {
        for _ in 0..REPEAT {
            for &err in &errors {
                black_box(pi.update(black_box(err)));
            }
        }
    });
    out.insert(
        "controller.update_ns".into(),
        per(
            tr.busy_ns("controller.update") as f64,
            (steps * REPEAT) as f64,
        ),
    );
}

/// Metrics of the strategy layer from its `strategy` span over `events`
/// arrivals that released `watermarks` watermarks.
pub fn strategy_metrics(
    tr: &Tracer,
    events: usize,
    watermarks: usize,
    max_len: usize,
    out: &mut Layers,
) {
    let n = events as f64;
    out.insert(
        "strategy.ns_per_event".into(),
        per(tr.busy_ns("strategy") as f64, n),
    );
    out.insert(
        "strategy.allocs_per_event".into(),
        per(tr.allocs("strategy") as f64, n),
    );
    out.insert(
        "strategy.watermarks_per_event".into(),
        per(watermarks as f64, n),
    );
    out.insert("buffer.max_len".into(), max_len as f64);
}

/// Watermarks in a released stream.
pub fn watermarks(elements: &[StreamElement]) -> usize {
    elements
        .iter()
        .filter(|e| matches!(e, StreamElement::Watermark(_)))
        .count()
}
