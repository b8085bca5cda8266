//! `parallel-orderstat`: keyed-parallel `execute` (2 shards, batches of
//! 256, shard-local staging) of sliding order statistics over a stock
//! stream with 2000 Zipf-skewed symbols.

use super::batch::{measure_execute, runner_verdict};
use super::SETUP_REPS;
use crate::check::{check_against_oracle, compare_results};
use crate::host::cpus_online;
use crate::inputs::{self, Scale, TARGET};
use crate::layers::{self, Layers};
use crate::run::{overhead_share, per, residue_per, residue_share, timed_reps, Outcome};
use crate::spans::Tracer;
use crate::stats::median;
use quill_core::prelude::*;
use quill_core::runner::stage_strategy;
use quill_engine::operator::ShardStage;
use quill_engine::parallel::{run_keyed_parallel_with, shard_of};

/// Workload name.
pub const NAME: &str = "parallel-orderstat";

/// Shards of the parallel executor.
pub const SHARDS: usize = 2;

/// Span names of the per-shard replays.
const SHARD_SPANS: [&str; SHARDS] = ["shard.0", "shard.1"];

/// The executor configuration under test.
pub fn config() -> ParallelConfig {
    ParallelConfig::new(SHARDS).with_batch_size(256)
}

/// Run the workload.
pub fn run(seed: u64, scale: Scale, seconds: f64, trace: bool) -> (Outcome, Vec<Tracer>) {
    let query = inputs::orderstat_query();
    let (events, gen) = timed_reps(SETUP_REPS, || inputs::stock_events(scale.stock, seed));
    let mut shard_counts = Vec::new();
    let (mut o, first, tracers) = measure_execute(
        &events,
        &query,
        &ExecOptions::parallel(config()),
        seconds,
        trace,
        |wall, hint| {
            let (tr, layers, counts) = traced_round(&events, &query, wall, hint);
            shard_counts = counts;
            (tr, layers)
        },
    );
    o.e2e("setup_s", median(&gen), "s");

    let mut st = AqKSlack::for_completeness(TARGET);
    let seq = execute(&events, &mut st, &query, &ExecOptions::sequential())
        .expect("the order-statistic query is valid");
    o.checks.push(compare_results(
        "parallel execute vs sequential execute",
        &first.results,
        &seq.results,
        &query,
        true,
    ));
    o.checks.push(check_against_oracle(
        "parallel execute vs naive full-sort oracle",
        &events,
        &query,
        &first.results,
        first.quality.mean_completeness,
    ));
    if trace {
        o.fact("route.events_per_shard", format!("{shard_counts:?}"));
        runner_verdict(&mut o);
    }
    let cpus = cpus_online();
    if cpus < 4 {
        o.fact(
            "shard_scaling",
            format!("not reported: {cpus} CPUs online, fewer than 4; see route.skew and the per-shard counts"),
        );
    }
    (o, tracers)
}

/// One traced round: the path `execute` runs in parallel mode, replayed
/// layer by layer, then the executor's parts alone — routing, each shard's
/// stage and window work, `ShardStage` against the bare operator — and the
/// strategy's parts. Returns the per-shard event counts too.
fn traced_round(
    events: &[Event],
    query: &QuerySpec,
    wall_s: f64,
    hint: usize,
) -> (Tracer, Layers, Vec<u64>) {
    let key_field = query.key_field.expect("the order-statistic query is keyed");
    let mut tr = Tracer::new();
    let mut st = AqKSlack::for_completeness(TARGET);
    assert!(
        st.split_for_shard_staging(),
        "AQ supports shard-local staging"
    );
    let (control, results) = tr.span("path", |tr| {
        let mut staged = layers::stage(tr, events, &mut st);
        let elements = std::mem::take(&mut staged.elements);
        // Kept for the replays below; not part of the path.
        let control = tr.span("copy", |_| elements.clone());
        let (rows, _ops) = tr.span("parallel", |_| {
            run_keyed_parallel_with(elements, key_field, config(), || {
                ShardStage::new(layers::window_op(query))
            })
            .expect("the parallel configuration is valid")
        });
        let results = layers::extract(tr, &rows);
        layers::quality(tr, events, query, &results);
        (control, results)
    });
    let path_ns = (tr.busy_ns("path") - tr.busy_ns("copy")) as f64;
    let n = events.len() as f64;
    let mut out = Layers::new();

    // Routing: the shard of every staged event.
    let mut counts = vec![0u64; SHARDS];
    tr.span("route", |_| {
        for el in &control {
            if let StreamElement::Event(e) = el {
                counts[shard_of(e.row.get(key_field), SHARDS)] += 1;
            }
        }
    });
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<u64>() as f64 / SHARDS as f64;
    out.insert(
        "route.ns_per_event".into(),
        per(tr.busy_ns("route") as f64, n),
    );
    out.insert("route.skew".into(), per(max, mean));

    // Each shard's stage + window work alone, on its own sub-stream.
    for (shard, name) in SHARD_SPANS.iter().enumerate() {
        let sub: Vec<StreamElement> = control
            .iter()
            .filter(|el| match el {
                StreamElement::Event(e) => shard_of(e.row.get(key_field), SHARDS) == shard,
                _ => true,
            })
            .cloned()
            .collect();
        let mut stage = ShardStage::new(layers::window_op(query));
        let mut rows = Vec::with_capacity(hint / SHARDS * 2 + 1);
        tr.span(name, |_| {
            for el in sub {
                stage.process(el, &mut |o| rows.push(o));
            }
        });
    }
    let slowest = SHARD_SPANS.iter().map(|s| tr.busy_ns(s)).max().unwrap_or(0) as f64;
    let parallel = tr.busy_ns("parallel") as f64;
    out.insert("parallel.ns_per_event".into(), per(parallel, n));
    out.insert(
        "merge.residue_ns_per_event".into(),
        residue_per(parallel, &[tr.busy_ns("route") as f64, slowest], n),
    );

    // ShardStage over the whole control-only stream against the bare
    // operator over the ordered stream full staging releases.
    let mut stage = ShardStage::new(layers::window_op(query));
    layers::replay(
        &mut tr,
        &mut stage,
        control,
        "staged_fold",
        "staged_finalize",
        hint,
    );
    let mut full = AqKSlack::for_completeness(TARGET);
    let ordered = tr.span("stage.ordered", |_| {
        stage_strategy(events, &mut full, &ExecOptions::sequential())
    });
    let mean_k = ordered.k_series.mean();
    let mut op = layers::window_op(query);
    let replay = layers::replay(
        &mut tr,
        &mut op,
        ordered.elements,
        "window_fold",
        "window_finalize",
        hint,
    );
    let staged_ns = (tr.busy_ns("staged_fold") + tr.busy_ns("staged_finalize")) as f64;
    let bare_ns = (tr.busy_ns("window_fold") + tr.busy_ns("window_finalize")) as f64;
    out.insert("shard_stage.ns_per_event".into(), (staged_ns - bare_ns) / n);

    let watermarks = replay.finalizes.saturating_sub(1) as usize;
    layers::strategy_metrics(
        &tr,
        events.len(),
        watermarks,
        full.buffer_stats().max_buffered,
        &mut out,
    );
    layers::window_metrics(
        &tr,
        replay.events,
        replay
            .rows
            .iter()
            .filter(|r| r.as_event().is_some())
            .count() as u64,
        op.stats().agg_inserts,
        &mut out,
    );
    out.insert(
        "result_extract.ns_per_result".into(),
        per(tr.busy_ns("result_extract") as f64, results.len() as f64),
    );
    layers::quality_metrics(&tr, events.len(), results.len(), &mut out);
    layers::disorder_parts(&mut tr, events, mean_k, &mut out);

    let wall_ns = wall_s * 1e9;
    let parts = [
        tr.busy_ns("strategy") as f64,
        parallel,
        tr.busy_ns("quality_eval.oracle") as f64,
        tr.busy_ns("quality_eval.score") as f64,
    ];
    out.insert(
        "runner.residue_ns_per_event".into(),
        residue_per(wall_ns, &parts, n),
    );
    out.insert("residue.share".into(), residue_share(wall_ns, &parts));
    out.insert(
        "trace.overhead_share".into(),
        overhead_share(path_ns, wall_ns),
    );
    out.insert(
        "aux.extract_ns_per_event".into(),
        per(tr.busy_ns("result_extract") as f64, n),
    );
    (tr, out, counts)
}
