//! `serve-loopback`: an in-process `quill-serve` with one query — the
//! netmon standard query at the AQ target — fed the batch workload's
//! events as QBIN frames by one client over one loopback connection, as
//! fast as backpressure allows. The clock stops when the session has
//! applied every event and `finish` returned.

use super::{MIN_ROUNDS, MIN_SAMPLES, SETUP_REPS};
use crate::check::{compare_results, Check};
use crate::inputs::{self, Scale, TARGET};
use crate::layers::{self, Layers};
use crate::run::{
    median_layers, overhead_share, per, repeat_for, residue_share, timed_reps, Outcome,
};
use crate::spans::Tracer;
use crate::stats::median;
use quill_core::prelude::*;
use quill_metrics::quality_eval::{oracle_results, score};
use quill_serve::wire::{self, decode_payload};
use quill_serve::{ServeConfig, Server, StrategySpec};
use quill_telemetry::span::DEFAULT_SPAN_CAPACITY;
use quill_telemetry::{Registry, SpanRecorder};
use std::hint::black_box;
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve-loopback";

/// Bytes per client `write_all` call.
const WRITE_CHUNK: usize = 64 * 1024;

/// Bytes per server socket read (the reader's receive chunk).
const READ_CHUNK: usize = 4 * 1024;

/// How long the session may make no progress before the run gives up and
/// counts the missing events as lost.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// What one serve run observed.
struct Sample {
    wall_s: f64,
    setup_s: f64,
    results: Vec<WindowResult>,
    mean_latency: f64,
    queue_depth_max: f64,
}

/// Start a server, register the query, stream `bytes` through one
/// loopback connection and drain. With `sample_depth`, the waiting thread
/// also samples the ingest queue-depth gauge.
fn serve_once(
    n: u64,
    bytes: &[u8],
    query: &QuerySpec,
    sample_depth: bool,
    checks: &mut [Check; 3],
) -> Sample {
    let [refused, lost, client_err] = checks;
    let t = Instant::now();
    let mut handle = Server::start(ServeConfig {
        strategy: StrategySpec::Aq(TARGET),
        ..ServeConfig::default()
    })
    .expect("a loopback server starts");
    let cfg = QueryConfig::default()
        .with_required_completeness(TARGET)
        .with_result_capacity(usize::MAX);
    let id = handle.register_spec(query, cfg);
    refused.record(id.is_ok(), || "the query registration was refused".into());
    let setup_s = t.elapsed().as_secs_f64();
    let addr = handle.ingest_addr();

    let t0 = Instant::now();
    let mut depth_max = 0.0f64;
    let sent = std::thread::scope(|s| {
        let client = s.spawn(move || -> std::io::Result<()> {
            let mut conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            for chunk in bytes.chunks(WRITE_CHUNK) {
                conn.write_all(chunk)?;
            }
            conn.shutdown(Shutdown::Write)
        });
        let (mut seen, mut progress) = (0u64, Instant::now());
        loop {
            let applied = handle.stats().events;
            if applied >= n {
                break;
            }
            if sample_depth {
                let snap = handle.registry().snapshot();
                let d = snap.gauge("quill.executor.queue_depth").unwrap_or(0.0);
                depth_max = depth_max.max(d);
            }
            if applied != seen {
                (seen, progress) = (applied, Instant::now());
            } else if progress.elapsed() > STALL_LIMIT {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        client.join().expect("the client thread does not panic")
    });
    handle.finish();
    let wall_s = t0.elapsed().as_secs_f64();
    client_err.record(sent.is_ok(), || format!("client send failed: {sent:?}"));
    let applied = handle.stats().events;
    lost.record(applied == n, || format!("{applied} of {n} events applied"));
    let (results, mean_latency) = match id {
        Ok(id) => (
            handle.poll(id).unwrap_or_default(),
            handle.deregister(id).map_or(0.0, |s| s.mean_latency),
        ),
        Err(_) => (Vec::new(), 0.0),
    };
    handle.shutdown();
    Sample {
        wall_s,
        setup_s,
        results,
        mean_latency,
        queue_depth_max: depth_max,
    }
}

/// Run the workload.
pub fn run(seed: u64, scale: Scale, seconds: f64, trace: bool) -> (Outcome, Vec<Tracer>) {
    let query = inputs::netmon_query();
    let ((events, bytes), gen) = timed_reps(SETUP_REPS, || {
        let events = inputs::netmon_events(scale, scale.netmon, seed);
        let bytes = inputs::qbin_stream(&events);
        (events, bytes)
    });
    let n = events.len() as u64;
    let mut o = Outcome {
        events: events.len(),
        ..Outcome::default()
    };
    let mut checks = [
        Check::new("query registration accepted"),
        Check::new("events applied == events sent"),
        Check::new("client sent every frame"),
    ];
    let mut same = Check::new("every sample repeats the first sample's results");
    let mut first: Option<Sample> = None;
    let mut setups = Vec::new();
    let mut tracers = Vec::new();
    let mut rounds = Vec::new();
    let min = if trace { MIN_ROUNDS } else { MIN_SAMPLES };
    let walls = repeat_for(seconds, min, || {
        let s = serve_once(n, &bytes, &query, false, &mut checks);
        setups.push(s.setup_s);
        let wall = s.wall_s;
        match &first {
            Some(f) => same.record(f.results == s.results, || {
                "results differ between samples of one seed".into()
            }),
            None => first = Some(s),
        }
        if trace {
            let traced = serve_once(n, &bytes, &query, true, &mut checks);
            let (tr, layers) = traced_round(&events, &bytes, &query, wall, &traced);
            tracers.push(tr);
            rounds.push(layers);
        }
        wall
    });
    let first = first.expect("at least one sample ran");
    o.samples = walls.len();
    o.fact("sample_walls_s", format!("{walls:?}"));
    o.layers = median_layers(&rounds);
    o.e2e("throughput_eps", n as f64 / median(&walls), "events/s");
    o.e2e("setup_s", median(&gen) + median(&setups), "s");
    o.e2e("latency_et_mean", first.mean_latency, "event-time");
    let oracle = oracle_results(&events, query.window, &query.aggregates, query.key_field);
    let q = score(&first.results, &oracle);
    o.e2e("completeness", q.mean_completeness, "ratio");
    o.e2e("violation_share", q.violation_rate(TARGET), "ratio");

    // Reference: the batch workload's `execute` on the same events.
    let mut st = AqKSlack::for_completeness(TARGET);
    let batch = execute(&events, &mut st, &query, &ExecOptions::sequential())
        .expect("the netmon query is valid");
    o.fact(
        "batch_reference",
        format!(
            "execute on the same events: latency_et_mean {:.3}, completeness {:.6}",
            batch.latency.mean, batch.quality.mean_completeness
        ),
    );
    o.checks.extend(checks);
    o.checks.push(same);
    o.checks.push(compare_results(
        "served results vs batch execute on the same events",
        &first.results,
        &batch.results,
        &query,
        false,
    ));
    if trace {
        shell_verdicts(&mut o);
    }
    (o, tracers)
}

/// One traced round: decode and the in-process session timed alone on the
/// same events, then the strategy and window layers behind them, and the
/// two shell suspects emulated. `wall_s` is the untraced serve run of the
/// round, `traced` a second run that sampled the queue depth.
fn traced_round(
    events: &[Event],
    bytes: &[u8],
    query: &QuerySpec,
    wall_s: f64,
    traced: &Sample,
) -> (Tracer, Layers) {
    let mut tr = Tracer::new();
    let n = events.len() as f64;
    let mut out = Layers::new();

    let payloads = inputs::qbin_payloads(events);
    tr.span("ingest_decode", |_| {
        for p in &payloads {
            black_box(decode_payload(black_box(p)).ok());
        }
    });
    out.insert(
        "ingest_decode.qbin_ns_per_frame".into(),
        per(tr.busy_ns("ingest_decode") as f64, n),
    );
    out.insert(
        "ingest_decode.allocs_per_frame".into(),
        per(tr.allocs("ingest_decode") as f64, n),
    );

    // The session as `Server::start` builds it: telemetry registry and span
    // recorder at the default capacity, so the shell residue below holds
    // only the network shell's own work.
    let registry = Registry::new();
    let spans = SpanRecorder::new(DEFAULT_SPAN_CAPACITY);
    spans.instrument(&registry);
    let mut session = Session::new(StrategySpec::Aq(TARGET).build())
        .with_telemetry(&registry)
        .with_spans(&spans);
    let cfg = QueryConfig::default()
        .with_required_completeness(TARGET)
        .with_result_capacity(usize::MAX);
    let handle = session
        .register_with(query, cfg)
        .expect("the netmon query registers");
    let arrivals = events.to_vec();
    tr.span("session.push", |_| {
        for e in arrivals {
            session.push(e);
        }
        session.finish();
    });
    let results = handle.poll();
    let push_ns = tr.busy_ns("session.push") as f64;
    out.insert("session.push_ns_per_event".into(), per(push_ns, n));

    let mut strategy = AqKSlack::for_completeness(TARGET);
    let (released, mean_k) = layers::drive(&mut tr, events.to_vec(), &mut strategy);
    let strategy_ns = tr.busy_ns("strategy") as f64;
    out.insert(
        "session_fanout.ns_per_query_event".into(),
        per(push_ns - strategy_ns, n),
    );
    out.insert(
        "session_fanout.allocs_per_query_event".into(),
        per(
            tr.allocs("session.push") as f64 - tr.allocs("strategy") as f64,
            n,
        ),
    );
    layers::strategy_metrics(
        &tr,
        events.len(),
        layers::watermarks(&released),
        strategy.buffer_stats().max_buffered,
        &mut out,
    );
    let mut op = layers::window_op(query);
    let replay = layers::replay(
        &mut tr,
        &mut op,
        released,
        "window_fold",
        "window_finalize",
        results.len(),
    );
    layers::window_metrics(
        &tr,
        replay.events,
        results.len() as u64,
        op.stats().agg_inserts,
        &mut out,
    );
    layers::disorder_parts(&mut tr, events, mean_k, &mut out);
    // Quality evaluation runs outside the served path; timed for the table.
    layers::quality(&mut tr, events, query, &results);
    layers::quality_metrics(&tr, events.len(), results.len(), &mut out);

    let wall_ns = wall_s * 1e9;
    let decode_ns = tr.busy_ns("ingest_decode") as f64;
    let shell_ns = wall_ns - decode_ns - push_ns;
    out.insert("serve_shell.ns_per_event".into(), shell_ns / n);
    out.insert("serve_shell.queue_depth_max".into(), traced.queue_depth_max);
    out.insert(
        "residue.share".into(),
        residue_share(wall_ns, &[decode_ns, push_ns]),
    );
    out.insert(
        "trace.overhead_share".into(),
        overhead_share(traced.wall_s * 1e9, wall_ns),
    );

    // Suspect 1: `core_loop` takes the session lock once per element. The
    // server's lock type, uncontended, locked and released once per event.
    let lock = parking_lot::Mutex::new(0u64);
    tr.span("aux.lock", |_| {
        for _ in 0..events.len() {
            *lock.lock() += 1;
        }
    });
    black_box(*lock.lock());
    out.insert(
        "aux.lock_ns_per_event".into(),
        per(tr.busy_ns("aux.lock") as f64, n),
    );

    // Suspect 2: `drain_binary` front-shifts its buffer once per QBIN frame.
    // Its framing loop replayed on the same bytes and receive chunk size,
    // against the same loop advancing a cursor and compacting once per
    // chunk; the difference is the cost of the per-frame shift.
    let stream = &bytes[wire::BINARY_MAGIC.len()..];
    let shifted = tr.span("aux.drain_shift", |_| frames_front_shift(stream));
    let cursor = tr.span("aux.drain_cursor", |_| frames_cursor(stream));
    assert_eq!(shifted, cursor, "both framing loops see every frame");
    out.insert(
        "aux.front_shift_ns_per_frame".into(),
        per(
            tr.busy_ns("aux.drain_shift") as f64 - tr.busy_ns("aux.drain_cursor") as f64,
            shifted as f64,
        ),
    );
    (tr, out)
}

/// Length of the complete frame at the front of `buf`, if there is one.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let head: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    let len = 4 + u32::from_be_bytes(head) as usize;
    (buf.len() >= len).then_some(len)
}

/// The server's framing loop: per frame, drain it off the buffer front.
fn frames_front_shift(stream: &[u8]) -> usize {
    let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
    let mut frames = 0;
    for chunk in stream.chunks(READ_CHUNK) {
        buf.extend_from_slice(chunk);
        while let Some(len) = frame_len(&buf) {
            let payload: Vec<u8> = buf.drain(..len).skip(4).collect();
            black_box(&payload);
            frames += 1;
        }
    }
    frames
}

/// The same loop with a cursor: copy each payload out, compact once per
/// receive chunk.
fn frames_cursor(stream: &[u8]) -> usize {
    let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
    let mut frames = 0;
    for chunk in stream.chunks(READ_CHUNK) {
        buf.extend_from_slice(chunk);
        let mut at = 0;
        while let Some(len) = frame_len(&buf[at..]) {
            let payload: Vec<u8> = buf[at + 4..at + len].to_vec();
            black_box(&payload);
            at += len;
            frames += 1;
        }
        buf.drain(..at);
    }
    frames
}

/// State whether each daemon suspect `ROADMAP.md` lists is confirmed (its
/// emulated cost is at least a tenth of `serve_shell.ns_per_event`) or
/// cleared (less than a tenth).
fn shell_verdicts(o: &mut Outcome) {
    let shell = o
        .layers
        .get("serve_shell.ns_per_event")
        .copied()
        .unwrap_or(0.0);
    let verdict = |cost: f64| {
        if shell <= 0.0 {
            "cleared: decode and push explain the whole serve run".to_string()
        } else if cost / shell >= 0.1 {
            format!("confirmed: {:.0}% of the shell", cost / shell * 100.0)
        } else {
            format!("cleared: {:.1}% of the shell", cost / shell * 100.0)
        }
    };
    let lock = o
        .layers
        .get("aux.lock_ns_per_event")
        .copied()
        .unwrap_or(0.0);
    let shift = o
        .layers
        .get("aux.front_shift_ns_per_frame")
        .copied()
        .unwrap_or(0.0);
    o.fact(
        "suspect.core_loop_lock",
        format!(
            "uncontended lock+unlock {lock:.1} ns/event vs shell {shell:.1} ns/event -> {}",
            verdict(lock)
        ),
    );
    o.fact(
        "suspect.drain_binary_front_shift",
        format!(
            "per-frame front shift {shift:.1} ns/frame vs shell {shell:.1} ns/event -> {}",
            verdict(shift)
        ),
    );
}
