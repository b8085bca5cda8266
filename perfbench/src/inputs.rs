//! Workload inputs: every stream and query the benchmark feeds the program,
//! generated from `--seed` alone. The program only ever receives the
//! generated events (or their QBIN encoding).

use quill_core::prelude::*;
use quill_gen::workload::{netmon, stock};
use quill_serve::config::parse_query;
use quill_serve::wire::{self, Frame};

/// The completeness target of the batch, parallel and serve workloads, and
/// the strictest target of the session workload.
pub const TARGET: f64 = 0.99;

/// Queries registered by the session workload.
pub const SESSION_QUERIES: usize = 32;

/// The session workload polls every handle once per this many events.
pub const POLL_EVERY: usize = 1024;

/// Distinct symbols of the order-statistic stock stream.
pub const SYMBOLS: usize = 2000;

/// Events per timed sample, per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `batch-aq-netmon` and `serve-loopback` (they share one stream).
    pub netmon: usize,
    /// `parallel-orderstat`.
    pub stock: usize,
    /// `session-fanout`.
    pub session: usize,
}

impl Scale {
    /// The sizes the benchmark measures at.
    pub const FULL: Scale = Scale {
        netmon: 300_000,
        stock: 40_000,
        session: 48_000,
    };

    /// Sizes small enough for the smoke tests.
    pub const TINY: Scale = Scale {
        netmon: 6_000,
        stock: 3_000,
        session: 3_000,
    };
}

/// The first `n` reports of the netmon stream of `scale`: bursty,
/// heavy-tailed delays whose scale steps up fourfold halfway through the
/// full `scale.netmon`-report stream. A shorter prefix (the session
/// workload's) ends before the step.
pub fn netmon_events(scale: Scale, n: usize, seed: u64) -> Vec<Event> {
    let cfg = netmon::NetmonConfig::default();
    let step_at = scale.netmon as u64 * cfg.report_period / 2;
    netmon::generate(&cfg.with_step_drift(step_at), n, seed).events
}

/// Stock trades over [`SYMBOLS`] Zipf-skewed symbols.
pub fn stock_events(n: usize, seed: u64) -> Vec<Event> {
    let cfg = stock::StockConfig {
        symbols: SYMBOLS,
        ..stock::StockConfig::default()
    };
    stock::generate(&cfg, n, seed).events
}

/// The netmon standard query: `tumbling(1000)` Sum of bytes keyed by host.
pub fn netmon_query() -> QuerySpec {
    QuerySpec::new(
        WindowSpec::tumbling(1_000u64),
        vec![AggregateSpec::new(
            AggregateKind::Sum,
            netmon::BYTES_FIELD,
            "bytes",
        )],
        Some(netmon::HOST_FIELD),
    )
}

/// Sliding order statistics per symbol: Median, Quantile(0.9) and Mean of
/// the price over `sliding(1000, 200)` — five windows per event.
pub fn orderstat_query() -> QuerySpec {
    QuerySpec::new(
        WindowSpec::sliding(1_000u64, 200u64),
        vec![
            AggregateSpec::new(AggregateKind::Median, stock::PRICE_FIELD, "median"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), stock::PRICE_FIELD, "q90"),
            AggregateSpec::new(AggregateKind::Mean, stock::PRICE_FIELD, "mean"),
        ],
        Some(stock::SYMBOL_FIELD),
    )
}

/// The four tenant shapes of the serve soak, rewritten for the netmon row
/// layout (`host:int, bytes:float, packets:int`).
const SESSION_SHAPES: [&str; 4] = [
    "tumbling:1000;sum:1:total;key=0",
    "tumbling:500;count:1:n,max:1:peak",
    "sliding:2000:500;mean:1:mean",
    "tumbling:2000;min:1:lo,max:1:hi;key=0",
];

/// Completeness targets the session queries rotate over.
const SESSION_TARGETS: [f64; 3] = [0.9, 0.95, 0.99];

/// The session workload's queries as `(dsl, spec, config)`, parsed through
/// the serving layer's query DSL.
///
/// # Panics
/// Only if the static DSL strings above stop parsing, which is a bug here.
pub fn session_queries() -> Vec<(String, QuerySpec, QueryConfig)> {
    (0..SESSION_QUERIES)
        .map(|i| {
            let dsl = format!(
                "{};completeness={}",
                SESSION_SHAPES[i % SESSION_SHAPES.len()],
                SESSION_TARGETS[i % SESSION_TARGETS.len()]
            );
            let (spec, cfg) = parse_query(&dsl).expect("static session query parses");
            (dsl, spec, cfg)
        })
        .collect()
}

/// The QBIN frame of one event.
pub fn frame_of(e: &Event) -> Frame {
    Frame::Data {
        ts: e.ts,
        values: e.row.values().to_vec(),
    }
}

/// Bare QBIN payloads (no length prefix), one per event, for timing
/// `wire::decode_payload` in isolation.
pub fn qbin_payloads(events: &[Event]) -> Vec<Vec<u8>> {
    events
        .iter()
        .map(|e| wire::encode_payload(&frame_of(e)))
        .collect()
}

/// The full byte stream one client sends: the `QBIN` preamble followed by
/// one length-prefixed frame per event.
pub fn qbin_stream(events: &[Event]) -> Vec<u8> {
    let mut out = wire::BINARY_MAGIC.to_vec();
    for e in events {
        out.extend_from_slice(&wire::encode_frame(&frame_of(e)));
    }
    out
}
