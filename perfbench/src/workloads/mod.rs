//! The four workloads. Each module's `run` generates its inputs from the
//! seed, measures the untraced end-to-end metrics or the traced per-layer
//! table, and runs its reference checks once, outside the timed samples.

pub mod batch;
pub mod parallel;
pub mod serve;
pub mod session;

use crate::inputs::Scale;
use crate::run::Outcome;
use crate::spans::Tracer;

/// Input-generation repetitions per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest timed samples of an untraced run.
pub const MIN_SAMPLES: usize = 5;

/// Fewest rounds of a traced run.
pub const MIN_ROUNDS: usize = 3;

/// A workload's entry point: `(seed, scale, seconds, trace)` to the
/// outcome plus the traced rounds' spans (empty when untraced).
pub type Runner = fn(u64, Scale, f64, bool) -> (Outcome, Vec<Tracer>);

/// Every workload by name, with why it was chosen.
pub const WORKLOADS: [(&str, Runner, &str); 4] = [
    (
        batch::NAME,
        batch::run,
        "sequential execute under AQ-K-slack on bursty, drifting netmon delays: \
         a cheap query with the deepest slack buffer and the busiest estimator and controller",
    ),
    (
        parallel::NAME,
        parallel::run,
        "keyed-parallel execute of sliding order statistics over 2000 Zipf symbols: \
         window fold/finalize and quality evaluation dominate; route, ShardStage and merge run only here",
    ),
    (
        session::NAME,
        session::run,
        "Session with 32 small queries under one AQ: per-query fan-out dominates, \
         no quality evaluation in the timed path",
    ),
    (
        serve::NAME,
        serve::run,
        "quill-serve over loopback with one cheap query: the network shell \
         (decode, reader thread, queue, session lock) is the largest layer",
    ),
];
