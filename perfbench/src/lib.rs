//! quill-perfbench: one benchmark over quill's four execution paths —
//! batch `execute`, keyed-parallel `execute`, `Session` fan-out and
//! `quill-serve` over loopback — with a per-layer cost table from a
//! separate traced run. See `README.md` in this directory for the
//! workloads, the metrics and what each layer metric should move.

pub mod alloc;
pub mod check;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
