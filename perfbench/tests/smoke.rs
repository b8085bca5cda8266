//! A tiny-size run of every workload, untraced and traced, with its
//! reference checks.

use quill_perfbench::inputs::Scale;
use quill_perfbench::run::{AUX, PER_LAYER};
use quill_perfbench::workloads::WORKLOADS;

/// Layers each workload's path runs; every other per-layer metric is
/// reported as not on the path.
fn expected_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "batch-aq-netmon" => &["strategy.ns_per_event", "runner.residue_ns_per_event"],
        "parallel-orderstat" => &[
            "route.skew",
            "parallel.ns_per_event",
            "merge.residue_ns_per_event",
            "shard_stage.ns_per_event",
            "runner.residue_ns_per_event",
        ],
        "session-fanout" => &[
            "session.push_ns_per_event",
            "session_fanout.ns_per_query_event",
            "deliver.poll_ns_per_result",
        ],
        "serve-loopback" => &[
            "ingest_decode.qbin_ns_per_frame",
            "serve_shell.ns_per_event",
            "serve_shell.queue_depth_max",
        ],
        other => panic!("unknown workload {other}"),
    }
}

#[test]
fn every_workload_passes_its_reference_checks_untraced() {
    for (name, run, _) in WORKLOADS {
        let (o, tracers) = run(5, Scale::TINY, 0.0, false);
        assert!(tracers.is_empty(), "{name}: untraced runs record no spans");
        assert!(o.correct(), "{name}: {:?}", o.checks);
        assert_eq!(o.failed(), 0, "{name}");
        assert!(o.attempted() > 0, "{name}");
        for key in [
            "throughput_eps",
            "latency_et_mean",
            "completeness",
            "setup_s",
        ] {
            let (v, _) = o.e2e.get(key).unwrap_or_else(|| panic!("{name}: no {key}"));
            assert!(v.is_finite() && *v > 0.0, "{name}: {key} = {v}");
        }
    }
}

#[test]
fn every_workload_reports_its_layers_traced() {
    for (name, run, _) in WORKLOADS {
        let (o, tracers) = run(5, Scale::TINY, 0.0, true);
        assert!(o.correct(), "{name}: {:?}", o.checks);
        assert!(
            !tracers.is_empty(),
            "{name}: traced rounds keep their spans"
        );
        for layer in expected_layers(name) {
            assert!(o.layers.contains_key(*layer), "{name}: no {layer}");
        }
        for key in [
            "residue.share",
            "trace.overhead_share",
            "window_fold.ns_per_event",
        ] {
            assert!(o.layers.contains_key(key), "{name}: no {key}");
        }
        for key in o.layers.keys() {
            assert!(
                PER_LAYER.iter().chain(AUX.iter()).any(|(n, _)| n == key),
                "{name}: {key} is not in the per-layer vocabulary"
            );
        }
    }
}

#[test]
fn a_second_seed_also_passes() {
    for (name, run, _) in WORKLOADS {
        let (o, _) = run(6, Scale::TINY, 0.0, false);
        assert!(o.correct(), "{name}: {:?}", o.checks);
    }
}
