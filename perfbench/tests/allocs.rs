//! Allocation counts and event-time metrics repeat exactly across runs
//! with one seed. One test in its own binary: the counting allocator is
//! process-wide, so no other test may allocate while it counts.

use quill_perfbench::alloc::{self, CountingAlloc};
use quill_perfbench::inputs::Scale;
use quill_perfbench::workloads::WORKLOADS;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counts_and_event_time_metrics_repeat_with_one_seed() {
    alloc::set_counting(true);
    for (name, run, _) in WORKLOADS {
        let (a, _) = run(9, Scale::TINY, 0.0, true);
        let (b, _) = run(9, Scale::TINY, 0.0, true);
        for (key, va) in &a.layers {
            if key.contains("allocs_per") || key.ends_with("agg_inserts_per_event") {
                assert_eq!(Some(va), b.layers.get(key), "{name}: {key}");
            }
        }
        for key in ["latency_et_mean", "completeness", "violation_share"] {
            assert_eq!(a.e2e.get(key), b.e2e.get(key), "{name}: {key}");
        }
    }
    alloc::set_counting(false);
}
