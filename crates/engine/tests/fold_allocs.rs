//! Allocation pin for the slice-keyed FiBA fold.
//!
//! A counting global allocator checks that an in-order event landing in an
//! existing slice, with only combinable aggregates, folds in place without a
//! single heap allocation. Counts are per thread, so the test harness's own
//! threads cannot disturb them.

use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::fiba::WindowState;
use quill_engine::operator::{LatePolicy, Operator, WindowAggregateOp};
use quill_engine::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Every combinable aggregate kind over field 1, ArgMin/ArgMax by field 2.
fn combinable() -> Vec<AggregateSpec> {
    vec![
        AggregateSpec::new(AggregateKind::Count, 1, "count"),
        AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
        AggregateSpec::new(AggregateKind::Mean, 1, "mean"),
        AggregateSpec::new(AggregateKind::Min, 1, "min"),
        AggregateSpec::new(AggregateKind::Max, 1, "max"),
        AggregateSpec::new(AggregateKind::Variance, 1, "var"),
        AggregateSpec::new(AggregateKind::StdDev, 1, "stddev"),
        AggregateSpec::new(AggregateKind::First, 1, "first"),
        AggregateSpec::new(AggregateKind::Last, 1, "last"),
        AggregateSpec::new(AggregateKind::ArgMin(2), 1, "argmin"),
        AggregateSpec::new(AggregateKind::ArgMax(2), 1, "argmax"),
    ]
}

fn event(ts: u64, seq: u64, key: &Value) -> StreamElement {
    StreamElement::Event(Event::new(
        ts,
        seq,
        Row::new([
            key.clone(),
            Value::Float((seq % 17) as f64),
            Value::Float((seq % 5) as f64),
        ]),
    ))
}

#[test]
fn in_order_event_into_an_existing_slice_allocates_nothing() {
    for (window, key) in [
        (WindowSpec::tumbling(1_000u64), Value::Int(7)),
        // Several live slices on a 100 grid; the fold lands in the newest.
        (WindowSpec::sliding(1_000u64, 300u64), Value::str("host-a")),
    ] {
        let mut op = WindowAggregateOp::new(window, combinable(), Some(0), LatePolicy::Drop)
            .expect("valid spec")
            .with_window_state(WindowState::Fiba);
        let mut emitted = 0u64;
        // Warm up: create every slice up to the one holding 550. Creating
        // key state and slices allocates, which also shows the counter works.
        let warm_up: Vec<StreamElement> = (0..12u64).map(|i| event(i * 50, i, &key)).collect();
        let before = allocs();
        for el in warm_up {
            op.process(el, &mut |_| emitted += 1);
        }
        assert!(
            allocs() > before,
            "{window:?}: creating slices must allocate"
        );
        // In-order events into the newest slice, built before counting.
        let batch: Vec<StreamElement> = (0..40u64).map(|i| event(560 + i, 100 + i, &key)).collect();
        let before = allocs();
        for el in batch {
            op.process(el, &mut |_| emitted += 1);
        }
        let during = allocs() - before;
        assert_eq!(emitted, 0, "{window:?}: no watermark, so nothing emits");
        assert_eq!(
            during, 0,
            "{window:?}: 40 in-place folds made {during} heap allocations"
        );
        assert_eq!(op.stats().accepted, 52);
    }
}
