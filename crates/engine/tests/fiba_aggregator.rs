//! FiBA aggregator property battery.
//!
//! Three layers of differential evidence that the finger B-tree aggregator
//! is a drop-in replacement for the legacy window state:
//!
//! 1. **Structure vs. a naive sorted-Vec model** — random interleavings of
//!    in-order / out-of-order inserts, in-place upserts, bulk evictions and
//!    range queries are replayed against a flat sorted vector. The tree item is an
//!    order-*recording* aggregate (concatenation), so a matching range
//!    aggregate proves both membership and left-to-right combine order, not
//!    just a commutative summary.
//! 2. **Ordered-f64 key encoding** — bit-exact round-trips for NaN, ±inf
//!    and -0.0, and agreement with `f64::total_cmp` on arbitrary bit
//!    patterns (the order-statistic trees index values through this map).
//! 3. **Operator-level differential across all 14 aggregate kinds** — the
//!    FiBA backend against the legacy backend on scrambled streams with
//!    deep stragglers, exact for every kind except the non-associative
//!    float reductions (Sum/Mean/Variance/StdDev over arbitrary floats),
//!    which are gated on the tolerance rule documented in DESIGN.md §17.

use proptest::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::fiba::{
    f64_to_ordered, ordered_to_f64, FibaItem, FibaKey, FibaTree, WindowState,
};
use quill_engine::operator::{
    LatePolicy, Operator, WindowAggregateOp, WindowOpStats, WindowResult,
};
use quill_engine::prelude::*;

// ---------------------------------------------------------------------------
// Layer 1: FibaTree vs. a naive sorted-Vec model
// ---------------------------------------------------------------------------

/// Order-recording aggregate: combining concatenates the key lists, so the
/// subtree caches are only consistent if every node combines its children
/// strictly left-to-right. Any mis-ordered repair, stale cache, or wrong
/// routing shows up as a permuted (not merely different) aggregate.
#[derive(Clone, Debug, PartialEq)]
struct Trace(Vec<FibaKey>);

impl FibaItem for Trace {
    fn combine(&mut self, later: &Self) {
        self.0.extend_from_slice(&later.0);
    }
}

/// The reference model: a flat vector kept in stable `(ts, seq)` order with
/// the same insert tie-breaking as the tree (new entries go after equals).
#[derive(Default)]
struct Model {
    entries: Vec<(FibaKey, Trace)>,
}

impl Model {
    fn insert(&mut self, key: FibaKey, item: Trace) {
        let at = self.entries.partition_point(|(k, _)| *k <= key);
        self.entries.insert(at, (key, item));
    }

    /// Append `mark` to the entry at `key`, inserting an empty entry first
    /// when there is none. Upsert keys never collide with insert keys.
    fn upsert(&mut self, key: FibaKey, mark: FibaKey) -> bool {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, item)) => {
                item.0.push(mark);
                false
            }
            None => {
                self.insert(key, Trace(vec![mark]));
                true
            }
        }
    }

    fn range_agg(&self, lo: FibaKey, hi: FibaKey) -> (Option<Trace>, u64) {
        let mut acc: Option<Trace> = None;
        let mut n = 0u64;
        for (k, item) in &self.entries {
            if *k >= lo && *k <= hi {
                n += 1;
                match &mut acc {
                    None => acc = Some(item.clone()),
                    Some(a) => a.combine(item),
                }
            }
        }
        (acc, n)
    }

    fn evict_before(&mut self, cut: FibaKey) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| *k >= cut);
        (before - self.entries.len()) as u64
    }

    fn select(&self, k: u64) -> Option<FibaKey> {
        self.entries.get(k as usize).map(|(key, _)| *key)
    }
}

#[derive(Debug, Clone)]
enum TreeOp {
    /// Insert at this timestamp (seq is assigned monotonically at replay, so
    /// equal timestamps are tie-dense but stably ordered).
    Insert(u64),
    /// Combine into the unique entry keyed `(ts, MAX)`, creating it when
    /// absent (the slice-keyed window state's fold).
    Upsert(u64),
    /// Bulk-evict everything strictly below `(cut, 0)`.
    Evict(u64),
    /// Inclusive range aggregate + count over `[lo, lo + span]`.
    Range(u64, u64),
    /// Rank lookup.
    Select(u64),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    // Timestamps on a narrow band so ties and out-of-order inserts are the
    // common case, not the exception. The insert arm is repeated to bias
    // the uniform union toward growth.
    let op = prop_oneof![
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Insert),
        (0u64..64).prop_map(TreeOp::Upsert),
        (0u64..64).prop_map(TreeOp::Upsert),
        (0u64..64).prop_map(TreeOp::Evict),
        (0u64..64, 0u64..32).prop_map(|(lo, span)| TreeOp::Range(lo, span)),
        (0u64..64, 0u64..32).prop_map(|(lo, span)| TreeOp::Range(lo, span)),
        (0u64..300).prop_map(TreeOp::Select),
    ];
    proptest::collection::vec(op, 1..250)
}

proptest! {
    #[test]
    fn tree_matches_sorted_vec_model_under_random_interleavings(ops in tree_ops()) {
        let mut tree: FibaTree<Trace> = FibaTree::new();
        let mut model = Model::default();
        let mut seq = 0u64;
        let mut evicted_total = 0u64;
        for op in &ops {
            match *op {
                TreeOp::Insert(ts) => {
                    let key = (ts, seq);
                    seq += 1;
                    tree.insert(key, Trace(vec![key]));
                    model.insert(key, Trace(vec![key]));
                }
                TreeOp::Upsert(ts) => {
                    // Insert keys carry seq < 250, so `(ts, MAX)` is unique
                    // to upserts; the mark records which upsert this was.
                    let (key, mark) = ((ts, u64::MAX), (ts, seq));
                    seq += 1;
                    let created =
                        tree.upsert_with(key, || Trace(Vec::new()), |t| t.0.push(mark));
                    prop_assert_eq!(created, model.upsert(key, mark));
                }
                TreeOp::Evict(cut) => {
                    let dropped = tree.evict_before((cut, 0));
                    prop_assert_eq!(dropped, model.evict_before((cut, 0)));
                    evicted_total += dropped;
                }
                TreeOp::Range(lo, span) => {
                    let hi = lo + span;
                    let got = tree.range_agg((lo, 0), (hi, u64::MAX));
                    let want = model.range_agg((lo, 0), (hi, u64::MAX));
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(tree.count_range((lo, 0), (hi, u64::MAX)), want.1);
                }
                TreeOp::Select(k) => {
                    prop_assert_eq!(tree.select(k), model.select(k));
                }
            }
            prop_assert_eq!(tree.len(), model.entries.len() as u64);
        }
        // Exhaustive end-state checks: traversal order, every rank, the full
        // range, min/max, eviction accounting, and structural invariants.
        let mut walked = Vec::new();
        tree.for_each(&mut |k, item| walked.push((k, item.clone())));
        prop_assert_eq!(&walked, &model.entries);
        for k in 0..model.entries.len() as u64 + 2 {
            prop_assert_eq!(tree.select(k), model.select(k));
        }
        let full = tree.range_agg((0, 0), (u64::MAX, u64::MAX));
        prop_assert_eq!(&full, &model.range_agg((0, 0), (u64::MAX, u64::MAX)));
        prop_assert_eq!(tree.min_key(), model.entries.first().map(|(k, _)| *k));
        prop_assert_eq!(tree.max_key(), model.entries.last().map(|(k, _)| *k));
        prop_assert_eq!(tree.stats().evicted, evicted_total);
        tree.check_invariants(&|a, b| a == b).expect("structural invariants");
    }
}

// ---------------------------------------------------------------------------
// Layer 2: ordered-f64 key encoding (NaN / ±inf / -0.0 bit-exactness)
// ---------------------------------------------------------------------------

#[test]
fn ordered_f64_roundtrip_is_bit_exact_for_special_values() {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.5,
        -1.5,
    ];
    for x in specials {
        let back = ordered_to_f64(f64_to_ordered(x));
        assert_eq!(
            back.to_bits(),
            x.to_bits(),
            "round-trip changed the bit pattern of {x:?}"
        );
    }
    // total_cmp order: -NaN < -inf < -1.5 < -0.0 < +0.0 < 1.5 < +inf < +NaN.
    let ordered = [
        -f64::NAN,
        f64::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        1.5,
        f64::INFINITY,
        f64::NAN,
    ];
    for pair in ordered.windows(2) {
        assert!(
            f64_to_ordered(pair[0]) < f64_to_ordered(pair[1]),
            "{:?} !< {:?} in the ordered encoding",
            pair[0],
            pair[1]
        );
    }
}

proptest! {
    #[test]
    fn ordered_f64_agrees_with_total_cmp_on_arbitrary_bits(a in any::<u64>(), b in any::<u64>()) {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        prop_assert_eq!(f64_to_ordered(x).cmp(&f64_to_ordered(y)), x.total_cmp(&y));
        prop_assert_eq!(ordered_to_f64(f64_to_ordered(x)).to_bits(), x.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Layer 3: operator-level differential across all 14 aggregate kinds
// ---------------------------------------------------------------------------

/// All 14 aggregate kinds over field 1, with field 2 as the Arg* companion.
fn all_kinds() -> Vec<AggregateSpec> {
    vec![
        AggregateSpec::new(AggregateKind::Count, 1, "count"),
        AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
        AggregateSpec::new(AggregateKind::Mean, 1, "mean"),
        AggregateSpec::new(AggregateKind::Min, 1, "min"),
        AggregateSpec::new(AggregateKind::Max, 1, "max"),
        AggregateSpec::new(AggregateKind::StdDev, 1, "stddev"),
        AggregateSpec::new(AggregateKind::Variance, 1, "var"),
        AggregateSpec::new(AggregateKind::Median, 1, "median"),
        AggregateSpec::new(AggregateKind::Quantile(0.25), 1, "q25"),
        AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        AggregateSpec::new(AggregateKind::First, 1, "first"),
        AggregateSpec::new(AggregateKind::Last, 1, "last"),
        AggregateSpec::new(AggregateKind::ArgMin(2), 1, "argmin"),
        AggregateSpec::new(AggregateKind::ArgMax(2), 1, "argmax"),
    ]
}

/// Non-associative float reductions: their combine tree shape differs
/// between the FiBA and legacy backends, so equality is gated on the
/// relative tolerance documented in DESIGN.md §17. Everything else —
/// including Min/Max/Median/Quantile on floats, which only *order* values —
/// must be bit-exact. Sum and Mean become exact again when every input is
/// an integer-valued float with an exactly representable sum (addition is
/// then exact in every nesting), while Variance/StdDev stay
/// nesting-sensitive even on integers: Welford inserts and Chan-style
/// partial merges round their divisions differently.
fn must_be_exact(name: &str, integer_inputs: bool) -> bool {
    match name {
        "sum" | "mean" => integer_inputs,
        "stddev" | "var" => false,
        _ => true,
    }
}

/// DESIGN.md §17 tolerance rule for non-associative float aggregates.
const FLOAT_COMBINE_REL_TOL: f64 = 1e-9;

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            (x.is_nan() && y.is_nan())
                || x == y
                || (x - y).abs() <= FLOAT_COMBINE_REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn run_backend(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    state: WindowState,
    input: &[StreamElement],
) -> (Vec<WindowResult>, WindowOpStats) {
    let mut op = WindowAggregateOp::new(window, aggs.to_vec(), key_field, LatePolicy::Drop)
        .expect("valid spec")
        .with_window_state(state);
    let mut out = Vec::new();
    for el in input {
        op.process(el.clone(), &mut |o| {
            if let Some(e) = o.as_event() {
                if let Some(r) = WindowResult::from_row(&e.row) {
                    out.push(r);
                }
            }
        });
    }
    op.process(StreamElement::Flush, &mut |o| {
        if let Some(e) = o.as_event() {
            if let Some(r) = WindowResult::from_row(&e.row) {
                out.push(r);
            }
        }
    });
    (out, op.stats())
}

fn assert_backends_agree(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    input: &[StreamElement],
    integer_inputs: bool,
) {
    let (fiba, fiba_stats) = run_backend(window, aggs, key_field, WindowState::Fiba, input);
    let (legacy, legacy_stats) = run_backend(window, aggs, key_field, WindowState::Legacy, input);
    assert_eq!(fiba.len(), legacy.len(), "result counts diverged");
    assert!(!fiba.is_empty(), "stream produced no windows");
    assert_eq!(fiba_stats.accepted, legacy_stats.accepted, "{window:?}");
    assert_eq!(
        fiba_stats.late_dropped, legacy_stats.late_dropped,
        "{window:?}"
    );
    assert_eq!(fiba_stats.windows_emitted, legacy_stats.windows_emitted);
    for (f, l) in fiba.iter().zip(&legacy) {
        assert_eq!(f.window, l.window);
        assert_eq!(f.key, l.key);
        assert_eq!(
            f.count, l.count,
            "count in window {:?} key {:?}",
            f.window, f.key
        );
        assert_eq!(f.aggregates.len(), l.aggregates.len());
        for (spec, (fv, lv)) in aggs.iter().zip(f.aggregates.iter().zip(&l.aggregates)) {
            let name = spec.name.as_str();
            if must_be_exact(name, integer_inputs) {
                assert_eq!(
                    fv, lv,
                    "{name} diverged in window {:?} key {:?}",
                    f.window, f.key
                );
            } else {
                assert!(
                    values_close(fv, lv),
                    "{name} outside tolerance in window {:?}: {fv:?} vs {lv:?}",
                    f.window
                );
            }
        }
    }
}

/// Deterministic scrambled stream: integer-valued floats (so Sum/Mean are
/// exact in f64 and the whole battery can assert bit-equality), a null every
/// 11th event, deep stragglers every 7th event, and periodic watermarks that
/// make some of those stragglers late.
fn scrambled_stream(n: u64, keys: u64) -> Vec<StreamElement> {
    let mut out = Vec::new();
    let mut max_ts = 0u64;
    for i in 0..n {
        let base = (i / 3) * 9;
        let ts = if i % 7 == 3 {
            base.saturating_sub(70) // deep straggler, >= W/2 behind
        } else {
            base + (i * 5) % 13
        };
        max_ts = max_ts.max(ts);
        let v = if i % 11 == 10 {
            Value::Null
        } else {
            Value::Float(((i * 37) % 101) as f64 - 50.0)
        };
        let by = Value::Float(((i * 29) % 53) as f64);
        out.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([Value::Int((i % keys) as i64), v, by]),
        )));
        if i % 13 == 12 {
            out.push(StreamElement::Watermark(Timestamp(
                max_ts.saturating_sub(25),
            )));
        }
    }
    out
}

#[test]
fn all_fourteen_kinds_are_exact_on_integer_valued_floats() {
    let input = scrambled_stream(400, 5);
    for window in [
        WindowSpec::tumbling(40u64),
        WindowSpec::sliding(60u64, 20u64),
        // Misaligned slide: panes are unavailable to the legacy backend, so
        // this leg compares FiBA against the per-window sorted-Vec path.
        WindowSpec::sliding(50u64, 15u64),
    ] {
        assert_backends_agree(window, &all_kinds(), Some(0), &input, true);
        assert_backends_agree(window, &all_kinds(), None, &input, true);
    }
}

/// Disorder aimed at the slice-keyed fold (slices on a 100 grid at the
/// finest): stragglers land 1–4 slices behind the newest one, inside windows
/// that are still open; every 37th event is far enough back to be late; and
/// timestamps repeat with `seq` scrambled against arrival order, so Edge/Arg
/// ties are decided by arrival order alone.
fn interior_straggler_stream(n: u64) -> Vec<StreamElement> {
    let mut out = Vec::new();
    let mut max_ts = 0u64;
    let mut prev_ts = 0u64;
    for i in 0..n {
        let front = 500 + i * 7;
        let ts = if i % 37 == 36 {
            front.saturating_sub(2_500)
        } else if i % 6 == 1 {
            front.saturating_sub(100 * (1 + i % 4) + i % 50)
        } else if i % 5 == 2 {
            prev_ts
        } else {
            front
        };
        prev_ts = ts;
        max_ts = max_ts.max(ts);
        let v = if i % 11 == 10 {
            Value::Null
        } else {
            Value::Float(((i * 37) % 101) as f64 - 50.0)
        };
        let by = Value::Float(((i * 29) % 7) as f64);
        // 7919 is prime to n, so seq is a permutation of 0..n.
        let seq = (i * 7919) % n;
        out.push(StreamElement::Event(Event::new(
            ts,
            seq,
            Row::new([Value::Int((i % 3) as i64), v, by]),
        )));
        if i % 10 == 9 {
            out.push(StreamElement::Watermark(Timestamp(
                max_ts.saturating_sub(600),
            )));
        }
    }
    out
}

#[test]
fn slice_keyed_fold_matches_legacy_with_interior_stragglers() {
    let input = interior_straggler_stream(1_200);
    for window in [
        WindowSpec::tumbling(1_000u64),
        // Divisible: the slice is the pane.
        WindowSpec::sliding(1_000u64, 200u64),
        // Not divisible: slices on the gcd grid of 100.
        WindowSpec::sliding(1_000u64, 300u64),
    ] {
        assert_backends_agree(window, &all_kinds(), Some(0), &input, true);
        assert_backends_agree(window, &all_kinds(), None, &input, true);
    }
    let tumbling = WindowSpec::tumbling(1_000u64);
    let (_, stats) = run_backend(tumbling, &all_kinds(), None, WindowState::Fiba, &input);
    assert!(stats.late_dropped > 0, "the stream must hold late events");
}

#[test]
fn float_combine_nesting_stays_within_documented_tolerance() {
    // Catastrophic-cancellation values: different combine tree shapes give
    // different roundings, which is exactly what the DESIGN.md §17 tolerance
    // rule exists for. Min/Max/Median/Quantile stay bit-exact even here.
    let mut out = Vec::new();
    let vals = [
        1.0e16,
        1.0,
        -1.0e16,
        0.1,
        3.333_333_3,
        -7.77e-3,
        1.0e12,
        -0.999,
    ];
    for i in 0..240u64 {
        let base = (i / 4) * 10;
        let ts = if i % 5 == 2 {
            base.saturating_sub(45)
        } else {
            base + i % 7
        };
        out.push(StreamElement::Event(Event::new(
            ts,
            i,
            Row::new([
                Value::Int((i % 3) as i64),
                Value::Float(vals[(i % 8) as usize] * (1.0 + (i % 9) as f64 * 1e-6)),
                Value::Float((i % 10) as f64),
            ]),
        )));
        if i % 12 == 11 {
            out.push(StreamElement::Watermark(Timestamp(base.saturating_sub(20))));
        }
    }
    assert_backends_agree(
        WindowSpec::sliding(40u64, 10u64),
        &all_kinds(),
        Some(0),
        &out,
        false,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn backends_agree_on_random_streams(
        raw in proptest::collection::vec((0u64..240, 0i64..40, any::<bool>()), 20..200),
        len in 1u64..80,
        slide_frac in 1u64..=4,
        keyed in any::<bool>(),
    ) {
        let slide = (len / slide_frac).max(1);
        let mut input = Vec::new();
        let mut max_ts = 0u64;
        for (i, (ts, v, null)) in raw.iter().enumerate() {
            max_ts = max_ts.max(*ts);
            let val = if *null { Value::Null } else { Value::Float(*v as f64) };
            input.push(StreamElement::Event(Event::new(
                *ts,
                i as u64,
                Row::new([Value::Int(v % 4), val, Value::Float((*ts % 19) as f64)]),
            )));
            if i % 16 == 15 {
                input.push(StreamElement::Watermark(Timestamp(max_ts.saturating_sub(len))));
            }
        }
        let key_field = if keyed { Some(0) } else { None };
        let specs = all_kinds();
        let (fiba, _) = run_backend(WindowSpec::sliding(len, slide), &specs, key_field, WindowState::Fiba, &input);
        let (legacy, _) = run_backend(WindowSpec::sliding(len, slide), &specs, key_field, WindowState::Legacy, &input);
        // Integer-valued floats: everything except Variance/StdDev (whose
        // Welford-vs-Chan roundings differ even on integers) is bit-exact.
        prop_assert_eq!(fiba.len(), legacy.len());
        for (f, l) in fiba.iter().zip(&legacy) {
            prop_assert_eq!(&f.window, &l.window);
            prop_assert_eq!(&f.key, &l.key);
            for (spec, (fv, lv)) in specs.iter().zip(f.aggregates.iter().zip(&l.aggregates)) {
                if must_be_exact(&spec.name, true) {
                    prop_assert_eq!(fv, lv, "{} diverged in {:?}", spec.name, f.window);
                } else {
                    prop_assert!(
                        values_close(fv, lv),
                        "{} outside tolerance in {:?}: {:?} vs {:?}",
                        spec.name, f.window, fv, lv
                    );
                }
            }
        }
    }
}
