//! Keyed windowed aggregation with event-time semantics.
//!
//! [`WindowAggregateOp`] routes each event into every window instance its
//! timestamp belongs to (optionally per grouping key), folds it into the
//! incremental aggregate state, and emits one result row per (key, window)
//! when the watermark passes the window's end. Events arriving *after* their
//! window was already finalized are handled according to [`LatePolicy`]:
//! counted and dropped, or emitted as revised ("update") results.
//!
//! This operator is the consumer side of the quality/latency trade-off: the
//! disorder-control strategies in `quill-core` decide how long to hold
//! events (and therefore where watermarks sit); this operator turns those
//! watermarks into results whose completeness the metrics crate scores.
//!
//! ## Execution paths
//!
//! Three state layouts are available:
//!
//! * **Per-window** (the general path): every `(key, window)` instance holds
//!   its own aggregate state; an event is folded into each of the
//!   `ceil(length/slide)` windows containing its timestamp.
//! * **Shared-pane** (stream slicing): when the window is sliding with
//!   `slide < length`, `slide | length`, the late policy is `Drop` and every
//!   aggregate is [combinable](crate::aggregate::AggregateKind::combinable),
//!   each event is folded *once* into its home pane (`[k·slide,
//!   (k+1)·slide)`), and window results are assembled by merging pane
//!   partials with a two-stacks FIFO suffix cache — amortized O(1) pane
//!   merges per emission. Sliding Sum/Variance therefore no longer recompute
//!   from raw window contents on emit; [`WindowOpStats::agg_inserts`]
//!   instruments the difference.
//! * **FiBA** ([`crate::fiba`], selected via
//!   [`WindowAggregateOp::with_window_state`] with
//!   [`WindowState::Fiba`](crate::fiba::WindowState)): per key, one finger
//!   B-tree keyed on slice start holds one combinable [`Pane`] per slice of
//!   the `gcd(length, slide)` grid, and each event combines in place into
//!   its slice; window finalize is a range query over cached subtree
//!   combines, and the slide bulk-evicts everything no later window can
//!   cover. Order-statistic aggregates (Median/Quantile) keep a
//!   value-indexed FiBA per open window whose subtree counts answer rank
//!   queries in `O(log n)` — replacing the legacy sorted-`Vec`'s `O(n)`
//!   shift per out-of-order insert. Applies to
//!   tumbling and sliding (aligned or not) under the `Drop` policy; `Revise`
//!   falls back to the per-window path.

use crate::aggregate::{AggregateKind, AggregateSpec, Aggregator, PaneAgg};
use crate::error::Result;
use crate::event::{Event, StreamElement};
use crate::fiba::{f64_to_ordered, ordered_to_f64, FibaItem, FibaTree, WindowState};
use crate::operator::Operator;
use crate::time::Timestamp;
use crate::value::{Key, Row, Value};
use crate::window::{Window, WindowSpec};
use quill_telemetry::trace::{FlightRecorder, TraceKind};
use quill_telemetry::{SpanRecorder, Stage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What to do with an event whose window has already been finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Count the event in [`WindowOpStats::late_dropped`] and discard it.
    Drop,
    /// Re-open the window, fold the event in, and emit a *revision* row
    /// (flagged via the `revision` column of [`WindowResult`]). State for
    /// revised windows is retained until `allowed_lateness` past the window
    /// end, then discarded.
    Revise {
        /// How long past the window end (in time units) revisions are
        /// accepted before state is dropped for good.
        allowed_lateness: u64,
    },
}

/// Counters the operator maintains; read them after a run to account for
/// every input event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowOpStats {
    /// Events folded into at least one open window.
    pub accepted: u64,
    /// Events that arrived after their last window was finalized and were
    /// dropped (under [`LatePolicy::Drop`], or past allowed lateness).
    pub late_dropped: u64,
    /// Revision results emitted (under [`LatePolicy::Revise`]).
    pub revisions: u64,
    /// Window results emitted (first emissions, not revisions).
    pub windows_emitted: u64,
    /// Aggregate-state folds performed: one per open window instance the
    /// event lands in on the per-window path, exactly one per accepted event
    /// on the shared-pane path, and on the FiBA path one per accepted event
    /// plus one per open window instance receiving order-statistic values.
    /// The ratio to `accepted` shows whether sliding windows share state
    /// (`1`) or recompute per instance (`≈ length/slide`).
    pub agg_inserts: u64,
}

/// Parsed view of a result row emitted by [`WindowAggregateOp`].
///
/// Result row layout: `[key, start, end, count, revision, agg...]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Grouping key (`Null` for global aggregation).
    pub key: Value,
    /// The window.
    pub window: Window,
    /// Number of events folded into this result.
    pub count: u64,
    /// 0 for a first emission, `n` for the n-th revision.
    pub revision: u64,
    /// One output per [`AggregateSpec`], in spec order.
    pub aggregates: Vec<Value>,
}

impl WindowResult {
    /// Number of leading metadata columns before the aggregate outputs.
    pub const META_COLS: usize = 5;

    /// Serialize to the operator's row layout.
    pub fn to_row(&self) -> Row {
        let mut vals = Vec::with_capacity(Self::META_COLS + self.aggregates.len());
        vals.push(self.key.clone());
        vals.push(Value::Int(self.window.start.raw() as i64));
        vals.push(Value::Int(self.window.end.raw() as i64));
        vals.push(Value::Int(self.count as i64));
        vals.push(Value::Int(self.revision as i64));
        vals.extend(self.aggregates.iter().cloned());
        vals.into_iter().collect()
    }

    /// Parse from the operator's row layout. Returns `None` if the row is
    /// too short to be a window result.
    pub fn from_row(row: &Row) -> Option<WindowResult> {
        if row.len() < Self::META_COLS {
            return None;
        }
        // Window bounds are stored as i64 bit-casts of the u64 timestamps
        // (`to_row` uses `as i64`); `as u64` restores them losslessly even
        // for values beyond i64::MAX.
        let start = row.get(1).as_i64()? as u64;
        let end = row.get(2).as_i64()? as u64;
        Some(WindowResult {
            key: row.get(0).clone(),
            window: Window::new(Timestamp(start), Timestamp(end)),
            count: row.get(3).as_i64()?.max(0) as u64,
            revision: row.get(4).as_i64()?.max(0) as u64,
            aggregates: row.values()[Self::META_COLS..].to_vec(),
        })
    }
}

/// Per-(key, window) incremental state (the general per-window path; not to
/// be confused with the [`WindowState`] backend selector from [`crate::fiba`]).
struct PerWindowState {
    aggs: Vec<Box<dyn Aggregator>>,
    count: u64,
    /// How many times this window has been emitted (0 = not yet).
    emissions: u64,
}

/// Ordered state key: emission order is by window end, then start, then key,
/// which makes output deterministic.
type StateKey = (Timestamp, Timestamp, Key);

/// One pane's mergeable partials plus its event count. Also the item of the
/// FiBA time tree, where it holds one slice.
#[derive(Clone)]
struct Pane {
    partials: Vec<PaneAgg>,
    rows: u64,
}

/// A combined partial: per-spec pane aggregates plus total event count.
type Combined = (Vec<PaneAgg>, u64);

/// Two-stacks FIFO combine cache over one key's pane sequence.
///
/// Between emissions, `front ∪ back` (front older, oldest on top of the
/// stack) holds exactly the panes of the last emitted window. Emitting the
/// next window pushes the newly covered pane onto the back (extending the
/// running `back_agg`), evicts the expired pane from the front — flipping
/// the back into suffix-combined front entries when the front runs dry —
/// and answers with `front.top ⊕ back_agg`. Each pane is merged O(1) times
/// amortized, so an emission costs O(aggs) instead of O(length/slide).
struct FifoRun {
    /// Window end this run can advance to; anything else forces a rebuild.
    next_end: u64,
    /// Value of [`KeyPanes::mods`] when the caches were built; any insert
    /// into the key's panes bumps `mods` and invalidates the run.
    epoch: u64,
    /// Newest pane first, so the oldest pane is `last()` (stack top). Each
    /// entry caches the combine of that pane with every newer front pane.
    front: Vec<(u64, Combined)>,
    /// Pane starts in the back, oldest first — dense (empty panes included)
    /// so eviction stays positionally aligned with window starts.
    back: Vec<u64>,
    /// Running combine of the back panes.
    back_agg: Option<Combined>,
}

/// Pane state for one grouping key.
#[derive(Default)]
struct KeyPanes {
    /// Pane start → partials. Panes are GC'd once every window covering
    /// them has been emitted.
    panes: BTreeMap<u64, Pane>,
    /// Insert epoch; see [`FifoRun::epoch`].
    mods: u64,
    run: Option<FifoRun>,
}

/// Shared-pane (stream slicing) state; present only when the window shape,
/// aggregates and late policy allow it.
struct PanedState {
    length: u64,
    slide: u64,
    /// Fresh (empty) partials, cloned per new pane.
    template: Vec<PaneAgg>,
    keys: BTreeMap<Key, KeyPanes>,
    /// Registered-but-unemitted `(window end, key)` pairs; drained in order
    /// as the watermark advances, which reproduces the per-window path's
    /// `(end, start, key)` emission order (equal ends share a start).
    pending: BTreeSet<(Timestamp, Key)>,
}

/// A slice's partials in the time tree. Events fold into their slice in
/// arrival order, exactly as the per-window path folds them into a window,
/// and the tree combines slices in time order. Equal timestamps always share
/// a slice, so Edge/Arg tie rules agree between backends.
impl FibaItem for Pane {
    fn combine(&mut self, later: &Self) {
        for (a, b) in self.partials.iter_mut().zip(&later.partials) {
            a.merge(b);
        }
        self.rows += later.rows;
    }

    fn assign_from(&mut self, src: &Self) {
        self.partials.clone_from(&src.partials);
        self.rows = src.rows;
    }
}

/// Per-open-window state for aggregates whose partials cannot be combined.
enum OrderStat {
    /// Value-indexed finger B-tree: keys are `(total-order f64 bits, uniq)`,
    /// so subtree counts answer `select(k)` in O(log n) and an out-of-order
    /// value insert costs O(log n) instead of the legacy sorted-`Vec`'s
    /// O(n) shift. Non-numeric values are skipped, like `QuantileAgg`.
    Rank { p: f64, tree: FibaTree<()> },
    /// Distinct non-null keys; identical semantics to `DistinctAgg`.
    Distinct(BTreeSet<Key>),
}

/// FiBA state for one grouping key.
#[derive(Default)]
struct FibaKeyState {
    /// Finger B-tree keyed `(slice start, 0)` holding one [`Pane`] per
    /// non-empty slice; window finalize is `range_agg` over `[start, end)`.
    time: FibaTree<Pane>,
    /// Per still-open `(end, start)` window: one [`OrderStat`] per
    /// non-combinable spec, in spec order. Empty when every spec is
    /// combinable.
    windows: BTreeMap<(Timestamp, Timestamp), Vec<OrderStat>>,
    /// Disambiguator for equal value bits in [`OrderStat::Rank`] trees.
    uniq: u64,
}

/// FiBA-backed window state; present when selected via
/// [`WindowAggregateOp::with_window_state`] and the late policy is `Drop`.
struct FibaState {
    length: u64,
    slide: u64,
    /// Slice width `gcd(length, slide)`: every window boundary lies on this
    /// grid, so a slice never straddles one.
    grid: u64,
    /// Fresh combinable partials, one per combinable spec (tree item shape).
    template: Vec<PaneAgg>,
    /// Per spec: `Some(index into template)` for combinable kinds, `None`
    /// for order-statistic/distinct kinds (served from [`OrderStat`]s).
    slots: Vec<Option<usize>>,
    keys: BTreeMap<Key, FibaKeyState>,
    /// Registered-but-unemitted `(end, start, key)` windows, drained in the
    /// per-window path's emission order as the watermark advances.
    pending: BTreeSet<(Timestamp, Timestamp, Key)>,
    /// Emptied key states kept for the next new key, so a key whose windows
    /// all closed does not rebuild its tree; at most [`SPARE_KEY_STATES`].
    spare: Vec<FibaKeyState>,
}

/// Bound on [`FibaState::spare`].
const SPARE_KEY_STATES: usize = 256;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Fresh [`OrderStat`] states for every non-combinable spec, in spec order.
fn build_order_stats(aggs: &[AggregateSpec]) -> Vec<OrderStat> {
    aggs.iter()
        .filter_map(|a| match a.kind {
            AggregateKind::Median => Some(OrderStat::Rank {
                p: 0.5,
                tree: FibaTree::new(),
            }),
            AggregateKind::Quantile(p) => Some(OrderStat::Rank {
                p: p.clamp(0.0, 1.0),
                tree: FibaTree::new(),
            }),
            AggregateKind::DistinctCount => Some(OrderStat::Distinct(BTreeSet::new())),
            _ => None,
        })
        .collect()
}

/// Fold one row's values into a window's [`OrderStat`]s; `uniq` is the key's
/// rank-tree disambiguator.
fn fold_order_stats(
    states: &mut [OrderStat],
    slots: &[Option<usize>],
    aggs: &[AggregateSpec],
    row: &Row,
    uniq: &mut u64,
) {
    let order_specs = slots.iter().zip(aggs).filter(|(slot, _)| slot.is_none());
    for (state, (_, spec)) in states.iter_mut().zip(order_specs) {
        match state {
            OrderStat::Rank { tree, .. } => {
                if let Some(x) = row.get(spec.field).as_f64() {
                    // `uniq` grows in insertion order, so equal value bits
                    // keep insert-after-equals order — exactly the array
                    // QuantileAgg's sorted insert produces.
                    tree.insert((f64_to_ordered(x), *uniq), ());
                    *uniq += 1;
                }
            }
            OrderStat::Distinct(set) => {
                let v = row.get(spec.field);
                if !v.is_null() {
                    // quill-lint: allow(hot-path-alloc, reason = "distinct-count semantics require an owned copy of each new value")
                    set.insert(Key(v.clone()));
                }
            }
        }
    }
}

/// Finalize a rank tree exactly as `aggregate::quantile_sorted` would
/// finalize the equivalent sorted slice: same clamp, same index arithmetic,
/// same interpolation expression — bit-identical output by construction.
fn rank_quantile(tree: &FibaTree<()>, p: f64) -> Value {
    let n = tree.len();
    if n == 0 {
        return Value::Null;
    }
    let value_at = |k: u64| -> f64 {
        match tree.select(k) {
            Some((bits, _)) => ordered_to_f64(bits),
            None => f64::NAN, // unreachable: k < n by construction
        }
    };
    if n == 1 {
        return Value::Float(value_at(0));
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as u64;
    let hi = (rank.ceil() as u64).min(n - 1);
    let frac = rank - lo as f64;
    let (x_lo, x_hi) = (value_at(lo), value_at(hi));
    Value::Float(x_lo + (x_hi - x_lo) * frac)
}

/// Keyed sliding/tumbling window aggregation operator.
pub struct WindowAggregateOp {
    name: String,
    spec: WindowSpec,
    aggs: Vec<AggregateSpec>,
    key_field: Option<usize>,
    late_policy: LatePolicy,
    state: BTreeMap<StateKey, PerWindowState>,
    paned: Option<PanedState>,
    fiba: Option<FibaState>,
    watermark: Timestamp,
    out_seq: u64,
    stats: WindowOpStats,
    trace: FlightRecorder,
    spans: SpanRecorder,
    shard: u32,
}

impl WindowAggregateOp {
    /// Build the operator.
    ///
    /// * `spec` — window shape (validated).
    /// * `aggs` — aggregate functions (validated); at least one required.
    /// * `key_field` — optional row index to group by; `None` aggregates
    ///   globally.
    ///
    /// # Errors
    /// Propagates invalid window or aggregate parameters.
    pub fn new(
        spec: WindowSpec,
        aggs: Vec<AggregateSpec>,
        key_field: Option<usize>,
        late_policy: LatePolicy,
    ) -> Result<Self> {
        spec.validate()?;
        for a in &aggs {
            a.validate()?;
        }
        if aggs.is_empty() {
            return Err(crate::error::EngineError::InvalidAggregate(
                "window aggregation requires at least one aggregate".into(),
            ));
        }
        let paned = Self::pane_state(&spec, &aggs, late_policy);
        Ok(WindowAggregateOp {
            name: format!("window-agg({spec})"),
            spec,
            aggs,
            key_field,
            late_policy,
            state: BTreeMap::new(),
            paned,
            fiba: None,
            watermark: Timestamp::MIN,
            out_seq: 0,
            stats: WindowOpStats::default(),
            trace: FlightRecorder::disabled(),
            spans: SpanRecorder::disabled(),
            shard: 0,
        })
    }

    /// Attach a flight recorder; subsequent window finalizations and late
    /// drops are recorded as [`TraceKind::WindowFinalize`] /
    /// [`TraceKind::LateDrop`] events tagged with `shard` (0 for sequential
    /// execution). Disabled recorders cost one branch per hook.
    pub fn attach_trace(&mut self, trace: &FlightRecorder, shard: u32) {
        self.trace = trace.clone();
        self.shard = shard;
    }

    /// Attach a span recorder; each window finalization records a
    /// [`Stage::WindowFinalize`] span from the window's end to the watermark
    /// that closed it — the event-time lag between a window becoming
    /// complete and the operator proving it complete. Disabled recorders
    /// cost one branch per finalization.
    pub fn attach_spans(&mut self, spans: &SpanRecorder, shard: u32) {
        self.spans = spans.clone();
        self.shard = shard;
    }

    /// Shared-pane state when eligible: overlapping sliding windows whose
    /// slide divides the length, `Drop` lateness, and only combinable
    /// aggregates. Everything else uses per-window state.
    fn pane_state(
        spec: &WindowSpec,
        aggs: &[AggregateSpec],
        late_policy: LatePolicy,
    ) -> Option<PanedState> {
        let (length, slide) = match *spec {
            WindowSpec::Sliding { length, slide } => (length.raw(), slide.raw()),
            WindowSpec::Tumbling { .. } => return None,
        };
        if slide == 0 || slide >= length || length % slide != 0 {
            return None;
        }
        if late_policy != LatePolicy::Drop {
            return None;
        }
        let template: Option<Vec<PaneAgg>> = aggs.iter().map(|a| a.build_pane()).collect();
        Some(PanedState {
            length,
            slide,
            template: template?,
            keys: BTreeMap::new(),
            pending: BTreeSet::new(),
        })
    }

    /// Whether this operator runs on the shared-pane path (see module docs).
    pub fn shares_panes(&self) -> bool {
        self.paned.is_some()
    }

    /// Select the window state backend. [`WindowState::Fiba`] routes events
    /// through per-key finger B-tree aggregators ([`crate::fiba`]) when the
    /// late policy is `Drop` (under `Revise`, revisions need retained
    /// per-window state, so the per-window path is kept);
    /// [`WindowState::Legacy`] restores the per-window / shared-pane layout.
    ///
    /// The operator-level default is `Legacy` so the operator behaves
    /// exactly as before in isolation; `quill-core`'s `ExecOptions` defaults
    /// every execution to `Fiba`. Call before processing any elements —
    /// switching discards accumulated state.
    pub fn with_window_state(mut self, mode: WindowState) -> Self {
        self.fiba = match mode {
            WindowState::Fiba => Self::fiba_state(&self.spec, &self.aggs, self.late_policy),
            WindowState::Legacy => None,
        };
        self.paned = if self.fiba.is_some() {
            None
        } else {
            Self::pane_state(&self.spec, &self.aggs, self.late_policy)
        };
        self
    }

    /// The backend actually in effect (`Fiba` only when eligible — see
    /// [`Self::with_window_state`]).
    pub fn window_state(&self) -> WindowState {
        if self.fiba.is_some() {
            WindowState::Fiba
        } else {
            WindowState::Legacy
        }
    }

    /// FiBA state when eligible: any tumbling or sliding shape under the
    /// `Drop` policy, every aggregate kind (non-combinable kinds get
    /// per-window [`OrderStat`] trees instead of tree partials).
    fn fiba_state(
        spec: &WindowSpec,
        aggs: &[AggregateSpec],
        late_policy: LatePolicy,
    ) -> Option<FibaState> {
        if late_policy != LatePolicy::Drop {
            return None;
        }
        let (length, slide) = match *spec {
            WindowSpec::Sliding { length, slide } => (length.raw(), slide.raw()),
            WindowSpec::Tumbling { length } => (length.raw(), length.raw()),
        };
        if slide == 0 || length == 0 {
            return None;
        }
        let mut template = Vec::new();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in aggs {
            match a.build_pane() {
                Some(p) => {
                    slots.push(Some(template.len()));
                    template.push(p);
                }
                None => slots.push(None),
            }
        }
        Some(FibaState {
            length,
            slide,
            grid: gcd(length, slide),
            template,
            slots,
            keys: BTreeMap::new(),
            pending: BTreeSet::new(),
            spare: Vec::new(),
        })
    }

    /// Force the execution path: `false` pins the per-window layout even
    /// when pane sharing would apply (for differential testing and
    /// benchmarking); `true` re-enables it where eligible. Call before
    /// processing any elements — switching discards accumulated pane state.
    pub fn with_shared_panes(mut self, enabled: bool) -> Self {
        self.paned = if enabled {
            Self::pane_state(&self.spec, &self.aggs, self.late_policy)
        } else {
            None
        };
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WindowOpStats {
        self.stats
    }

    /// Number of (key, window) states currently held (registered pending
    /// windows on the shared-pane and FiBA paths).
    pub fn open_windows(&self) -> usize {
        if let Some(fs) = &self.fiba {
            return fs.pending.len();
        }
        match &self.paned {
            Some(ps) => ps.pending.len(),
            None => self.state.len(),
        }
    }

    fn key_of(&self, row: &Row) -> Key {
        match self.key_field {
            Some(i) => Key(row.get(i).clone()),
            None => Key(Value::Null),
        }
    }

    fn fold_event(&mut self, e: &Event) {
        let key = self.key_of(&e.row);
        let windows = self.spec.assign(e.ts);
        let mut accepted = false;
        let mut late = false;
        // Windows this event can no longer contribute to (trace only).
        let mut missed: Vec<(u64, u64)> = Vec::new();
        let tracing = self.trace.is_enabled();
        for w in windows {
            // A window is "closed" once the watermark passed its end.
            let closed = w.end <= self.watermark;
            match (closed, self.late_policy) {
                (true, LatePolicy::Drop) => {
                    late = true;
                    if tracing {
                        missed.push((w.start.raw(), w.end.raw()));
                    }
                    continue;
                }
                (true, LatePolicy::Revise { allowed_lateness }) => {
                    if self.watermark > w.end + crate::time::TimeDelta(allowed_lateness) {
                        late = true;
                        if tracing {
                            missed.push((w.start.raw(), w.end.raw()));
                        }
                        continue;
                    }
                }
                (false, _) => {}
            }
            // quill-lint: allow(hot-path-alloc, reason = "BTreeMap state needs an owned key per assigned window; a key is one small Value")
            let state_key: StateKey = (w.end, w.start, key.clone());
            let st = self
                .state
                .entry(state_key)
                .or_insert_with(|| PerWindowState {
                    aggs: self.aggs.iter().map(|a| a.build()).collect(),
                    count: 0,
                    emissions: 0,
                });
            for (agg, spec) in st.aggs.iter_mut().zip(&self.aggs) {
                agg.insert_row(e.ts, e.row.get(spec.field), &e.row);
            }
            st.count += 1;
            self.stats.agg_inserts += 1;
            accepted = true;
        }
        if accepted {
            self.stats.accepted += 1;
        } else if late {
            self.stats.late_dropped += 1;
        } else {
            // No window contained the event (cannot happen for valid specs,
            // but account for it rather than losing events silently).
            self.stats.late_dropped += 1;
        }
        if !missed.is_empty() {
            self.trace.record(
                e.ts.raw(),
                self.shard,
                TraceKind::LateDrop {
                    event_seq: e.seq,
                    windows: missed,
                },
            );
        }
    }

    /// Shared-pane ingest: one aggregate fold into the event's home pane,
    /// plus (for a freshly created pane) registering the pane's still-open
    /// windows as pending emissions.
    fn fold_event_paned(&mut self, e: &Event) {
        let key = self.key_of(&e.row);
        let wm = self.watermark.raw();
        // quill-lint: allow(no-panic, reason = "fold_event_paned is only reached via the paned dispatch, which requires paned.is_some()")
        let ps = self.paned.as_mut().expect("paned path");
        let t = e.ts.raw();
        let p = t / ps.slide * ps.slide;
        // The last window containing `t` ends at `p + length`; if the
        // watermark passed it, every containing window is closed.
        if p.saturating_add(ps.length) <= wm {
            self.stats.late_dropped += 1;
            if self.trace.is_enabled() {
                let missed: Vec<(u64, u64)> = self
                    .spec
                    .assign(e.ts)
                    .into_iter()
                    .map(|w| (w.start.raw(), w.end.raw()))
                    .collect();
                self.trace.record(
                    e.ts.raw(),
                    self.shard,
                    TraceKind::LateDrop {
                        event_seq: e.seq,
                        windows: missed,
                    },
                );
            }
            return;
        }
        let kp = ps.keys.entry(key.clone()).or_default();
        kp.mods += 1;
        let new_pane = !kp.panes.contains_key(&p);
        let pane = kp.panes.entry(p).or_insert_with(|| Pane {
            partials: ps.template.clone(),
            rows: 0,
        });
        for (agg, spec) in pane.partials.iter_mut().zip(&self.aggs) {
            agg.insert_row(e.ts, e.row.get(spec.field), &e.row);
        }
        pane.rows += 1;
        self.stats.agg_inserts += 1;
        self.stats.accepted += 1;
        if new_pane {
            // Register ends {p+slide, …, p+length} that are real windows
            // (end ≥ length, i.e. start ≥ 0) and still open. Already-emitted
            // ends stay final (Drop policy), so idempotent registration per
            // pane creation suffices.
            let mut end = p.saturating_add(ps.length);
            let first = p + ps.slide;
            while end >= first && end >= ps.length && end > wm {
                // quill-lint: allow(hot-path-alloc, reason = "runs once per created pane, not per event")
                ps.pending.insert((Timestamp(end), key.clone()));
                match end.checked_sub(ps.slide) {
                    Some(prev) => end = prev,
                    None => break,
                }
            }
        }
    }

    /// FiBA ingest: combine the event in place into its slice of the key's
    /// time tree, registering the slice's still-open windows as pending when
    /// the slice is new, and fold order-statistic values into those windows'
    /// rank trees / distinct sets.
    fn fold_event_fiba(&mut self, e: &Event) {
        let key = self.key_of(&e.row);
        let wm = self.watermark.raw();
        // quill-lint: allow(no-panic, reason = "fold_event_fiba is only reached via the fiba dispatch, which requires fiba.is_some()")
        let fs = self.fiba.as_mut().expect("fiba path");
        let t = e.ts.raw();
        let home = t / fs.slide * fs.slide;
        // The last window containing `t` ends at `home + length`; if the
        // watermark passed it, every containing window is closed. A saturated
        // end at or below `t` (only `t = u64::MAX`) means no window holds it.
        let last_end = home.saturating_add(fs.length);
        if last_end <= wm || last_end <= t {
            self.stats.late_dropped += 1;
            if self.trace.is_enabled() {
                let missed: Vec<(u64, u64)> = self
                    .spec
                    .assign(e.ts)
                    .into_iter()
                    .map(|w| (w.start.raw(), w.end.raw()))
                    .collect();
                self.trace.record(
                    e.ts.raw(),
                    self.shard,
                    TraceKind::LateDrop {
                        event_seq: e.seq,
                        windows: missed,
                    },
                );
            }
            return;
        }
        let spare = &mut fs.spare;
        let ks = fs
            .keys
            .entry(key.clone())
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let (template, slots, aggs) = (&fs.template, &fs.slots, &self.aggs);
        // Window boundaries lie on the slice grid, so the windows containing
        // `t` are exactly those containing its slice start: registering them
        // when the slice is created covers every later event of the slice.
        let created = ks.time.upsert_with(
            (t / fs.grid * fs.grid, 0),
            || Pane {
                partials: template.clone(),
                rows: 0,
            },
            |slice| {
                for (slot, spec) in slots.iter().zip(aggs) {
                    if let Some(j) = *slot {
                        slice.partials[j].insert_row(e.ts, e.row.get(spec.field), &e.row);
                    }
                }
                slice.rows += 1;
            },
        );
        self.stats.agg_inserts += 1;
        self.stats.accepted += 1;
        let has_order = fs.slots.iter().any(|s| s.is_none());
        if !created && !has_order {
            return;
        }
        // Walk the windows containing `t` from the newest start back.
        let mut start = home;
        loop {
            let end = start.saturating_add(fs.length);
            if end <= t {
                break;
            }
            if end > wm {
                let w = (Timestamp(end), Timestamp(start));
                if created {
                    // quill-lint: allow(hot-path-alloc, reason = "BTreeSet registration needs an owned key; once per window of a new slice, not per event")
                    fs.pending.insert((w.0, w.1, key.clone()));
                }
                if has_order {
                    self.stats.agg_inserts += 1;
                    let states = ks
                        .windows
                        .entry(w)
                        .or_insert_with(|| build_order_stats(aggs));
                    fold_order_stats(states, slots, aggs, &e.row, &mut ks.uniq);
                }
            }
            if start < fs.slide {
                break;
            }
            start -= fs.slide;
        }
    }

    /// Emit revisions for closed-but-retained windows that just received a
    /// late event (Revise policy only).
    fn emit_revisions(&mut self, e: &Event, out: &mut dyn FnMut(StreamElement)) {
        if !matches!(self.late_policy, LatePolicy::Revise { .. }) {
            return;
        }
        let key = self.key_of(&e.row);
        for w in self.spec.assign(e.ts) {
            if w.end > self.watermark {
                continue; // still open; normal emission will cover it
            }
            // quill-lint: allow(hot-path-alloc, reason = "revision path: one copy per revised window on a late event")
            let state_key: StateKey = (w.end, w.start, key.clone());
            // Split borrows: compute the row, then bump counters.
            let (row, ts) = match self.state.get_mut(&state_key) {
                Some(st) if st.emissions > 0 => {
                    st.emissions += 1;
                    let res = WindowResult {
                        // quill-lint: allow(hot-path-alloc, reason = "one key copy per emitted revision row")
                        key: key.0.clone(),
                        window: w,
                        count: st.count,
                        revision: st.emissions - 1,
                        aggregates: st.aggs.iter().map(|a| a.finalize()).collect(),
                    };
                    (res.to_row(), w.end)
                }
                _ => continue,
            };
            self.stats.revisions += 1;
            self.out_seq += 1;
            out(StreamElement::Event(Event::new(ts, self.out_seq, row)));
        }
    }

    fn advance_watermark(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        if wm <= self.watermark {
            // Watermarks never regress; equal watermarks are idempotent.
            return;
        }
        self.watermark = wm;
        if self.fiba.is_some() {
            self.drain_pending_fiba(wm, out);
            if wm == Timestamp::MAX {
                // End of stream: no new key can arrive. Free the spare key
                // states now, on the thread that allocated them, rather than
                // whenever the operator drops; held until then, they keep
                // a parallel worker's heap from shrinking.
                if let Some(fs) = self.fiba.as_mut() {
                    fs.spare = Vec::new();
                }
            }
            out(StreamElement::Watermark(wm));
            return;
        }
        if self.paned.is_some() {
            self.drain_pending_paned(wm, out);
            out(StreamElement::Watermark(wm));
            return;
        }
        // Emit every not-yet-emitted window with end <= wm, in (end, start,
        // key) order. Under Drop policy the state is removed; under Revise it
        // is retained until allowed lateness expires.
        let ends: Vec<StateKey> = self
            .state
            .range(..(wm, Timestamp::MAX, Key(Value::Null)))
            .map(|(k, _)| k.clone())
            .collect();
        for sk in ends {
            let (end, start, ref key) = sk;
            if end > wm {
                continue;
            }
            let retain = match self.late_policy {
                LatePolicy::Drop => false,
                LatePolicy::Revise { allowed_lateness } => {
                    wm <= end + crate::time::TimeDelta(allowed_lateness)
                }
            };
            let emit_row = {
                let st = match self.state.get_mut(&sk) {
                    Some(st) => st,
                    None => continue,
                };
                if st.emissions > 0 {
                    None // already emitted (a revision window awaiting GC)
                } else {
                    st.emissions = 1;
                    let row = WindowResult {
                        // quill-lint: allow(hot-path-alloc, reason = "one key copy per closed window at watermark advance, not per event")
                        key: key.0.clone(),
                        window: Window::new(start, end),
                        count: st.count,
                        revision: 0,
                        aggregates: st.aggs.iter().map(|a| a.finalize()).collect(),
                    }
                    .to_row();
                    Some((row, st.count))
                }
            };
            if let Some((row, count)) = emit_row {
                self.stats.windows_emitted += 1;
                self.out_seq += 1;
                if self.trace.is_enabled() {
                    self.trace.record(
                        end.raw(),
                        self.shard,
                        TraceKind::WindowFinalize {
                            start: start.raw(),
                            end: end.raw(),
                            key: key.0.to_string(),
                            count,
                        },
                    );
                }
                if self.spans.is_enabled() {
                    // Window complete at `end`, proven complete at `wm`. A
                    // Flush (wm = MAX) carries no event time: zero lag.
                    let closed = if wm == Timestamp::MAX { end } else { wm };
                    self.spans
                        .record(Stage::WindowFinalize, end.raw(), closed.raw(), self.shard);
                }
                out(StreamElement::Event(Event::new(end, self.out_seq, row)));
            }
            if !retain {
                self.state.remove(&sk);
            }
        }
        out(StreamElement::Watermark(wm));
    }

    /// Shared-pane emission: pop every pending `(end, key)` up to the
    /// watermark (already in emission order), combine that window's panes,
    /// and GC panes no later window can cover.
    fn drain_pending_paned(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        loop {
            let (end, key) = {
                // quill-lint: allow(no-panic, reason = "drain_pending_paned is only reached via the paned dispatch, which requires paned.is_some()")
                let ps = self.paned.as_mut().expect("paned path");
                match ps.pending.first() {
                    Some((e, _)) if *e <= wm => {
                        // quill-lint: allow(no-panic, reason = "first() just returned Some on this same set")
                        let (e, k) = ps.pending.pop_first().expect("non-empty");
                        (e.raw(), k)
                    }
                    _ => break,
                }
            };
            let row = self.emit_paned_window(end, &key);
            self.stats.windows_emitted += 1;
            self.out_seq += 1;
            out(StreamElement::Event(Event::new(
                Timestamp(end),
                self.out_seq,
                row,
            )));
        }
    }

    fn emit_paned_window(&mut self, end: u64, key: &Key) -> Row {
        // quill-lint: allow(no-panic, reason = "emit_paned_window is only called from drain_pending_paned, which already held the paned state")
        let ps = self.paned.as_mut().expect("paned path");
        // Registration guarantees `end >= length` (window start ≥ 0).
        let start = end - ps.length;
        let combined: Option<Combined> = match ps.keys.get_mut(key) {
            None => None,
            Some(kp) => {
                let c = combine_window(kp, start, end, ps.slide, &ps.template);
                // Panes before `end + slide − length` can never be covered
                // by a later window of this key.
                let min_keep = end.saturating_add(ps.slide).saturating_sub(ps.length);
                kp.panes = kp.panes.split_off(&min_keep);
                if kp.panes.is_empty() {
                    // All of this key's registered windows are emitted (the
                    // newest pane's last window is the newest pending end).
                    ps.keys.remove(key);
                }
                c
            }
        };
        let (aggregates, count) = match combined {
            Some((partials, rows)) => (partials.iter().map(|a| a.finalize()).collect(), rows),
            // Defensive: a registered window always covers ≥ 1 non-empty
            // pane, but emit an empty result rather than lose the window.
            None => (ps.template.iter().map(|a| a.finalize()).collect(), 0),
        };
        if self.trace.is_enabled() {
            self.trace.record(
                end,
                self.shard,
                TraceKind::WindowFinalize {
                    start,
                    end,
                    key: key.0.to_string(),
                    count,
                },
            );
        }
        if self.spans.is_enabled() {
            // Same semantics as the per-window path: the watermark that
            // drained this pending entry is the current one (Flush sets it
            // to MAX, which carries no event time: zero lag).
            let closed = if self.watermark == Timestamp::MAX {
                end
            } else {
                self.watermark.raw()
            };
            self.spans
                .record(Stage::WindowFinalize, end, closed, self.shard);
        }
        WindowResult {
            key: key.0.clone(),
            window: Window::new(Timestamp(start), Timestamp(end)),
            count,
            revision: 0,
            aggregates,
        }
        .to_row()
    }

    /// FiBA emission: pop every pending `(end, start, key)` up to the
    /// watermark (already in emission order), answer the window with a range
    /// query, and bulk-evict what no later window of the key can cover.
    fn drain_pending_fiba(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        loop {
            let (end, start, key) = {
                // quill-lint: allow(no-panic, reason = "drain_pending_fiba is only reached via the fiba dispatch, which requires fiba.is_some()")
                let fs = self.fiba.as_mut().expect("fiba path");
                match fs.pending.first() {
                    Some((e, _, _)) if *e <= wm => {
                        // quill-lint: allow(no-panic, reason = "first() just returned Some on this same set")
                        fs.pending.pop_first().expect("non-empty")
                    }
                    _ => break,
                }
            };
            let row = self.emit_fiba_window(end, start, &key);
            self.stats.windows_emitted += 1;
            self.out_seq += 1;
            out(StreamElement::Event(Event::new(end, self.out_seq, row)));
        }
    }

    fn emit_fiba_window(&mut self, end: Timestamp, start: Timestamp, key: &Key) -> Row {
        // quill-lint: allow(no-panic, reason = "emit_fiba_window is only called from drain_pending_fiba, which already held the fiba state")
        let fs = self.fiba.as_mut().expect("fiba path");
        let (s, e) = (start.raw(), end.raw());
        let mut combined: Option<Pane> = None;
        let mut order: Vec<OrderStat> = Vec::new();
        if let Some(ks) = fs.keys.get_mut(key) {
            // Registered windows have `end ≥ 1` (start ≥ 0, length ≥ 1), so
            // the inclusive upper bound `(end − 1, MAX)` cannot underflow.
            // Slices never straddle a window boundary, so the slices starting
            // in `[start, end)` hold exactly the window's events.
            combined = ks.time.range_agg((s, 0), (e - 1, u64::MAX)).0;
            order = ks.windows.remove(&(end, start)).unwrap_or_default();
            // Bulk eviction: entries before the next possible window start of
            // this key (`start + slide`) can never be covered again. Pending
            // windows of this key all end after `end`, hence start at or
            // after `start + slide` on the slide grid.
            ks.time.evict_before((s.saturating_add(fs.slide), 0));
            if ks.time.is_empty() && ks.windows.is_empty() {
                if let Some(emptied) = fs.keys.remove(key) {
                    if fs.spare.len() < SPARE_KEY_STATES {
                        fs.spare.push(emptied);
                    }
                }
            }
        }
        let count = combined.as_ref().map_or(0, |slice| slice.rows);
        let mut aggregates = Vec::with_capacity(self.aggs.len());
        let mut oi = 0;
        for (spec, slot) in self.aggs.iter().zip(&fs.slots) {
            match slot {
                Some(j) => aggregates.push(match &combined {
                    Some(slice) => slice.partials[*j].finalize(),
                    // Defensive: a registered window always covers ≥ 1
                    // accepted event, but emit an empty result rather than
                    // lose the window.
                    None => fs.template[*j].finalize(),
                }),
                None => {
                    let v = match order.get(oi) {
                        Some(OrderStat::Rank { p, tree }) => rank_quantile(tree, *p),
                        Some(OrderStat::Distinct(set)) => Value::Int(set.len() as i64),
                        // Defensive, as above: match each kind's empty-state
                        // finalize.
                        None => match spec.kind {
                            AggregateKind::DistinctCount => Value::Int(0),
                            _ => Value::Null,
                        },
                    };
                    aggregates.push(v);
                    oi += 1;
                }
            }
        }
        if self.trace.is_enabled() {
            self.trace.record(
                e,
                self.shard,
                TraceKind::WindowFinalize {
                    start: s,
                    end: e,
                    key: key.0.to_string(),
                    count,
                },
            );
        }
        if self.spans.is_enabled() {
            // Same semantics as the other paths: the watermark that drained
            // this pending entry closed the window (Flush sets it to MAX,
            // which carries no event time: zero lag).
            let closed = if self.watermark == Timestamp::MAX {
                e
            } else {
                self.watermark.raw()
            };
            self.spans
                .record(Stage::WindowFinalize, e, closed, self.shard);
        }
        WindowResult {
            key: key.0.clone(),
            window: Window::new(start, end),
            count,
            revision: 0,
            aggregates,
        }
        .to_row()
    }
}

/// Combine the panes of window `[start, end)` through the key's
/// [`FifoRun`], rebuilding it when the cache is stale (non-consecutive end,
/// or inserts since the last combine).
fn combine_window(
    kp: &mut KeyPanes,
    start: u64,
    end: u64,
    slide: u64,
    template: &[PaneAgg],
) -> Option<Combined> {
    let valid = kp
        .run
        .as_ref()
        .is_some_and(|r| r.next_end == end && r.epoch == kp.mods);
    if !valid {
        // Rebuild: every pane of this window goes to the back, combined
        // left-to-right (oldest first, preserving merge orientation).
        let mut back = Vec::with_capacity(((end - start) / slide) as usize);
        let mut back_agg: Option<Combined> = None;
        let mut p = start;
        while p < end {
            back.push(p);
            if let Some(pane) = kp.panes.get(&p) {
                merge_combined(&mut back_agg, &pane.partials, pane.rows);
            }
            p += slide;
        }
        let result = back_agg.clone();
        kp.run = Some(FifoRun {
            next_end: end.saturating_add(slide),
            epoch: kp.mods,
            front: Vec::new(),
            back,
            back_agg,
        });
        return result;
    }
    // quill-lint: allow(no-panic, reason = "the rebuild branch above returns early after setting kp.run = Some(...)")
    let run = kp.run.as_mut().expect("validated above");
    // Slide one step: admit pane `end − slide`, evict pane `start − slide`.
    let newest = end - slide;
    run.back.push(newest);
    if let Some(pane) = kp.panes.get(&newest) {
        merge_combined(&mut run.back_agg, &pane.partials, pane.rows);
    }
    if run.front.is_empty() {
        // Flip: turn the back into front entries caching suffix combines
        // (walk newest → oldest; each entry = pane ⊕ previous suffix).
        let mut suffix: Option<Combined> = None;
        for &p in run.back.iter().rev() {
            let mut entry: Combined = match kp.panes.get(&p) {
                // quill-lint: allow(hot-path-alloc, reason = "two-stack flip: amortized one copy per pane per flip, not per event")
                Some(pane) => (pane.partials.clone(), pane.rows),
                None => (template.to_vec(), 0),
            };
            if let Some((sfx, srows)) = &suffix {
                for (a, b) in entry.0.iter_mut().zip(sfx) {
                    a.merge(b);
                }
                entry.1 += srows;
            }
            // quill-lint: allow(hot-path-alloc, reason = "suffix cache of the flip; same amortized bound as above")
            suffix = Some(entry.clone());
            run.front.push((p, entry));
        }
        run.back.clear();
        run.back_agg = None;
    }
    let evicted = run.front.pop();
    debug_assert_eq!(
        evicted.as_ref().map(|(p, _)| *p),
        Some(start - slide),
        "front top must be the expired pane"
    );
    let result = match run.front.last() {
        Some((_, (sfx, srows))) => {
            let mut out = (sfx.clone(), *srows);
            if let Some((b, brows)) = &run.back_agg {
                for (a, x) in out.0.iter_mut().zip(b) {
                    a.merge(x);
                }
                out.1 += brows;
            }
            Some(out)
        }
        None => run.back_agg.clone(),
    };
    run.next_end = end.saturating_add(slide);
    run.epoch = kp.mods;
    result
}

/// Fold a later pane into an accumulating combined partial.
fn merge_combined(acc: &mut Option<Combined>, partials: &[PaneAgg], rows: u64) {
    match acc {
        None => *acc = (partials.to_vec(), rows).into(),
        Some((aggs, n)) => {
            for (a, b) in aggs.iter_mut().zip(partials) {
                a.merge(b);
            }
            *n += rows;
        }
    }
}

impl Operator for WindowAggregateOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
        match el {
            StreamElement::Event(e) => {
                if self.fiba.is_some() {
                    self.fold_event_fiba(&e);
                } else if self.paned.is_some() {
                    self.fold_event_paned(&e);
                } else {
                    self.fold_event(&e);
                    self.emit_revisions(&e, out);
                }
            }
            StreamElement::Watermark(wm) => self.advance_watermark(wm, out),
            StreamElement::Flush => {
                self.advance_watermark(Timestamp::MAX, out);
                out(StreamElement::Flush);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;

    fn op(spec: WindowSpec, policy: LatePolicy) -> WindowAggregateOp {
        WindowAggregateOp::new(
            spec,
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
            policy,
        )
        .unwrap()
    }

    fn ev(ts: u64, seq: u64, v: f64) -> StreamElement {
        StreamElement::Event(Event::new(ts, seq, Row::new([Value::Float(v)])))
    }

    fn run(op: &mut WindowAggregateOp, input: Vec<StreamElement>) -> Vec<WindowResult> {
        let mut outs = Vec::new();
        for el in input {
            op.process(el, &mut |o| outs.push(o));
        }
        outs.iter()
            .filter_map(|o| o.as_event())
            .filter_map(|e| WindowResult::from_row(&e.row))
            .collect()
    }

    #[test]
    fn tumbling_sum_emits_on_watermark() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![
                ev(1, 1, 1.0),
                ev(5, 2, 2.0),
                ev(12, 3, 4.0),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(10)));
        assert_eq!(results[0].aggregates[0], Value::Float(3.0));
        assert_eq!(results[0].count, 2);
        assert_eq!(results[1].aggregates[0], Value::Float(4.0));
        assert_eq!(w.stats().windows_emitted, 2);
    }

    #[test]
    fn out_of_order_event_before_watermark_is_included() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![ev(8, 1, 1.0), ev(2, 2, 2.0), StreamElement::Flush],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].aggregates[0], Value::Float(3.0));
        assert_eq!(w.stats().late_dropped, 0);
    }

    #[test]
    fn late_event_is_dropped_and_counted_under_drop_policy() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 99.0), // window [0,10) already emitted
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].aggregates[0], Value::Float(1.0));
        assert_eq!(w.stats().late_dropped, 1);
        assert_eq!(w.stats().accepted, 1);
    }

    #[test]
    fn late_event_produces_revision_under_revise_policy() {
        let mut w = op(
            WindowSpec::tumbling(10u64),
            LatePolicy::Revise {
                allowed_lateness: 100,
            },
        );
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].revision, 0);
        assert_eq!(results[0].aggregates[0], Value::Float(1.0));
        assert_eq!(results[1].revision, 1);
        assert_eq!(results[1].aggregates[0], Value::Float(3.0));
        assert_eq!(w.stats().revisions, 1);
    }

    #[test]
    fn revise_policy_drops_past_allowed_lateness() {
        let mut w = op(
            WindowSpec::tumbling(10u64),
            LatePolicy::Revise {
                allowed_lateness: 5,
            },
        );
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(20)), // wm > end+5 → state GC'd
                ev(3, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(w.stats().late_dropped, 1);
        assert_eq!(w.open_windows(), 0);
    }

    #[test]
    fn keyed_aggregation_separates_groups() {
        let mut w = WindowAggregateOp::new(
            WindowSpec::tumbling(10u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
            LatePolicy::Drop,
        )
        .unwrap();
        let mk = |ts: u64, seq: u64, k: &str, v: f64| {
            StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([Value::str(k), Value::Float(v)]),
            ))
        };
        let results = run(
            &mut w,
            vec![
                mk(1, 1, "a", 1.0),
                mk(2, 2, "b", 10.0),
                mk(3, 3, "a", 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        let mut sums: Vec<(String, f64)> = results
            .iter()
            .map(|r| {
                (
                    r.key.as_str().unwrap().to_string(),
                    r.aggregates[0].as_f64().unwrap(),
                )
            })
            .collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(sums, vec![("a".into(), 3.0), ("b".into(), 10.0)]);
    }

    #[test]
    fn sliding_windows_count_events_in_each_instance() {
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(10u64, 5u64),
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        let results = run(&mut w, vec![ev(7, 1, 1.0), StreamElement::Flush]);
        // ts=7 belongs to [0,10) and [5,15).
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(10)));
        assert_eq!(results[1].window, Window::new(Timestamp(5), Timestamp(15)));
        for r in &results {
            assert_eq!(r.aggregates[0], Value::Int(1));
        }
    }

    #[test]
    fn emission_order_is_by_window_end() {
        let mut w = op(WindowSpec::sliding(10u64, 5u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![
                ev(3, 1, 1.0),
                ev(13, 2, 2.0),
                ev(23, 3, 4.0),
                StreamElement::Flush,
            ],
        );
        let ends: Vec<u64> = results.iter().map(|r| r.window.end.raw()).collect();
        let mut sorted = ends.clone();
        sorted.sort();
        assert_eq!(ends, sorted);
    }

    #[test]
    fn watermarks_are_forwarded_and_never_regress() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let mut outs = Vec::new();
        w.process(StreamElement::Watermark(Timestamp(10)), &mut |o| {
            outs.push(o)
        });
        w.process(StreamElement::Watermark(Timestamp(5)), &mut |o| {
            outs.push(o)
        });
        w.process(StreamElement::Watermark(Timestamp(20)), &mut |o| {
            outs.push(o)
        });
        let wms: Vec<Timestamp> = outs.iter().filter_map(|o| o.implied_watermark()).collect();
        assert_eq!(wms, vec![Timestamp(10), Timestamp(20)]);
    }

    #[test]
    fn result_row_roundtrip() {
        let r = WindowResult {
            key: Value::str("k"),
            window: Window::new(Timestamp(0), Timestamp(10)),
            count: 3,
            revision: 1,
            aggregates: vec![Value::Float(1.5), Value::Int(2)],
        };
        assert_eq!(WindowResult::from_row(&r.to_row()), Some(r));
    }

    #[test]
    fn rejects_empty_aggregate_list() {
        assert!(WindowAggregateOp::new(
            WindowSpec::tumbling(10u64),
            vec![],
            None,
            LatePolicy::Drop
        )
        .is_err());
    }

    fn approx_eq(a: &WindowResult, b: &WindowResult) {
        assert_eq!(a.window, b.window);
        assert_eq!(a.key, b.key);
        assert_eq!(a.count, b.count);
        for (x, y) in a.aggregates.iter().zip(&b.aggregates) {
            match (x, y) {
                (Value::Float(x), Value::Float(y)) => assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "float aggregate diverged: {x} vs {y}"
                ),
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn sliding_sum_variance_share_pane_state() {
        // Acceptance: sliding Sum/Variance must not recompute from raw
        // window contents on emit — exactly one aggregate fold per event on
        // the shared-pane path, vs. one per covering window instance on the
        // per-window path.
        let mk = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(100u64, 20u64),
                vec![
                    AggregateSpec::new(AggregateKind::Sum, 0, "s"),
                    AggregateSpec::new(AggregateKind::Variance, 0, "v"),
                ],
                None,
                LatePolicy::Drop,
            )
            .unwrap()
        };
        let mut paned = mk();
        assert!(paned.shares_panes());
        let mut legacy = mk().with_shared_panes(false);
        assert!(!legacy.shares_panes());
        let n = 500u64;
        let input: Vec<StreamElement> = (0..n)
            .map(|i| ev(i * 3, i, (i % 13) as f64))
            .chain([StreamElement::Flush])
            .collect();
        let rp = run(&mut paned, input.clone());
        let rl = run(&mut legacy, input);
        assert_eq!(
            paned.stats().agg_inserts,
            n,
            "pane path must fold each event exactly once"
        );
        assert!(
            legacy.stats().agg_inserts > 4 * n,
            "per-window path folds each event into ~length/slide instances, got {}",
            legacy.stats().agg_inserts
        );
        assert_eq!(rp.len(), rl.len());
        for (a, b) in rp.iter().zip(&rl) {
            approx_eq(a, b);
        }
        assert_eq!(paned.open_windows(), 0);
        assert_eq!(paned.stats().accepted, legacy.stats().accepted);
    }

    #[test]
    fn pane_path_matches_per_window_under_disorder_and_lateness() {
        let mk = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(40u64, 10u64),
                vec![
                    AggregateSpec::new(AggregateKind::Count, 0, "n"),
                    AggregateSpec::new(AggregateKind::Max, 0, "m"),
                    AggregateSpec::new(AggregateKind::Last, 0, "l"),
                ],
                None,
                LatePolicy::Drop,
            )
            .unwrap()
        };
        let mut input = Vec::new();
        for i in 0..300u64 {
            // Deterministic disorder: every 7th event jumps far back — far
            // enough that all its windows are behind the watermark (late),
            // given the watermark lag of 30..130 plus window length 40.
            let ts = if i % 7 == 3 {
                (i * 5).saturating_sub(200)
            } else {
                i * 5
            };
            input.push(ev(ts, i, (ts % 11) as f64));
            if i % 20 == 19 {
                input.push(StreamElement::Watermark(Timestamp(
                    (i * 5).saturating_sub(30),
                )));
            }
        }
        input.push(StreamElement::Flush);
        let mut paned = mk();
        let mut legacy = mk().with_shared_panes(false);
        assert!(paned.shares_panes() && !legacy.shares_panes());
        let rp = run(&mut paned, input.clone());
        let rl = run(&mut legacy, input);
        // Count/Max/Last over identical f64s are bit-exact on both paths.
        assert_eq!(rp, rl);
        assert_eq!(paned.stats().accepted, legacy.stats().accepted);
        assert_eq!(paned.stats().late_dropped, legacy.stats().late_dropped);
        assert_eq!(
            paned.stats().windows_emitted,
            legacy.stats().windows_emitted
        );
        assert!(
            paned.stats().late_dropped > 0,
            "disorder must produce lates"
        );
    }

    #[test]
    fn keyed_pane_path_matches_per_window() {
        let mk = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(30u64, 10u64),
                vec![AggregateSpec::new(AggregateKind::Mean, 1, "mean")],
                Some(0),
                LatePolicy::Drop,
            )
            .unwrap()
        };
        let mut input: Vec<StreamElement> = (0..200u64)
            .map(|i| {
                StreamElement::Event(Event::new(
                    i * 4,
                    i,
                    Row::new([Value::Int((i % 5) as i64), Value::Float((i % 17) as f64)]),
                ))
            })
            .collect();
        input.push(StreamElement::Flush);
        let mut paned = mk();
        let mut legacy = mk().with_shared_panes(false);
        let rp = run(&mut paned, input.clone());
        let rl = run(&mut legacy, input);
        assert_eq!(rp.len(), rl.len());
        for (a, b) in rp.iter().zip(&rl) {
            approx_eq(a, b);
        }
    }

    #[test]
    fn pane_path_requires_divisible_overlapping_sliding_and_drop() {
        let aggs = || vec![AggregateSpec::new(AggregateKind::Sum, 0, "s")];
        let eligible = WindowAggregateOp::new(
            WindowSpec::sliding(100u64, 25u64),
            aggs(),
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        assert!(eligible.shares_panes());
        for (spec, policy) in [
            (WindowSpec::tumbling(100u64), LatePolicy::Drop),
            (WindowSpec::sliding(100u64, 30u64), LatePolicy::Drop), // 30 ∤ 100
            (WindowSpec::sliding(100u64, 100u64), LatePolicy::Drop), // no overlap
            (
                WindowSpec::sliding(100u64, 25u64),
                LatePolicy::Revise {
                    allowed_lateness: 10,
                },
            ),
        ] {
            let op = WindowAggregateOp::new(spec, aggs(), None, policy).unwrap();
            assert!(!op.shares_panes(), "{spec:?} {policy:?}");
        }
        // Non-combinable aggregates pin the per-window path too.
        let median = WindowAggregateOp::new(
            WindowSpec::sliding(100u64, 25u64),
            vec![AggregateSpec::new(AggregateKind::Median, 0, "m")],
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        assert!(!median.shares_panes());
    }

    #[test]
    fn trace_records_finalize_and_late_drops() {
        let rec = FlightRecorder::new(64);
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        w.attach_trace(&rec, 3);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 99.0), // window [0,10) already finalized
                StreamElement::Flush,
            ],
        );
        let evs = rec.events();
        let fins: Vec<&quill_telemetry::trace::TraceEvent> = evs
            .iter()
            .filter(|t| matches!(t.kind, TraceKind::WindowFinalize { .. }))
            .collect();
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].shard, 3);
        match &fins[0].kind {
            TraceKind::WindowFinalize {
                start,
                end,
                key,
                count,
            } => {
                assert_eq!((*start, *end, key.as_str(), *count), (0, 10, "null", 1));
            }
            _ => unreachable!(),
        }
        let drops: Vec<(u64, Vec<(u64, u64)>)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::LateDrop { event_seq, windows } => Some((*event_seq, windows.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(2, vec![(0, 10)])]);
    }

    #[test]
    fn paned_path_traces_finalize_and_late_drops() {
        let rec = FlightRecorder::new(256);
        let mut w = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop);
        assert!(w.shares_panes());
        w.attach_trace(&rec, 0);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                ev(15, 2, 2.0),
                StreamElement::Watermark(Timestamp(40)),
                ev(3, 3, 9.0), // only window [0,20), finalized at wm=40
                StreamElement::Flush,
            ],
        );
        let evs = rec.events();
        let fins: Vec<(u64, u64, u64)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::WindowFinalize {
                    start, end, count, ..
                } => Some((*start, *end, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(fins, vec![(0, 20, 2), (10, 30, 1)]);
        let drops: Vec<(u64, Vec<(u64, u64)>)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::LateDrop { event_seq, windows } => Some((*event_seq, windows.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(3, vec![(0, 20)])]);
        assert_eq!(w.stats().late_dropped, 1);
    }

    #[test]
    fn spans_record_window_finalize_lag_on_both_paths() {
        // Per-window path: window [0,10) closes at wm=25 → span [10, 25];
        // flush-forced window [30,40) records zero lag.
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        w.attach_spans(&spans, 5);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(25)),
                ev(35, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        let rec = spans.spans();
        assert!(rec
            .iter()
            .all(|s| s.stage == Stage::WindowFinalize && s.shard == 5));
        let pairs: Vec<(u64, u64)> = rec.iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(10, 25), (40, 40)]);

        // Paned path: same span semantics from the shared-pane emitter.
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop);
        assert!(w.shares_panes());
        w.attach_spans(&spans, 0);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                ev(15, 2, 2.0),
                StreamElement::Watermark(Timestamp(40)),
                StreamElement::Flush,
            ],
        );
        let pairs: Vec<(u64, u64)> = spans.spans().iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(20, 40), (30, 40)]);
    }

    #[test]
    fn flush_emits_everything() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![ev(5, 1, 1.0), ev(105, 2, 2.0), StreamElement::Flush],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(w.open_windows(), 0);
    }

    #[test]
    fn fiba_backend_selection_and_revise_fallback() {
        // Fiba applies to any tumbling/sliding shape under Drop, including
        // shapes the pane path rejects (tumbling, misaligned slides) and
        // non-combinable aggregates.
        for spec in [
            WindowSpec::tumbling(10u64),
            WindowSpec::sliding(100u64, 30u64), // 30 ∤ 100
            WindowSpec::sliding(20u64, 10u64),
        ] {
            let w = op(spec, LatePolicy::Drop).with_window_state(WindowState::Fiba);
            assert_eq!(w.window_state(), WindowState::Fiba, "{spec:?}");
            assert!(!w.shares_panes());
        }
        let median = WindowAggregateOp::new(
            WindowSpec::sliding(100u64, 25u64),
            vec![AggregateSpec::new(AggregateKind::Median, 0, "m")],
            None,
            LatePolicy::Drop,
        )
        .unwrap()
        .with_window_state(WindowState::Fiba);
        assert_eq!(median.window_state(), WindowState::Fiba);
        // Revise needs retained per-window state → legacy fallback, and
        // switching back to Legacy restores pane eligibility.
        let revise = op(
            WindowSpec::tumbling(10u64),
            LatePolicy::Revise {
                allowed_lateness: 5,
            },
        )
        .with_window_state(WindowState::Fiba);
        assert_eq!(revise.window_state(), WindowState::Legacy);
        let back = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop)
            .with_window_state(WindowState::Fiba)
            .with_window_state(WindowState::Legacy);
        assert_eq!(back.window_state(), WindowState::Legacy);
        assert!(back.shares_panes());
    }

    #[test]
    fn fiba_matches_legacy_under_disorder_and_lateness() {
        // Same deterministic disorder as the pane differential above, but on
        // the FiBA backend with an order-insensitive aggregate mix whose
        // outputs are bit-exact regardless of combine shape.
        let mk = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(40u64, 10u64),
                vec![
                    AggregateSpec::new(AggregateKind::Count, 0, "n"),
                    AggregateSpec::new(AggregateKind::Max, 0, "m"),
                    AggregateSpec::new(AggregateKind::Last, 0, "l"),
                    AggregateSpec::new(AggregateKind::Median, 0, "med"),
                    AggregateSpec::new(AggregateKind::DistinctCount, 0, "d"),
                ],
                None,
                LatePolicy::Drop,
            )
            .unwrap()
        };
        let mut input = Vec::new();
        for i in 0..300u64 {
            let ts = if i % 7 == 3 {
                (i * 5).saturating_sub(200)
            } else {
                i * 5
            };
            input.push(ev(ts, i, (ts % 11) as f64));
            if i % 20 == 19 {
                input.push(StreamElement::Watermark(Timestamp(
                    (i * 5).saturating_sub(30),
                )));
            }
        }
        input.push(StreamElement::Flush);
        let mut fiba = mk().with_window_state(WindowState::Fiba);
        let mut legacy = mk();
        assert_eq!(fiba.window_state(), WindowState::Fiba);
        assert_eq!(legacy.window_state(), WindowState::Legacy);
        let rf = run(&mut fiba, input.clone());
        let rl = run(&mut legacy, input);
        assert_eq!(rf, rl);
        assert_eq!(fiba.stats().accepted, legacy.stats().accepted);
        assert_eq!(fiba.stats().late_dropped, legacy.stats().late_dropped);
        assert_eq!(fiba.stats().windows_emitted, legacy.stats().windows_emitted);
        assert!(fiba.stats().late_dropped > 0, "disorder must produce lates");
        assert_eq!(fiba.open_windows(), 0, "flush must drain all fiba state");
    }

    #[test]
    fn keyed_fiba_matches_legacy_with_misaligned_slide_and_order_stats() {
        // Misaligned slide (7 ∤ 30) + order statistics: the pane path is
        // ineligible either way, so this pits FiBA directly against the
        // per-window reference. Integer-valued floats keep Mean/Quantile
        // arithmetic bit-identical (same sums, same interpolation formula).
        let mk = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(30u64, 7u64),
                vec![
                    AggregateSpec::new(AggregateKind::Mean, 1, "mean"),
                    AggregateSpec::new(AggregateKind::Median, 1, "med"),
                    AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
                    AggregateSpec::new(AggregateKind::DistinctCount, 1, "d"),
                ],
                Some(0),
                LatePolicy::Drop,
            )
            .unwrap()
        };
        let mut input = Vec::new();
        for i in 0..250u64 {
            // Mild disorder: every 5th event arrives 31 units back.
            let ts = if i % 5 == 2 {
                (i * 3).saturating_sub(31)
            } else {
                i * 3
            };
            input.push(StreamElement::Event(Event::new(
                ts,
                i,
                Row::new([Value::Int((i % 4) as i64), Value::Float((i % 23) as f64)]),
            )));
            if i % 25 == 24 {
                input.push(StreamElement::Watermark(Timestamp(
                    (i * 3).saturating_sub(40),
                )));
            }
        }
        input.push(StreamElement::Flush);
        let mut fiba = mk().with_window_state(WindowState::Fiba);
        let mut legacy = mk();
        let rf = run(&mut fiba, input.clone());
        let rl = run(&mut legacy, input);
        assert_eq!(rf, rl);
        assert_eq!(fiba.stats().accepted, legacy.stats().accepted);
        assert_eq!(fiba.stats().late_dropped, legacy.stats().late_dropped);
    }

    #[test]
    fn fiba_path_traces_finalize_late_drops_and_spans() {
        // Identical scenario to the paned trace/span tests: the FiBA path
        // must hit the same telemetry hooks with the same payloads.
        let rec = FlightRecorder::new(256);
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop)
            .with_window_state(WindowState::Fiba);
        w.attach_trace(&rec, 0);
        w.attach_spans(&spans, 0);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                ev(15, 2, 2.0),
                StreamElement::Watermark(Timestamp(40)),
                ev(3, 3, 9.0), // only window [0,20), finalized at wm=40
                StreamElement::Flush,
            ],
        );
        let evs = rec.events();
        let fins: Vec<(u64, u64, u64)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::WindowFinalize {
                    start, end, count, ..
                } => Some((*start, *end, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(fins, vec![(0, 20, 2), (10, 30, 1)]);
        let drops: Vec<(u64, Vec<(u64, u64)>)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::LateDrop { event_seq, windows } => Some((*event_seq, windows.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(3, vec![(0, 20)])]);
        let pairs: Vec<(u64, u64)> = spans.spans().iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(20, 40), (30, 40)]);
    }
}
