//! Reference checks. Each runs once per invocation, outside the timed
//! samples, and feeds `error_share`: `attempted` counts the operations
//! checked, `failed` those that went wrong (a lost event, a refused frame
//! or registration, a result that is missing or differs).

use quill_core::prelude::*;
use quill_sim::oracle::{backend_values_close, naive_oracle, values_close};
use std::collections::{HashMap, HashSet};

/// Outcome of one reference check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked against what.
    pub name: String,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure, or `ok`.
    pub detail: String,
}

impl Check {
    /// A check with no failures yet.
    pub fn new(name: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            attempted: 0,
            failed: 0,
            detail: "ok".into(),
        }
    }

    /// Count one operation; a failure keeps the first failure's detail.
    pub fn record(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            if self.failed == 0 {
                self.detail = detail();
            }
            self.failed += 1;
        }
    }

    /// Add `other`'s counts to this check; its first failure, prefixed,
    /// becomes this check's detail if this one had none.
    pub fn absorb(&mut self, other: Check, prefix: &str) {
        if self.failed == 0 && other.failed > 0 {
            self.detail = format!("{prefix}{}", other.detail);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Whether nothing failed.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn sort_key(r: &WindowResult) -> (u64, u64, Key, u64) {
    (
        r.window.end.raw(),
        r.window.start.raw(),
        Key(r.key.clone()),
        r.revision,
    )
}

/// Whether two results agree: identical window, key, count and revision,
/// and every aggregate equal under the float nesting tolerance rule of
/// `quill_sim::oracle` (exact unless the aggregate is a non-associative
/// float reduction).
pub fn results_agree(a: &WindowResult, b: &WindowResult, query: &QuerySpec) -> bool {
    a.window == b.window
        && a.key == b.key
        && a.count == b.count
        && a.revision == b.revision
        && a.aggregates.len() == b.aggregates.len()
        && query
            .aggregates
            .iter()
            .zip(a.aggregates.iter().zip(&b.aggregates))
            .all(|(spec, (x, y))| backend_values_close(&spec.kind, x, y))
}

/// Compare `got` with the reference `want` element for element. With
/// `sorted`, both sides are first put in `(end, start, key, revision)`
/// order (the parallel executor merges shards in that order, while the
/// sequential operator emits per watermark). A missing or surplus result
/// counts as one failure.
pub fn compare_results(
    name: &str,
    got: &[WindowResult],
    want: &[WindowResult],
    query: &QuerySpec,
    sorted: bool,
) -> Check {
    let mut check = Check::new(name);
    let (mut g, mut w): (Vec<&WindowResult>, Vec<&WindowResult>) =
        (got.iter().collect(), want.iter().collect());
    if sorted {
        g.sort_by_key(|r| sort_key(r));
        w.sort_by_key(|r| sort_key(r));
    }
    for i in 0..g.len().max(w.len()) {
        match (g.get(i), w.get(i)) {
            (Some(a), Some(b)) => check.record(results_agree(a, b, query), || {
                format!("result {i} differs: got {a:?}, reference {b:?}")
            }),
            (None, Some(b)) => check.record(false, || format!("result {i} missing: {b:?}")),
            (Some(a), None) => check.record(false, || format!("surplus result {i}: {a:?}")),
            (None, None) => unreachable!("index below the longer length"),
        }
    }
    check
}

/// Check produced results against the naive full-sort oracle of
/// `quill-sim`, which shares no code with the engine: every first emission
/// names a real window at most once, never over-counts, and a window that
/// holds every true event carries exactly the true aggregates. The mean
/// completeness recomputed from the oracle's counts must also equal
/// `reported` (the value `quality_eval::score` produced).
pub fn check_against_oracle(
    name: &str,
    events: &[Event],
    query: &QuerySpec,
    results: &[WindowResult],
    reported: f64,
) -> Check {
    let naive = naive_oracle(events, query.window, &query.aggregates, query.key_field);
    let truth: HashMap<(u64, u64, String), usize> = naive
        .iter()
        .enumerate()
        .map(|(i, w)| ((w.end, w.start, w.key.to_string()), i))
        .collect();
    let mut produced: Vec<u64> = vec![0; naive.len()];
    let mut emitted: HashSet<usize> = HashSet::new();
    let mut check = Check::new(name);
    for r in results.iter().filter(|r| r.revision == 0) {
        let id = (r.window.end.raw(), r.window.start.raw(), r.key.to_string());
        let Some(&at) = truth.get(&id) else {
            check.record(false, || format!("window {id:?} is not in the oracle"));
            continue;
        };
        let nw = &naive[at];
        let first = emitted.insert(at);
        let values_ok = r.count < nw.count
            || (r.aggregates.len() == nw.aggregates.len()
                && r.aggregates
                    .iter()
                    .zip(&nw.aggregates)
                    .all(|(got, truth)| values_close(got, truth)));
        check.record(first && r.count <= nw.count && values_ok, || {
            format!(
                "window {id:?}: first={first} count {} vs true {}, values {:?} vs {:?}",
                r.count, nw.count, r.aggregates, nw.aggregates
            )
        });
        produced[at] = r.count;
    }
    let recomputed = if naive.is_empty() {
        1.0
    } else {
        naive
            .iter()
            .zip(&produced)
            .map(|(w, &p)| (p as f64 / w.count as f64).min(1.0))
            .sum::<f64>()
            / naive.len() as f64
    };
    check.record((recomputed - reported).abs() <= 1e-9, || {
        format!("completeness {reported} does not re-derive from oracle counts ({recomputed})")
    });
    check
}
