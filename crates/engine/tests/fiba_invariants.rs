//! Structural-invariant fuzz for the finger B-tree aggregator.
//!
//! A seeded operation fuzz drives `FibaTree` through adversarial insert /
//! bulk-evict mixes (appends, prepends, tie storms, deep stragglers,
//! uniform noise) and calls [`FibaTree::check_invariants`] after **every**
//! mutation: B-tree arity bounds, finger validity, parent partial-aggregate
//! consistency and subtree counts. A flat mirror vector checks the
//! observable behaviour (length, order, aggregates, rank selection) so a
//! structurally valid but semantically wrong tree cannot pass.
//!
//! This suite runs in the CI `sim` job alongside the quill-sim
//! differential battery.

use quill_engine::fiba::{FibaItem, FibaTree};

/// Exact (wrapping) integer sum: parent partial-aggregate consistency is
/// checked with `==`, so the item must be associative and drift-free.
#[derive(Clone, Debug, PartialEq)]
struct Sum(u64);

impl FibaItem for Sum {
    fn combine(&mut self, later: &Self) {
        self.0 = self.0.wrapping_add(later.0);
    }
}

/// Tiny deterministic RNG (xorshift64*), independent of any external crate
/// state so failures reproduce from the seed alone.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Flat mirror of the tree: `(key, weight)` in stable key order.
struct Mirror {
    entries: Vec<((u64, u64), u64)>,
}

impl Mirror {
    fn insert(&mut self, key: (u64, u64), w: u64) {
        let at = self.entries.partition_point(|(k, _)| *k <= key);
        self.entries.insert(at, (key, w));
    }

    fn evict_before(&mut self, cut: (u64, u64)) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| *k >= cut);
        (before - self.entries.len()) as u64
    }

    fn range_sum(&self, lo: (u64, u64), hi: (u64, u64)) -> (Option<u64>, u64) {
        let mut acc: Option<u64> = None;
        let mut n = 0u64;
        for (k, w) in &self.entries {
            if *k >= lo && *k <= hi {
                n += 1;
                acc = Some(acc.unwrap_or(0).wrapping_add(*w));
            }
        }
        (acc, n)
    }
}

fn check(tree: &FibaTree<Sum>, seed: u64, step: usize, what: &str) {
    if let Err(e) = tree.check_invariants(&|a, b| a == b) {
        panic!("seed {seed} step {step} after {what}: {e}");
    }
}

fn fuzz_one_seed(seed: u64, steps: usize) {
    let mut rng = XorShift(seed | 1);
    let mut tree: FibaTree<Sum> = FibaTree::new();
    let mut mirror = Mirror {
        entries: Vec::new(),
    };
    let mut seq = 0u64;
    let mut min_ts = 0u64;
    let mut max_ts = 0u64;

    for step in 0..steps {
        let roll = rng.next() % 100;
        if roll < 70 || tree.is_empty() {
            // Insert, with the ts drawn from one of five adversarial
            // regimes chosen per step.
            let ts = match rng.next() % 5 {
                // In-order append near the right finger.
                0 => max_ts + rng.next() % 3,
                // Prepend near the left finger.
                1 => min_ts.saturating_sub(rng.next() % 3),
                // Tie storm: reuse an existing timestamp exactly.
                2 if !mirror.entries.is_empty() => {
                    let at = (rng.next() % mirror.entries.len() as u64) as usize;
                    mirror.entries[at].0 .0
                }
                // Deep straggler: far behind the current maximum.
                3 => max_ts.saturating_sub(50 + rng.next() % 200),
                // Uniform noise over the live span.
                _ => min_ts + rng.next() % (max_ts - min_ts + 10),
            };
            min_ts = min_ts.min(ts);
            max_ts = max_ts.max(ts);
            let key = (ts, seq);
            seq += 1;
            let w = rng.next() % 1_000;
            tree.insert(key, Sum(w));
            mirror.insert(key, w);
            check(&tree, seed, step, "insert");
        } else if roll < 85 {
            // Bulk eviction at a random rank's key (plus occasionally past
            // the end, which must empty the tree).
            let cut = if mirror.entries.is_empty() || rng.next().is_multiple_of(8) {
                (max_ts + 1, 0)
            } else {
                let at = (rng.next() % mirror.entries.len() as u64) as usize;
                mirror.entries[at].0
            };
            let dropped = tree.evict_before(cut);
            assert_eq!(
                dropped,
                mirror.evict_before(cut),
                "seed {seed} step {step}: eviction count diverged at cut {cut:?}"
            );
            check(&tree, seed, step, "evict_before");
            min_ts = mirror.entries.first().map_or(max_ts, |(k, _)| k.0);
        } else {
            // Read-only probes: random range aggregate + rank selection.
            let lo_ts = min_ts + rng.next() % (max_ts - min_ts + 5);
            let hi_ts = lo_ts + rng.next() % 60;
            let (lo, hi) = ((lo_ts, 0), (hi_ts, u64::MAX));
            let (got, got_n) = tree.range_agg(lo, hi);
            let (want, want_n) = mirror.range_sum(lo, hi);
            assert_eq!(got.map(|s| s.0), want, "seed {seed} step {step}: range_agg");
            assert_eq!(got_n, want_n, "seed {seed} step {step}: range count");
            let k = rng.next() % (mirror.entries.len() as u64 + 2);
            assert_eq!(
                tree.select(k),
                mirror.entries.get(k as usize).map(|(key, _)| *key),
                "seed {seed} step {step}: select({k})"
            );
        }
        assert_eq!(
            tree.len(),
            mirror.entries.len() as u64,
            "seed {seed} step {step}: length diverged"
        );
    }

    // End-state: traversal order and the full-range aggregate must match
    // the mirror exactly.
    let mut walked = Vec::new();
    tree.for_each(&mut |k, item| walked.push((k, item.0)));
    assert_eq!(walked, mirror.entries, "seed {seed}: final traversal order");
    let (total, n) = tree.range_agg((0, 0), (u64::MAX, u64::MAX));
    let (want_total, want_n) = mirror.range_sum((0, 0), (u64::MAX, u64::MAX));
    assert_eq!(total.map(|s| s.0), want_total, "seed {seed}: final total");
    assert_eq!(n, want_n, "seed {seed}: final count");
    assert_eq!(tree.min_key(), mirror.entries.first().map(|(k, _)| *k));
    assert_eq!(tree.max_key(), mirror.entries.last().map(|(k, _)| *k));
}

#[test]
fn invariants_hold_after_every_mutation_across_seeds() {
    for seed in [
        0x5eed_0001,
        0x5eed_0002,
        0xdead_beef,
        0x0bad_cafe,
        0x1234_5678,
        0xfeed_f00d,
    ] {
        fuzz_one_seed(seed, 3_000);
    }
}

#[test]
fn pure_append_and_pure_prepend_keep_fingers_valid() {
    // Degenerate regimes that stress one spine at a time: the finger
    // fast-path must stay valid while the opposite spine goes stale-cold.
    let mut tree: FibaTree<Sum> = FibaTree::new();
    for i in 0..2_000u64 {
        tree.insert((i, i), Sum(i));
        if i % 97 == 0 {
            tree.check_invariants(&|a, b| a == b)
                .unwrap_or_else(|e| panic!("append step {i}: {e}"));
        }
    }
    tree.check_invariants(&|a, b| a == b)
        .expect("after appends");
    let appends_cheap = tree.stats().finger_short_climbs;
    assert!(
        appends_cheap > 1_500,
        "appends should overwhelmingly take the finger fast path, got {appends_cheap}"
    );

    let mut tree: FibaTree<Sum> = FibaTree::new();
    for i in 0..2_000u64 {
        tree.insert((u64::MAX - i, i), Sum(i));
        if i % 97 == 0 {
            tree.check_invariants(&|a, b| a == b)
                .unwrap_or_else(|e| panic!("prepend step {i}: {e}"));
        }
    }
    tree.check_invariants(&|a, b| a == b)
        .expect("after prepends");
}

#[test]
fn repeated_grow_shrink_cycles_do_not_degrade_structure() {
    // Arena reuse under churn: grow to ~1k entries, evict ~90%, repeat.
    // Heights must stay logarithmic and invariants must hold at every
    // boundary.
    let mut tree: FibaTree<Sum> = FibaTree::new();
    let mut rng = XorShift(0xc0ff_ee00_c0ff_ee01);
    let mut seq = 0u64;
    let mut low = 0u64;
    for cycle in 0..20 {
        for _ in 0..1_000 {
            let ts = low + rng.next() % 500;
            tree.insert((ts, seq), Sum(1));
            seq += 1;
        }
        tree.check_invariants(&|a, b| a == b)
            .unwrap_or_else(|e| panic!("cycle {cycle} after growth: {e}"));
        assert!(
            tree.height() <= 7,
            "cycle {cycle}: height {} is not logarithmic for {} entries",
            tree.height(),
            tree.len()
        );
        low += 450;
        tree.evict_before((low, 0));
        tree.check_invariants(&|a, b| a == b)
            .unwrap_or_else(|e| panic!("cycle {cycle} after eviction: {e}"));
    }
    let (total, n) = tree.range_agg((0, 0), (u64::MAX, u64::MAX));
    assert_eq!(
        total.map(|s| s.0),
        Some(n),
        "unit weights must sum to the count"
    );
}

/// Slice-keyed mirror: one `(slice, 0)` entry per slice, its weight the sum
/// of every upsert into it.
fn mirror_upsert(mirror: &mut Mirror, key: (u64, u64), w: u64) -> bool {
    match mirror.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(at) => {
            mirror.entries[at].1 = mirror.entries[at].1.wrapping_add(w);
            false
        }
        Err(at) => {
            mirror.entries.insert(at, (key, w));
            true
        }
    }
}

/// The window operator's usage: unique `(slice, 0)` keys, each update
/// combined in place into its slice, bulk evictions behind a moving cut.
/// Regimes cover the rightmost slice (in-order), existing interior slices,
/// new interior slices and slices re-created below an earlier cut.
fn upsert_fuzz_one_seed(seed: u64, steps: usize) {
    let mut rng = XorShift(seed | 1);
    let mut tree: FibaTree<Sum> = FibaTree::new();
    let mut mirror = Mirror {
        entries: Vec::new(),
    };
    let mut max_slice = 0u64;
    let mut last_cut = 0u64;
    for step in 0..steps {
        let roll = rng.next() % 100;
        if roll < 80 || tree.is_empty() {
            let slice = match rng.next() % 5 {
                // In-order: the rightmost slice or the next one.
                0 | 1 => max_slice + rng.next() % 2,
                // An existing slice that is not the rightmost.
                2 if mirror.entries.len() > 1 => {
                    let at = (rng.next() % (mirror.entries.len() as u64 - 1)) as usize;
                    mirror.entries[at].0 .0
                }
                // Any slice over the live span, new ones included.
                3 => {
                    let lo = mirror.entries.first().map_or(max_slice, |(k, _)| k.0);
                    lo + rng.next() % (max_slice - lo + 1)
                }
                // Re-create a slice at or below the last cut.
                _ => last_cut.saturating_sub(rng.next() % 4),
            };
            max_slice = max_slice.max(slice);
            let key = (slice, 0);
            let w = rng.next() % 1_000;
            let created = tree.upsert_with(key, || Sum(0), |s| s.0 = s.0.wrapping_add(w));
            assert_eq!(
                created,
                mirror_upsert(&mut mirror, key, w),
                "seed {seed} step {step}: upsert({slice}) created-flag diverged"
            );
            check(&tree, seed, step, "upsert_with");
        } else if roll < 92 {
            let at = (rng.next() % mirror.entries.len() as u64) as usize;
            let cut = (mirror.entries[at].0 .0 + rng.next() % 2, 0);
            last_cut = cut.0;
            assert_eq!(
                tree.evict_before(cut),
                mirror.evict_before(cut),
                "seed {seed} step {step}: eviction count diverged at cut {cut:?}"
            );
            check(&tree, seed, step, "evict_before");
        } else {
            let lo_slice = rng.next() % (max_slice + 2);
            let (lo, hi) = ((lo_slice, 0), (lo_slice + rng.next() % 40, u64::MAX));
            let (got, got_n) = tree.range_agg(lo, hi);
            let (want, want_n) = mirror.range_sum(lo, hi);
            assert_eq!(got.map(|s| s.0), want, "seed {seed} step {step}: range_agg");
            assert_eq!(got_n, want_n, "seed {seed} step {step}: range count");
        }
        assert_eq!(
            tree.len(),
            mirror.entries.len() as u64,
            "seed {seed} step {step}: length diverged"
        );
    }
    let mut walked = Vec::new();
    tree.for_each(&mut |k, item| walked.push((k, item.0)));
    assert_eq!(walked, mirror.entries, "seed {seed}: final traversal order");
}

#[test]
fn upserts_hold_invariants_after_every_call_across_seeds() {
    for seed in [0x5eed_0101, 0x5eed_0102, 0xbead_feed, 0x0dd_ba11] {
        upsert_fuzz_one_seed(seed, 3_000);
    }
}

#[test]
fn upsert_into_interior_and_re_created_slices() {
    let mut tree: FibaTree<Sum> = FibaTree::new();
    // Enough slices for a multi-level tree.
    for slice in 0..100u64 {
        assert!(tree.upsert_with((slice, 0), || Sum(0), |s| s.0 += 1));
        check(&tree, 0, slice as usize, "append");
    }
    assert!(tree.height() > 1, "100 slices must span several levels");
    // In place into non-rightmost slices: no new entry, caches repaired.
    for slice in [0u64, 3, 41, 42, 98] {
        assert!(!tree.upsert_with((slice, 0), || Sum(0), |s| s.0 += 10));
        check(&tree, 1, slice as usize, "interior upsert");
    }
    assert_eq!(tree.len(), 100);
    assert_eq!(tree.range_agg((41, 0), (42, u64::MAX)), (Some(Sum(22)), 2));
    // Evict a prefix, then re-create slices below the cut: they come back as
    // fresh entries at the left end of the tree.
    assert_eq!(tree.evict_before((60, 0)), 60);
    check(&tree, 2, 0, "evict_before");
    for slice in [59u64, 10, 0] {
        assert!(tree.upsert_with((slice, 0), || Sum(0), |s| s.0 += 5));
        check(&tree, 3, slice as usize, "re-created slice");
    }
    assert_eq!(tree.min_key(), Some((0, 0)));
    assert_eq!(tree.range_agg((0, 0), (59, u64::MAX)), (Some(Sum(15)), 3));
    assert_eq!(tree.range_agg((0, 0), (u64::MAX, u64::MAX)).1, 43);
}
