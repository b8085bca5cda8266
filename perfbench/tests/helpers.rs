//! The benchmark's own helpers: order statistics, the tail-percentile
//! rule, residue arithmetic, and seed plumbing.

use quill_perfbench::inputs::{self, Scale};
use quill_perfbench::run::{
    overhead_share, per, residue_per, residue_share, END_TO_END, PER_LAYER,
};
use quill_perfbench::stats::{
    highest_supported_percentile, iqr_share, median, percentile_sorted, quartiles,
};
use quill_perfbench::workloads::WORKLOADS;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
}

/// A sample and its `(q1, median, q3)`.
type QuartileCase<'a> = (&'a [f64], (f64, f64, f64));

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    let cases: [QuartileCase; 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 3.0, 4.5)),
        (&[3.0, 1.0], (0.5, 2.0, 3.5)),
        (&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0], (2.0, 4.0, 7.0)),
    ];
    for (values, (q1, q2, q3)) in cases {
        let (a, b, c) = quartiles(values);
        assert!(
            close(a, q1) && close(b, q2) && close(c, q3),
            "{values:?}: {a} {b} {c}"
        );
    }
}

#[test]
fn iqr_share_is_quartile_distance_over_median() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert!(close(iqr_share(&v), (8.25 - 2.75) / 5.5));
    assert_eq!(iqr_share(&[4.0; 10]), 0.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(99), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(1_000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    // The rule as stated: at least ten samples lie beyond the choice.
    for n in [20usize, 150, 1_000, 4_321, 48_000] {
        let p = highest_supported_percentile(n).expect("n >= 20");
        let sample: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let cut = percentile_sorted(&sample, p);
        assert!(
            sample.iter().filter(|&&x| x > cut).count() >= 10,
            "n={n} p={p}"
        );
    }
}

#[test]
fn nearest_rank_percentile() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&v, 50.0), 50.0);
    assert_eq!(percentile_sorted(&v, 99.0), 99.0);
    assert_eq!(percentile_sorted(&v, 100.0), 100.0);
    assert_eq!(percentile_sorted(&v, 0.0), 1.0);
}

#[test]
fn residue_arithmetic() {
    // 1000 ns of wall time, layers explain 700: 30% unexplained, 3 ns per
    // event over 100 events.
    assert!(close(residue_share(1000.0, &[400.0, 300.0]), 0.3));
    assert!(close(residue_per(1000.0, &[400.0, 300.0], 100.0), 3.0));
    // Layers timed alone can add up to more than the path: negative.
    assert!(close(residue_share(1000.0, &[800.0, 300.0]), -0.1));
    // Degenerate denominators give 0, never NaN.
    assert_eq!(residue_share(0.0, &[1.0]), 0.0);
    assert_eq!(residue_per(10.0, &[1.0], 0.0), 0.0);
    assert!(close(overhead_share(1100.0, 1000.0), 0.1));
    assert_eq!(overhead_share(1.0, 0.0), 0.0);
    assert_eq!(per(1.0, 0.0), 0.0);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let s = Scale::TINY;
    let a = inputs::netmon_events(s, s.netmon, 11);
    assert_eq!(a, inputs::netmon_events(s, s.netmon, 11));
    assert_ne!(a, inputs::netmon_events(s, s.netmon, 12));
    // The session stream is a prefix-sized draw of the same generator.
    assert_eq!(
        inputs::netmon_events(s, s.session, 11),
        inputs::netmon_events(s, s.session, 11)
    );
    let b = inputs::stock_events(s.stock, 11);
    assert_eq!(b, inputs::stock_events(s.stock, 11));
    assert_ne!(b, inputs::stock_events(s.stock, 12));
    assert_eq!(inputs::qbin_stream(&a), inputs::qbin_stream(&a.clone()));
    assert_ne!(
        inputs::qbin_stream(&a),
        inputs::qbin_stream(&inputs::netmon_events(s, s.netmon, 12))
    );
}

#[test]
fn qbin_stream_frames_every_event() {
    let s = Scale::TINY;
    let events = inputs::netmon_events(s, 100, 3);
    let bytes = inputs::qbin_stream(&events);
    assert_eq!(&bytes[..4], quill_serve::wire::BINARY_MAGIC);
    let (mut at, mut frames) = (4usize, Vec::new());
    while at < bytes.len() {
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        frames.push(quill_serve::wire::decode_payload(&bytes[at + 4..at + 4 + len]).unwrap());
        at += 4 + len;
    }
    assert_eq!(frames.len(), events.len());
    for (f, e) in frames.iter().zip(&events) {
        assert_eq!(f, &inputs::frame_of(e));
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_result_line_prints() {
    let json = include_str!("../../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    let listed = json.matches("\"unit\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "no extra metrics"
    );
    for (name, _, _) in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "workload {name}"
        );
    }
}
