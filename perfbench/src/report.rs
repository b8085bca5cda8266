//! Rendering: the printed table, the full JSON report line, and the
//! result line the benchmark ends its output with.

use crate::host::Host;
use crate::run::{layer_unit, Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// What was run.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per run, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run or untraced (end-to-end) run.
    pub trace: bool,
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metric_obj(value: f64, unit: &str) -> String {
    format!(
        "{{\"value\":{},\"unit\":{}}}",
        json_num(value),
        json_str(unit)
    )
}

/// The result line: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (untraced) or every per-layer metric (traced) by name
/// with its unit. A layer a workload's path does not run reports 0.
pub fn result_line(inv: &Invocation, o: &Outcome) -> String {
    let metrics: Vec<String> = if inv.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = o.layers.get(*name).copied().filter(|v| v.is_finite());
                format!("{}:{}", json_str(name), metric_obj(v.unwrap_or(0.0), unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = o.e2e.get(*name).map(|(v, _)| *v).filter(|v| v.is_finite());
                format!("{}:{}", json_str(name), metric_obj(v.unwrap_or(0.0), unit))
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted().max(1),
        o.failed(),
        metrics.join(",")
    )
}

/// One JSON line holding everything measured: provenance, every metric,
/// every check and fact.
pub fn report_line(inv: &Invocation, host: &Host, o: &Outcome) -> String {
    let e2e: Vec<String> = o
        .e2e
        .iter()
        .map(|(k, (v, u))| format!("{}:{}", json_str(k), metric_obj(*v, u)))
        .collect();
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), metric_obj(*v, layer_unit(k))))
        .collect();
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"attempted\":{},\"failed\":{},\"detail\":{}}}",
                json_str(&c.name),
                c.attempted,
                c.failed,
                json_str(&c.detail)
            )
        })
        .collect();
    let facts: Vec<String> = o
        .facts
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"cpus_online\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{}}},\
         \"samples\":{},\"events_per_sample\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}},\
         \"checks\":[{}],\"facts\":{{{}}}}}}}",
        json_str(&inv.workload),
        inv.seed,
        json_num(inv.seconds),
        inv.trace,
        host.cpus_online,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        json_str(&host.commit),
        o.samples,
        o.events,
        e2e.join(","),
        layers.join(","),
        checks.join(","),
        facts.join(",")
    )
}

/// The human-readable report.
pub fn text(inv: &Invocation, host: &Host, o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench {} seed={} seconds={} trace={}",
        inv.workload, inv.seed, inv.seconds, inv.trace as u8
    );
    let _ = writeln!(
        s,
        "host: cpus_online={} cpu={:?} rustc={:?} commit={}",
        host.cpus_online, host.cpu_model, host.rustc, host.commit
    );
    let _ = writeln!(
        s,
        "{} {} of {} events each",
        o.samples,
        if inv.trace {
            "traced rounds"
        } else {
            "timed samples"
        },
        o.events
    );
    let _ = writeln!(s, "end-to-end:");
    for (k, (v, u)) in &o.e2e {
        let _ = writeln!(s, "  {k:<36} {v:>16.4} {u}");
    }
    if inv.trace {
        let _ = writeln!(
            s,
            "per-layer (medians over rounds; '-' = not on this path):"
        );
        for (k, u) in PER_LAYER {
            match o.layers.get(k) {
                Some(v) => {
                    let _ = writeln!(s, "  {k:<36} {v:>16.4} {u}");
                }
                None => {
                    let _ = writeln!(s, "  {k:<36} {:>16} {u}", "-");
                }
            }
        }
    }
    let _ = writeln!(s, "checks:");
    for c in &o.checks {
        let _ = writeln!(
            s,
            "  [{}] {}: {} checked, {} failed{}",
            if c.passed() { "ok" } else { "FAIL" },
            c.name,
            c.attempted,
            c.failed,
            if c.failed > 0 {
                format!(" ({})", c.detail)
            } else {
                String::new()
            }
        );
    }
    for (k, v) in &o.facts {
        let _ = writeln!(s, "{k}: {v}");
    }
    s
}
