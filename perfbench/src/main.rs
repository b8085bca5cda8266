//! `quill-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable report, one JSON report line, and as its last line the
//! result object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits non-zero when a reference check fails.

use quill_perfbench::alloc::{self, CountingAlloc};
use quill_perfbench::host::{peak_rss_mb, Host};
use quill_perfbench::inputs::Scale;
use quill_perfbench::report::{self, Invocation};
use quill_perfbench::run::per;
use quill_perfbench::spans;
use quill_perfbench::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: quill-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Invocation, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Invocation {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the traced run's spans go: under the build directory, which the
/// repository ignores.
fn spans_path(inv: &Invocation) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    root.join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", inv.workload, inv.seed))
}

fn main() -> ExitCode {
    let inv = match parse_args() {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("quill-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, runner, why)) = WORKLOADS.iter().find(|(name, _, _)| *name == inv.workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _, _)| *n).collect();
        eprintln!(
            "quill-perfbench: unknown workload {:?}; one of {names:?}",
            inv.workload
        );
        return ExitCode::from(2);
    };
    alloc::set_counting(inv.trace);
    let host = Host::probe();
    let (mut o, tracers) = runner(inv.seed, Scale::FULL, inv.seconds, inv.trace);
    o.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    o.e2e(
        "error_share",
        per(o.failed() as f64, o.attempted() as f64),
        "ratio",
    );
    o.fact("why", why);
    if let Some(t) = tracers.first() {
        o.fact(
            "clock_read_overhead_ns",
            format!(
                "{} per timed piece, subtracted from each",
                t.piece_overhead_ns()
            ),
        );
    }
    if inv.trace {
        let path = spans_path(&inv);
        match spans::write_rounds(&path, &tracers) {
            Ok(()) => o.fact("spans", path.display().to_string()),
            Err(e) => o.fact("spans", format!("not written: {e}")),
        }
    }
    print!("{}", report::text(&inv, &host, &o));
    println!("{}", report::report_line(&inv, &host, &o));
    println!("{}", report::result_line(&inv, &o));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("quill-perfbench: a reference check failed");
        ExitCode::FAILURE
    }
}
