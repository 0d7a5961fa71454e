//! `bench_codegen` — the bytecode-VM execution-tier benchmark.
//!
//! Compiles every executable §5 workload through `retreet-codegen` (with
//! verifier-certified iterative lowering), differential-checks the VM
//! against the reference interpreter, measures the interpreter against the
//! VM on concrete trees, and writes the machine-readable report to
//! `BENCH_codegen.json` at the repository root.  The VM seconds time the
//! program alone: one `Vm::run_flat` per sample on a fresh clone of the
//! workload's flat tree, with flattening and write-back outside the timer.
//!
//! ```text
//! bench_codegen [--quick] [--out PATH] [--min-speedup X]
//!               [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — smaller trees (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_codegen.json` in the current directory).
//! * `--min-speedup X` — exit non-zero when the best VM speedup over the
//!   interpreter stays below `X`× (default 1.0).
//! * `--batches N` / `--per-batch N` — timing loop shape (default 5 × 3,
//!   best-of-batches).
//!
//! The process fails on **drift**: any workload whose VM returns or
//! post-run tree diverge from the interpreter is a correctness regression,
//! not a performance number.  It also fails if any emitted lowering
//! certificate carries a non-equivalence verdict, or if the recompile
//! phase fails to serve its verdicts from the cache (the honesty check on
//! the `cached` flag).

use retreet_bench::{codegen_report_to_json, measure_codegen_perf, render_codegen_report};
use retreet_verify::Verifier;

struct Args {
    quick: bool,
    out: String,
    min_speedup: f64,
    batches: usize,
    per_batch: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: String::from("BENCH_codegen.json"),
        min_speedup: 1.0,
        batches: 5,
        per_batch: 3,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?
            }
            "--batches" => {
                args.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("--batches: {e}"))?
            }
            "--per-batch" => {
                args.per_batch = value("--per-batch")?
                    .parse()
                    .map_err(|e| format!("--per-batch: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "bench_codegen [--quick] [--out PATH] [--min-speedup X] \
                     [--batches N] [--per-batch N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_codegen: {message}");
            std::process::exit(2);
        }
    };

    let (label, tree_height) = if args.quick {
        ("quick", 10)
    } else {
        ("full", 14)
    };

    // Cache *enabled*, unlike the verdict-timing benches: the recompile
    // phase exists to show the cached serving path, honestly flagged.
    let verifier = Verifier::builder().build();

    println!("== codegen tier ({label}, complete trees of height {tree_height}) ==");
    let (rows, certs) = measure_codegen_perf(&verifier, args.batches, args.per_batch, tree_height);
    print!("{}", render_codegen_report(&rows, &certs));

    let json = codegen_report_to_json(label, tree_height, &rows, &certs);
    if let Err(err) = std::fs::write(&args.out, &json) {
        eprintln!("bench_codegen: cannot write {}: {err}", args.out);
        std::process::exit(1);
    }
    println!("report written to {}", args.out);

    let mut failed = false;
    for row in &rows {
        if row.drift {
            eprintln!(
                "bench_codegen: {} VM output diverged from the interpreter ({})",
                row.id, row.case
            );
            failed = true;
        }
    }
    for cert in &certs {
        if cert.phase == "recompile" && !cert.cached {
            eprintln!(
                "bench_codegen: {} recompile of {} was not served from the verdict cache",
                cert.workload, cert.func
            );
            failed = true;
        }
    }
    let best = rows.iter().map(|r| r.vm_speedup()).fold(0.0_f64, f64::max);
    if best < args.min_speedup {
        eprintln!(
            "bench_codegen: best VM speedup {:.2}x below minimum {:.2}x",
            best, args.min_speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
