//! `bench_engines` — the before/after engine benchmark.
//!
//! Runs every §5 experiment through the frozen naive engines
//! (`retreet_analysis::naive`, the seed revision's hot path) and through the
//! optimized façade engines, under the quick and the full (default) budget,
//! and writes the machine-readable report to `BENCH_engines.json` at the
//! repository root — the perf trajectory future revisions regress against.
//!
//! ```text
//! bench_engines [--quick] [--out PATH] [--ceiling-seconds S]
//!               [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — only run the quick budget (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_engines.json` in the current directory).
//! * `--ceiling-seconds S` — exit non-zero when any single optimized
//!   experiment exceeds `S` seconds (default 60; a generous guard that
//!   catches accidental exponential regressions, not noise).
//! * `--batches N` / `--per-batch N` — timing loop shape (default 5 × 3,
//!   best-of-batches).
//!
//! The process also fails when any experiment's verdict disagrees with the
//! paper or with the naive engine — a perf run that changes answers is a
//! bug, not a speedup — and when any experiment's verdict *soundness*
//! regresses from `unbounded`: every §5 experiment is answered with an
//! unbounded guarantee (the automata tier proves the five positive ones;
//! E1b's counterexample and E4b's race are witnesses from the trace and
//! configuration engines), and a revision that silently drops one of them
//! back to a bounded-budget answer must not pass.

use retreet_bench::{engine_perf_to_json, measure_engine_perf, render_engine_perf, Budget};

struct Args {
    quick_only: bool,
    out: String,
    ceiling_seconds: f64,
    batches: usize,
    per_batch: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick_only: false,
        out: String::from("BENCH_engines.json"),
        ceiling_seconds: 60.0,
        batches: 5,
        per_batch: 3,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--quick" => args.quick_only = true,
            "--out" => args.out = value("--out")?,
            "--ceiling-seconds" => {
                args.ceiling_seconds = value("--ceiling-seconds")?
                    .parse()
                    .map_err(|e| format!("--ceiling-seconds: {e}"))?
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
                    "bench_engines [--quick] [--out PATH] [--ceiling-seconds S] \
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
            eprintln!("bench_engines: {message}");
            std::process::exit(2);
        }
    };

    let quick = Budget::quick();
    let full = Budget::default();
    let mut sections: Vec<(&str, &Budget, _)> = Vec::new();
    if !args.quick_only {
        println!("== full budget (default) ==");
        let rows = measure_engine_perf(&full, args.batches, args.per_batch);
        print!("{}", render_engine_perf(&rows));
        sections.push(("full", &full, rows));
    }
    println!("== quick budget ==");
    let quick_rows = measure_engine_perf(&quick, args.batches, args.per_batch);
    print!("{}", render_engine_perf(&quick_rows));
    sections.push(("quick", &quick, quick_rows));

    let json = engine_perf_to_json(&sections);
    if let Err(err) = std::fs::write(&args.out, &json) {
        eprintln!("bench_engines: cannot write {}: {err}", args.out);
        std::process::exit(1);
    }
    println!("report written to {}", args.out);

    let mut failed = false;
    for (label, _, rows) in &sections {
        for row in rows {
            if !row.matches_paper() {
                eprintln!(
                    "bench_engines: {label}/{} verdict {:?} disagrees with the paper",
                    row.id, row.verdict
                );
                failed = true;
            }
            if !row.verdicts_agree {
                eprintln!(
                    "bench_engines: {label}/{} naive and optimized engines disagree",
                    row.id
                );
                failed = true;
            }
            if row.soundness != "unbounded" {
                eprintln!(
                    "bench_engines: {label}/{} soundness regressed to `{}` \
                     (every §5 experiment must stay unbounded)",
                    row.id, row.soundness
                );
                failed = true;
            }
            if row.optimized_seconds > args.ceiling_seconds {
                eprintln!(
                    "bench_engines: {label}/{} took {:.2}s, over the {:.0}s ceiling",
                    row.id, row.optimized_seconds, args.ceiling_seconds
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
