//! `bench_tune` — the certified schedule autotuner benchmark.
//!
//! Runs `retreet_runtime::tune_and_compile` (the VM-backed cost model over
//! `retreet_transform::tune`'s schedule search) on all five §5 experiment
//! families (E1, E2, E3, E4a, E5), prints per-family candidate tables with certificates, and
//! writes the machine-readable report to `BENCH_tune.json` at the
//! repository root.
//!
//! ```text
//! bench_tune [--quick] [--out PATH] [--batches N] [--per-batch N]
//! ```
//!
//! * `--quick` — quick certification budget and smaller measurement trees
//!   (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_tune.json` in the current directory).
//! * `--batches N` / `--per-batch N` — timing loop shape (overrides the
//!   budget's defaults, best-of-batches).
//!
//! The process fails on six regressions, none of which is a performance
//! number:
//!
//! * **drift** — the winning schedule's VM run diverges from the original
//!   program's interpreter reference;
//! * **canonical fusion lost** — a family's whole-run fusion (the tuner's
//!   first candidate, the program `fuse_main_passes` builds) is not
//!   certified or cannot be measured: its drift probe against the
//!   interpreter reference failed or it fell off the VM tier;
//! * **baseline regression** — a tuned cost above
//!   best-of{original, canonical fusion}, violating the tuner's guarantee;
//! * **missing certificate** — a winner whose verdict lacks engine or
//!   soundness provenance;
//! * **weak certificate** — a certified candidate whose equivalence or
//!   race-freedom certificate is weaker than `unbounded`;
//! * **equivalence asked of a racy candidate** — a candidate refused for a
//!   data race whose equivalence verdict is in the verifier's cache: the
//!   tuner certifies race freedom first and never asks that question.

use retreet_bench::{measure_tune, render_tune_report, tune_report_to_json, Budget};
use retreet_transform::TuneOptions;

struct Args {
    quick: bool,
    out: String,
    batches: Option<usize>,
    per_batch: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: String::from("BENCH_tune.json"),
        batches: None,
        per_batch: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--batches" => {
                args.batches = Some(
                    value("--batches")?
                        .parse()
                        .map_err(|e| format!("--batches: {e}"))?,
                )
            }
            "--per-batch" => {
                args.per_batch = Some(
                    value("--per-batch")?
                        .parse()
                        .map_err(|e| format!("--per-batch: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!("bench_tune [--quick] [--out PATH] [--batches N] [--per-batch N]");
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
            eprintln!("bench_tune: {message}");
            std::process::exit(2);
        }
    };

    let (label, budget, mut options) = if args.quick {
        ("quick", Budget::quick(), TuneOptions::quick())
    } else {
        (
            "full",
            Budget::default(),
            // Height 14 matches bench_codegen's full trees, so the two
            // benches time the same VM runs.  At this height the canonical
            // fusion beats the original on every family in the committed
            // report (1.03× on E5 to 1.50× on E3), and only E1's winner, a
            // partial schedule, beats the canonical fusion.
            TuneOptions {
                tree_height: 14,
                batches: 5,
                per_batch: 3,
                ..TuneOptions::default()
            },
        )
    };
    if let Some(batches) = args.batches {
        options.batches = batches;
    }
    if let Some(per_batch) = args.per_batch {
        options.per_batch = per_batch;
    }

    println!(
        "== schedule autotuner ({label} budget, trees of height {}) ==",
        options.tree_height
    );
    let verifier = budget.tune_verifier();
    let rows = measure_tune(&verifier, &options);
    print!("{}", render_tune_report(&rows));

    let json = tune_report_to_json(label, &budget, &options, &rows);
    if let Err(err) = std::fs::write(&args.out, &json) {
        eprintln!("bench_tune: cannot write {}: {err}", args.out);
        std::process::exit(1);
    }
    println!("\nreport written to {}", args.out);

    let mut failed = false;
    for row in &rows {
        if row.baseline_fused_seconds.is_none() {
            eprintln!(
                "bench_tune: {} canonical fusion was not certified or could not be measured",
                row.id
            );
            failed = true;
        }
        if row.drift {
            eprintln!(
                "bench_tune: {} winner diverged from the interpreter reference",
                row.id
            );
            failed = true;
        }
        if row.regressed() {
            eprintln!(
                "bench_tune: {} tuned schedule is slower than the best baseline \
                 ({:.6}s > {:.6}s) — the tuner's guarantee is broken",
                row.id,
                row.tuned_seconds,
                row.best_baseline_seconds()
            );
            failed = true;
        }
        if row.winner_kind.is_empty()
            || row.winner_engine.is_empty()
            || row.winner_soundness.is_empty()
        {
            eprintln!(
                "bench_tune: {} winner carries no certificate provenance",
                row.id
            );
            failed = true;
        }
        for candidate in row.table.iter().filter(|c| c.has_bounded_certificate()) {
            eprintln!(
                "bench_tune: {} candidate {} is certified only up to a node bound",
                row.id, candidate.label
            );
            failed = true;
        }
        for candidate in row.table.iter().filter(|c| c.racy_equivalence_asked) {
            eprintln!(
                "bench_tune: {} candidate {} was refused for a data race, yet its \
                 equivalence was asked",
                row.id, candidate.label
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
