//! `retreet-perfbench` — the end-to-end and per-layer benchmark of the
//! Retreet NDJSON service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify-cold|serve-warm|run-exec|tune-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one in-process `retreet_serve::Service` through
//! `Service::handle_line` from closed-loop client threads, checks every
//! response against a reference built before the timed window, and prints
//! a host/run block, every metric by name and unit, and — as the last line
//! — one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! untraced window, then replays the same request stream with per-layer
//! calls after each request, and reports the per-layer metrics and the
//! tracing overhead.  See `perfbench/README.md`.

mod drive;
mod layers;
mod oracle;
mod stats;
mod workload;

use std::time::Instant;

use drive::{assert_window_counts, count_cycle, run_window, set_up, CycleCounts, Window};
use layers::{Tracer, TIMINGS};
use oracle::Oracle;
use stats::{median, Histogram};
use workload::{Stream, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: print the oracle's references and exit.
    oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut oracle = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(String::from("--seconds must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(String::from("--trace expects 0 or 1")),
                })
            }
            "--oracle" => oracle = value == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        oracle,
    })
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The revision of the checkout, when it is a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| String::from("unknown")),
        None if !head.is_empty() => head.to_string(),
        None => String::from("unknown (not a git checkout)"),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| String::from("unknown"), |v| v.trim().to_string())
}

/// Slices of the timed window: throughput is the median of the per-slice
/// throughputs, so a burst of outside load that spans under half the
/// slices does not move it.  tune-cold completes too few requests to slice.
fn slices(workload: Workload) -> usize {
    match workload {
        Workload::TuneCold => 1,
        _ => 10,
    }
}

/// Whether latency quantiles are medians over slices too.  Only where a
/// slice holds thousands of cycles of the mix: with a dozen cycles a
/// slice's share of the slow queries wanders, and a p90 that sits between
/// fast and slow queries jumps with it, so the other workloads take their
/// quantiles over the whole window.
fn latency_by_slice(workload: Workload) -> bool {
    workload == Workload::ServeWarm
}

/// End-to-end metrics of one window, in report order: (name, unit, value).
/// With `by_slice`, latency quantiles too are medians of per-slice values.
fn end_to_end(
    window: &Window,
    by_slice: bool,
    setup_s: f64,
    rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let per_slice = |f: &dyn Fn(&Histogram, f64) -> f64| -> f64 {
        let values: Vec<f64> = window
            .slices
            .iter()
            .zip(&window.slice_s)
            .map(|(h, s)| f(h, *s))
            .collect();
        median(&values)
    };
    let whole = window.whole();
    let latency = |q: f64| {
        if by_slice {
            per_slice(&|h, _| h.quantile(q))
        } else {
            whole.quantile(q)
        }
    };
    vec![
        ("setup_s", "s", setup_s),
        ("latency_p50_ms", "ms", latency(0.5)),
        ("latency_p90_ms", "ms", latency(0.9)),
        (
            "throughput_rps",
            "req/s",
            per_slice(&|h, seconds| h.len() as f64 / seconds),
        ),
        ("peak_rss_mb", "MB", rss_mb),
    ]
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

fn print_window(label: &str, stream: &Stream, window: &Window, metrics: &[(&str, &str, f64)]) {
    let n = window.requests;
    let seconds: f64 = window.slice_s.iter().sum();
    println!(
        "{label}: {n} requests in {seconds:.3} s, {} failed (failed_frac {:.6})",
        window.failures.count,
        window.failures.count as f64 / n.max(1) as f64
    );
    for (name, unit, value) in metrics {
        println!("  {name:<16} {value:>14.6} {unit}");
    }
    let whole = window.whole();
    let beyond = |q: f64| (n as f64 * (1.0 - q)).floor() as u64;
    println!(
        "  whole window: p50 {:.6} ms, p90 {:.6} ms ({} beyond), p99 {:.6} ms ({} beyond{})",
        whole.quantile(0.5),
        whole.quantile(0.9),
        beyond(0.9),
        whole.quantile(0.99),
        beyond(0.99),
        if beyond(0.99) < 10 {
            ", too few to hold"
        } else {
            ""
        },
    );
    let p50: Vec<f64> = window.slices.iter().map(|h| h.quantile(0.5)).collect();
    let p90: Vec<f64> = window.slices.iter().map(|h| h.quantile(0.9)).collect();
    println!(
        "  median of {} slices: p50 {:.6} ms, p90 {:.6} ms; fewest requests in a slice {}",
        window.slices.len(),
        median(&p50),
        median(&p90),
        window.slices.iter().map(Histogram::len).min().unwrap_or(0),
    );
    println!("  service counters over the window: {:?}", window.stats);
    let busy: f64 = window.per_input.iter().map(|(_, ms)| ms).sum();
    let mut order: Vec<usize> = (0..window.per_input.len()).collect();
    order.sort_by(|a, b| window.per_input[*b].1.total_cmp(&window.per_input[*a].1));
    println!("  inputs by share of request time (mean latency):");
    for &i in order.iter().take(6) {
        let (count, ms) = window.per_input[i];
        println!(
            "    {:<40} {:>5.1} %  {:>10.3} ms",
            stream.inputs[i].name,
            100.0 * ms / busy.max(f64::MIN_POSITIVE),
            ms / count.max(1) as f64
        );
    }
}

/// Sets the service up `repeats` times; returns the last service and every
/// set-up time.
fn set_ups(stream: &Stream, repeats: usize) -> Result<(retreet_serve::Service, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut service = None;
    for _ in 0..repeats {
        drop(service.take());
        let (fresh, seconds) = set_up(stream)?;
        times.push(seconds);
        service = Some(fresh);
    }
    Ok((service.expect("at least one set-up"), times))
}

fn set_up_repeats(workload: Workload) -> usize {
    match workload {
        Workload::VerifyCold | Workload::TuneCold => 101,
        Workload::RunExec => 11,
        Workload::ServeWarm => 3,
    }
}

fn per_layer(window: &Window, counts: &CycleCounts) -> Vec<(&'static str, &'static str, f64)> {
    let mut metrics: Vec<(&str, &str, f64)> = TIMINGS
        .iter()
        .map(|(name, unit)| (*name, *unit, median(window.samples.get(name))))
        .collect();
    let s = &counts.stats;
    for (name, value) in [
        ("serve.cold_executed", s.cold_executed),
        ("serve.shed", s.shed),
        ("serve.warm_inline", s.warm_inline),
        ("verify.engine_runs", s.engine_runs),
        ("verify.cache_hits", s.cache_hits),
        ("verify.cache_misses", s.cache_misses),
        ("verify.unbounded_verdicts", counts.unbounded),
        ("codegen.vm_runs", s.vm_runs),
        ("codegen.interp_runs", s.interp_runs),
        ("codegen.lowered_funcs", counts.lowered_funcs),
        ("transform.candidates", counts.tune.candidates as u64),
        ("transform.certified", counts.tune.certified as u64),
        ("transform.refused", counts.tune.refused as u64),
    ] {
        metrics.push((name, "count", value as f64));
    }
    metrics
}

fn run(args: &Args) -> Result<(bool, u64, usize, String), String> {
    let workload = args.workload;
    println!(
        "host: cores={} profile={} git={} rustc=\"{}\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev(),
        rustc_version()
    );

    let started = Instant::now();
    let stream = Stream::new(workload, args.seed);
    let oracle = Oracle::spawn(workload.name(), args.seed)?;
    println!(
        "oracle: {} reference answers in {:.3} s (peak RSS so far {:.1} MB)",
        oracle.references.len(),
        started.elapsed().as_secs_f64(),
        peak_rss_mb()
    );

    // Half the set-ups run before the window and half after it, so a burst
    // of outside load at one moment moves the median less.
    let repeats = set_up_repeats(workload);
    let (service, mut setup_times) = set_ups(&stream, repeats)?;
    let mut untraced = run_window(
        &service,
        &stream,
        &oracle,
        args.seconds,
        slices(workload),
        None,
    );
    drop(service);
    let rss = peak_rss_mb();
    setup_times.extend(set_ups(&stream, repeats)?.1);
    let setup_s = median(&setup_times);
    let e2e = end_to_end(&untraced, latency_by_slice(workload), setup_s, rss);
    println!(
        "run: workload={} seed={} clients={} seconds={} requests={} trace={}",
        workload.name(),
        args.seed,
        workload.clients(),
        args.seconds,
        untraced.requests,
        u8::from(args.trace)
    );
    print_window("untraced window", &stream, &untraced, &e2e);
    let mut failures = std::mem::take(&mut untraced.failures);
    let mut attempted = untraced.requests;
    if let Err(message) = assert_window_counts(workload, &untraced) {
        failures.add(message);
    }

    let metrics = if args.trace {
        let counts = count_cycle(&stream, &oracle)?;
        attempted += stream.cycle() as u64;
        println!(
            "count pass ({} requests, one per base input): {:?}",
            stream.cycle(),
            counts
        );
        let tracer = Tracer::new();
        let (service, traced_setup_s) = set_up(&stream)?;
        let mut traced = run_window(
            &service,
            &stream,
            &oracle,
            args.seconds,
            slices(workload),
            Some(&tracer),
        );
        drop(service);
        attempted += traced.requests;
        let traced_e2e = end_to_end(
            &traced,
            latency_by_slice(workload),
            traced_setup_s,
            peak_rss_mb(),
        );
        print_window("traced window", &stream, &traced, &traced_e2e);
        println!("tracing overhead (traced minus untraced):");
        for ((name, unit, plain), (_, _, with)) in e2e.iter().zip(&traced_e2e) {
            println!("  {name:<16} {:>+14.6} {unit}", with - plain);
        }
        let layers = per_layer(&traced, &counts);
        println!("per-layer metrics (timings: p50 of the traced calls; counts: one cycle):");
        for (name, unit, value) in &layers {
            let n = traced.samples.get(name).len();
            let note = if *unit == "count" {
                String::new()
            } else {
                format!("  ({n} samples)")
            };
            println!("  {name:<26} {value:>14.6} {unit}{note}");
        }
        failures.merge(std::mem::take(&mut traced.failures));
        layers
    } else {
        e2e
    };

    if let Some(first) = &failures.first {
        println!("first failure: {first}");
    }
    Ok((
        failures.count == 0,
        attempted,
        failures.count,
        json_metrics(&metrics),
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("retreet-perfbench: {message}");
            std::process::exit(2);
        }
    };
    if args.oracle {
        match Oracle::build(&Stream::new(args.workload, args.seed)) {
            Ok(oracle) => println!("{}", oracle.encode()),
            Err(message) => {
                eprintln!("retreet-perfbench: {message}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => println!(
            r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{metrics}}}"#
        ),
        Err(message) => {
            eprintln!("retreet-perfbench: {message}");
            std::process::exit(1);
        }
    }
}
