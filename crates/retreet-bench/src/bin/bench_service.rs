//! `bench_service` — the serving-tier benchmark.
//!
//! Drives a `retreet_serve::Service` (one shared verifier: sharded verdict
//! cache, single-flight coalescing) with a warm-cache NDJSON workload from
//! 1, 4 and 8 client threads, and writes the machine-readable report to
//! `BENCH_service.json` at the repository root.
//!
//! ```text
//! bench_service [--quick] [--out PATH] [--ceiling-seconds S]
//!               [--rounds N] [--min-scaling F]
//! ```
//!
//! * `--quick` — smaller budget and fewer rounds (the CI perf-smoke mode).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_service.json` in the current directory).
//! * `--ceiling-seconds S` — exit non-zero when any timed section exceeds
//!   `S` seconds of wall clock (default 120; catches accidental
//!   exponential regressions, not noise).
//! * `--rounds N` — workload repetitions per client thread.
//! * `--min-scaling F` — exit non-zero when 8-thread throughput is below
//!   `F ×` the single-thread throughput (default 0: shared CI runners and
//!   single-core hosts cannot honestly promise parallel speedups).
//!
//! Like `bench_engines`, the run **fails on verdict drift**: every response
//! is checked against the §5 expectation, single-threaded first and then
//! under every concurrency level — a serving layer that changes answers
//! under load is a bug, not a throughput result.  A cold-burst phase
//! additionally asserts single-flight coalescing: 8 threads issuing the
//! same cold query must trigger exactly one portfolio dispatch.
//!
//! Schema v2 added three robustness phases, each on a fresh service (v3
//! drops the `degraded` serving counter, which can no longer move):
//!
//! * **shed** — a deliberately tiny cold lane (1 worker, 1-slot queue)
//!   under stalled engines; every request must be answered correctly or
//!   shed with a typed `overloaded` error, and the shed rate is recorded.
//! * **deadline** — engines stalled far past a short per-query deadline;
//!   every query must resolve as a typed `deadline_exceeded` error
//!   (fail-closed) and count as a deadline hit, and the deadline-hit rate
//!   is recorded.
//! * **cold restart** — the workload is served once with a persistent
//!   verdict store, the service is dropped, and a restarted service must
//!   answer the whole workload from the recovered store with **zero**
//!   engine runs; a warm-hit rate below 1.0 fails the run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use retreet_lang::corpus;
use retreet_lang::parse_program;
use retreet_lang::pretty::print_program;
use retreet_serve::{json, ServeOptions, Service};
use retreet_verify::FaultPlan;

struct Args {
    quick: bool,
    out: String,
    ceiling_seconds: f64,
    rounds: usize,
    min_scaling: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: String::from("BENCH_service.json"),
        ceiling_seconds: 120.0,
        rounds: 0,
        min_scaling: 0.0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = value("--out")?,
            "--ceiling-seconds" => {
                args.ceiling_seconds = value("--ceiling-seconds")?
                    .parse()
                    .map_err(|e| format!("--ceiling-seconds: {e}"))?
            }
            "--rounds" => {
                args.rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--min-scaling" => {
                args.min_scaling = value("--min-scaling")?
                    .parse()
                    .map_err(|e| format!("--min-scaling: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "bench_service [--quick] [--out PATH] [--ceiling-seconds S] \
                     [--rounds N] [--min-scaling F]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.rounds == 0 {
        args.rounds = if args.quick { 200 } else { 1000 };
    }
    Ok(args)
}

/// One request of the workload: the NDJSON line plus the verdict word every
/// response must carry (the drift gate).
struct WorkItem {
    line: String,
    expected_verdict: &'static str,
}

/// The §5 serving mix: every corpus race query, every known fusion pair,
/// and a pair of validity queries — with the paper's expected verdicts.
/// Programs are sent as the printer spells them, the text a canonical
/// client sends and the verdict cache answers without parsing.
fn workload() -> Vec<WorkItem> {
    let printed = |source: &str| {
        json::escape(&print_program(
            &parse_program(source).expect("corpus source parses"),
        ))
    };
    let race = |source: &str, expected: &'static str| WorkItem {
        line: format!(r#"{{"kind":"race","program":"{}"}}"#, printed(source)),
        expected_verdict: expected,
    };
    let equiv = |original: &str, transformed: &str, expected: &'static str| WorkItem {
        line: format!(
            r#"{{"kind":"equivalence","original":"{}","transformed":"{}"}}"#,
            printed(original),
            printed(transformed)
        ),
        expected_verdict: expected,
    };
    let validity = |formula: &str, expected: &'static str| WorkItem {
        line: format!(r#"{{"kind":"validity","formula":"{formula}"}}"#),
        expected_verdict: expected,
    };
    vec![
        race(corpus::SIZE_COUNTING_PARALLEL_SRC, "race-free"),
        race(corpus::SIZE_COUNTING_SEQUENTIAL_SRC, "race-free"),
        race(corpus::TREE_MUTATION_ORIGINAL_SRC, "race-free"),
        race(corpus::CSS_MINIFY_ORIGINAL_SRC, "race-free"),
        race(corpus::CYCLETREE_ORIGINAL_SRC, "race-free"),
        race(corpus::CYCLETREE_PARALLEL_SRC, "race"),
        race(corpus::DISJOINT_PARALLEL_SRC, "race-free"),
        race(corpus::OVERLAPPING_PARALLEL_SRC, "race"),
        equiv(
            corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
            corpus::SIZE_COUNTING_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
            corpus::SIZE_COUNTING_FUSED_INVALID_SRC,
            "not-equivalent",
        ),
        equiv(
            corpus::TREE_MUTATION_ORIGINAL_SRC,
            corpus::TREE_MUTATION_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::CSS_MINIFY_ORIGINAL_SRC,
            corpus::CSS_MINIFY_FUSED_SRC,
            "equivalent",
        ),
        equiv(
            corpus::CYCLETREE_ORIGINAL_SRC,
            corpus::CYCLETREE_FUSED_SRC,
            "equivalent",
        ),
        validity(
            "(forall r (implies (root r) (forall x (reach r x))))",
            "valid",
        ),
        validity("(forall x (leaf x))", "invalid"),
    ]
}

/// Checks one response line against its expectation; returns the drift
/// message on mismatch.
fn check_response(response: &str, expected_verdict: &str) -> Result<(), String> {
    if response.contains(r#""status":"ok""#)
        && response.contains(&format!(r#""verdict":"{expected_verdict}""#))
    {
        Ok(())
    } else {
        Err(format!(
            "expected verdict `{expected_verdict}`, got: {response}"
        ))
    }
}

struct Section {
    client_threads: usize,
    requests: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Runs `rounds` passes over the workload from `threads` client threads
/// against the shared service, collecting per-request latencies.
fn run_section(
    service: &Arc<Service>,
    work: &Arc<Vec<WorkItem>>,
    threads: usize,
    rounds: usize,
    drifted: &Arc<AtomicBool>,
) -> Section {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for thread in 0..threads {
        let service = Arc::clone(service);
        let work = Arc::clone(work);
        let barrier = Arc::clone(&barrier);
        let drifted = Arc::clone(drifted);
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(rounds * work.len());
            barrier.wait();
            let started = Instant::now();
            for round in 0..rounds {
                // Stagger thread start positions so concurrent threads hit
                // different cache shards at any instant.
                let offset = (thread * 7 + round) % work.len();
                for i in 0..work.len() {
                    let item = &work[(i + offset) % work.len()];
                    let start = Instant::now();
                    let response = service.handle_line(&item.line);
                    latencies.push(start.elapsed().as_micros() as u64);
                    if let Err(err) = check_response(&response, item.expected_verdict) {
                        if !drifted.swap(true, Ordering::Relaxed) {
                            eprintln!(
                                "bench_service: verdict drift under {threads} threads: {err}"
                            );
                        }
                    }
                }
            }
            (latencies, started, Instant::now())
        }));
    }
    barrier.wait();
    // The wall clock spans the clients' own first start and last finish: a
    // clock read by this thread after the barrier can start late, once a
    // short section is already under way.
    let mut latencies: Vec<u64> = Vec::new();
    let mut span: Option<(Instant, Instant)> = None;
    for handle in handles {
        let (client, started, finished) = handle.join().expect("client thread panicked");
        latencies.extend(client);
        span = Some(match span {
            Some((first, last)) => (first.min(started), last.max(finished)),
            None => (started, finished),
        });
    }
    let (first, last) = span.expect("every section has a client thread");
    let wall_seconds = (last - first).as_secs_f64();
    latencies.sort_unstable();
    let percentile = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    Section {
        client_threads: threads,
        requests: latencies.len(),
        wall_seconds,
        throughput_rps: latencies.len() as f64 / wall_seconds,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

/// Engine runs in one sequential dispatch of the cold-burst query: the
/// program races, so the automata engine skips the structural candidate
/// and the configuration engine finds the witness.
const COLD_BURST_DISPATCH_RUNS: u64 = 2;

/// The cold-burst single-flight check: 8 threads issue the *same* cold
/// query against a fresh service; exactly one dispatch may happen, and
/// everyone must receive the same witness.
fn cold_burst(options: &ServeOptions) -> Result<(usize, u64, u64), String> {
    const THREADS: usize = 8;
    let service = Arc::new(Service::new(options));
    let line = Arc::new(format!(
        r#"{{"kind":"race","program":"{}"}}"#,
        json::escape(corpus::CYCLETREE_PARALLEL_SRC)
    ));
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let service = Arc::clone(&service);
        let line = Arc::clone(&line);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            service.handle_line(&line)
        }));
    }
    let responses: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("burst thread panicked"))
        .collect();
    for response in &responses {
        check_response(response, "race")?;
    }
    let serving = service.verifier().serving_stats();
    if serving.engine_runs != COLD_BURST_DISPATCH_RUNS {
        return Err(format!(
            "cold burst ran {} engine runs; single-flight must dispatch once \
             ({COLD_BURST_DISPATCH_RUNS} runs)",
            serving.engine_runs
        ));
    }
    // Every lookup counts as exactly one hit or miss; `collisions` is a
    // separate diagnostic and must stay 0 here (all threads send the same
    // query, so no key collision is possible).
    let cache = service.verifier().cache_stats();
    if cache.hits + cache.misses != THREADS as u64 || cache.collisions != 0 {
        return Err(format!(
            "cold burst accounting off: {} hits + {} misses != {THREADS} queries \
             (collisions {})",
            cache.hits, cache.misses, cache.collisions
        ));
    }
    Ok((THREADS, serving.coalesced, cache.hits))
}

/// Outcome of one robustness phase: how many requests were issued and how
/// many hit the phase's event (shed / deadline / warm hit).
struct Phase {
    requests: usize,
    events: u64,
    rate: f64,
}

/// The admission-control phase: a deliberately tiny cold lane (1 worker,
/// 1-slot queue) with every engine run stalled, hammered by concurrent
/// distinct cold queries.  Every response must be either a correct verdict
/// or a typed `overloaded` shed — anything else (a wrong verdict, an
/// untyped error, a hang) fails the run.
fn overload_shed(options: &ServeOptions) -> Result<Phase, String> {
    let sources: [(&str, &str); 6] = [
        (corpus::CYCLETREE_PARALLEL_SRC, "race"),
        (corpus::OVERLAPPING_PARALLEL_SRC, "race"),
        (corpus::DISJOINT_PARALLEL_SRC, "race-free"),
        (corpus::SIZE_COUNTING_PARALLEL_SRC, "race-free"),
        (corpus::SIZE_COUNTING_SEQUENTIAL_SRC, "race-free"),
        (corpus::TREE_MUTATION_ORIGINAL_SRC, "race-free"),
    ];
    let service = Arc::new(Service::new(&ServeOptions {
        workers: 1,
        cold_queue: 1,
        faults: Some(Arc::new(
            FaultPlan::builder(17).engine_stall(1.0, 120).build(),
        )),
        ..options.clone()
    }));
    let barrier = Arc::new(Barrier::new(sources.len()));
    let mut handles = Vec::new();
    for (source, expected) in sources {
        let service = Arc::clone(&service);
        let barrier = Arc::clone(&barrier);
        let line = format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            (service.handle_line(&line), expected)
        }));
    }
    let mut shed = 0u64;
    let mut answered = 0u64;
    for handle in handles {
        let (response, expected) = handle.join().expect("shed client panicked");
        if response.contains(r#""code":"overloaded""#) {
            shed += 1;
        } else {
            check_response(&response, expected).map_err(|err| format!("shed phase: {err}"))?;
            answered += 1;
        }
    }
    if answered == 0 || shed == 0 {
        return Err(format!(
            "shed phase must both answer and shed under a full 1-slot queue \
             (answered {answered}, shed {shed})"
        ));
    }
    Ok(Phase {
        requests: sources.len(),
        events: shed,
        rate: shed as f64 / sources.len() as f64,
    })
}

/// The deadline phase: every engine run stalls far past a short per-query
/// deadline, so every cold query must resolve to the typed
/// `deadline_exceeded` error — never a verdict and never a hang.
fn deadline_pressure(options: &ServeOptions) -> Result<Phase, String> {
    let sources = [
        corpus::CYCLETREE_PARALLEL_SRC,
        corpus::OVERLAPPING_PARALLEL_SRC,
        corpus::DISJOINT_PARALLEL_SRC,
        corpus::SIZE_COUNTING_PARALLEL_SRC,
    ];
    let service = Service::new(&ServeOptions {
        deadline_ms: 60,
        faults: Some(Arc::new(
            FaultPlan::builder(23).engine_stall(1.0, 5_000).build(),
        )),
        ..options.clone()
    });
    for source in sources {
        let line = format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source));
        let response = service.handle_line(&line);
        if !response.contains(r#""code":"deadline_exceeded""#) {
            return Err(format!(
                "deadline phase: expected a typed deadline_exceeded error, got: {response}"
            ));
        }
    }
    let hits = service.verifier().serving_stats().deadline_hits;
    if hits != sources.len() as u64 {
        return Err(format!(
            "deadline phase: {} stalled queries under a 60ms deadline recorded {hits} \
             deadline hits",
            sources.len()
        ));
    }
    Ok(Phase {
        requests: sources.len(),
        events: hits,
        rate: hits as f64 / sources.len() as f64,
    })
}

/// The crash-recovery phase: serve the whole workload once with a
/// persistent verdict store, drop the service, restart against the same
/// log, and replay the workload.  The restarted service must answer every
/// request from the recovered store — zero engine runs, warm-hit rate
/// exactly 1.0 — or the run fails.
fn cold_restart(options: &ServeOptions, work: &[WorkItem]) -> Result<Phase, String> {
    let path = std::env::temp_dir().join(format!(
        "retreet-bench-service-{}.rslog",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let persisted = ServeOptions {
        persist: Some(path.clone()),
        ..options.clone()
    };
    {
        let service = Service::new(&persisted);
        for item in work {
            let response = service.handle_line(&item.line);
            check_response(&response, item.expected_verdict)
                .map_err(|err| format!("restart phase (first boot): {err}"))?;
        }
        if !service.finish() {
            return Err(String::from(
                "restart phase: first boot missed its drain deadline",
            ));
        }
    }
    let service = Service::new(&persisted);
    let loaded = service
        .verifier()
        .store_stats()
        .map_or(0, |stats| stats.loaded);
    for item in work {
        let response = service.handle_line(&item.line);
        check_response(&response, item.expected_verdict)
            .map_err(|err| format!("restart phase (after restart): {err}"))?;
        if !response.contains(r#""cached":true"#) {
            return Err(format!(
                "restart phase: a recovered verdict was not served as a cache \
                 hit: {response}"
            ));
        }
    }
    let hits = service.verifier().cache_stats().hits;
    let engine_runs = service.verifier().serving_stats().engine_runs;
    let _ = std::fs::remove_file(&path);
    if engine_runs != 0 {
        return Err(format!(
            "restart phase: the restarted service re-ran {engine_runs} engine \
             dispatch(es); the recovered store ({loaded} verdicts) must answer \
             everything"
        ));
    }
    let rate = hits as f64 / work.len() as f64;
    if rate < 1.0 {
        return Err(format!(
            "restart phase: warm-hit rate {rate:.4} after restart; every replayed \
             request must hit the recovered store"
        ));
    }
    Ok(Phase {
        requests: work.len(),
        events: hits,
        rate,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_service: {message}");
            std::process::exit(2);
        }
    };

    let options = if args.quick {
        ServeOptions {
            race_nodes: 3,
            equiv_nodes: 4,
            validity_nodes: 4,
            valuations: 1,
            ..ServeOptions::default()
        }
    } else {
        ServeOptions::default()
    };
    let budget_label = if args.quick { "quick" } else { "full" };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm start: preload the corpus, then one single-threaded correctness
    // pass over the full workload (which also warms the two validity
    // entries the preload does not cover).
    let service = Arc::new(Service::new(&options));
    let preloaded = service.warm_start();
    let work = Arc::new(workload());
    let mut failed = false;
    for item in work.iter() {
        let response = service.handle_line(&item.line);
        if let Err(err) = check_response(&response, item.expected_verdict) {
            eprintln!("bench_service: verdict drift (single-threaded): {err}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }

    println!("== warm-cache serving throughput ({budget_label} budget, {cores} core(s)) ==");
    println!(
        "{:>7} {:>10} {:>9} {:>12} {:>9} {:>9}",
        "threads", "requests", "wall (s)", "rps", "p50 (us)", "p99 (us)"
    );
    let drifted = Arc::new(AtomicBool::new(false));
    let mut sections = Vec::new();
    for threads in [1usize, 4, 8] {
        let section = run_section(&service, &work, threads, args.rounds, &drifted);
        println!(
            "{:>7} {:>10} {:>9.3} {:>12.0} {:>9} {:>9}",
            section.client_threads,
            section.requests,
            section.wall_seconds,
            section.throughput_rps,
            section.p50_us,
            section.p99_us
        );
        if section.wall_seconds > args.ceiling_seconds {
            eprintln!(
                "bench_service: {} threads took {:.2}s, over the {:.0}s ceiling",
                threads, section.wall_seconds, args.ceiling_seconds
            );
            failed = true;
        }
        sections.push(section);
    }
    if drifted.load(Ordering::Relaxed) {
        failed = true;
    }

    let burst = match cold_burst(&options) {
        Ok(burst) => burst,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "cold burst: {} threads, 1 dispatch ({COLD_BURST_DISPATCH_RUNS} engine runs), \
         {} coalesced, {} cache hits",
        burst.0, burst.1, burst.2
    );

    // Robustness phases (schema v2): each runs against a fresh service so
    // its stats don't pollute the warm-cache numbers above.
    let shed = match overload_shed(&options) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "overload: {} requests, {} shed (shed rate {:.4})",
        shed.requests, shed.events, shed.rate
    );
    let deadline = match deadline_pressure(&options) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "deadline: {} requests, {} deadline hits (hit rate {:.4})",
        deadline.requests, deadline.events, deadline.rate
    );
    let restart = match cold_restart(&options, &work) {
        Ok(phase) => phase,
        Err(err) => {
            eprintln!("bench_service: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "cold restart: {} requests, {} warm hits (warm-hit rate {:.4})",
        restart.requests, restart.events, restart.rate
    );

    let cache = service.verifier().cache_stats();
    let serving = service.verifier().serving_stats();
    let hit_rate = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
    let coalescing_rate = serving.coalesced as f64 / service.requests_handled().max(1) as f64;
    let scaling = sections[2].throughput_rps / sections[0].throughput_rps;
    println!(
        "hit rate {:.4}, coalescing rate {:.4}, 8-thread scaling {scaling:.2}x",
        hit_rate, coalescing_rate
    );

    let mut out = String::from("{\n  \"schema\": \"retreet-bench-service/v3\",\n");
    out.push_str(
        "  \"methodology\": \"warm-cache NDJSON serving: corpus preloaded via warm_start, \
         then N client threads replay the full \\u00a75 request mix (race + equivalence + \
         validity) against one shared Service, sending each program as its printed \
         text; every response is checked against the paper's verdict; latencies are \
         per-request wall clock including JSON parse, and a section's wall clock runs \
         from its clients' first start to their last finish; the \
         cold burst issues one identical cold query from 8 threads and asserts exactly one \
         dispatch (single-flight); v2 adds three fresh-service robustness phases: shed \
         rate under a full 1-slot cold queue with stalled engines, deadline-hit rate with \
         engines stalled past a 60ms per-query deadline, and the warm-hit rate after a \
         cold restart from the persisted verdict store (must be 1.0 with zero engine \
         runs); v3 requires every deadline query to answer deadline_exceeded and drops \
         the degraded serving counter\",\n",
    );
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"budget\": {{ \"label\": \"{budget_label}\", \"race_nodes\": {}, \"equiv_nodes\": {}, \
         \"validity_nodes\": {}, \"valuations\": {} }},\n",
        options.race_nodes, options.equiv_nodes, options.validity_nodes, options.valuations
    ));
    out.push_str(&format!("  \"warm_start_preloaded\": {preloaded},\n"));
    out.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"client_threads\": {}, \"requests\": {}, \"wall_seconds\": {:.4}, \
             \"throughput_rps\": {:.0}, \"p50_us\": {}, \"p99_us\": {} }}{}\n",
            s.client_threads,
            s.requests,
            s.wall_seconds,
            s.throughput_rps,
            s.p50_us,
            s.p99_us,
            if i + 1 < sections.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"scaling_8_over_1\": {scaling:.3},\n  \"cold_burst\": {{ \"threads\": {}, \
         \"engine_runs\": {COLD_BURST_DISPATCH_RUNS}, \"coalesced\": {}, \"cache_hits\": {} }},\n",
        burst.0, burst.1, burst.2
    ));
    out.push_str(&format!(
        "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"collisions\": {}, \"entries\": {}, \
         \"hit_rate\": {hit_rate:.4} }},\n",
        cache.hits, cache.misses, cache.collisions, cache.entries
    ));
    out.push_str(&format!(
        "  \"serving\": {{ \"engine_runs\": {}, \"cancelled_runs\": {}, \"coalesced\": {}, \
         \"panicked_runs\": {}, \"deadline_hits\": {}, \
         \"coalescing_rate\": {coalescing_rate:.4} }},\n",
        serving.engine_runs,
        serving.cancelled_runs,
        serving.coalesced,
        serving.panicked_runs,
        serving.deadline_hits
    ));
    out.push_str(&format!(
        "  \"robustness\": {{\n    \"shed\": {{ \"requests\": {}, \"shed\": {}, \
         \"shed_rate\": {:.4} }},\n    \"deadline\": {{ \"requests\": {}, \
         \"deadline_hits\": {}, \"deadline_hit_rate\": {:.4} }},\n    \
         \"cold_restart\": {{ \"requests\": {}, \"warm_hits\": {}, \
         \"warm_hit_rate\": {:.4} }}\n  }}\n}}\n",
        shed.requests,
        shed.events,
        shed.rate,
        deadline.requests,
        deadline.events,
        deadline.rate,
        restart.requests,
        restart.events,
        restart.rate
    ));
    if let Err(err) = std::fs::write(&args.out, &out) {
        eprintln!("bench_service: cannot write {}: {err}", args.out);
        std::process::exit(1);
    }
    println!("report written to {}", args.out);

    if scaling < args.min_scaling {
        eprintln!(
            "bench_service: 8-thread scaling {scaling:.2}x below the required {:.2}x",
            args.min_scaling
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
