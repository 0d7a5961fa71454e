//! Driving one in-process `Service`: set-up, the closed-loop timed window,
//! and the single-client count pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use retreet_serve::json::{self, Value};
use retreet_serve::{ServeOptions, Service};

use crate::layers::{Samples, Tracer};
use crate::oracle::{recheck_winner, Oracle, TuneCounts, TuneWinner};
use crate::stats::Histogram;
use crate::workload::{Stream, Workload};

/// Counters read through the service's own `stats` request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub engine_runs: u64,
    pub cold_executed: u64,
    pub shed: u64,
    pub warm_inline: u64,
    pub compiles: u64,
    pub vm_runs: u64,
    pub interp_runs: u64,
}

impl Stats {
    pub fn read(service: &Service) -> Stats {
        let response = service.handle_line(r#"{"kind":"stats"}"#);
        let value = json::parse(&response).expect("the stats response is JSON");
        let get = |section: &str, key: &str| -> u64 {
            match value
                .as_object()
                .and_then(|o| o.get(section))
                .and_then(Value::as_object)
                .and_then(|o| o.get(key))
            {
                Some(Value::Number(n)) => *n as u64,
                _ => panic!("stats response lacks {section}.{key}: {response}"),
            }
        };
        Stats {
            cache_hits: get("cache", "hits"),
            cache_misses: get("cache", "misses"),
            engine_runs: get("serving", "engine_runs"),
            cold_executed: get("sched", "cold_executed"),
            shed: get("sched", "shed"),
            warm_inline: get("sched", "warm_inline"),
            compiles: get("codegen", "compiles"),
            vm_runs: get("codegen", "vm_runs"),
            interp_runs: get("codegen", "interp_runs"),
        }
    }

    pub fn since(&self, before: &Stats) -> Stats {
        Stats {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            engine_runs: self.engine_runs - before.engine_runs,
            cold_executed: self.cold_executed - before.cold_executed,
            shed: self.shed - before.shed,
            warm_inline: self.warm_inline - before.warm_inline,
            compiles: self.compiles - before.compiles,
            vm_runs: self.vm_runs - before.vm_runs,
            interp_runs: self.interp_runs - before.interp_runs,
        }
    }
}

/// Brings a fresh service (default `ServeOptions`) to the workload's ready
/// state and returns it with the seconds that took.
pub fn set_up(stream: &Stream) -> Result<(Service, f64), String> {
    let started = Instant::now();
    let service = Service::new(&ServeOptions::default());
    if stream.workload == Workload::ServeWarm {
        service.warm_start();
    }
    for line in stream.warm_up_lines() {
        let response = service.handle_line(&line);
        if !response.contains(r#""status":"ok""#) {
            return Err(format!("set-up request failed: {response}"));
        }
    }
    Ok((service, started.elapsed().as_secs_f64()))
}

/// Failures of a run: how many, and the first message.
#[derive(Default)]
pub struct Failures {
    pub count: usize,
    pub first: Option<String>,
}

impl Failures {
    pub fn add(&mut self, message: String) {
        self.count += 1;
        self.first.get_or_insert(message);
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        if let Some(message) = other.first {
            self.first.get_or_insert(message);
        }
    }
}

/// What one timed window measured.  The window is cut into equal slices
/// by completion time, each with its own latency histogram, so the report
/// can take medians over slices.
pub struct Window {
    pub slices: Vec<Histogram>,
    /// Seconds each slice lasted (the last one runs until the final
    /// in-flight request completes).
    pub slice_s: Vec<f64>,
    pub requests: u64,
    /// Per base input: requests and their summed latency in ms.
    pub per_input: Vec<(u64, f64)>,
    pub failures: Failures,
    pub stats: Stats,
    pub samples: Samples,
}

impl Window {
    /// Latencies of the whole window.
    pub fn whole(&self) -> Histogram {
        let mut whole = Histogram::default();
        for slice in &self.slices {
            whole.merge(slice);
        }
        whole
    }
}

/// Closed loop: each client sends request `i` of the shared stream, waits
/// for the answer, checks it, and takes the next index until the window
/// closes.  With a tracer, each request's layer calls follow its timed
/// `handle_line`.
pub fn run_window(
    service: &Service,
    stream: &Stream,
    oracle: &Oracle,
    seconds: f64,
    slices: usize,
    tracer: Option<&Tracer>,
) -> Window {
    let clients = stream.workload.clients();
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients + 1);
    let before = Stats::read(service);
    let window = Duration::from_secs_f64(seconds);
    let slice = window / slices as u32;
    let (outcomes, elapsed_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut histograms = vec![Histogram::default(); slices];
                    let mut per_input = vec![(0u64, 0.0f64); stream.inputs.len()];
                    let mut failures = Failures::default();
                    let mut winners: Vec<(usize, TuneWinner)> = Vec::new();
                    let mut samples = Samples::default();
                    barrier.wait();
                    let opened = Instant::now();
                    let deadline = opened + window;
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let line = stream.line(i);
                        let started = Instant::now();
                        let response = service.handle_line(&line);
                        let took = started.elapsed();
                        let at = (started + took - opened).as_secs_f64() / slice.as_secs_f64();
                        let ms = took.as_secs_f64() * 1e3;
                        histograms[(at as usize).min(slices - 1)].record(ms);
                        let input = &mut per_input[stream.input(i)];
                        input.0 += 1;
                        input.1 += ms;
                        match oracle.check(stream.input(i), &line, &response) {
                            Ok(checked) => {
                                if let Some((_, winner)) = checked.tune {
                                    winners.push((i, winner));
                                }
                            }
                            Err(message) => failures.add(format!("request {i}: {message}")),
                        }
                        if let Some(tracer) = tracer {
                            tracer.trace(service, &line, &response, took, &mut samples);
                        }
                    }
                    (histograms, per_input, failures, winners, samples)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outcomes, started.elapsed().as_secs_f64())
    });
    let stats = Stats::read(service).since(&before);
    let mut merged = vec![Histogram::default(); slices];
    let mut failures = Failures::default();
    let mut samples = Samples::default();
    let mut winners = Vec::new();
    let mut per_input = vec![(0u64, 0.0f64); stream.inputs.len()];
    for (histograms, inputs, fail, won, smp) in outcomes {
        for (total, part) in merged.iter_mut().zip(&histograms) {
            total.merge(part);
        }
        for (total, part) in per_input.iter_mut().zip(&inputs) {
            total.0 += part.0;
            total.1 += part.1;
        }
        failures.merge(fail);
        winners.extend(won);
        samples.merge(smp);
    }
    // Outside the window: rerun every tune winner on the interpreter.
    winners.sort_by_key(|(i, _)| *i);
    for (i, winner) in &winners {
        if let Err(message) = recheck_winner(winner) {
            failures.add(format!("request {i}: {message}"));
        }
    }
    let mut slice_s = vec![slice.as_secs_f64(); slices];
    slice_s[slices - 1] = elapsed_s - slice.as_secs_f64() * (slices - 1) as f64;
    Window {
        requests: merged.iter().map(Histogram::len).sum(),
        per_input,
        slices: merged,
        slice_s,
        failures,
        stats,
        samples,
    }
}

/// Exact work counts of one cycle of the stream (every base input once),
/// sent by a single client to a freshly set-up service.
#[derive(Debug, Default)]
pub struct CycleCounts {
    pub stats: Stats,
    pub unbounded: u64,
    pub lowered_funcs: u64,
    pub tune: TuneCounts,
}

pub fn count_cycle(stream: &Stream, oracle: &Oracle) -> Result<CycleCounts, String> {
    let (service, _) = set_up(stream)?;
    let before = Stats::read(&service);
    let mut counts = CycleCounts::default();
    for i in 0..stream.cycle() {
        let line = stream.line(i);
        let response = service.handle_line(&line);
        let checked = oracle
            .check(stream.input(i), &line, &response)
            .map_err(|message| format!("count pass, request {i}: {message}"))?;
        counts.unbounded += u64::from(checked.unbounded);
        counts.lowered_funcs += checked.lowered as u64;
        if let Some((tune, _)) = checked.tune {
            counts.tune.candidates += tune.candidates;
            counts.tune.certified += tune.certified;
            counts.tune.refused += tune.refused;
        }
    }
    counts.stats = Stats::read(&service).since(&before);
    Ok(counts)
}

/// The exact counts the timed window must repeat; a later change that
/// moves one changed the work, not the speed.
pub fn assert_window_counts(workload: Workload, window: &Window) -> Result<(), String> {
    let requests = window.requests;
    let s = &window.stats;
    let ok = match workload {
        Workload::VerifyCold => s.cache_misses == requests && s.cache_hits == 0,
        Workload::ServeWarm => s.engine_runs == 0 && s.cache_misses == 0,
        Workload::RunExec => s.interp_runs == 0 && s.compiles == 0 && s.vm_runs == requests,
        Workload::TuneCold => s.compiles == requests && s.interp_runs == 0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: window counts broke their invariant over {requests} requests: {s:?}",
            workload.name()
        ))
    }
}
