//! The chaos differential suite: deterministic fault storms against the
//! verifier and the serving tier.
//!
//! Faults are injected by a seeded `FaultPlan` (engine panics and stalls,
//! store write errors / torn writes / silent corruption, connection drops
//! mid-response).  Which *draw* lands on which operation depends on thread
//! scheduling, so these tests assert **invariants**, not exact fault
//! sequences:
//!
//! * **Never a wrong verdict** — under any engine-fault storm, every
//!   answered query carries the same outcome as a fault-free reference
//!   run; failures surface as *typed* errors, never as a truncated or
//!   invented verdict.
//! * **Recovery completeness** — whatever subset of verdicts survived a
//!   store-fault storm on disk is replayed byte-identically after a
//!   restart, with exact hit accounting.
//! * **Kill-then-restart** — with no store faults, a restarted service
//!   serves 100% of its prior corpus from the recovered store, witnesses
//!   byte-identical, zero engine runs — even with torn garbage appended
//!   to the log (a crash mid-append).
//! * **Blast-radius** — a dropped connection or an engine panic is
//!   confined to its request/connection; the shared service keeps
//!   serving and its accounting stays consistent.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use retreet_repro::retreet_lang::ast::Program;
use retreet_repro::retreet_lang::corpus;
use retreet_repro::retreet_serve::{json, serve_tcp, ServeOptions, Service};
use retreet_repro::retreet_verify::{FaultPlan, Query, Verifier, VerifyError};

/// Every corpus program as NDJSON-embeddable source (mirrors
/// `corpus::all()`, which only exposes parsed ASTs).
const CORPUS_SOURCES: [&str; 17] = [
    corpus::SIZE_COUNTING_PARALLEL_SRC,
    corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
    corpus::SIZE_COUNTING_FUSED_SRC,
    corpus::SIZE_COUNTING_FUSED_INVALID_SRC,
    corpus::TREE_MUTATION_ORIGINAL_SRC,
    corpus::TREE_MUTATION_FUSED_SRC,
    corpus::CSS_MINIFY_ORIGINAL_SRC,
    corpus::CSS_MINIFY_FUSED_SRC,
    corpus::CYCLETREE_ORIGINAL_SRC,
    corpus::CYCLETREE_FUSED_SRC,
    corpus::CYCLETREE_PARALLEL_SRC,
    corpus::DISJOINT_PARALLEL_SRC,
    corpus::OVERLAPPING_PARALLEL_SRC,
    corpus::KDTREE_CLOSEST_SRC,
    corpus::TERNARY_SUM_SEQUENTIAL_SRC,
    corpus::TERNARY_SUM_PARALLEL_SRC,
    corpus::TERNARY_SUM_RACY_SRC,
];

/// A fresh store path under the OS temp dir, unique per test.
fn temp_store(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("retreet-chaos-{tag}-{}.rslog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Fault-free reference verdicts (`true` = race-free) for every corpus
/// race query.  Under a fault storm a *different* engine may answer than
/// in the reference run, so witness details and work counters can vary —
/// the soundness invariant is the verdict polarity: a storm may delay or
/// refuse an answer, but never flip it.
fn reference_outcomes() -> Vec<(&'static str, Program, bool)> {
    let reference = Verifier::builder().max_nodes(3).valuations(1).build();
    corpus::all()
        .into_iter()
        .map(|(name, program)| {
            let verdict = reference.verify(Query::DataRace(&program)).unwrap();
            let race_free = verdict.is_race_free();
            (name, program, race_free)
        })
        .collect()
}

#[test]
fn engine_fault_storms_never_produce_a_wrong_verdict() {
    const SEEDS: [u64; 6] = [1, 7, 42, 5, 13, 99];
    const ROUNDS: u64 = 2;
    let reference = reference_outcomes();
    let mut answered = 0u64;
    let mut errored = 0u64;
    let mut faults_seen = 0u64;
    for seed in SEEDS {
        // Caches off: every query is a real portfolio dispatch under the
        // storm.
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .cache_capacity(0)
            .fault_plan(
                FaultPlan::builder(seed)
                    .engine_panic(0.3)
                    .engine_stall(0.1, 2)
                    .build(),
            )
            .build();
        for round in 0..ROUNDS {
            for (name, program, race_free) in &reference {
                match verifier.verify(Query::DataRace(program)) {
                    Ok(verdict) => {
                        answered += 1;
                        assert_eq!(
                            verdict.is_race_free(),
                            *race_free,
                            "seed {seed} round {round}: {name} answered a WRONG verdict"
                        );
                    }
                    // Fail-closed failures must be typed, never panics.
                    Err(VerifyError::PortfolioFailed { .. })
                    | Err(VerifyError::NoApplicableEngine { .. })
                    | Err(VerifyError::DeadlineExceeded { .. }) => errored += 1,
                    Err(other) => {
                        panic!("seed {seed} {name}: unexpected error class {other}")
                    }
                }
            }
        }
        faults_seen += verifier.fault_counts().unwrap().total();
    }
    assert!(
        faults_seen > 0,
        "the storm must actually inject faults (saw none)"
    );
    assert!(
        answered > 0,
        "some queries must still answer under a 30% panic rate"
    );
    // Sanity: total accounting (every dispatch either answered or errored).
    assert_eq!(
        answered + errored,
        SEEDS.len() as u64 * ROUNDS * reference.len() as u64
    );
}

#[test]
fn store_fault_storms_leave_a_recoverable_log_with_exact_hit_accounting() {
    let reference = reference_outcomes();
    let path = temp_store("store-storm");
    // Phase 1: compute the corpus under a store-fault storm.  Write
    // errors, torn frames and silent corruption all land in the log.
    {
        let verifier = Verifier::builder()
            .max_nodes(3)
            .valuations(1)
            .persist(&path)
            .fault_plan(
                FaultPlan::builder(99)
                    .store_write_error(0.2)
                    .store_torn_write(0.2)
                    .store_corruption(0.2)
                    .build(),
            )
            .build();
        for (_, program, _) in &reference {
            verifier.verify(Query::DataRace(program)).unwrap();
        }
        let counts = verifier.fault_counts().unwrap();
        assert!(
            counts.store_write_errors + counts.store_torn_writes + counts.store_corruptions > 0,
            "the storm must hit the store at least once: {counts:?}"
        );
        verifier.flush_store();
    }
    // Phase 2: restart without faults.  Whatever survived on disk loads;
    // corrupt records are skipped, torn tails truncated — never a crash,
    // never a wrong verdict.
    let restarted = Verifier::builder()
        .max_nodes(3)
        .valuations(1)
        .persist(&path)
        .build();
    let loaded = restarted.store_stats().unwrap().loaded;
    assert!(
        loaded <= reference.len() as u64,
        "cannot recover more than was computed"
    );
    for (name, program, race_free) in &reference {
        let verdict = restarted.verify(Query::DataRace(program)).unwrap();
        assert_eq!(
            verdict.is_race_free(),
            *race_free,
            "{name}: recovery must never resurface a wrong verdict"
        );
    }
    // Exact accounting: each recovered verdict was a hit, each lost one a
    // miss — nothing double-counted, nothing silently dropped.
    let cache = restarted.verifier_cache_stats_hits_misses();
    assert_eq!(cache.0 + cache.1, reference.len() as u64);
    assert_eq!(cache.0, loaded, "hits must equal recovered verdicts");
    let _ = std::fs::remove_file(&path);
}

/// Small shim so the test reads naturally above.
trait CacheHitsMisses {
    fn verifier_cache_stats_hits_misses(&self) -> (u64, u64);
}

impl CacheHitsMisses for Verifier {
    fn verifier_cache_stats_hits_misses(&self) -> (u64, u64) {
        let stats = self.cache_stats();
        (stats.hits, stats.misses)
    }
}

#[test]
fn kill_then_restart_serves_the_prior_corpus_byte_identically() {
    let path = temp_store("restart");
    let options = ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        persist: Some(path.clone()),
        ..ServeOptions::default()
    };
    // Requests: every corpus race query plus one equivalence pair.
    let mut requests: Vec<String> = CORPUS_SOURCES
        .iter()
        .map(|source| format!(r#"{{"kind":"race","program":"{}"}}"#, json::escape(source)))
        .collect();
    requests.push(format!(
        r#"{{"kind":"equivalence","original":"{}","transformed":"{}"}}"#,
        json::escape(corpus::SIZE_COUNTING_SEQUENTIAL_SRC),
        json::escape(corpus::SIZE_COUNTING_FUSED_SRC)
    ));

    // Strip the fields that legitimately differ across processes (timing,
    // serving provenance); everything else — verdict, witness detail,
    // engine, soundness — must be byte-identical after restart.
    fn stable_fields(response: &str) -> String {
        let parsed = json::parse(response).expect("valid response");
        let object = parsed.as_object().expect("object response");
        [
            "status",
            "kind",
            "verdict",
            "positive",
            "engine",
            "soundness",
            "detail",
        ]
        .iter()
        .map(|key| {
            format!(
                "{key}={}",
                object.get(*key).map(|v| v.to_string()).unwrap_or_default()
            )
        })
        .collect::<Vec<_>>()
        .join("|")
    }

    let before: Vec<String> = {
        let service = Service::new(&options);
        let answers: Vec<String> = requests.iter().map(|r| service.handle_line(r)).collect();
        for answer in &answers {
            assert!(answer.contains(r#""status":"ok""#), "{answer}");
        }
        answers.iter().map(|a| stable_fields(a)).collect()
        // The service is dropped WITHOUT Service::finish — the log must be
        // crash-safe with no graceful flush.
    };

    // Simulate a crash mid-append: torn garbage at the tail of the log.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("log exists");
        file.write_all(&[0xA7, 0xFF, 0x13, 0x37]).unwrap();
    }

    // Restart: every prior verdict must be served from the recovered
    // store — cache hits, byte-identical stable fields, zero engine runs.
    let service = Service::new(&options);
    let stats = service.verifier().store_stats().unwrap();
    assert_eq!(
        stats.loaded,
        requests.len() as u64,
        "every prior verdict must recover: {stats:?}"
    );
    assert!(stats.truncated_bytes > 0, "the torn tail was truncated");
    for (request, expected) in requests.iter().zip(&before) {
        let response = service.handle_line(request);
        assert!(
            response.contains(r#""cached":true"#),
            "restart must serve from the recovered store: {response}"
        );
        assert_eq!(
            &stable_fields(&response),
            expected,
            "witness drifted across the restart"
        );
    }
    assert_eq!(
        service.verifier().serving_stats().engine_runs,
        0,
        "nothing may be recomputed after recovery"
    );
    let hits = service.verifier().cache_stats().hits;
    assert_eq!(hits, requests.len() as u64, "100% warm-hit after restart");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dropped_connections_are_confined_and_the_service_stays_healthy() {
    let service = Arc::new(Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        faults: Some(Arc::new(FaultPlan::builder(5).connection_drop(0.4).build())),
        ..ServeOptions::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    let acceptor = std::thread::spawn(move || serve_tcp(server, listener));

    const CLIENTS: usize = 10;
    let mut delivered = 0usize;
    let mut dropped = 0usize;
    for client in 0..CLIENTS {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let request = format!(
            "{{\"id\": {client}, \"kind\": \"validity\", \"formula\": \"(exists x (root x))\"}}\n"
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(_) if line.ends_with('\n') && json::parse(line.trim()).is_ok() => {
                assert!(line.contains(r#""verdict":"valid""#), "{line}");
                delivered += 1;
            }
            // A partial line (no newline / unparsable) or an early EOF is
            // the injected drop: this connection died, nothing more.
            _ => dropped += 1,
        }
    }
    assert_eq!(delivered + dropped, CLIENTS);
    assert!(dropped > 0, "a 40% drop rate over 10 responses should fire");
    assert!(delivered > 0, "some responses should still get through");
    // Every request was handled exactly once regardless of its write fate,
    // and the service still answers new work directly.
    assert_eq!(service.requests_handled(), CLIENTS as u64);
    let direct = service.handle_line(r#"{"kind": "stats"}"#);
    assert!(direct.contains(r#""status":"ok""#), "{direct}");

    // Shut the acceptor down so the test exits cleanly.
    service.handle_line(r#"{"kind": "shutdown"}"#);
    acceptor.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_loses_no_inflight_response() {
    // A slow cold query is in flight on one connection while another
    // requests shutdown: the drain must deliver the slow response before
    // the acceptor exits.
    let service = Arc::new(Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        drain_ms: 10_000,
        faults: Some(Arc::new(
            FaultPlan::builder(3).engine_stall(1.0, 700).build(),
        )),
        ..ServeOptions::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    let acceptor = std::thread::spawn(move || serve_tcp(server, listener));

    // c1: a cold race query, stalled ~700 ms per engine run.
    let c1 = TcpStream::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut c1_reader = BufReader::new(c1.try_clone().unwrap());
    let mut c1 = c1;
    let request = format!(
        "{{\"id\": 1, \"kind\": \"race\", \"program\": \"{}\"}}\n",
        json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC)
    );
    c1.write_all(request.as_bytes()).unwrap();
    // Let c1's query reach the cold lane before shutdown arrives.
    std::thread::sleep(Duration::from_millis(150));
    assert!(!service.is_shutting_down());

    // c2: shutdown.
    let c2 = TcpStream::connect(addr).unwrap();
    let mut c2_reader = BufReader::new(c2.try_clone().unwrap());
    let mut c2 = c2;
    c2.write_all(b"{\"id\": 2, \"kind\": \"shutdown\"}\n")
        .unwrap();
    let mut line = String::new();
    c2_reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""draining":true"#), "{line}");

    // c1 still receives its full verdict — the in-flight response is not
    // lost to the shutdown.
    let mut line = String::new();
    c1_reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(r#""status":"ok""#),
        "in-flight response lost: {line}"
    );
    assert!(line.contains(r#""verdict":"race-free""#), "{line}");

    // The acceptor drained and exited cleanly.
    acceptor.join().unwrap().unwrap();
    assert!(service.is_shutting_down());
}

#[test]
fn excess_connections_are_refused_at_accept_with_overloaded() {
    let service = Arc::new(Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        max_connections: 2,
        ..ServeOptions::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    let acceptor = std::thread::spawn(move || serve_tcp(server, listener));

    let round_trip = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| -> String {
        stream
            .write_all(b"{\"kind\": \"stats\"}\n")
            .expect("write request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };

    // Two connections are served…
    let (mut c1, mut r1) = connect();
    assert!(round_trip(&mut c1, &mut r1).contains(r#""status":"ok""#));
    let (mut c2, mut r2) = connect();
    assert!(round_trip(&mut c2, &mut r2).contains(r#""status":"ok""#));
    // …the third is refused at accept time with one typed error line.
    let (_c3, mut r3) = connect();
    let mut line = String::new();
    r3.read_line(&mut line).expect("read refusal");
    assert!(line.contains(r#""code":"overloaded""#), "{line}");
    let mut rest = String::new();
    assert_eq!(r3.read_line(&mut rest).unwrap(), 0, "refused then closed");

    // Freeing a slot readmits new clients.
    drop(c1);
    drop(r1);
    std::thread::sleep(Duration::from_millis(200));
    let (mut c4, mut r4) = connect();
    assert!(
        round_trip(&mut c4, &mut r4).contains(r#""status":"ok""#),
        "a freed slot must be reusable"
    );

    c4.write_all(b"{\"kind\": \"shutdown\"}\n").unwrap();
    let mut line = String::new();
    r4.read_line(&mut line).unwrap();
    assert!(line.contains(r#""draining":true"#), "{line}");
    acceptor.join().unwrap().unwrap();
}
