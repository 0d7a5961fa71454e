//! Concurrency tests for the serving tier: one shared `Verifier` (and one
//! shared `retreet_serve::Service`) under many client threads.
//!
//! What must hold under concurrency:
//!
//! * **Single-flight** — N identical concurrent queries trigger exactly one
//!   portfolio dispatch; every waiter receives the identical witness.
//! * **Determinism** — uncached dispatches running at once return the same
//!   verdict (outcome, witness, engine provenance) as a single-threaded
//!   reference run, on every run.
//! * **Accounting** — sharded-cache stats stay consistent: every lookup is
//!   exactly one hit or miss (`hits + misses == total cache lookups`), and
//!   the separate `collisions` diagnostic stays 0 for distinct real
//!   queries (a 128-bit key collision is astronomically unlikely).

use std::sync::{Arc, Barrier};

use retreet_repro::retreet_lang::corpus;
use retreet_repro::retreet_serve::{json, ServeOptions, Service};
use retreet_repro::retreet_verify::{Query, Verdict, Verifier};

/// The corpus programs with a data race.
const RACY_CORPUS_PROGRAMS: [&str; 3] = [
    "cycletree_parallel",
    "overlapping_parallel",
    "ternary_sum_racy",
];

fn shared_verifier() -> Arc<Verifier> {
    Arc::new(Verifier::builder().max_nodes(3).valuations(1).build())
}

#[test]
fn single_flight_runs_the_engine_once_for_identical_concurrent_queries() {
    const THREADS: usize = 8;
    let verifier = shared_verifier();
    let program = Arc::new(corpus::cycletree_parallel());
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let verifier = Arc::clone(&verifier);
        let program = Arc::clone(&program);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            verifier.verify(Query::DataRace(&program)).unwrap()
        }));
    }
    let verdicts: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    // One portfolio dispatch total: every other query was served by the
    // cache, by coalescing onto the in-flight run, or by the leader's
    // double-check — never by a second dispatch.  The racy program's one
    // dispatch is two engine runs: the automata engine skips the structural
    // candidate, then the configuration engine finds the race.
    let serving = verifier.serving_stats();
    assert_eq!(serving.engine_runs, 2, "single-flight must dispatch once");

    // All N verdicts carry the identical witness.
    let reference = format!("{:?}", verdicts[0].race_witness().unwrap());
    for verdict in &verdicts {
        assert!(!verdict.is_race_free());
        assert_eq!(format!("{:?}", verdict.race_witness().unwrap()), reference);
    }

    // Accounting: every thread did exactly one cache lookup, each counted
    // as exactly one hit or miss.
    let cache = verifier.cache_stats();
    assert_eq!(
        cache.hits + cache.misses,
        THREADS as u64,
        "hits + misses must equal total queries"
    );
    assert_eq!(cache.collisions, 0);
    assert_eq!(cache.entries, 1);
}

#[test]
fn concurrent_identical_and_distinct_queries_keep_stats_consistent() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 4;
    let verifier = shared_verifier();
    let programs: Arc<Vec<_>> = Arc::new(corpus::all().into_iter().collect());
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let verifier = Arc::clone(&verifier);
        let programs = Arc::clone(&programs);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut issued = 0u64;
            for round in 0..ROUNDS {
                // Every thread walks the same corpus from a different
                // offset: plenty of identical-query overlap, plus distinct
                // queries in flight at the same time.
                let offset = (thread * 5 + round) % programs.len();
                for i in 0..programs.len() {
                    let (name, program) = &programs[(i + offset) % programs.len()];
                    let verdict = verifier.verify(Query::DataRace(program)).unwrap();
                    issued += 1;
                    assert_eq!(
                        verdict.is_race_free(),
                        !RACY_CORPUS_PROGRAMS.contains(name),
                        "{name}"
                    );
                }
            }
            issued
        }));
    }
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .sum();
    assert_eq!(total, (THREADS * ROUNDS * programs.len()) as u64);

    let cache = verifier.cache_stats();
    assert_eq!(
        cache.hits + cache.misses,
        total,
        "hits + misses must equal total queries"
    );
    assert_eq!(cache.collisions, 0, "no collisions among distinct programs");
    assert_eq!(cache.entries, programs.len());
    // Exactly one dispatch per distinct program (single-flight + cache).
    // A race-free program's dispatch is one engine run (the automata
    // proof); a racy one's is two (the automata skip, then the
    // configuration engine's witness).
    let serving = verifier.serving_stats();
    assert_eq!(
        serving.engine_runs,
        (programs.len() + RACY_CORPUS_PROGRAMS.len()) as u64
    );
}

#[test]
fn concurrent_uncached_dispatches_match_a_reference_100_runs() {
    // With the cache off every query is a fresh dispatch, and dispatches
    // running at once share only process-wide analysis state.  Across 100+
    // dispatches from four threads, every verdict (outcome, witness, engine
    // provenance, soundness) must equal the single-threaded reference run's.
    const THREADS: usize = 4;
    const ROUNDS: usize = 2;
    let verifier = Verifier::builder()
        .max_nodes(3)
        .valuations(1)
        .cache_capacity(0)
        .build();
    let render = |verdict: Verdict| {
        format!(
            "{} {:?} {:?}",
            verdict.engine, verdict.soundness, verdict.outcome
        )
    };
    let programs = corpus::all();
    let expected: Vec<String> = programs
        .iter()
        .map(|(_, program)| render(verifier.verify(Query::DataRace(program)).unwrap()))
        .collect();
    let runs = THREADS * ROUNDS * programs.len();
    assert!(runs >= 100, "need 100+ concurrent dispatches, did {runs}");
    let barrier = Barrier::new(THREADS);
    let (verifier, programs, expected, barrier) = (&verifier, &programs, &expected, &barrier);
    std::thread::scope(|s| {
        for thread in 0..THREADS {
            s.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    for ((name, program), expected) in programs.iter().zip(expected) {
                        let got = render(verifier.verify(Query::DataRace(program)).unwrap());
                        assert_eq!(
                            &got, expected,
                            "thread {thread}, round {round}, {name}: verdict drifted"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn shared_service_answers_concurrent_ndjson_clients_consistently() {
    const THREADS: usize = 8;
    let service = Arc::new(Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        cache_capacity: 1024,
        ..ServeOptions::default()
    }));
    let racy = Arc::new(format!(
        r#"{{"kind":"race","program":"{}"}}"#,
        json::escape(corpus::CYCLETREE_PARALLEL_SRC)
    ));
    let free = Arc::new(format!(
        r#"{{"kind":"race","program":"{}"}}"#,
        json::escape(corpus::SIZE_COUNTING_PARALLEL_SRC)
    ));
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let service = Arc::clone(&service);
        let racy = Arc::clone(&racy);
        let free = Arc::clone(&free);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..6 {
                let (line, expected) = if (thread + i) % 2 == 0 {
                    (&racy, r#""verdict":"race""#)
                } else {
                    (&free, r#""verdict":"race-free""#)
                };
                let response = service.handle_line(line);
                assert!(
                    response.contains(r#""status":"ok""#) && response.contains(expected),
                    "thread {thread} round {i}: unexpected response {response}"
                );
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }
    // Two distinct programs → two engine dispatches, everything else from
    // cache/coalescing; the accounting invariant holds under concurrency.
    // The race-free program's dispatch is one engine run, the racy one's
    // two (the automata skip, then the configuration engine's witness).
    let serving = service.verifier().serving_stats();
    assert_eq!(serving.engine_runs, 3);
    let cache = service.verifier().cache_stats();
    assert_eq!(cache.hits + cache.misses, (THREADS * 6) as u64);
    assert_eq!(cache.collisions, 0);
    assert_eq!(service.requests_handled(), (THREADS * 6) as u64);
}

#[test]
fn tcp_service_round_trips_ndjson_over_a_real_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let service = Arc::new(Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        cache_capacity: 1024,
        ..ServeOptions::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Arc::clone(&service);
    // The acceptor loops forever; it dies with the test process.
    std::thread::spawn(move || {
        let _ = retreet_repro::retreet_serve::serve_tcp(server, listener);
    });

    let mut clients = Vec::new();
    for client in 0..3 {
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let request = format!(
                "{{\"id\": {client}, \"kind\": \"validity\", \
                 \"formula\": \"(exists x (root x))\"}}\n"
            );
            stream.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(&format!("\"id\":{client}")), "{line}");
            assert!(line.contains(r#""verdict":"valid""#), "{line}");
            // A second request on the same connection still works, and is
            // now a cache hit.
            stream.write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(r#""cached":true"#), "{line}");
        }));
    }
    for client in clients {
        client.join().expect("tcp client panicked");
    }
    assert_eq!(service.requests_handled(), 6);
}
