//! The `retreet-serve` binary: a long-running verification service.
//!
//! ```text
//! retreet-serve [--listen ADDR] [--warm-start]
//!               [--max-nodes N] [--race-nodes N] [--equiv-nodes N]
//!               [--validity-nodes N] [--valuations N] [--cache-capacity N]
//!               [--workers N] [--cold-queue N] [--deadline-ms MS]
//!               [--max-connections N] [--drain-ms MS]
//!               [--persist PATH] [--fail-open]
//! ```
//!
//! Without `--listen` the service speaks newline-delimited JSON on
//! stdin/stdout (one request per line, one response per line) until EOF or
//! a `{"kind": "shutdown"}` request.  With `--listen ADDR` (e.g.
//! `127.0.0.1:7878`) it accepts up to `--max-connections` concurrent TCP
//! clients, all sharing one verifier — one sharded verdict cache, one
//! single-flight table, one cold-lane worker pool.  Either way the process
//! drains in-flight requests, flushes the verdict store and exits 0 on
//! graceful shutdown.  See the crate docs for the request and response
//! schema and the two-lane scheduler.

use std::io::{stdin, stdout, BufWriter};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use retreet_serve::{serve_lines, serve_tcp, ServeOptions, Service};

struct Args {
    options: ServeOptions,
    listen: Option<String>,
    warm_start: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        options: ServeOptions::default(),
        listen: None,
        warm_start: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        let parse = |name: &str, value: String| -> Result<usize, String> {
            value.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--warm-start" => args.warm_start = true,
            "--max-nodes" => {
                let nodes = parse("--max-nodes", value("--max-nodes")?)?;
                args.options.race_nodes = nodes;
                args.options.equiv_nodes = nodes;
                args.options.validity_nodes = nodes;
            }
            "--race-nodes" => {
                args.options.race_nodes = parse("--race-nodes", value("--race-nodes")?)?
            }
            "--equiv-nodes" => {
                args.options.equiv_nodes = parse("--equiv-nodes", value("--equiv-nodes")?)?
            }
            "--validity-nodes" => {
                args.options.validity_nodes = parse("--validity-nodes", value("--validity-nodes")?)?
            }
            "--valuations" => {
                args.options.valuations = parse("--valuations", value("--valuations")?)?
            }
            "--cache-capacity" => {
                args.options.cache_capacity = parse("--cache-capacity", value("--cache-capacity")?)?
            }
            "--workers" => args.options.workers = parse("--workers", value("--workers")?)?,
            "--cold-queue" => {
                args.options.cold_queue = parse("--cold-queue", value("--cold-queue")?)?
            }
            "--deadline-ms" => {
                args.options.deadline_ms = parse("--deadline-ms", value("--deadline-ms")?)? as u64
            }
            "--max-connections" => {
                args.options.max_connections =
                    parse("--max-connections", value("--max-connections")?)?
            }
            "--drain-ms" => {
                args.options.drain_ms = parse("--drain-ms", value("--drain-ms")?)? as u64
            }
            "--persist" => args.options.persist = Some(PathBuf::from(value("--persist")?)),
            "--fail-open" => args.options.fail_open = true,
            "--help" | "-h" => {
                println!(
                    "retreet-serve [--listen ADDR] [--warm-start] \
                     [--max-nodes N] [--race-nodes N] [--equiv-nodes N] \
                     [--validity-nodes N] [--valuations N] [--cache-capacity N] \
                     [--workers N] [--cold-queue N] [--deadline-ms MS] \
                     [--max-connections N] [--drain-ms MS] [--persist PATH] [--fail-open]"
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
            eprintln!("retreet-serve: {message}");
            std::process::exit(2);
        }
    };
    let service = match Service::try_new(&args.options) {
        Ok(service) => service,
        Err(err) => {
            eprintln!("retreet-serve: {err}");
            std::process::exit(1);
        }
    };
    if args.warm_start {
        let preloaded = service.warm_start();
        eprintln!("retreet-serve: warm start preloaded {preloaded} corpus verdicts");
    }
    if let Some(stats) = service.verifier().store_stats() {
        eprintln!(
            "retreet-serve: verdict store recovered {} verdicts ({} skipped, {} bytes truncated)",
            stats.loaded, stats.skipped, stats.truncated_bytes
        );
    }
    match args.listen {
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(listener) => listener,
                Err(err) => {
                    eprintln!("retreet-serve: cannot listen on {addr}: {err}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "retreet-serve: listening on {}",
                listener.local_addr().map_or(addr, |a| a.to_string())
            );
            // serve_tcp drains (Service::finish) before returning.
            if let Err(err) = serve_tcp(Arc::new(service), listener) {
                eprintln!("retreet-serve: listener failed: {err}");
                std::process::exit(1);
            }
        }
        None => {
            let input = stdin().lock();
            let output = BufWriter::new(stdout().lock());
            let result = serve_lines(&service, input, output);
            // EOF or a shutdown request: drain in-flight work and flush
            // the store, then exit 0 — graceful either way.
            let drained = service.finish();
            if let Err(err) = result {
                eprintln!("retreet-serve: {err}");
                std::process::exit(1);
            }
            if !drained {
                eprintln!("retreet-serve: drain deadline hit; stragglers were cancelled");
            }
        }
    }
}
