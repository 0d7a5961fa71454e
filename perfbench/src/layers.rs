//! Per-layer timings for the traced run.  After each request's timed
//! `handle_line`, the tracer calls each layer's public entry point on that
//! request's inputs, from outside the program, and records how long the
//! call took.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use retreet_analysis::corresp::check_fusion_correspondence;
use retreet_analysis::summary::structural_race_analysis;
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{compile_with_lowering, CompiledProgram, FlatTree, Vm};
use retreet_lang::ast::Program;
use retreet_lang::parse_program;
use retreet_lang::validate::has_parallelism;
use retreet_mso::compile::is_valid;
use retreet_runtime::{tune_and_compile, ProgramExecutor};
use retreet_serve::formula::parse_formula;
use retreet_serve::json::{self, Value};
use retreet_serve::{ServeOptions, Service};
use retreet_transform::{fuse_main_passes, TuneOptions};
use retreet_verify::{Engine, Query, Verifier};

use crate::oracle::run_tree;
use crate::workload::TUNE_HEIGHT;

/// Every per-layer timing, in report order, with its unit.
pub const TIMINGS: [(&str, &str); 20] = [
    ("serve.json_parse_us", "us"),
    ("serve.overhead_us", "us"),
    ("lang.parse_us", "us"),
    ("verify.probe_us", "us"),
    ("verify.hit_us", "us"),
    ("verify.dispatch_ms", "ms"),
    ("verify.automata_ms", "ms"),
    ("verify.configuration_ms", "ms"),
    ("verify.trace_ms", "ms"),
    ("verify.certify_ms", "ms"),
    ("analysis.race_summary_ms", "ms"),
    ("analysis.corresp_ms", "ms"),
    ("analysis.tree_build_ms", "ms"),
    ("mso.validity_ms", "ms"),
    ("codegen.flatten_ms", "ms"),
    ("codegen.vm_exec_ms", "ms"),
    ("codegen.write_back_ms", "ms"),
    ("runtime.compile_ms", "ms"),
    ("runtime.tune_ms", "ms"),
    ("transform.fuse_ms", "ms"),
];

/// Timing samples by metric name, in the metric's unit.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, elapsed: Duration) {
        let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
        self.push_value(name, elapsed.as_secs_f64() * scale);
    }

    fn push_value(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn merge(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_default().extend(values);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Times `f`, records the sample under `name`, and returns its result with
/// the elapsed time.
fn timed<T>(samples: &mut Samples, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let result = std::hint::black_box(f());
    let took = started.elapsed();
    samples.push(name, took);
    (result, took)
}

thread_local! {
    /// One VM per client thread, reused across runs as the service reuses
    /// each executor's VM, so its pools are warm.
    static VM: RefCell<Vm> = RefCell::new(Vm::new());
}

pub struct Tracer {
    /// A verifier with the cache disabled: every call runs the engines.
    uncached: Verifier,
    /// Compiled programs of the `run` inputs, by source (compiled once).
    compiled: Mutex<BTreeMap<String, Arc<CompiledProgram>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            uncached: ServeOptions {
                cache_capacity: 0,
                ..ServeOptions::default()
            }
            .build_verifier(),
            compiled: Mutex::new(BTreeMap::new()),
        }
    }

    /// The layer calls of one request that `service` just answered in
    /// `took`.
    pub fn trace(
        &self,
        service: &Service,
        line: &str,
        response: &str,
        took: Duration,
        samples: &mut Samples,
    ) {
        let (value, json_time) = timed(samples, "serve.json_parse_us", || json::parse(line));
        let Ok(value) = value else { return };
        let Some(request) = value.as_object() else {
            return;
        };
        let text = |key: &str| request.get(key).and_then(Value::as_str).unwrap_or("");
        let mut parse_time = Duration::ZERO;
        let mut parse = |samples: &mut Samples, source: &str| -> Option<Program> {
            let (program, took) = timed(samples, "lang.parse_us", || parse_program(source));
            parse_time += took;
            program.ok()
        };
        let cold = response.contains(r#""cached":false"#);
        let work = match text("kind") {
            "race" => {
                let Some(program) = parse(samples, text("program")) else {
                    return;
                };
                timed(samples, "analysis.race_summary_ms", || {
                    structural_race_analysis(&program)
                });
                self.verify_layers(service, Query::DataRace(&program), cold, samples)
            }
            "equivalence" => {
                let (Some(original), Some(transformed)) = (
                    parse(samples, text("original")),
                    parse(samples, text("transformed")),
                ) else {
                    return;
                };
                timed(samples, "analysis.corresp_ms", || {
                    check_fusion_correspondence(&original, &transformed)
                });
                let query = Query::Equivalence(&original, &transformed);
                self.verify_layers(service, query, cold, samples)
            }
            "validity" => {
                let Ok(formula) = parse_formula(text("formula")) else {
                    return;
                };
                let _ = timed(samples, "mso.validity_ms", || is_valid(&formula));
                self.verify_layers(service, Query::Validity(&formula), cold, samples)
            }
            "run" => {
                let Some(program) = parse(samples, text("program")) else {
                    return;
                };
                let number = |key: &str| match request.get(key) {
                    Some(Value::Number(n)) => *n as u64,
                    _ => 0,
                };
                timed(samples, "runtime.compile_ms", || {
                    ProgramExecutor::with_verifier(&self.uncached, &program)
                });
                let compiled = self.compiled_for(service.verifier(), text("program"), &program);
                let (tree, build) = timed(samples, "analysis.tree_build_ms", || {
                    run_tree(&program, number("height") as usize, number("seed"))
                });
                build + self.execute(&compiled, &tree, samples)
            }
            "tune" => {
                let Some(program) = parse(samples, text("program")) else {
                    return;
                };
                let seed = match request.get("seed") {
                    Some(Value::Number(n)) => *n as u64,
                    _ => 0,
                };
                self.tune_layers(&program, seed, samples)
            }
            _ => return,
        };
        let layers = json_time + parse_time + work;
        samples.push_value(
            "serve.overhead_us",
            (took.as_secs_f64() - layers.as_secs_f64()) * 1e6,
        );
    }

    /// Probe and cached hit on the service's verifier; for a request the
    /// service answered cold, the uncached portfolio dispatch and each
    /// engine on its own.  Returns the time of the call that stands for the
    /// request's verification work.
    fn verify_layers(
        &self,
        service: &Service,
        query: Query<'_>,
        cold: bool,
        samples: &mut Samples,
    ) -> Duration {
        let verifier = service.verifier();
        timed(samples, "verify.probe_us", || verifier.probe(&query));
        let (_, hit) = timed(samples, "verify.hit_us", || verifier.verify(query));
        if !cold {
            return hit;
        }
        let (_, dispatch) = timed(samples, "verify.dispatch_ms", || {
            self.uncached.verify(query)
        });
        for (engine, name) in [
            (Engine::Automata, "verify.automata_ms"),
            (Engine::Configuration, "verify.configuration_ms"),
            (Engine::Trace, "verify.trace_ms"),
        ] {
            let started = Instant::now();
            // An engine that does not apply to the query skips at once;
            // only answers are timed.
            if self.uncached.verify_with_engine(engine, query).is_ok() {
                samples.push(name, started.elapsed());
            }
        }
        dispatch
    }

    fn compiled_for(
        &self,
        verifier: &Verifier,
        source: &str,
        program: &Program,
    ) -> Arc<CompiledProgram> {
        let mut compiled = self.compiled.lock().expect("compiled-program cache lock");
        compiled
            .entry(source.to_string())
            .or_insert_with(|| {
                Arc::new(compile_with_lowering(verifier, program).expect("a run input compiles"))
            })
            .clone()
    }

    /// Flatten, VM run and write-back of one execution.
    fn execute(
        &self,
        compiled: &CompiledProgram,
        tree: &ValueTree,
        samples: &mut Samples,
    ) -> Duration {
        let (mut flat, flatten) = timed(samples, "codegen.flatten_ms", || {
            FlatTree::from_value_tree_kary(tree, &compiled.fields, compiled.arity)
        });
        let (_, run) = timed(samples, "codegen.vm_exec_ms", || {
            VM.with(|vm| vm.borrow_mut().run_flat(compiled, &mut flat))
        });
        let (_, write) = timed(samples, "codegen.write_back_ms", || {
            flat.write_back(tree, &compiled.fields)
        });
        flatten + run + write
    }

    /// The tuner on a fresh verifier, then its pieces: certification of the
    /// candidate table in one batch, the canonical fusion and its
    /// correspondence check, and the winner's compile and execution on the
    /// measurement tree.  Returns the tuner's time.
    fn tune_layers(&self, program: &Program, seed: u64, samples: &mut Samples) -> Duration {
        let options = TuneOptions {
            tree_height: TUNE_HEIGHT,
            seed,
            ..TuneOptions::quick()
        };
        let fresh = || ServeOptions::default().build_verifier();
        let tuning = fresh();
        let (tuned, tune) = timed(samples, "runtime.tune_ms", || {
            tune_and_compile(&tuning, program, &options)
        });
        let Ok(tuned) = tuned else { return tune };

        let candidates: Vec<Program> = tuned
            .schedule
            .candidates
            .iter()
            .filter_map(|c| parse_program(&c.source()).ok())
            .collect();
        let mut queries = Vec::new();
        for candidate in &candidates {
            queries.push(Query::Equivalence(program, candidate));
            if candidate.funcs.iter().any(|f| has_parallelism(&f.body)) {
                queries.push(Query::DataRace(candidate));
            }
        }
        let certifying = fresh();
        timed(samples, "verify.certify_ms", || {
            certifying.verify_batch(&queries)
        });

        let fusing = fresh();
        let (fused, _) = timed(samples, "transform.fuse_ms", || {
            fuse_main_passes(&fusing, program)
        });
        if let Ok(fused) = fused {
            timed(samples, "analysis.corresp_ms", || {
                check_fusion_correspondence(program, &fused.transformed)
            });
        }

        let winner = &tuned.schedule.winner.transformed;
        timed(samples, "runtime.compile_ms", || {
            ProgramExecutor::with_verifier(&self.uncached, winner)
        });
        if let Ok(compiled) = compile_with_lowering(&tuning, winner) {
            let (tree, _) = timed(samples, "analysis.tree_build_ms", || {
                run_tree(program, TUNE_HEIGHT, seed)
            });
            self.execute(&compiled, &tree, samples);
        }
        tune
    }
}
