//! Service-level differential for the `run` request.  The service builds
//! its seeded complete tree straight into the VM's flat form and answers
//! from the returned values alone, so its answers are pinned here to the
//! reference interpreter running on the `ValueTree` the same request
//! describes: every corpus program, at several heights and seeds, at the
//! program's own arity and one wider, plus a program the bytecode compiler
//! rejects, which drives the executor's interpreter fallback.

use retreet_repro::retreet_analysis::interp;
use retreet_repro::retreet_analysis::vtree::ValueTree;
use retreet_repro::retreet_codegen::program_fields;
use retreet_repro::retreet_lang::ast::{Program, MAX_ARITY};
use retreet_repro::retreet_lang::corpus;
use retreet_repro::retreet_lang::parser::parse_program;
use retreet_repro::retreet_serve::json::{self, Value};
use retreet_repro::retreet_serve::{ServeOptions, Service};

/// Parses, but calls an unknown function on the nil branch — which a
/// complete tree never takes at its root — so the bytecode compiler
/// refuses it and only the interpreter runs it.
const UNCOMPILABLE_SRC: &str = "fn Sum(n) { if (n == nil) { return 0; } else { \
     a = Sum(n.l); b = Sum(n.r); return a + b + n.v; } } \
     fn Main(n) { if (n == nil) { g = Ghost(n); return g; } else { s = Sum(n); return s; } }";

fn quick_service() -> Service {
    Service::new(&ServeOptions {
        race_nodes: 3,
        equiv_nodes: 3,
        validity_nodes: 3,
        valuations: 1,
        cache_capacity: 1024,
        ..ServeOptions::default()
    })
}

fn field(response: &str, key: &str) -> Value {
    json::parse(response)
        .unwrap_or_else(|err| panic!("unparseable response {response}: {err}"))
        .as_object()
        .and_then(|object| object.get(key).cloned())
        .unwrap_or(Value::Null)
}

/// Sends one `run` through the service and checks it against the
/// interpreter on the same seeded tree; returns the tier that answered.
fn check_run(
    service: &Service,
    name: &str,
    program: &Program,
    source: &str,
    arity: u8,
    height: usize,
    seed: u64,
) -> Option<String> {
    let request = format!(
        r#"{{"kind":"run","program":"{}","height":{height},"seed":{seed},"arity":{arity}}}"#,
        json::escape(source)
    );
    let response = service.handle_line(&request);
    let context = format!("{name} arity {arity} height {height} seed {seed}: {response}");

    let fields = program_fields(program);
    let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut tree = ValueTree::complete_kary(arity, height, &refs, |_, _| 0);
    tree.fill_fields(&refs, seed);
    match interp::run(program, &tree) {
        Ok(expected) => {
            assert_eq!(field(&response, "status").as_str(), Some("ok"), "{context}");
            let returns: Vec<i64> = field(&response, "returns")
                .as_array()
                .expect("returns array")
                .iter()
                .map(|v| match v {
                    Value::Number(n) => *n as i64,
                    other => panic!("non-numeric return {other:?}: {context}"),
                })
                .collect();
            assert_eq!(returns, expected.returns, "{context}");
            assert_eq!(
                field(&response, "nodes"),
                Value::Number(tree.len() as f64),
                "{context}"
            );
            field(&response, "tier").as_str().map(str::to_string)
        }
        Err(_) => {
            assert_eq!(
                field(&response, "code").as_str(),
                Some("program_fault"),
                "{context}"
            );
            None
        }
    }
}

#[test]
fn service_run_answers_match_the_interpreter_on_the_corpus() {
    let service = quick_service();
    let sources = [
        ("size_counting_parallel", corpus::SIZE_COUNTING_PARALLEL_SRC),
        (
            "size_counting_sequential",
            corpus::SIZE_COUNTING_SEQUENTIAL_SRC,
        ),
        ("size_counting_fused", corpus::SIZE_COUNTING_FUSED_SRC),
        (
            "size_counting_fused_invalid",
            corpus::SIZE_COUNTING_FUSED_INVALID_SRC,
        ),
        ("tree_mutation_original", corpus::TREE_MUTATION_ORIGINAL_SRC),
        ("tree_mutation_fused", corpus::TREE_MUTATION_FUSED_SRC),
        ("css_minify_original", corpus::CSS_MINIFY_ORIGINAL_SRC),
        ("css_minify_fused", corpus::CSS_MINIFY_FUSED_SRC),
        ("cycletree_original", corpus::CYCLETREE_ORIGINAL_SRC),
        ("cycletree_fused", corpus::CYCLETREE_FUSED_SRC),
        ("cycletree_parallel", corpus::CYCLETREE_PARALLEL_SRC),
        ("disjoint_parallel", corpus::DISJOINT_PARALLEL_SRC),
        ("overlapping_parallel", corpus::OVERLAPPING_PARALLEL_SRC),
        ("kdtree_closest", corpus::KDTREE_CLOSEST_SRC),
        ("ternary_sum_sequential", corpus::TERNARY_SUM_SEQUENTIAL_SRC),
        ("ternary_sum_parallel", corpus::TERNARY_SUM_PARALLEL_SRC),
        ("ternary_sum_racy", corpus::TERNARY_SUM_RACY_SRC),
    ];
    assert_eq!(sources.len(), corpus::all().len(), "every corpus program");
    let mut vm_runs = 0;
    for (name, source) in sources {
        let program = parse_program(source).expect("corpus program parses");
        let own = program.arity.max(2);
        for arity in [own, (own + 1).min(MAX_ARITY)] {
            for height in [1, 2, 4, 6] {
                for seed in [0, 7, 1_000_003] {
                    let tier = check_run(&service, name, &program, source, arity, height, seed);
                    if let Some(tier) = tier {
                        assert_eq!(tier, "vm", "{name} compiles");
                        vm_runs += 1;
                    }
                }
            }
        }
    }
    let stats = service.handle_line(r#"{"kind":"stats"}"#);
    let codegen = field(&stats, "codegen");
    let codegen = codegen.as_object().expect("codegen block");
    assert_eq!(codegen["vm_runs"], Value::Number(vm_runs as f64));
    assert_eq!(codegen["interp_runs"], Value::Number(0.0));
}

#[test]
fn service_run_falls_back_to_the_interpreter_for_an_uncompilable_program() {
    let service = quick_service();
    let program = parse_program(UNCOMPILABLE_SRC).expect("parses despite the unknown callee");
    let mut runs = 0;
    for arity in [2, 3] {
        for height in [1, 4] {
            for seed in [0, 5] {
                let tier = check_run(
                    &service,
                    "uncompilable",
                    &program,
                    UNCOMPILABLE_SRC,
                    arity,
                    height,
                    seed,
                );
                assert_eq!(tier.as_deref(), Some("interpreter"));
                runs += 1;
            }
        }
    }
    let stats = service.handle_line(r#"{"kind":"stats"}"#);
    let codegen = field(&stats, "codegen");
    let codegen = codegen.as_object().expect("codegen block");
    assert_eq!(codegen["interp_runs"], Value::Number(runs as f64));
    assert_eq!(codegen["vm_runs"], Value::Number(0.0));
}
