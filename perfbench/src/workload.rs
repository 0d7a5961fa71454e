//! The four workloads and the request streams they send, all made from the
//! run's seed.
//!
//! A stream is one cycle of base inputs in a seeded order, repeated without
//! end.  Request `i` is a pure function of the seed and `i`, so the traced
//! run replays exactly the requests of the untraced run.

use retreet_lang::ast::Program;
use retreet_lang::corpus;
use retreet_lang::pretty::print_program;
use retreet_lang::rewrite::prefix_locals;
use retreet_serve::json;

/// Marker spliced in front of every local (and bound formula variable) of
/// a variant template.  Each request replaces it with a prefix of its own,
/// so no two requests share a subject and every one misses the caches.
const MARK: &str = "QzQz";

/// Height of the `tune` measurement tree (the service's default).
pub const TUNE_HEIGHT: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    VerifyCold,
    ServeWarm,
    RunExec,
    TuneCold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "verify-cold" => Some(Workload::VerifyCold),
            "serve-warm" => Some(Workload::ServeWarm),
            "run-exec" => Some(Workload::RunExec),
            "tune-cold" => Some(Workload::TuneCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyCold => "verify-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::RunExec => "run-exec",
            Workload::TuneCold => "tune-cold",
        }
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::TuneCold => 1,
            _ => 2,
        }
    }
}

/// SplitMix64: a small, seedable, dependency-free generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5deece66d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a base input asks, in the form the oracle needs.
pub enum Subject {
    Race(Program),
    Equivalence(Program, Program),
    Validity(String),
    Run {
        program: Program,
        height: usize,
        seed: u64,
    },
    Tune(Program),
}

/// One base input of a workload.
pub struct Input {
    pub name: String,
    pub subject: Subject,
    /// The NDJSON request line (for `tune`, only the escaped program); on
    /// the fresh-variant workloads it carries [`MARK`] where each request's
    /// prefix goes.
    template: String,
}

/// The two validity formulas of the serving mix, with their bound
/// variables marked for renaming.
const VALIDITY_FORMULAS: [(&str, &str); 2] = [
    (
        "validity_reach",
        "(forall QzQzr (implies (root QzQzr) (forall QzQzx (reach QzQzr QzQzx))))",
    ),
    ("validity_leaf", "(forall QzQzx (leaf QzQzx))"),
];

/// The six known equivalence pairs: E1a, E1b, E2, E3, E4a and the ternary
/// sequential/parallel sums.
fn equivalence_pairs() -> Vec<(&'static str, Program, Program)> {
    vec![
        (
            "E1a_size_counting",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused(),
        ),
        (
            "E1b_size_counting_invalid",
            corpus::size_counting_sequential(),
            corpus::size_counting_fused_invalid(),
        ),
        (
            "E2_tree_mutation",
            corpus::tree_mutation_original(),
            corpus::tree_mutation_fused(),
        ),
        (
            "E3_css_minify",
            corpus::css_minify_original(),
            corpus::css_minify_fused(),
        ),
        (
            "E4a_cycletree",
            corpus::cycletree_original(),
            corpus::cycletree_fused(),
        ),
        (
            "ternary_seq_par",
            corpus::ternary_sum_sequential(),
            corpus::ternary_sum_parallel(),
        ),
    ]
}

/// The five fusable originals (the `run` and `tune` families).
fn fusable_families() -> Vec<(&'static str, Program)> {
    vec![
        ("size_counting", corpus::size_counting_sequential()),
        ("tree_mutation", corpus::tree_mutation_original()),
        ("css_minify", corpus::css_minify_original()),
        ("cycletree", corpus::cycletree_original()),
        ("kdtree_closest", corpus::kdtree_closest()),
    ]
}

/// `program` printed with every local prefixed by [`MARK`].
fn marked_source(program: &Program) -> String {
    let renamed = program.with_funcs(
        program
            .funcs
            .iter()
            .map(|f| prefix_locals(f, MARK))
            .collect(),
    );
    print_program(&renamed)
}

/// The verification mix: a race query per corpus program, the six
/// equivalence pairs and the two validity formulas.  With `fresh`, the
/// templates are marked for per-request renaming.
fn verify_inputs(fresh: bool) -> Vec<Input> {
    let source = |program: &Program| {
        if fresh {
            marked_source(program)
        } else {
            print_program(program)
        }
    };
    let mut inputs = Vec::new();
    for (name, program) in corpus::all() {
        inputs.push(Input {
            name: format!("race:{name}"),
            template: format!(
                r#"{{"kind":"race","program":"{}"}}"#,
                json::escape(&source(&program))
            ),
            subject: Subject::Race(program),
        });
    }
    for (name, original, transformed) in equivalence_pairs() {
        inputs.push(Input {
            name: format!("equivalence:{name}"),
            template: format!(
                r#"{{"kind":"equivalence","original":"{}","transformed":"{}"}}"#,
                json::escape(&source(&original)),
                json::escape(&source(&transformed))
            ),
            subject: Subject::Equivalence(original, transformed),
        });
    }
    for (name, formula) in VALIDITY_FORMULAS {
        let text = if fresh {
            formula.to_string()
        } else {
            formula.replace(MARK, "")
        };
        inputs.push(Input {
            name: format!("validity:{name}"),
            template: format!(
                r#"{{"kind":"validity","formula":"{}"}}"#,
                json::escape(&text)
            ),
            subject: Subject::Validity(formula.replace(MARK, "")),
        });
    }
    inputs
}

/// The `run` inputs: the five fusable originals and the two `Par`
/// programs, each at every height of its range (binary 12–14, ternary
/// 8–10) with a field seed drawn from a small seeded pool.  Taking every
/// height once keeps the work per cycle the same for every seed.
fn run_inputs(rng: &mut Rng) -> Vec<Input> {
    let pool: Vec<u64> = (0..4).map(|_| rng.next_u64() % 1_000_000).collect();
    let mut programs = fusable_families();
    programs.push(("size_counting_parallel", corpus::size_counting_parallel()));
    programs.push(("ternary_sum_parallel", corpus::ternary_sum_parallel()));
    let mut inputs = Vec::new();
    for (name, program) in programs {
        let heights = if program.arity > 2 { 8..=10 } else { 12..=14 };
        for height in heights {
            let seed = pool[rng.below(pool.len())];
            inputs.push(Input {
                name: format!("run:{name}@h{height}"),
                template: format!(
                    r#"{{"kind":"run","program":"{}","height":{height},"seed":{seed}}}"#,
                    json::escape(&print_program(&program))
                ),
                subject: Subject::Run {
                    program: program.clone(),
                    height,
                    seed,
                },
            });
        }
    }
    inputs
}

fn tune_inputs() -> Vec<Input> {
    fusable_families()
        .into_iter()
        .map(|(name, program)| Input {
            name: format!("tune:{name}"),
            template: json::escape(&marked_source(&program)),
            subject: Subject::Tune(program),
        })
        .collect()
}

/// A workload's endless, seeded request stream.
pub struct Stream {
    pub workload: Workload,
    pub inputs: Vec<Input>,
    /// One cycle: a seeded permutation of the input indices.
    order: Vec<usize>,
    seed: u64,
    /// Field seeds `tune` requests draw from.
    tune_seeds: Vec<u64>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let inputs = match workload {
            Workload::VerifyCold => verify_inputs(true),
            Workload::ServeWarm => verify_inputs(false),
            Workload::RunExec => run_inputs(&mut rng),
            Workload::TuneCold => tune_inputs(),
        };
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        let tune_seeds = (0..8).map(|_| rng.next_u64() % 1_000_000).collect();
        Stream {
            workload,
            inputs,
            order,
            seed,
            tune_seeds,
        }
    }

    /// Requests in one cycle (every base input exactly once).
    pub fn cycle(&self) -> usize {
        self.order.len()
    }

    /// The base input request `i` instantiates.
    pub fn input(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    /// The field seed of `tune` request `i`.
    pub fn tune_seed(&self, i: usize) -> u64 {
        let mut rng = Rng::new(self.seed ^ (i as u64).wrapping_mul(0x2545f4914f6cdd1d));
        self.tune_seeds[rng.below(self.tune_seeds.len())]
    }

    /// The NDJSON line of request `i`.
    pub fn line(&self, i: usize) -> String {
        let template = &self.inputs[self.input(i)].template;
        let prefix = format!("s{}r{i}", self.seed);
        match self.workload {
            Workload::VerifyCold => template.replace(MARK, &prefix),
            Workload::ServeWarm | Workload::RunExec => template.clone(),
            Workload::TuneCold => format!(
                r#"{{"kind":"tune","program":"{}","seed":{}}}"#,
                template.replace(MARK, &prefix),
                self.tune_seed(i)
            ),
        }
    }

    /// The lines that bring a fresh service to the workload's ready state
    /// (untimed): one pass over the mix on serve-warm, one small `run` per
    /// distinct program on run-exec (its first compile).
    pub fn warm_up_lines(&self) -> Vec<String> {
        match self.workload {
            Workload::ServeWarm => self.inputs.iter().map(|i| i.template.clone()).collect(),
            Workload::RunExec => {
                let mut lines: Vec<String> = Vec::new();
                for input in &self.inputs {
                    if let Subject::Run { program, .. } = &input.subject {
                        let line = format!(
                            r#"{{"kind":"run","program":"{}","height":3,"seed":0}}"#,
                            json::escape(&print_program(program))
                        );
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                    }
                }
                lines
            }
            Workload::VerifyCold | Workload::TuneCold => Vec::new(),
        }
    }
}
