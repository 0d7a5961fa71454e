//! The VM-backed side of the schedule autotuner: wire
//! `retreet_transform::tune`'s search to the real execution tier.
//!
//! `retreet-transform` sits below this crate and never runs a program, so
//! its [`tune`] entry point takes a cost closure (its own tests pass
//! synthetic costs).  [`tune_and_compile`] supplies the canonical one:
//!
//! * every candidate is compiled **once** through
//!   [`ProgramExecutor::with_verifier`], so certified iterative lowering
//!   applies exactly as it would in production;
//! * a candidate that would fall back to the interpreter tier is *not
//!   measured* — interpreter timings would poison the comparison, so the
//!   cost model reports the tier refusal and the candidate cannot win;
//! * before any timing, one drift probe runs the candidate once on the VM
//!   and checks it against the original program's interpreter run on the
//!   measurement tree (the reference).  Both sides are flat: the
//!   measurement tree and the reference's post-run tree are flattened once
//!   per tune over the original's fields, and each candidate's view and
//!   expected post-run columns are projected from them by field name
//!   ([`FlatTree::project`]).  The returns must agree, each of the
//!   candidate's fields must end at the reference's value (0 for a field
//!   the original never sets), and each field the original changes must be
//!   one of the candidate's — exactly `trees_agree` on the candidate's
//!   written-back tree against the reference's, with no write-back.  A
//!   drift here would mean a certified candidate disagrees with its
//!   certificate, and aborts the measurement rather than timing a wrong
//!   program;
//! * the cost times the program alone: each sample is one VM run on a
//!   fresh clone of the candidate's flat view, the one the probe ran on
//!   (cloned outside the timer), and the cost is the best of `batches`
//!   batches of `per_batch` samples, per [`TuneOptions`].
//!
//! The winner comes back compiled: [`TunedProgram`] pairs the
//! [`TunedSchedule`] with the [`ProgramExecutor`] the cost model built and
//! measured for the winning program (the original's own, when no candidate
//! beat it), so no program is compiled twice.

use std::time::{Duration, Instant};

use retreet_analysis::interp::{self, InterpError};
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{program_fields, FlatTree};
use retreet_lang::ast::Program;
use retreet_transform::tune::{tune, TuneOptions, TunedSchedule};
use retreet_transform::TransformError;
use retreet_verify::Verifier;

use crate::exec::ProgramExecutor;

/// A tuned schedule together with the compiled executor for its winner.
#[derive(Debug)]
pub struct TunedProgram {
    /// The search result: winner, baselines, full candidate table.
    pub schedule: TunedSchedule,
    /// The executor the cost model compiled (with certified lowering) and
    /// measured for the winning program — ready to run.
    pub executor: ProgramExecutor,
}

/// Builds the measurement tree the cost model times candidates on: a
/// complete tree of `options.tree_height` whose fields are the original
/// program's field set, seeded from `options.seed`.  The tree's arity is
/// `options.tree_arity` clamped up to the program's declared arity, so a
/// k-ary program is always measured with all its child axes populated.
fn measurement_tree(program: &Program, options: &TuneOptions) -> ValueTree {
    let fields = program_fields(program);
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let arity = options.tree_arity.max(program.arity).max(2);
    let mut tree = ValueTree::complete_kary(arity, options.tree_height, &field_refs, |_, _| 0);
    tree.fill_fields(&field_refs, options.seed);
    tree
}

/// The original program's interpreter run on the measurement tree, flat
/// over the original's fields: what every candidate's drift probe must
/// reproduce.
struct Reference {
    /// The original's fields, the column order of `before` and `after`.
    fields: Vec<String>,
    /// The measurement tree.
    before: FlatTree,
    /// The measurement tree after the original's run.
    after: FlatTree,
    /// `Main`'s values.
    returns: Vec<i64>,
    /// The fields whose value the original's run changed on some node.
    changed: Vec<String>,
}

impl Reference {
    /// Runs `program` on `tree` through the reference interpreter and
    /// flattens both trees at the program's arity; the tuner's candidates
    /// are transforms of `program` and keep its arity.
    fn new(program: &Program, tree: &ValueTree) -> Result<Self, InterpError> {
        let run = interp::run(program, tree)?;
        let fields = program_fields(program);
        let changed = fields
            .iter()
            .filter(|field| {
                tree.nodes()
                    .any(|node| tree.field(node, field) != run.tree.field(node, field))
            })
            .cloned()
            .collect();
        Ok(Reference {
            before: FlatTree::from_value_tree_kary(tree, &fields, program.arity),
            after: FlatTree::from_value_tree_kary(&run.tree, &fields, program.arity),
            returns: run.returns,
            changed,
            fields,
        })
    }

    /// The drift probe: one VM run of `executor` on its flat view of the
    /// measurement tree, checked by [`Self::check`].  Answers the view,
    /// unrun, for the timer.
    fn probe(&self, executor: &ProgramExecutor) -> Result<FlatTree, String> {
        let Some(compiled) = executor.compiled() else {
            return Err(String::from(
                "candidate does not compile to the VM tier; refusing to time the interpreter",
            ));
        };
        let view = self.before.project(&self.fields, &compiled.fields);
        let mut run = view.clone();
        let returns = executor.run_flat(&mut run).map_err(|err| err.to_string())?;
        self.check(&compiled.fields, &returns, &run)?;
        Ok(view)
    }

    /// Checks a run of a program with field columns `fields` that returned
    /// `returns` and left `after`.  Writing `after` back onto the
    /// measurement tree would set exactly `fields` and leave every other
    /// field as it was, so that tree agrees with the reference's post-run
    /// tree exactly when each of `fields` ends at the reference's value (0
    /// where the original never sets it) and each field the original
    /// changes is one of `fields`.
    fn check(&self, fields: &[String], returns: &[i64], after: &FlatTree) -> Result<(), String> {
        if returns != self.returns {
            return Err(format!(
                "drift: candidate returned {:?}, original returned {:?}",
                returns, self.returns
            ));
        }
        if *after != self.after.project(&self.fields, fields)
            || self.changed.iter().any(|field| !fields.contains(field))
        {
            return Err(String::from(
                "drift: candidate's post-run tree disagrees with the original",
            ));
        }
        Ok(())
    }
}

/// Times `executor` on its flat view `tree`: best of `batches` batches of
/// `per_batch` VM runs, in seconds per run.  Each run gets a fresh clone of
/// `tree`, made and dropped outside the timer.
fn best_of_vm(
    executor: &ProgramExecutor,
    tree: &FlatTree,
    batches: usize,
    per_batch: usize,
) -> Result<f64, String> {
    let per_batch = per_batch.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..batches.max(1) {
        let mut elapsed = Duration::ZERO;
        for _ in 0..per_batch {
            let mut sample = tree.clone();
            let start = Instant::now();
            let run = std::hint::black_box(executor.run_flat(&mut sample));
            elapsed += start.elapsed();
            run.map_err(|err| err.to_string())?;
        }
        best = best.min(elapsed.as_secs_f64() / per_batch as f64);
    }
    Ok(best)
}

/// Runs the schedule autotuner for `program` with the VM-backed cost model
/// and returns the winner's executor with the schedule.
///
/// See the [module docs](self) for the cost model's tier and drift gates,
/// and [`mod@retreet_transform::tune`] for the search space and the
/// never-slower-than-baseline guarantee.
///
/// Errors: everything [`tune`] can refuse,
/// plus [`TransformError::UnsupportedShape`] when the original program
/// cannot run on the interpreter (no reference to measure drift against).
pub fn tune_and_compile(
    verifier: &Verifier,
    program: &Program,
    options: &TuneOptions,
) -> Result<TunedProgram, TransformError> {
    let reference =
        Reference::new(program, &measurement_tree(program, options)).map_err(|err| {
            TransformError::UnsupportedShape(format!(
                "the original program cannot run on the measurement tree: {err}"
            ))
        })?;

    // Every executor the cost model measured; the winner's is among them.
    let mut measured: Vec<ProgramExecutor> = Vec::new();
    let mut cost = |candidate: &Program| -> Result<f64, String> {
        let executor = ProgramExecutor::with_verifier(verifier, candidate);
        let view = reference.probe(&executor)?;
        let seconds = best_of_vm(&executor, &view, options.batches, options.per_batch)?;
        measured.push(executor);
        Ok(seconds)
    };

    let schedule = tune(verifier, program, options, &mut cost)?;
    let executor = measured
        .into_iter()
        .find(|executor| executor.program() == &schedule.winner.transformed)
        .expect("the winner was measured");
    Ok(TunedProgram { schedule, executor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecTier;
    use retreet_codegen::trees_agree;
    use retreet_lang::corpus;
    use retreet_transform::CandidateStatus;

    fn verifier() -> Verifier {
        Verifier::builder()
            .equiv_nodes(4)
            .race_nodes(3)
            .valuations(1)
            .build()
    }

    #[test]
    fn tunes_size_counting_end_to_end_on_the_vm() {
        let verifier = verifier();
        let program = corpus::size_counting_sequential();
        let tuned = tune_and_compile(&verifier, &program, &TuneOptions::quick())
            .expect("E1 tunes end to end");
        // The winner compiled, is certified, and respects the baseline bound.
        assert_eq!(tuned.executor.tier(), ExecTier::Vm);
        assert_eq!(tuned.executor.program(), &tuned.schedule.winner.transformed);
        assert!(tuned.schedule.winner_seconds <= tuned.schedule.baseline_original_seconds);
        assert!(tuned.schedule.speedup() >= 1.0);
        assert!(tuned.schedule.certified_count() >= 1);
        // Every certified candidate either carries a VM cost or a typed
        // refusal-to-measure; no silent drops.
        for candidate in &tuned.schedule.candidates {
            if let CandidateStatus::Certified { cost, .. } = &candidate.status {
                match cost {
                    Ok(seconds) => assert!(*seconds > 0.0),
                    Err(reason) => assert!(!reason.is_empty()),
                }
            }
        }
        // The winner actually runs and agrees with the original.
        let tree = measurement_tree(&program, &TuneOptions::quick());
        let fast = tuned.executor.run(&tree).expect("winner runs");
        let slow = ProgramExecutor::new(&program)
            .run_interpreted(&tree)
            .expect("reference runs");
        assert_eq!(fast.returns, slow.returns);
        assert!(trees_agree(&fast.tree, &slow.tree));
    }

    /// The five §5 families the tuner serves.
    fn families() -> [Program; 5] {
        [
            corpus::size_counting_sequential(),
            corpus::tree_mutation_original(),
            corpus::css_minify_original(),
            corpus::cycletree_original(),
            corpus::kdtree_closest(),
        ]
    }

    #[test]
    fn the_timed_flat_run_returns_what_run_returns_on_the_measurement_tree() {
        let verifier = verifier();
        let options = TuneOptions::quick();
        for program in families()
            .into_iter()
            .chain([corpus::ternary_sum_parallel()])
        {
            let tree = measurement_tree(&program, &options);
            let reference = Reference::new(&program, &tree).expect("the reference runs");
            let executor = ProgramExecutor::with_verifier(&verifier, &program);
            let view = reference.probe(&executor).expect("no drift");
            let compiled = executor.compiled().expect("the corpus compiles");
            // The projected view is the flattening of the measurement tree.
            assert_eq!(
                view,
                FlatTree::from_value_tree_kary(&tree, &compiled.fields, compiled.arity)
            );
            let expected = executor.run(&tree).expect("run");
            // Every sample runs on a fresh clone, so each sees the same tree.
            for _ in 0..2 {
                let returns = executor.run_flat(&mut view.clone()).expect("flat run");
                assert_eq!(returns, expected.returns, "{}", program.funcs[0].name);
            }
        }
    }

    /// `Inc` adds 1 to `v` on every node and counts the nodes; the test on
    /// `u` (seeded in -8..=8) always holds, so `u` is read, never changed.
    const ORIGINAL: &str = "fn Inc(n) { if (n == nil) { return 0; } else { a = Inc(n.l); \
        b = Inc(n.r); if (n.u + 9 > 0) { n.v = n.v + 1; } else { n.v = 0; } return a + b + 1; } } \
        fn Main(n) { s = Inc(n); return s; }";

    /// A candidate for [`ORIGINAL`] whose `Inc` body after the two
    /// recursive calls is `body`.
    fn probe_candidate(body: &str) -> Result<FlatTree, String> {
        let original = retreet_lang::parser::parse_program(ORIGINAL).expect("parse");
        let candidate = retreet_lang::parser::parse_program(&format!(
            "fn Inc(n) {{ if (n == nil) {{ return 0; }} else {{ a = Inc(n.l); b = Inc(n.r); \
             {body} }} }} fn Main(n) {{ s = Inc(n); return s; }}"
        ))
        .expect("parse");
        let tree = measurement_tree(&original, &TuneOptions::quick());
        let reference = Reference::new(&original, &tree).expect("the reference runs");
        reference.probe(&ProgramExecutor::new(&candidate))
    }

    #[test]
    fn the_drift_probe_refuses_each_kind_of_drift() {
        let tree_drift = Err(String::from(
            "drift: candidate's post-run tree disagrees with the original",
        ));
        // Agreeing candidates: `u`, which the original only reads, may go
        // unmentioned, and a field only the candidate writes may end at 0,
        // the reference's value for a field it never sets.
        assert!(probe_candidate("n.v = n.v + 1; return a + b + 1;").is_ok());
        assert!(probe_candidate("n.v = n.v + 1; n.w = 0; return a + b + 1;").is_ok());
        // Different returns (the height-8 tree has 255 nodes).
        assert_eq!(
            probe_candidate("n.v = n.v + 1; return a + b + 2;"),
            Err(String::from(
                "drift: candidate returned [510], original returned [255]"
            ))
        );
        // A shared field that ends differently.
        assert_eq!(
            probe_candidate("n.v = n.v + 2; return a + b + 1;"),
            tree_drift
        );
        // A field only the candidate writes, left non-zero where the
        // reference has it unset.
        assert_eq!(
            probe_candidate("n.v = n.v + 1; n.w = 1; return a + b + 1;"),
            tree_drift
        );
        // A field the original changes that the candidate never writes.
        assert_eq!(probe_candidate("return a + b + 1;"), tree_drift);
        // A candidate the VM cannot run is refused before any probe.
        assert!(probe_candidate("g = Ghost(n); return a + b + 1;")
            .expect_err("interpreter tier")
            .contains("does not compile to the VM tier"));
    }

    /// The rule the drift check replaced: the run written back onto the
    /// measurement tree agrees with the reference's post-run tree.
    fn agrees_after_write_back(
        tree: &ValueTree,
        reference: &interp::RunResult,
        fields: &[String],
        returns: &[i64],
        after: &FlatTree,
    ) -> bool {
        returns == reference.returns.as_slice()
            && trees_agree(&after.write_back(tree, fields), &reference.tree)
    }

    #[test]
    fn the_drift_check_decides_what_the_write_back_comparison_decides() {
        let verifier = verifier();
        let options = TuneOptions::quick();
        for original in families() {
            let tree = measurement_tree(&original, &options);
            let reference = Reference::new(&original, &tree).expect("the reference runs");
            let interpreted = interp::run(&original, &tree).expect("the reference runs");
            let tuned = tune(&verifier, &original, &options, &mut |_| Ok(1.0)).expect("tunes");
            let candidates = tuned
                .candidates
                .iter()
                .filter_map(|candidate| candidate.program.clone());
            for candidate in std::iter::once(original.clone()).chain(candidates) {
                let executor = ProgramExecutor::new(&candidate);
                let fields = &executor.compiled().expect("the candidate compiles").fields;
                let mut after = reference.before.project(&reference.fields, fields);
                let returns = executor.run_flat(&mut after).expect("the candidate runs");
                let decide = |fields: &[String], returns: &[i64], after: &FlatTree| {
                    assert_eq!(
                        reference.check(fields, returns, after).is_ok(),
                        agrees_after_write_back(&tree, &interpreted, fields, returns, after),
                        "{}",
                        retreet_lang::pretty::print_program(&candidate)
                    );
                };
                // The run itself, and its returns off by one.
                decide(fields, &returns, &after);
                let mut wrong = returns.clone();
                wrong[0] += 1;
                decide(fields, &wrong, &after);
                for (column, field) in fields.iter().enumerate() {
                    // One node's value changed.
                    let mut bumped = after.clone();
                    bumped.set(column as u16, 0, bumped.get(column as u16, 0) + 1);
                    decide(fields, &returns, &bumped);
                    // The field never written: the candidate leaves it out.
                    let fewer: Vec<String> =
                        fields.iter().filter(|f| *f != field).cloned().collect();
                    decide(&fewer, &returns, &after.project(fields, &fewer));
                }
                // A field only the candidate writes, at 0 and then not.
                let mut more = fields.clone();
                more.push(String::from("only_in_the_candidate"));
                let mut extra = after.project(fields, &more);
                decide(&more, &returns, &extra);
                extra.set(fields.len() as u16, 0, 1);
                decide(&more, &returns, &extra);
            }
        }
    }

    #[test]
    fn cycletree_refusals_survive_into_the_table() {
        let verifier = verifier();
        let tuned = tune_and_compile(
            &verifier,
            &corpus::cycletree_original(),
            &TuneOptions::quick(),
        )
        .expect("E4 tunes");
        // The racy parallel-passes schedule is in the table as a refusal.
        assert!(tuned.schedule.refused_count() >= 1);
        assert!(tuned.schedule.winner.certificate.verdict.is_equivalent());
    }
}
