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
//! * before any timing, one drift probe runs the candidate through
//!   [`ProgramExecutor::run`] on the measurement tree and checks it against
//!   the original program's interpreter reference — returns and post-run
//!   trees must agree (a drift here would mean a certified candidate
//!   disagrees with its certificate, and aborts the measurement rather than
//!   timing a wrong program);
//! * the cost times the program alone: the candidate's flat view of the
//!   measurement tree is built once, each sample is one VM run on a fresh
//!   clone of it (cloned outside the timer), and the cost is the best of
//!   `batches` batches of `per_batch` samples, per [`TuneOptions`].
//!   Flattening and writing the tree back, which every
//!   [`ProgramExecutor::run`] does, would otherwise dominate the timing of
//!   a small tree.
//!
//! The winner comes back compiled: [`TunedProgram`] pairs the
//! [`TunedSchedule`] with the [`ProgramExecutor`] the cost model built and
//! measured for the winning program (the original's own, when no candidate
//! beat it), so no program is compiled twice.

use std::time::{Duration, Instant};

use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{program_fields, trees_agree, FlatTree};
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
    let tree = measurement_tree(program, options);

    // The drift reference: the original program through the reference
    // interpreter, computed once.
    let reference = ProgramExecutor::new(program)
        .run_interpreted(&tree)
        .map_err(|err| {
            TransformError::UnsupportedShape(format!(
                "the original program cannot run on the measurement tree: {err}"
            ))
        })?;

    // Every executor the cost model measured; the winner's is among them.
    let mut measured: Vec<ProgramExecutor> = Vec::new();
    let mut cost = |candidate: &Program| -> Result<f64, String> {
        let executor = ProgramExecutor::with_verifier(verifier, candidate);
        let Some(flat) = executor.flat_view(&tree) else {
            return Err(String::from(
                "candidate does not compile to the VM tier; refusing to time the interpreter",
            ));
        };
        let probe = executor.run(&tree).map_err(|err| err.to_string())?;
        if probe.returns != reference.returns {
            return Err(format!(
                "drift: candidate returned {:?}, original returned {:?}",
                probe.returns, reference.returns
            ));
        }
        if !trees_agree(&probe.tree, &reference.tree) {
            return Err(String::from(
                "drift: candidate's post-run tree disagrees with the original",
            ));
        }
        let seconds = best_of_vm(&executor, &flat, options.batches, options.per_batch)?;
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

    #[test]
    fn the_timed_flat_run_returns_what_run_returns_on_the_measurement_tree() {
        let verifier = verifier();
        let options = TuneOptions::quick();
        for program in [
            corpus::size_counting_sequential(),
            corpus::tree_mutation_original(),
            corpus::css_minify_original(),
            corpus::cycletree_original(),
            corpus::kdtree_closest(),
            corpus::ternary_sum_parallel(),
        ] {
            let tree = measurement_tree(&program, &options);
            let executor = ProgramExecutor::with_verifier(&verifier, &program);
            let flat = executor.flat_view(&tree).expect("the corpus compiles");
            let expected = executor.run(&tree).expect("run");
            // Every sample runs on a fresh clone, so each sees the same tree.
            for _ in 0..2 {
                let returns = executor.run_flat(&mut flat.clone()).expect("flat run");
                assert_eq!(
                    returns,
                    expected.returns,
                    "{}",
                    executor.program().funcs[0].name
                );
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
