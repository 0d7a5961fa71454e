//! The certified schedule autotuner: enumerate the schedule space of
//! `Main`'s pass pipeline, certify every candidate through the verifier,
//! measure the survivors with a caller-supplied cost model, and return the
//! cheapest *certified* schedule — never slower than the best baseline.
//!
//! # The search space
//!
//! [`fuse_main_passes`](crate::fuse_main_passes) emits the single canonical
//! whole-run fusion and
//! [`synthesize_parallel_main`](crate::synthesize_parallel_main) the single
//! canonical parallel composition.  Neither is always the best schedule.
//! In the committed BENCH_tune (VM-only timing, height-14 trees) the
//! canonical fusion beats the original on all five families, from 1.03×
//! (E5) to 1.50× (E3), but on E1 a partial schedule, the fusion with its
//! sibling recursion parallelized, beats the canonical fusion.  Following
//! Sakka et al.'s fine-grained-fusion insight,
//! the tuner enumerates **contiguous partial-fusion groupings** of the
//! fusable pass run — for a run of `k` passes, every one of the `2^(k-1)`
//! compositions (`[A+B+C]`, `[A+B][C]`, `[A][B+C]`, `[A][B][C]`) — and, per
//! grouping, up to three schedule variants:
//!
//! * `seq` — the grouped passes composed sequentially (the all-singleton
//!   sequential grouping is the original program itself and is skipped: it
//!   *is* the baseline);
//! * `par-passes` — the group calls wrapped in a parallel composition
//!   (needs two or more groups);
//! * `par-rec` — sibling recursive calls on distinct children parallelized
//!   inside every traversal function of the grouped program.
//!
//! Enumeration order is deterministic (grouping masks ascending from the
//! whole-run fusion to the all-singleton split; `seq`, `par-passes`,
//! `par-rec` within a grouping) and truncated at
//! [`TuneOptions::max_candidates`].
//!
//! # Certification
//!
//! Every constructible candidate goes to the verifier in **two
//! [`Verifier::verify_batch`] calls**, race freedom first, as the paper
//! orders the questions (Theorem 2 before Theorem 3):
//!
//! 1. the first batch asks each parallel candidate's data-race query and
//!    each sequential candidate's equivalence query against the original;
//! 2. the second batch asks the equivalence queries of the parallel
//!    candidates the first batch proved `RaceFree` — cheap, since the
//!    automata engine proves a race-free `Par` equivalent through its
//!    sequential erasure.
//!
//! A racy candidate is refused with its race witness and its equivalence is
//! never asked: for a racy `Par` that question falls to the trace engine's
//! bounded search, the most expensive query of the whole table, and its
//! answer could not certify the candidate anyway.  Both batches share the
//! façade's verdict cache, single-flight coalescing and worker fan-out.  A
//! candidate is certified only when its equivalence verdict is positive
//! *and* (when parallel) its race verdict is `RaceFree`.  Refused candidates
//! are kept in the candidate table with their typed refusal — the
//! counterexample or race witness — never silently dropped.
//!
//! # Measurement
//!
//! The tuner does not execute programs itself: it takes a cost closure and
//! charges it with measuring each certified candidate (plus the original
//! baseline).  The canonical cost model is `retreet_runtime`'s
//! `tune_and_compile`, which compiles each candidate once through the
//! `retreet-codegen` VM tier (with certified iterative lowering) and times
//! best-of-N VM runs on a seeded tree — never the interpreter.  This crate
//! never runs a program: execution lives above it, in `retreet-runtime`,
//! and the tests here measure with synthetic costs.
//!
//! # The guarantee
//!
//! The winner is the cheapest *measured, certified* program among the
//! candidates and the original; the canonical whole-run fusion is itself the
//! first enumerated candidate.  A search that finds nothing faster therefore
//! falls back to a baseline, and [`TunedSchedule::winner`] is never slower
//! than `min(original, canonical fusion)` on the measured workload.

use std::ops::Range;

use retreet_lang::ast::{Block, CallBlock, Func, Program, Stmt, MAIN};
use retreet_lang::pretty::print_program;
use retreet_lang::rewrite;
use retreet_lang::validate::{program_has_parallelism, validate};
use retreet_verify::{Query, Verdict, Verifier};

use crate::fusion::{build_grouping, find_fusable_run, GroupedRun};
use crate::schedule::parallelize_stmt;
use crate::{
    certify_fusion, equivalence_certificate, finalize_program, race_certificate, unsupported,
    Certificate, CertificateKind, CertifiedTransform, TransformError,
};

/// Widest pass run the tuner will enumerate groupings for (`2^(k-1)`
/// compositions; beyond this the space is truncated by the candidate cap
/// anyway, but the mask arithmetic needs a hard bound).
const MAX_RUN_WIDTH: usize = 16;

/// Knobs for the schedule search.  The search fields (`max_candidates`)
/// are interpreted here; the measurement fields (`tree_height`, `seed`,
/// `batches`, `per_batch`) travel with the options so cost models — e.g.
/// `retreet_runtime::tune_and_compile`'s VM timer — build their workload
/// from the same record the search was configured with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneOptions {
    /// Upper bound on enumerated candidates (deterministic truncation).
    pub max_candidates: usize,
    /// Height of the complete measurement tree the cost model seeds.
    pub tree_height: usize,
    /// Arity of the complete measurement tree (2 = binary, the default).
    /// Cost models clamp this up to the program's declared arity so a
    /// k-ary program is always measured on a tree with all its axes.
    pub tree_arity: u8,
    /// Seed for the measurement tree's field values.
    pub seed: u64,
    /// Timing batches per measurement (the cost model keeps the best).
    pub batches: usize,
    /// Runs per timing batch.
    pub per_batch: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            max_candidates: 32,
            tree_height: 12,
            tree_arity: 2,
            seed: 7,
            batches: 3,
            per_batch: 3,
        }
    }
}

impl TuneOptions {
    /// A smaller configuration for smoke tests and `--quick` bench runs.
    pub fn quick() -> Self {
        TuneOptions {
            max_candidates: 16,
            tree_height: 8,
            tree_arity: 2,
            seed: 7,
            batches: 2,
            per_batch: 2,
        }
    }
}

/// How a candidate schedules its grouped passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Group calls composed sequentially.
    Sequential,
    /// Group calls wrapped in a parallel composition (`g1 ‖ g2 ‖ …`).
    ParallelPasses,
    /// Sibling recursive calls on distinct children parallelized inside
    /// every traversal function.
    ParallelRecursion,
}

impl ScheduleKind {
    /// The short label used in candidate names and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ScheduleKind::Sequential => "seq",
            ScheduleKind::ParallelPasses => "par-passes",
            ScheduleKind::ParallelRecursion => "par-rec",
        }
    }
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened to one enumerated candidate.
#[derive(Debug, Clone)]
pub enum CandidateStatus {
    /// The verifier certified the candidate equivalent (and, when parallel,
    /// race-free).
    Certified {
        /// The equivalence verdict against the original (Theorem 3).
        equivalence: Verdict,
        /// The race-freedom verdict (Theorem 2); `None` for sequential
        /// candidates, which pose no race question.
        race: Option<Verdict>,
        /// The cost model's measurement, or why the candidate could not be
        /// measured (and therefore cannot win).
        cost: Result<f64, String>,
    },
    /// The candidate was refused — construction failure, equivalence
    /// counterexample, or race witness — with the typed reason kept.
    Refused(TransformError),
}

impl CandidateStatus {
    /// True for certified candidates (measured or not).
    pub fn is_certified(&self) -> bool {
        matches!(self, CandidateStatus::Certified { .. })
    }

    /// The measured cost, when certified and measured.
    pub fn cost_seconds(&self) -> Option<f64> {
        match self {
            CandidateStatus::Certified { cost: Ok(c), .. } => Some(*c),
            _ => None,
        }
    }
}

/// One enumerated point of the schedule space.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TuneCandidate {
    /// Deterministic label, e.g. `[ConvertValues+MinifyFont][ReduceInit]/seq`.
    pub label: String,
    /// The grouping: callee names per contiguous group of the pass run.
    pub grouping: Vec<Vec<String>>,
    /// The schedule variant applied to the grouping.
    pub schedule: ScheduleKind,
    /// The constructed program (`None` when construction itself failed).
    pub program: Option<Program>,
    /// Names of the functions the construction synthesized.
    pub synthesized: Vec<String>,
    /// Certification / measurement outcome.
    pub status: CandidateStatus,
}

impl TuneCandidate {
    /// The candidate rendered as `.retreet` surface syntax (empty when
    /// construction failed).
    pub fn source(&self) -> String {
        self.program.as_ref().map(print_program).unwrap_or_default()
    }
}

/// The autotuner's result: the winning certified schedule, the measured
/// baselines, and the full scored candidate table.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TunedSchedule {
    /// The winning schedule with its certificate.  When no candidate beat
    /// the baselines this is the best baseline itself (the original under
    /// a trivial equivalence certificate, or the canonical fusion).
    pub winner: CertifiedTransform,
    /// Label of the winner (`"original"` for the untransformed baseline).
    pub winner_label: String,
    /// Measured cost of the winner, seconds.
    pub winner_seconds: f64,
    /// Measured cost of the original program, seconds.
    pub baseline_original_seconds: f64,
    /// Measured cost of the canonical whole-run fusion (the first
    /// enumerated candidate), when it certified and measured.
    pub baseline_fused_seconds: Option<f64>,
    /// Every enumerated candidate in enumeration order — certified with
    /// costs, refused with witnesses.
    pub candidates: Vec<TuneCandidate>,
}

impl TunedSchedule {
    /// The better of the two baselines.
    pub fn best_baseline_seconds(&self) -> f64 {
        match self.baseline_fused_seconds {
            Some(fused) => self.baseline_original_seconds.min(fused),
            None => self.baseline_original_seconds,
        }
    }

    /// best-baseline / winner (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        self.best_baseline_seconds() / self.winner_seconds
    }

    /// How many candidates were certified.
    pub fn certified_count(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.status.is_certified())
            .count()
    }

    /// How many candidates were refused (with their witnesses kept).
    pub fn refused_count(&self) -> usize {
        self.candidates.len() - self.certified_count()
    }
}

/// Splits `k` passes into contiguous groups per `mask`: bit `i` set means a
/// group boundary between pass `i` and pass `i + 1`.
fn grouping_for(mask: u32, k: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::new();
    let mut start = 0;
    for i in 0..k - 1 {
        if mask & (1 << i) != 0 {
            groups.push(start..i + 1);
            start = i + 1;
        }
    }
    groups.push(start..k);
    groups
}

/// One grouped construction before certification.
struct Construction {
    grouping: Vec<Vec<String>>,
    schedule: ScheduleKind,
    program: Program,
    synthesized: Vec<String>,
}

fn grouping_label(grouping: &[Vec<String>], schedule: ScheduleKind) -> String {
    let groups: String = grouping
        .iter()
        .map(|g| format!("[{}]", g.join("+")))
        .collect();
    format!("{groups}/{schedule}")
}

/// Replaces the sequential group calls in `Main` with a single parallel
/// composition of the same calls.
fn par_passes_main(
    items: &[Stmt],
    start: usize,
    run_len: usize,
    group_calls: &[CallBlock],
) -> Stmt {
    let mut new_items: Vec<Stmt> = items[..start].to_vec();
    new_items.push(Stmt::Par(
        group_calls
            .iter()
            .map(|call| Stmt::Block(Block::call(call.clone())))
            .collect(),
    ));
    new_items.extend(items[start + run_len..].iter().cloned());
    rewrite::compose(new_items)
}

/// Enumerates the candidate constructions for `program`'s fusable run, in
/// deterministic order, truncated at `max_candidates`.  Construction
/// failures are returned alongside the successes so the candidate table
/// never drops an enumerated point.
#[allow(clippy::type_complexity)]
fn enumerate_candidates(
    program: &Program,
    options: &TuneOptions,
) -> Result<Vec<Result<Construction, TuneCandidate>>, TransformError> {
    let main = program.main().expect("validated programs have a Main");
    let items = rewrite::flatten_seq(&main.body);
    let (start, run) = find_fusable_run(&items)?;
    let k = run.len();
    if k > MAX_RUN_WIDTH {
        return unsupported(format!(
            "pass run of {k} calls exceeds the tuner's width bound of {MAX_RUN_WIDTH}"
        ));
    }

    let mut out: Vec<Result<Construction, TuneCandidate>> = Vec::new();
    let cap = options.max_candidates.max(1);
    'masks: for mask in 0..(1u32 << (k - 1)) {
        let groups = grouping_for(mask, k);
        let all_singletons = groups.len() == k;
        let grouping_names: Vec<Vec<String>> = groups
            .iter()
            .map(|range| {
                run[range.clone()]
                    .iter()
                    .map(|c| c.callee.clone())
                    .collect()
            })
            .collect();
        let built = build_grouping(program, &items, start, &run, &groups);
        let GroupedRun {
            funcs,
            group_calls,
            synthesized,
        } = match built {
            Ok(parts) => parts,
            Err(err) => {
                // The grouping itself cannot be constructed (a group's
                // functions fall outside the fusable fragment); record one
                // refused candidate for the whole grouping and move on.
                out.push(Err(TuneCandidate {
                    label: grouping_label(&grouping_names, ScheduleKind::Sequential),
                    grouping: grouping_names,
                    schedule: ScheduleKind::Sequential,
                    program: None,
                    synthesized: Vec::new(),
                    status: CandidateStatus::Refused(err),
                }));
                if out.len() >= cap {
                    break 'masks;
                }
                continue;
            }
        };

        let mut variants: Vec<(ScheduleKind, Result<Program, TransformError>)> = Vec::new();
        // seq — skipped for the all-singleton grouping, which reconstructs
        // the original program (that is the baseline, not a candidate).
        if !all_singletons {
            variants.push((
                ScheduleKind::Sequential,
                finalize_program(program.with_funcs(funcs.clone())),
            ));
        }
        // par-passes — needs at least two groups to compose in parallel.
        if groups.len() >= 2 {
            let mut par_funcs = funcs.clone();
            let main_slot = par_funcs.len() - 1;
            par_funcs[main_slot].body = par_passes_main(&items, start, run.len(), &group_calls);
            variants.push((
                ScheduleKind::ParallelPasses,
                finalize_program(program.with_funcs(par_funcs)),
            ));
        }
        // par-rec — parallelize sibling recursion inside every traversal
        // function; only a candidate when the rewrite changed something.
        {
            let mut changed_total = 0usize;
            let rec_funcs: Vec<Func> = funcs
                .iter()
                .map(|func| {
                    if func.name == MAIN {
                        return func.clone();
                    }
                    let (body, changed) = parallelize_stmt(&func.body, true);
                    changed_total += changed;
                    Func {
                        body,
                        ..func.clone()
                    }
                })
                .collect();
            if changed_total > 0 {
                variants.push((
                    ScheduleKind::ParallelRecursion,
                    finalize_program(program.with_funcs(rec_funcs)),
                ));
            }
        }

        for (schedule, constructed) in variants {
            let label = grouping_label(&grouping_names, schedule);
            out.push(match constructed {
                Ok(candidate) => Ok(Construction {
                    grouping: grouping_names.clone(),
                    schedule,
                    program: candidate,
                    synthesized: synthesized.clone(),
                }),
                Err(err) => Err(TuneCandidate {
                    label,
                    grouping: grouping_names.clone(),
                    schedule,
                    program: None,
                    synthesized: Vec::new(),
                    status: CandidateStatus::Refused(err),
                }),
            });
            if out.len() >= cap {
                break 'masks;
            }
        }
    }
    Ok(out)
}

/// A candidate's certificates — its equivalence verdict against the
/// original and, when parallel, its race-freedom verdict — or its refusal.
type Certification = Result<(Verdict, Option<Verdict>), TransformError>;

/// Certifies `candidates` against `original` in two batches, race queries
/// first (see the [module docs](self)); answers in input order.
fn certify(verifier: &Verifier, original: &Program, candidates: &[&Program]) -> Vec<Certification> {
    let parallel: Vec<bool> = candidates
        .iter()
        .map(|candidate| program_has_parallelism(candidate))
        .collect();
    let first: Vec<Query<'_>> = candidates
        .iter()
        .zip(&parallel)
        .map(|(candidate, &parallel)| {
            if parallel {
                Query::DataRace(candidate)
            } else {
                Query::Equivalence(original, candidate)
            }
        })
        .collect();

    // `None` marks a race-free parallel candidate whose equivalence the
    // second batch asks; `races` keeps its race-freedom verdict meanwhile.
    let mut certifications: Vec<Option<Certification>> = Vec::with_capacity(candidates.len());
    let mut races: Vec<(usize, Verdict)> = Vec::new();
    for (index, verdict) in verifier.verify_batch(&first).into_iter().enumerate() {
        if !parallel[index] {
            certifications.push(Some(
                equivalence_certificate(verdict).map(|equivalence| (equivalence, None)),
            ));
            continue;
        }
        match race_certificate(verdict) {
            Ok(race) => {
                races.push((index, race));
                certifications.push(None);
            }
            Err(refusal) => certifications.push(Some(Err(refusal))),
        }
    }

    let second: Vec<Query<'_>> = races
        .iter()
        .map(|&(index, _)| Query::Equivalence(original, candidates[index]))
        .collect();
    for ((index, race), verdict) in races.into_iter().zip(verifier.verify_batch(&second)) {
        certifications[index] =
            Some(equivalence_certificate(verdict).map(|equivalence| (equivalence, Some(race))));
    }
    certifications
        .into_iter()
        .map(|certification| {
            certification.expect("the second batch answers every race-free candidate")
        })
        .collect()
}

/// Runs the schedule search for `program` and returns the winning certified
/// schedule (see the [module docs](self) for the search space, the
/// race-first certification flow and the never-slower-than-baseline
/// guarantee).
///
/// `cost` measures one program and returns its cost in seconds — smaller is
/// better — or an error when the program cannot be measured on the required
/// tier (such a candidate stays in the table but cannot win).  Use
/// `retreet_runtime::tune_and_compile` for the canonical VM-backed cost
/// model; the closure indirection exists because the executor crate sits
/// above this one in the dependency order.
///
/// Errors: [`TransformError::UnsupportedShape`] when `Main` has no fusable
/// run or the original program cannot be measured;
/// [`TransformError::Rejected`] when the verifier refuses the identity
/// certificate for a baseline winner.
pub fn tune(
    verifier: &Verifier,
    program: &Program,
    options: &TuneOptions,
    cost: &mut dyn FnMut(&Program) -> Result<f64, String>,
) -> Result<TunedSchedule, TransformError> {
    if let Some(first) = validate(program).first() {
        return unsupported(format!("input program fails validation: {first}"));
    }
    let enumerated = enumerate_candidates(program, options)?;
    let constructed: Vec<&Program> = enumerated
        .iter()
        .filter_map(|entry| entry.as_ref().ok().map(|c| &c.program))
        .collect();
    let mut certifications = certify(verifier, program, &constructed).into_iter();

    // Fold verdicts into the candidate table, measuring the certified ones.
    let mut candidates: Vec<TuneCandidate> = Vec::new();
    for entry in enumerated {
        match entry {
            Err(refused) => candidates.push(refused),
            Ok(construction) => {
                let label = grouping_label(&construction.grouping, construction.schedule);
                let status = match certifications
                    .next()
                    .expect("every construction was certified")
                {
                    Ok((equivalence, race)) => CandidateStatus::Certified {
                        equivalence,
                        race,
                        cost: cost(&construction.program),
                    },
                    Err(refusal) => CandidateStatus::Refused(refusal),
                };
                candidates.push(TuneCandidate {
                    label,
                    grouping: construction.grouping,
                    schedule: construction.schedule,
                    program: Some(construction.program),
                    synthesized: construction.synthesized,
                    status,
                });
            }
        }
    }

    // Baselines.  The canonical whole-run fusion is the first enumerated
    // candidate (grouping mask 0, sequential), so its measurement doubles
    // as the fused baseline.
    let baseline_original_seconds = cost(program).map_err(|err| {
        TransformError::UnsupportedShape(format!("the original program cannot be measured: {err}"))
    })?;
    let baseline_fused_seconds = candidates
        .iter()
        .find(|c| c.grouping.len() == 1 && c.schedule == ScheduleKind::Sequential)
        .and_then(|c| c.status.cost_seconds());

    // Winner: cheapest measured certified candidate, strictly cheaper than
    // the original baseline (ties go to the baseline / earlier candidate).
    let mut winner_index: Option<usize> = None;
    let mut winner_seconds = baseline_original_seconds;
    for (index, candidate) in candidates.iter().enumerate() {
        if let Some(seconds) = candidate.status.cost_seconds() {
            if seconds < winner_seconds {
                winner_index = Some(index);
                winner_seconds = seconds;
            }
        }
    }

    let (winner, winner_label) = match winner_index {
        Some(index) => {
            let candidate = &candidates[index];
            let CandidateStatus::Certified { equivalence, .. } = &candidate.status else {
                unreachable!("only certified candidates carry costs")
            };
            (
                CertifiedTransform {
                    original: program.clone(),
                    transformed: candidate
                        .program
                        .clone()
                        .expect("certified candidates were constructed"),
                    synthesized: candidate.synthesized.clone(),
                    certificate: Certificate {
                        kind: CertificateKind::Equivalence,
                        verdict: equivalence.clone(),
                    },
                },
                candidate.label.clone(),
            )
        }
        None => {
            // Nothing certified-and-measured beat the original: fall back to
            // the baseline, certified by the (trivial) identity equivalence
            // so even the fallback carries a verifier verdict.
            (
                certify_fusion(verifier, program, program)?,
                String::from("original"),
            )
        }
    };

    Ok(TunedSchedule {
        winner,
        winner_label,
        winner_seconds,
        baseline_original_seconds,
        baseline_fused_seconds,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_verify::SourceQuery;

    fn verifier() -> Verifier {
        Verifier::builder()
            .equiv_nodes(4)
            .race_nodes(3)
            .valuations(1)
            .build()
    }

    /// A deterministic fake cost model: every program costs `base`, except
    /// sources containing `cheap_marker`, which cost half.
    fn marker_cost(cheap_marker: &'static str) -> impl FnMut(&Program) -> Result<f64, String> {
        move |program: &Program| {
            let source = print_program(program);
            Ok(if source.contains(cheap_marker) {
                0.5
            } else {
                1.0
            })
        }
    }

    #[test]
    fn enumerates_the_css_grouping_space() {
        let program = corpus::css_minify_original();
        let options = TuneOptions::default();
        let enumerated = enumerate_candidates(&program, &options).expect("E3 has a fusable run");
        let labels: Vec<String> = enumerated
            .iter()
            .map(|entry| match entry {
                Ok(c) => grouping_label(&c.grouping, c.schedule),
                Err(c) => c.label.clone(),
            })
            .collect();
        // Whole-run fusion first, all-singleton split last; the sequential
        // all-singleton variant (the original itself) is never a candidate.
        assert_eq!(
            labels[0],
            "[ConvertValues+MinifyFont+ReduceInit]/seq".to_string()
        );
        assert!(labels.contains(&"[ConvertValues+MinifyFont][ReduceInit]/seq".to_string()));
        assert!(labels.contains(&"[ConvertValues][MinifyFont+ReduceInit]/seq".to_string()));
        assert!(labels.contains(&"[ConvertValues][MinifyFont][ReduceInit]/par-passes".to_string()));
        assert!(!labels.contains(&"[ConvertValues][MinifyFont][ReduceInit]/seq".to_string()));
        // Deterministic: a second enumeration is identical.
        let again: Vec<String> = enumerate_candidates(&program, &options)
            .unwrap()
            .iter()
            .map(|entry| match entry {
                Ok(c) => grouping_label(&c.grouping, c.schedule),
                Err(c) => c.label.clone(),
            })
            .collect();
        assert_eq!(labels, again);
    }

    #[test]
    fn candidate_cap_truncates_deterministically() {
        let program = corpus::css_minify_original();
        let options = TuneOptions {
            max_candidates: 3,
            ..TuneOptions::default()
        };
        let enumerated = enumerate_candidates(&program, &options).unwrap();
        assert_eq!(enumerated.len(), 3);
        let full = enumerate_candidates(&program, &TuneOptions::default()).unwrap();
        assert!(full.len() > 3);
        for (short, long) in enumerated.iter().zip(full.iter()) {
            let label = |entry: &Result<Construction, TuneCandidate>| match entry {
                Ok(c) => grouping_label(&c.grouping, c.schedule),
                Err(c) => c.label.clone(),
            };
            assert_eq!(label(short), label(long));
        }
    }

    #[test]
    fn tune_certifies_partial_fusions_and_keeps_refusals() {
        let verifier = verifier();
        let program = corpus::size_counting_sequential();
        let tuned = tune(
            &verifier,
            &program,
            &TuneOptions::quick(),
            &mut marker_cost("Fused_Odd_Even"),
        )
        .expect("E1 tunes");
        // The whole-run fusion exists, certified, and (being the cheap
        // marker) wins with the fused baseline cost.
        assert_eq!(tuned.winner_label, "[Odd+Even]/seq");
        assert_eq!(tuned.baseline_fused_seconds, Some(0.5));
        assert_eq!(tuned.winner_seconds, 0.5);
        assert!(tuned.speedup() >= 1.0);
        assert!(tuned.certified_count() >= 2, "seq + par variants certify");
        // The winner carries a real equivalence certificate.
        assert_eq!(tuned.winner.certificate.kind, CertificateKind::Equivalence);
        // par-passes over the singletons is the Fig. 3 parallel schedule:
        // certified race-free with both verdicts recorded.
        let par = tuned
            .candidates
            .iter()
            .find(|c| c.label == "[Odd][Even]/par-passes")
            .expect("the parallel-passes candidate is enumerated");
        match &par.status {
            CandidateStatus::Certified {
                race: Some(race), ..
            } => assert!(race.is_race_free()),
            other => panic!("expected a certified parallel candidate, got {other:?}"),
        }
    }

    #[test]
    fn tune_falls_back_to_the_original_when_nothing_is_cheaper() {
        let verifier = verifier();
        let program = corpus::size_counting_sequential();
        // Every program costs the same: no candidate is *strictly* cheaper,
        // so the winner is the original baseline under an identity
        // certificate.
        let tuned =
            tune(&verifier, &program, &TuneOptions::quick(), &mut |_| Ok(1.0)).expect("E1 tunes");
        assert_eq!(tuned.winner_label, "original");
        assert_eq!(tuned.winner.transformed, program);
        assert!(tuned.winner.certificate.verdict.is_equivalent());
        assert_eq!(tuned.winner_seconds, tuned.baseline_original_seconds);
    }

    #[test]
    fn racy_parallel_candidates_are_refused_with_the_witness() {
        let verifier = verifier();
        let program = corpus::cycletree_original();
        let tuned =
            tune(&verifier, &program, &TuneOptions::quick(), &mut |_| Ok(1.0)).expect("E4 tunes");
        // RootMode ‖ ComputeRouting races on `num` (the E4b refusal): the
        // par-passes candidate must be in the table, refused, witness kept.
        let refused = tuned
            .candidates
            .iter()
            .find(|c| c.schedule == ScheduleKind::ParallelPasses && c.grouping.len() == 2)
            .expect("the parallel-passes candidate is enumerated");
        match &refused.status {
            CandidateStatus::Refused(TransformError::DataRace(witness)) => {
                assert_eq!(witness.field, "num");
            }
            other => panic!("expected the E4b race refusal, got {other:?}"),
        }
        assert!(tuned.refused_count() >= 1);
    }

    #[test]
    fn racy_candidates_are_refused_before_their_equivalence_is_asked() {
        // cycletree's E4b refusal and CSS minify's racy `par-passes`
        // groupings: the race witness refuses each, and the verifier never
        // saw its equivalence query.  A certified parallel candidate's
        // equivalence was asked, so the cache check is not vacuous.
        for program in [corpus::cycletree_original(), corpus::css_minify_original()] {
            let verifier = verifier();
            let tuned = tune(&verifier, &program, &TuneOptions::quick(), &mut |_| Ok(1.0))
                .expect("the family tunes");
            let original = print_program(&program);
            let mut racy = 0;
            for candidate in &tuned.candidates {
                let Some(parallel) = candidate.program.as_ref() else {
                    continue;
                };
                if !program_has_parallelism(parallel) {
                    continue;
                }
                let asked = verifier
                    .cached(SourceQuery::Equivalence(&original, &candidate.source()))
                    .is_some();
                match &candidate.status {
                    CandidateStatus::Certified { .. } => assert!(asked, "{}", candidate.label),
                    CandidateStatus::Refused(refusal) => {
                        racy += 1;
                        assert!(
                            matches!(refusal, TransformError::DataRace(_)),
                            "{}: {refusal}",
                            candidate.label
                        );
                        assert!(!asked, "{}: equivalence asked", candidate.label);
                    }
                }
            }
            assert!(racy >= 1, "{}", original);
        }
    }

    #[test]
    fn measurement_failures_keep_the_candidate_but_cannot_win() {
        let verifier = verifier();
        let program = corpus::size_counting_sequential();
        // The cost model refuses everything but the original: the tuner
        // must fall back to the baseline instead of crowning an unmeasured
        // candidate.
        let original_source = print_program(&program);
        let tuned = tune(
            &verifier,
            &program,
            &TuneOptions::quick(),
            &mut |candidate: &Program| {
                if print_program(candidate) == original_source {
                    Ok(1.0)
                } else {
                    Err(String::from("tier unavailable"))
                }
            },
        )
        .expect("E1 tunes");
        assert_eq!(tuned.winner_label, "original");
        assert_eq!(tuned.baseline_fused_seconds, None);
        assert!(tuned
            .candidates
            .iter()
            .any(|c| matches!(&c.status, CandidateStatus::Certified { cost: Err(_), .. })));
    }

    #[test]
    fn parallel_recursion_candidates_contain_parallelism() {
        let program = corpus::size_counting_sequential();
        let enumerated = enumerate_candidates(&program, &TuneOptions::default()).unwrap();
        let par_rec = enumerated
            .iter()
            .filter_map(|entry| entry.as_ref().ok())
            .find(|c| c.schedule == ScheduleKind::ParallelRecursion)
            .expect("sibling recursion parallelizes");
        assert!(program_has_parallelism(&par_rec.program));
    }

    #[test]
    fn the_first_candidate_is_the_canonical_fusion() {
        // `fuse_main_passes` and the tuner's whole-run sequential candidate
        // are one construction: `bench_tune` reports that candidate's cost
        // as the canonical-fusion baseline.
        for program in [
            corpus::size_counting_sequential(),
            corpus::tree_mutation_original(),
            corpus::css_minify_original(),
            corpus::cycletree_original(),
            corpus::kdtree_closest(),
        ] {
            let verifier = verifier();
            let fused = crate::fuse_main_passes(&verifier, &program).expect("the family fuses");
            let tuned = tune(&verifier, &program, &TuneOptions::quick(), &mut |_| Ok(1.0))
                .expect("the family tunes");
            let first = &tuned.candidates[0];
            assert_eq!(first.grouping.len(), 1, "{}", first.label);
            assert_eq!(first.schedule, ScheduleKind::Sequential, "{}", first.label);
            assert!(first.status.is_certified(), "{}", first.label);
            assert_eq!(
                first.program.as_ref(),
                Some(&fused.transformed),
                "{}",
                first.label
            );
            assert_eq!(
                first.source(),
                fused.transformed_source(),
                "{}",
                first.label
            );
            assert_eq!(first.synthesized, fused.synthesized, "{}", first.label);
        }
    }

    #[test]
    fn programs_without_a_fusable_run_are_refused() {
        let fused_already = corpus::size_counting_fused();
        assert!(matches!(
            tune(
                &verifier(),
                &fused_already,
                &TuneOptions::quick(),
                &mut |_| Ok(1.0)
            ),
            Err(TransformError::UnsupportedShape(_))
        ));
    }
}
