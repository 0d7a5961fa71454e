//! # retreet-transform — certified source-to-source transformations
//!
//! The paper proves dependence, race-freedom and equivalence facts about
//! recursive tree traversals in order to *license program transformations*.
//! This crate is the layer that actually performs them: it constructs a
//! transformed [`Program`] at the AST level (using the rewriting utilities
//! of [`retreet_lang::rewrite`]) and only releases it inside a
//! [`CertifiedTransform`] — the transformed program paired with a
//! [`Certificate`] whose [`retreet_verify::Verdict`] carries engine
//! provenance, soundness and timing.  The verifier is the gatekeeper: a
//! construction the portfolio cannot certify is refused, never returned.
//!
//! Two transformation families are provided:
//!
//! * **Traversal fusion** ([`fuse_main_passes`]) — merge the consecutive
//!   traversal passes of `Main` into a single fused traversal (one pass over
//!   the tree instead of N), generalizing Fig. 6a of the paper from a
//!   hand-written artifact to a synthesized one.  Mutually recursive
//!   traversals and mode-switching traversals (the cycletree case) are
//!   handled by fusing *tuples* of functions discovered through a worklist.
//!   The certificate is an equivalence verdict (Theorem 3).
//! * **Parallel schedule synthesis** ([`synthesize_parallel_main`],
//!   [`parallelize_recursive_calls`]) — rewrite independent sequential
//!   compositions into parallel compositions (`s ‖ t`), at the pass level
//!   or at the recursive-call level.  The certificate is a race-freedom
//!   verdict (Theorem 2).
//!
//! A user-supplied candidate can also be certified without construction via
//! [`certify_fusion`] / [`certify_parallelization`].
//!
//! On top of both families sits the **certified schedule autotuner**
//! ([`fn@tune`]): it enumerates contiguous partial-fusion groupings of `Main`'s
//! pass run crossed with the parallel schedule variants, certifies the whole
//! space through two [`Verifier::verify_batch`] calls (race queries first),
//! measures the survivors with a caller-supplied cost model (canonically
//! `retreet_runtime`'s VM-backed `tune_and_compile`), and returns the
//! cheapest certified schedule — never slower than the best baseline.
//!
//! # Example
//!
//! ```
//! use retreet_lang::corpus;
//! use retreet_transform::{fuse_main_passes, CertificateKind};
//! use retreet_verify::Verifier;
//!
//! let verifier = Verifier::builder().equiv_nodes(4).valuations(2).build();
//! let fused = fuse_main_passes(&verifier, &corpus::size_counting_sequential()).unwrap();
//! assert_eq!(fused.certificate.kind, CertificateKind::Equivalence);
//! // The synthesized program performs a single fused traversal.
//! let main = fused.transformed.main().unwrap();
//! assert_eq!(main.blocks().iter().filter(|b| b.is_call()).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fusion;
mod schedule;
pub mod tune;

pub use fusion::fuse_main_passes;
pub use schedule::{parallelize_recursive_calls, synthesize_parallel_main};
pub use tune::{tune, CandidateStatus, ScheduleKind, TuneCandidate, TuneOptions, TunedSchedule};

use std::fmt;

use retreet_analysis::equiv::EquivCounterExample;
use retreet_analysis::race::RaceWitness;
use retreet_lang::ast::Program;
use retreet_lang::parser::parse_program;
use retreet_lang::pretty::print_program;
use retreet_lang::rewrite;
use retreet_lang::validate::validate;
use retreet_verify::{Engine, Outcome, Query, Soundness, Verdict, Verifier, VerifyError};

/// Which theorem a certificate instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertificateKind {
    /// The transformed program is equivalent to the original (Theorem 3) —
    /// the certificate fusion transforms carry.
    Equivalence,
    /// The transformed program's parallel composition is data-race-free
    /// (Theorem 2) — the certificate parallel schedules carry.
    RaceFreedom,
}

impl fmt::Display for CertificateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateKind::Equivalence => write!(f, "equivalence"),
            CertificateKind::RaceFreedom => write!(f, "race-freedom"),
        }
    }
}

/// The proof artifact attached to a transformed program: the verifier's
/// verdict (with engine provenance, soundness caveat and timing) plus the
/// certificate kind it instantiates.
///
/// `#[non_exhaustive]`: readable everywhere, constructible only inside
/// this crate — a certificate always comes from an actual verdict.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Certificate {
    /// Which theorem the verdict instantiates.
    pub kind: CertificateKind,
    /// The façade verdict backing the transformation.
    pub verdict: Verdict,
}

impl Certificate {
    /// Which portfolio engine produced the verdict.
    pub fn engine(&self) -> Engine {
        self.verdict.engine
    }

    /// How far the verdict's guarantee extends.
    pub fn soundness(&self) -> Soundness {
        self.verdict.soundness
    }

    /// How many bounded models the verdict rests on.
    pub fn trees_checked(&self) -> usize {
        self.verdict.trees_checked()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} certificate: {}", self.kind, self.verdict)
    }
}

/// A source-to-source transformation the verifier has certified: the
/// original program, the transformed program, and the certificate tying
/// them together.  Values of this type are only constructible through the
/// certifying entry points of this crate — `#[non_exhaustive]` keeps the
/// fields readable but blocks struct-literal forgery downstream, so a
/// program taken from a `CertifiedTransform` always rests on a real
/// verdict.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CertifiedTransform {
    /// The untransformed input program.
    pub original: Program,
    /// The certified output program (validated, parser-canonical: it
    /// satisfies `parse_program(print_program(p)) == p`).
    pub transformed: Program,
    /// Names of the functions the transform layer synthesized, in creation
    /// order (empty for user-supplied candidates and for schedule rewrites,
    /// which introduce no new functions).  This is the authoritative list —
    /// prefer it over guessing from function-name prefixes.
    pub synthesized: Vec<String>,
    /// The verdict that licenses replacing `original` by `transformed`.
    pub certificate: Certificate,
}

impl CertifiedTransform {
    /// The transformed program rendered as `.retreet` surface syntax.
    pub fn transformed_source(&self) -> String {
        print_program(&self.transformed)
    }
}

/// Why a transformation was refused.
#[derive(Debug, Clone)]
pub enum TransformError {
    /// The construction itself does not apply: the program is outside the
    /// shape the transform handles (no fusable run, early returns, calls
    /// nested under conditionals, …).
    UnsupportedShape(String),
    /// The façade rejected the certification query before any engine ran
    /// (malformed program, empty portfolio, …).
    Rejected(VerifyError),
    /// The equivalence check found a counterexample (fusion refused).
    NotEquivalent(Box<EquivCounterExample>),
    /// The race check found a potential data race (parallel schedule
    /// refused).
    DataRace(Box<RaceWitness>),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::UnsupportedShape(detail) => {
                write!(f, "unsupported program shape: {detail}")
            }
            TransformError::Rejected(err) => write!(f, "verification rejected: {err}"),
            TransformError::NotEquivalent(ce) => write!(
                f,
                "the transformed program is not equivalent: {:?}",
                ce.disagreement
            ),
            TransformError::DataRace(witness) => write!(
                f,
                "the parallelization has a data race: {} and {} conflict on {}.{}",
                witness.first, witness.second, witness.node, witness.field
            ),
        }
    }
}

impl std::error::Error for TransformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransformError::Rejected(err) => Some(err),
            _ => None,
        }
    }
}

impl From<VerifyError> for TransformError {
    fn from(err: VerifyError) -> Self {
        TransformError::Rejected(err)
    }
}

pub(crate) fn unsupported<T>(detail: impl Into<String>) -> Result<T, TransformError> {
    Err(TransformError::UnsupportedShape(detail.into()))
}

/// Certifies a user-supplied fused candidate against the original through
/// `verifier` (Theorem 3).  Repeated certifications of the same pair are
/// answered from the verifier's verdict cache.
pub fn certify_fusion(
    verifier: &Verifier,
    original: &Program,
    fused: &Program,
) -> Result<CertifiedTransform, TransformError> {
    let verdict = equivalence_certificate(verifier.verify(Query::Equivalence(original, fused)))?;
    Ok(CertifiedTransform {
        original: original.clone(),
        transformed: fused.clone(),
        synthesized: Vec::new(),
        certificate: Certificate {
            kind: CertificateKind::Equivalence,
            verdict,
        },
    })
}

/// Certifies that `parallel` (a program containing parallel composition) is
/// data-race-free (Theorem 2), recording `original` as the sequential
/// program it replaces.  Pass the same program twice to certify an
/// already-parallel program in place.
pub fn certify_parallelization(
    verifier: &Verifier,
    original: &Program,
    parallel: &Program,
) -> Result<CertifiedTransform, TransformError> {
    let verdict = race_certificate(verifier.verify(Query::DataRace(parallel)))?;
    Ok(CertifiedTransform {
        original: original.clone(),
        transformed: parallel.clone(),
        synthesized: Vec::new(),
        certificate: Certificate {
            kind: CertificateKind::RaceFreedom,
            verdict,
        },
    })
}

/// A positive equivalence verdict, or the refusal it amounts to.
pub(crate) fn equivalence_certificate(
    verdict: Result<Verdict, VerifyError>,
) -> Result<Verdict, TransformError> {
    let verdict = verdict?;
    match verdict.outcome {
        Outcome::Equivalent { .. } => Ok(verdict),
        Outcome::NotEquivalent(ce) => Err(TransformError::NotEquivalent(ce)),
        ref other => unsupported(format!(
            "equivalence query produced unexpected outcome {other:?}"
        )),
    }
}

/// A race-freedom verdict, or the refusal it amounts to.
pub(crate) fn race_certificate(
    verdict: Result<Verdict, VerifyError>,
) -> Result<Verdict, TransformError> {
    let verdict = verdict?;
    match verdict.outcome {
        Outcome::RaceFree { .. } => Ok(verdict),
        Outcome::Race(witness) => Err(TransformError::DataRace(witness)),
        ref other => unsupported(format!("race query produced unexpected outcome {other:?}")),
    }
}

/// Finalizes a constructed program: normalizes it to the parser-canonical
/// shape, drops unreachable functions, and checks the two invariants every
/// certified output must satisfy — `validate` passes and the program
/// roundtrips through print/parse unchanged.  Construction bugs surface
/// here as `UnsupportedShape` instead of escaping into a certificate query.
pub(crate) fn finalize_program(program: Program) -> Result<Program, TransformError> {
    let program = rewrite::normalize_program(&rewrite::retain_reachable(&program));
    let errors = validate(&program);
    if let Some(first) = errors.first() {
        return unsupported(format!("constructed program fails validation: {first}"));
    }
    let printed = print_program(&program);
    match parse_program(&printed) {
        Ok(reparsed) if reparsed == program => Ok(program),
        Ok(_) => unsupported("constructed program does not roundtrip through print/parse"),
        Err(err) => unsupported(format!("constructed program does not re-parse: {err}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;

    fn verifier() -> Verifier {
        Verifier::builder()
            .equiv_nodes(4)
            .race_nodes(3)
            .valuations(2)
            .build()
    }

    #[test]
    fn certify_fusion_accepts_the_paper_fusion() {
        let certified = certify_fusion(
            &verifier(),
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
        )
        .expect("Fig. 6a is a valid fusion");
        assert_eq!(certified.certificate.kind, CertificateKind::Equivalence);
        // The automata tier certifies the fusion without enumerating models.
        assert_eq!(certified.certificate.trees_checked(), 0);
        assert_eq!(certified.certificate.engine(), Engine::Automata);
    }

    #[test]
    fn certify_fusion_refuses_the_invalid_fusion() {
        let result = certify_fusion(
            &verifier(),
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused_invalid(),
        );
        assert!(matches!(result, Err(TransformError::NotEquivalent(_))));
    }

    #[test]
    fn certify_parallelization_accepts_and_refuses() {
        let verifier = verifier();
        let parallel = corpus::size_counting_parallel();
        let certified = certify_parallelization(&verifier, &parallel, &parallel)
            .expect("Odd ‖ Even is race-free");
        assert_eq!(certified.certificate.kind, CertificateKind::RaceFreedom);
        // The automata tier proves race freedom structurally, without
        // enumerating a configuration.
        assert_eq!(certified.certificate.engine(), Engine::Automata);
        assert!(matches!(
            certified.certificate.verdict.outcome,
            Outcome::RaceFree {
                configurations: 0,
                ..
            }
        ));
        // Certifying the same program again is a verdict-cache hit.
        certify_parallelization(&verifier, &parallel, &parallel).expect("cached");
        assert_eq!(verifier.cache_stats().hits, 1);

        let racy = corpus::cycletree_parallel();
        match certify_parallelization(&verifier, &racy, &racy) {
            Err(TransformError::DataRace(witness)) => assert_eq!(witness.field, "num"),
            other => panic!("expected a data-race refusal, got {other:?}"),
        }
    }

    #[test]
    fn invalid_programs_are_rejected_with_typed_errors() {
        let no_main = retreet_lang::parse_program("fn F(n) { return 0; }").unwrap();
        assert!(matches!(
            certify_parallelization(&verifier(), &no_main, &no_main),
            Err(TransformError::Rejected(VerifyError::InvalidProgram { .. }))
        ));
        assert!(matches!(
            certify_fusion(&verifier(), &no_main, &no_main),
            Err(TransformError::Rejected(VerifyError::InvalidProgram { .. }))
        ));
    }
}
