//! The correctness oracle: a reference answer for every base input, built
//! before the timed window, and the checks every response goes through.
//!
//! * verification queries: the verdict word and soundness of a verifier
//!   with the cache disabled; a weaker soundness than the reference is
//!   wrong;
//! * `run`: the reference interpreter's `returns`, and the VM tier;
//! * `tune`: the candidate, certified and refused counts of the family,
//!   from one reference tuning; each winner is rerun on the interpreter
//!   against its original after the window ([`recheck_winner`]).
//!
//! The references are computed in a child process ([`Oracle::spawn`]): the
//! interpreter's traces on height-14 trees take over 100 MB, which would
//! otherwise set the measured process's peak RSS.

use retreet_analysis::interp;
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{program_fields, trees_agree};
use retreet_lang::parse_program;
use retreet_runtime::tune_and_compile;
use retreet_serve::formula::parse_formula;
use retreet_serve::json::{self, Value};
use retreet_serve::ServeOptions;
use retreet_transform::TuneOptions;
use retreet_verify::{Outcome, Query, Soundness, Verdict};

use crate::workload::{Stream, Subject, TUNE_HEIGHT};

/// The reference answer of one base input.
pub enum Reference {
    Verdict {
        word: String,
        soundness: String,
    },
    Run {
        /// The `"returns":[…]` fragment the response must carry.
        returns: String,
    },
    Tune(TuneCounts),
}

/// Candidate-table sizes of one tuning; they must repeat for every variant
/// of a family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuneCounts {
    pub candidates: usize,
    pub certified: usize,
    pub refused: usize,
}

/// A `tune` winner kept for the interpreter recheck after the window.
pub struct TuneWinner {
    pub original: String,
    pub winner: String,
    pub seed: u64,
}

/// What a correct response contributes beyond being correct.
#[derive(Default)]
pub struct Checked {
    pub unbounded: bool,
    /// How many functions a `run` response reports as running lowered.
    pub lowered: usize,
    pub tune: Option<(TuneCounts, TuneWinner)>,
}

pub struct Oracle {
    pub references: Vec<Reference>,
}

fn outcome_word(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::RaceFree { .. } => "race-free",
        Outcome::Race(_) => "race",
        Outcome::Equivalent { .. } => "equivalent",
        Outcome::NotEquivalent(_) => "not-equivalent",
        Outcome::Valid { .. } => "valid",
        Outcome::Invalid(_) => "invalid",
    }
}

fn soundness_text(soundness: Soundness) -> String {
    match soundness {
        Soundness::Unbounded => String::from("unbounded"),
        Soundness::BoundedUpTo { max_nodes } => format!("bounded:{max_nodes}"),
    }
}

/// Orders soundness tiers: unbounded above every bound, larger bounds above
/// smaller ones.
fn soundness_rank(text: &str) -> Option<usize> {
    match text {
        "unbounded" => Some(usize::MAX),
        _ => text.strip_prefix("bounded:")?.parse().ok(),
    }
}

/// The complete tree a `run` request of this shape executes on.
pub fn run_tree(program: &retreet_lang::ast::Program, height: usize, seed: u64) -> ValueTree {
    let fields = program_fields(program);
    let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut tree = ValueTree::complete_kary(program.arity.max(2), height, &refs, |_, _| 0);
    tree.fill_fields(&refs, seed);
    tree
}

fn verdict_reference(
    result: Result<Verdict, retreet_verify::VerifyError>,
) -> Result<Reference, String> {
    let verdict = result.map_err(|err| format!("reference verifier failed: {err}"))?;
    Ok(Reference::Verdict {
        word: outcome_word(&verdict.outcome).to_string(),
        soundness: soundness_text(verdict.soundness),
    })
}

impl Oracle {
    /// Builds the reference of every base input of `stream`.
    pub fn build(stream: &Stream) -> Result<Oracle, String> {
        let reference = ServeOptions {
            cache_capacity: 0,
            ..ServeOptions::default()
        }
        .build_verifier();
        let mut references = Vec::new();
        for input in &stream.inputs {
            let answer = match &input.subject {
                Subject::Race(program) => {
                    verdict_reference(reference.verify(Query::DataRace(program)))
                }
                Subject::Equivalence(original, transformed) => {
                    verdict_reference(reference.verify(Query::Equivalence(original, transformed)))
                }
                Subject::Validity(text) => {
                    let formula = parse_formula(text)?;
                    verdict_reference(reference.verify(Query::Validity(&formula)))
                }
                Subject::Run {
                    program,
                    height,
                    seed,
                } => interp::run(program, &run_tree(program, *height, *seed))
                    .map(|result| Reference::Run {
                        returns: format!(
                            r#""returns":[{}]"#,
                            result
                                .returns
                                .iter()
                                .map(i64::to_string)
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    })
                    .map_err(|err| format!("reference interpreter failed: {err}")),
                Subject::Tune(program) => {
                    let verifier = ServeOptions::default().build_verifier();
                    let options = TuneOptions {
                        tree_height: TUNE_HEIGHT,
                        ..TuneOptions::quick()
                    };
                    tune_and_compile(&verifier, program, &options)
                        .map(|tuned| {
                            Reference::Tune(TuneCounts {
                                candidates: tuned.schedule.candidates.len(),
                                certified: tuned.schedule.certified_count(),
                                refused: tuned.schedule.refused_count(),
                            })
                        })
                        .map_err(|err| format!("reference tuning failed: {err}"))
                }
            };
            references.push(answer.map_err(|err| format!("{}: {err}", input.name))?);
        }
        Ok(Oracle { references })
    }

    /// Builds the references in a child process running this benchmark with
    /// `--oracle 1`, which prints them with [`Oracle::encode`].
    pub fn spawn(workload: &str, seed: u64) -> Result<Oracle, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
        let seed = seed.to_string();
        let args = [
            "--oracle",
            "1",
            "--workload",
            workload,
            "--seed",
            seed.as_str(),
        ];
        let output = std::process::Command::new(exe)
            .args(args)
            .output()
            .map_err(|e| format!("cannot start the oracle: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "the oracle failed: {}",
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let references = text
            .lines()
            .map(Reference::decode)
            .collect::<Result<_, _>>()?;
        Ok(Oracle { references })
    }

    /// One line per reference, in input order.
    pub fn encode(&self) -> String {
        let lines: Vec<String> = self
            .references
            .iter()
            .map(|reference| match reference {
                Reference::Verdict { word, soundness } => format!("verdict {word} {soundness}"),
                Reference::Run { returns } => format!("run {returns}"),
                Reference::Tune(c) => {
                    format!("tune {} {} {}", c.candidates, c.certified, c.refused)
                }
            })
            .collect();
        lines.join("\n")
    }

    /// Checks the response to a request for base input `input`.
    pub fn check(&self, input: usize, request: &str, response: &str) -> Result<Checked, String> {
        if !response.contains(r#""status":"ok""#) {
            return Err(format!("error response: {response}"));
        }
        match &self.references[input] {
            Reference::Verdict { word, soundness } => {
                if !response.contains(&format!(r#""verdict":"{word}""#)) {
                    return Err(format!("expected verdict `{word}`, got: {response}"));
                }
                let got = string_field(response, "soundness").unwrap_or_default();
                if got != *soundness
                    && soundness_rank(&got).unwrap_or(0) < soundness_rank(soundness).unwrap_or(0)
                {
                    return Err(format!(
                        "soundness `{got}` is weaker than the reference `{soundness}`: {response}"
                    ));
                }
                Ok(Checked {
                    unbounded: got == "unbounded",
                    ..Checked::default()
                })
            }
            Reference::Run { returns } => {
                if !response.contains(returns.as_str()) || !response.contains(r#""tier":"vm""#) {
                    return Err(format!(
                        "expected {returns} from the VM tier, got: {response}"
                    ));
                }
                let value = json::parse(response)?;
                let lowered = value
                    .as_object()
                    .and_then(|o| o.get("lowered"))
                    .and_then(Value::as_array)
                    .map_or(0, <[Value]>::len);
                Ok(Checked {
                    lowered,
                    ..Checked::default()
                })
            }
            Reference::Tune(expected) => {
                let value = json::parse(response)?;
                let object = value.as_object().ok_or("tune response is not an object")?;
                let number = |key: &str| match object.get(key) {
                    Some(Value::Number(n)) => *n as usize,
                    _ => usize::MAX,
                };
                let counts = TuneCounts {
                    candidates: object
                        .get("candidates")
                        .and_then(Value::as_array)
                        .map_or(usize::MAX, <[Value]>::len),
                    certified: number("certified"),
                    refused: number("refused"),
                };
                if counts != *expected {
                    return Err(format!(
                        "tune counts {counts:?} differ from the family's {expected:?}"
                    ));
                }
                if object.get("cached") != Some(&Value::Bool(false)) {
                    return Err(format!(
                        "a fresh tune was answered from the cache: {response}"
                    ));
                }
                let winner = object
                    .get("winner")
                    .and_then(Value::as_object)
                    .and_then(|w| w.get("source"))
                    .and_then(Value::as_str)
                    .ok_or("tune response has no winner source")?;
                let request = json::parse(request)?;
                let request = request.as_object().ok_or("tune request is not an object")?;
                let original = request
                    .get("program")
                    .and_then(Value::as_str)
                    .ok_or("tune request has no program")?;
                let seed = match request.get("seed") {
                    Some(Value::Number(n)) => *n as u64,
                    _ => 0,
                };
                Ok(Checked {
                    tune: Some((
                        counts,
                        TuneWinner {
                            original: original.to_string(),
                            winner: winner.to_string(),
                            seed,
                        },
                    )),
                    ..Checked::default()
                })
            }
        }
    }
}

impl Reference {
    fn decode(line: &str) -> Result<Reference, String> {
        let fields: Vec<&str> = line.split(' ').collect();
        let count = |i: usize| fields.get(i).and_then(|f| f.parse().ok());
        match fields.as_slice() {
            ["verdict", word, soundness] => Ok(Reference::Verdict {
                word: word.to_string(),
                soundness: soundness.to_string(),
            }),
            ["run", returns] => Ok(Reference::Run {
                returns: returns.to_string(),
            }),
            ["tune", ..] => match (count(1), count(2), count(3)) {
                (Some(candidates), Some(certified), Some(refused)) => {
                    Ok(Reference::Tune(TuneCounts {
                        candidates,
                        certified,
                        refused,
                    }))
                }
                _ => Err(format!("malformed oracle line `{line}`")),
            },
            _ => Err(format!("malformed oracle line `{line}`")),
        }
    }
}

/// Reruns a `tune` winner and its original on the interpreter over the
/// tuner's measurement tree: returns and post-run trees must agree.
pub fn recheck_winner(winner: &TuneWinner) -> Result<(), String> {
    let original = parse_program(&winner.original).map_err(|e| e.to_string())?;
    let tuned = parse_program(&winner.winner).map_err(|e| e.to_string())?;
    let tree = run_tree(&original, TUNE_HEIGHT, winner.seed);
    let expected = interp::run(&original, &tree).map_err(|e| e.to_string())?;
    let actual = interp::run(&tuned, &tree).map_err(|e| e.to_string())?;
    if expected.returns != actual.returns || !trees_agree(&expected.tree, &actual.tree) {
        return Err(format!(
            "tune winner disagrees with its original on the interpreter: {:?} vs {:?}",
            actual.returns, expected.returns
        ));
    }
    Ok(())
}

/// The string value of `"key":"…"` in a flat response line.
fn string_field(response: &str, key: &str) -> Option<String> {
    let tag = format!(r#""{key}":""#);
    let start = response.find(&tag)? + tag.len();
    let end = response[start..].find('"')?;
    Some(response[start..start + end].to_string())
}
