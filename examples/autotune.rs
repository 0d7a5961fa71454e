//! Tunes the CSS-minify pipeline (E3) with the certified schedule
//! autotuner: enumerates the partial-fusion × parallelization space of
//! `Main`'s three passes, certifies every candidate race-first through two
//! `verify_batch` calls, times the survivors on the bytecode VM, prints the
//! scored candidate table with certificates, and runs the winner, checked
//! against the original on the reference interpreter.
//!
//! ```bash
//! cargo run --release --example autotune
//! ```

use retreet_analysis::interp;
use retreet_analysis::vtree::ValueTree;
use retreet_codegen::{program_fields, trees_agree};
use retreet_lang::corpus;
use retreet_runtime::tune_and_compile;
use retreet_transform::{CandidateStatus, TuneOptions};
use retreet_verify::Verifier;

fn main() {
    let verifier = Verifier::builder()
        .equiv_nodes(5)
        .race_nodes(4)
        .valuations(2)
        .build();
    let program = corpus::css_minify_original();
    let options = TuneOptions {
        tree_height: 12,
        ..TuneOptions::default()
    };

    println!("tuning the CSS-minify pipeline (ConvertValues; MinifyFont; ReduceInit)\n");
    let tuned = tune_and_compile(&verifier, &program, &options).expect("E3 tunes");
    let schedule = &tuned.schedule;

    // The scored candidate table: every enumerated schedule, certified with
    // its measured VM cost or refused with the verifier's witness.
    println!(
        "{:<52} {:>10} {:>12}  certificate",
        "candidate", "status", "cost"
    );
    for candidate in &schedule.candidates {
        match &candidate.status {
            CandidateStatus::Certified {
                equivalence,
                race,
                cost,
            } => {
                let cost_text = match cost {
                    Ok(seconds) => format!("{:.4} ms", seconds * 1e3),
                    Err(_) => String::from("unmeasured"),
                };
                let race_text = race
                    .as_ref()
                    .map(|r| format!(" + race-free [{}]", r.engine))
                    .unwrap_or_default();
                println!(
                    "{:<52} {:>10} {:>12}  equivalence [{} / {}]{}",
                    candidate.label,
                    "certified",
                    cost_text,
                    equivalence.engine,
                    equivalence.soundness,
                    race_text
                );
            }
            CandidateStatus::Refused(reason) => {
                println!(
                    "{:<52} {:>10} {:>12}  {}",
                    candidate.label, "refused", "-", reason
                );
            }
        }
    }

    println!(
        "\nbaselines: original {:.4} ms, canonical fusion {}",
        schedule.baseline_original_seconds * 1e3,
        schedule
            .baseline_fused_seconds
            .map(|s| format!("{:.4} ms", s * 1e3))
            .unwrap_or_else(|| String::from("(not measured)"))
    );
    println!(
        "winner: {} at {:.4} ms ({:.2}x over the best baseline)",
        schedule.winner_label,
        schedule.winner_seconds * 1e3,
        schedule.speedup()
    );
    println!("certificate: {}", schedule.winner.certificate);

    // Run the winner on a fresh seeded tree, of a height the tuner did not
    // measure, through its compiled executor, and check it against the
    // original on the reference interpreter.
    let fields = program_fields(&program);
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let mut tree = ValueTree::complete(10, &field_refs, |_, _| 0);
    tree.fill_fields(&field_refs, 99);
    let outcome = tuned.executor.run(&tree).expect("the winner runs");
    let reference = interp::run(&program, &tree).expect("the original runs");
    println!(
        "\nwinner executed on a height-10 tree ({} nodes) via the {} tier, returns {:?}",
        tree.len(),
        outcome.tier,
        outcome.returns
    );
    assert_eq!(
        outcome.returns, reference.returns,
        "the winner's returns drifted from the original's"
    );
    assert!(
        trees_agree(&outcome.tree, &reference.tree),
        "the winner's post-run tree drifted from the original's"
    );
    println!("the winner agrees with the original on the interpreter: returns and post-run tree");
}
