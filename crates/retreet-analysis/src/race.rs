//! Data-race detection (the `DataRace⟦P⟧` query of §4).
//!
//! Two engines are provided:
//!
//! * [`check_data_race`] — the configuration engine: enumerate configurations
//!   (the paper's abstraction) over every tree up to a bound, and look for a
//!   pair of *parallel*, *mutually feasible* configurations whose final
//!   iterations have a data dependence.  This mirrors Theorem 2: the program
//!   is reported race-free when no such pair exists on any enumerated tree.
//! * [`check_data_race_dynamic`] — the trace engine: run the interpreter and
//!   look for structurally parallel iterations with conflicting accesses
//!   (a dynamic race detector on the canonical schedule).  It serves as an
//!   independent validation of the configuration engine's verdicts.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use retreet_lang::ast::Program;
use retreet_lang::blocks::BlockTable;
use retreet_lang::rw::{rw_sets, Access};
use retreet_logic::SolverCache;

use crate::configs::{self, AnalysisContext, ConfigRelation, Configuration, EnumOptions};
use crate::interp;
use crate::vtree::{test_trees_kary, NodeId, TreeCorpus, ValueTree};
use crate::NEVER_CANCELLED;

/// Options for the bounded race analysis.
///
/// Construct with [`RaceOptions::builder`] (or take the defaults); prefer
/// the builder over mutating fields in place:
///
/// ```
/// use retreet_analysis::race::RaceOptions;
///
/// let options = RaceOptions::builder().max_nodes(3).valuations(1).build();
/// assert_eq!(options.max_nodes, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceOptions {
    /// Largest tree (in nodes) to enumerate.
    pub max_nodes: usize,
    /// Number of deterministic field valuations per tree shape.
    pub valuations: usize,
    /// Configuration-enumeration limits.
    pub enumeration: EnumOptions,
}

impl Default for RaceOptions {
    fn default() -> Self {
        RaceOptions {
            max_nodes: 4,
            valuations: 2,
            enumeration: EnumOptions::default(),
        }
    }
}

impl RaceOptions {
    /// Starts a builder seeded with the default options.
    pub fn builder() -> RaceOptionsBuilder {
        RaceOptionsBuilder {
            options: RaceOptions::default(),
        }
    }
}

/// Builder for [`RaceOptions`].
#[derive(Debug, Clone, Default)]
pub struct RaceOptionsBuilder {
    options: RaceOptions,
}

impl RaceOptionsBuilder {
    /// Largest tree (in nodes) to enumerate.
    pub fn max_nodes(mut self, max_nodes: usize) -> Self {
        self.options.max_nodes = max_nodes;
        self
    }

    /// Number of deterministic field valuations per tree shape.
    pub fn valuations(mut self, valuations: usize) -> Self {
        self.options.valuations = valuations;
        self
    }

    /// Configuration-enumeration limits.
    pub fn enumeration(mut self, enumeration: EnumOptions) -> Self {
        self.options.enumeration = enumeration;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> RaceOptions {
        self.options
    }
}

/// A concrete witness of a potential data race.
#[derive(Debug, Clone)]
pub struct RaceWitness {
    /// The tree the race occurs on.
    pub tree: ValueTree,
    /// Description of the first conflicting configuration.
    pub first: String,
    /// Description of the second conflicting configuration.
    pub second: String,
    /// The node both iterations access.
    pub node: NodeId,
    /// The field both iterations access (at least one write).
    pub field: String,
}

/// The verdict of a race query.
#[derive(Debug, Clone)]
pub enum RaceVerdict {
    /// No race was found on any enumerated tree.
    RaceFree {
        /// Number of trees analysed.
        trees_checked: usize,
        /// Number of configurations enumerated in total.
        configurations: usize,
    },
    /// A candidate race with its witness.
    Race(RaceWitness),
}

impl RaceVerdict {
    /// True for the race-free verdict.
    pub fn is_race_free(&self) -> bool {
        matches!(self, RaceVerdict::RaceFree { .. })
    }

    /// The witness, when a race was found.
    pub fn witness(&self) -> Option<&RaceWitness> {
        match self {
            RaceVerdict::Race(witness) => Some(witness),
            RaceVerdict::RaceFree { .. } => None,
        }
    }
}

/// Every field name mentioned by the program's read/write sets; these are the
/// fields the test trees initialize.
pub fn program_fields(table: &BlockTable) -> Vec<String> {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for sets in rw_sets(table) {
        for access in sets.reads.iter().chain(sets.writes.iter()) {
            if let Access::Field(_, name) = access {
                fields.insert(name.clone());
            }
        }
    }
    fields.into_iter().collect()
}

/// The configuration-based data-race check (Theorem 2, bounded).
///
/// The hot path shares one [`AnalysisContext`] across the run's trees —
/// tree-independent path summaries, the solver memo cache, and the symbol
/// table that keeps constraint symbols consistent between trees.  Trees are
/// searched in corpus order and each tree's configuration pairs in
/// lexicographic order, so the witness is the lowest-index tree's lowest
/// racing pair: the one the naive engine reports.
pub fn check_data_race(program: &Program, options: &RaceOptions) -> RaceVerdict {
    check_data_race_cancellable(program, options, &NEVER_CANCELLED)
        .expect("never-raised cancel flag cannot cancel the analysis")
}

/// [`check_data_race`] with a cooperative cancel flag: returns `None` (and
/// no verdict) as soon as `cancel` is observed raised, checking the flag
/// once per enumerated tree and once per outer index of the
/// configuration-pair scan.
///
/// The façade raises the flag when a query's deadline expires or its
/// dispatch is aborted, so a cancelled run stops within one loop iteration
/// instead of enumerating the remaining trees.
pub fn check_data_race_cancellable(
    program: &Program,
    options: &RaceOptions,
    cancel: &AtomicBool,
) -> Option<RaceVerdict> {
    let ctx = AnalysisContext::new(program);
    let table = &ctx.table;
    let field_refs: Vec<&str> = ctx.fields.iter().map(String::as_str).collect();
    let corpus = TreeCorpus::with_arity(
        program.arity,
        options.max_nodes,
        &field_refs,
        options.valuations,
    );
    let mut total_configs = 0usize;
    for i in 0..corpus.len() {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let tree = corpus.tree(i);
        let configs = configs::enumerate_shared(
            table,
            &ctx.summaries,
            &tree,
            &options.enumeration,
            &ctx.cache,
            &ctx.symtab,
        );
        total_configs += configs.len();
        if let Some(witness) = find_race(table, &tree, &configs, &ctx.cache, cancel) {
            return Some(RaceVerdict::Race(witness));
        }
    }
    // The pair scan observes the flag too, and its cancellation surfaces as
    // "no witness", which the tree loop only notices at its *next*
    // iteration.  A raised flag after the final tree therefore means the
    // scan may be partial: never derive a RaceFree verdict from it.
    if cancel.load(Ordering::Relaxed) {
        return None;
    }
    Some(RaceVerdict::RaceFree {
        trees_checked: corpus.len(),
        configurations: total_configs,
    })
}

/// Searches the configuration-pair space of one tree for a parallel,
/// dependent, mutually feasible pair — the §4 race condition — and returns
/// the lexicographically lowest one.
///
/// The concrete access footprints are computed once per configuration (the
/// naive engine recomputed them per *pair*), and mutual feasibility is
/// decided through the shared solver cache.  A raised `cancel` flag ends
/// the scan at the next outer index with no witness.
fn find_race(
    table: &BlockTable,
    tree: &ValueTree,
    configs: &[Configuration],
    cache: &SolverCache,
    cancel: &AtomicBool,
) -> Option<RaceWitness> {
    let footprints: Vec<Vec<(NodeId, String, bool)>> = configs
        .iter()
        .map(|c| configs::concrete_accesses(table, tree, c))
        .collect();
    let conflict =
        |a: &[(NodeId, String, bool)], b: &[(NodeId, String, bool)]| -> Option<(NodeId, String)> {
            for (node_a, field_a, write_a) in a {
                for (node_b, field_b, write_b) in b {
                    if node_a == node_b && field_a == field_b && (*write_a || *write_b) {
                        return Some((*node_a, field_a.clone()));
                    }
                }
            }
            None
        };
    for (i, a) in configs.iter().enumerate() {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        for (j, b) in configs.iter().enumerate().skip(i + 1) {
            if configs::relation(table, a, b) != ConfigRelation::Parallel {
                continue;
            }
            let Some((node, field)) = conflict(&footprints[i], &footprints[j]) else {
                continue;
            };
            if !configs::mutually_feasible_cached(a, b, cache) {
                continue;
            }
            return Some(RaceWitness {
                tree: tree.clone(),
                first: a.describe(table),
                second: b.describe(table),
                node,
                field,
            });
        }
    }
    None
}

/// The trace-based data-race check (dynamic validation engine).
pub fn check_data_race_dynamic(program: &Program, options: &RaceOptions) -> RaceVerdict {
    check_data_race_dynamic_cancellable(program, options, &NEVER_CANCELLED)
        .expect("never-raised cancel flag cannot cancel the analysis")
}

/// [`check_data_race_dynamic`] with a cooperative cancel flag, checked once
/// per interpreted tree; returns `None` when the flag is observed raised.
pub fn check_data_race_dynamic_cancellable(
    program: &Program,
    options: &RaceOptions,
    cancel: &AtomicBool,
) -> Option<RaceVerdict> {
    let table = BlockTable::build(program);
    let fields = program_fields(&table);
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let trees = test_trees_kary(
        program.arity,
        options.max_nodes,
        &field_refs,
        options.valuations,
    );
    let Ok(runner) = interp::Runner::new(&table) else {
        return Some(RaceVerdict::RaceFree {
            trees_checked: trees.len(),
            configurations: 0,
        });
    };
    let mut total = 0usize;
    for tree in &trees {
        if cancel.load(Ordering::Relaxed) {
            return None;
        }
        let Ok(result) = runner.run(tree) else {
            continue;
        };
        total += result.trace.len();
        if let Some(&(i, j)) = result.trace.racy_pairs().first() {
            let a = &result.trace.iterations[i];
            let b = &result.trace.iterations[j];
            let (node, field) = a
                .accesses
                .iter()
                .find_map(|x| {
                    b.accesses.iter().find_map(|y| {
                        if x.node == y.node && x.field == y.field && (x.is_write || y.is_write) {
                            Some((x.node, x.field.clone()))
                        } else {
                            None
                        }
                    })
                })
                .expect("racy pair has a conflicting access");
            return Some(RaceVerdict::Race(RaceWitness {
                tree: tree.clone(),
                first: format!("{} on {:?}", a.block, a.node),
                second: format!("{} on {:?}", b.block, b.node),
                node,
                field,
            }));
        }
    }
    Some(RaceVerdict::RaceFree {
        trees_checked: trees.len(),
        configurations: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;

    fn small() -> RaceOptions {
        RaceOptions {
            max_nodes: 3,
            valuations: 1,
            enumeration: EnumOptions::default(),
        }
    }

    #[test]
    fn size_counting_parallel_is_race_free() {
        // E1c of the evaluation: Odd(n) ‖ Even(n) has no data race.
        let verdict = check_data_race(&corpus::size_counting_parallel(), &small());
        assert!(verdict.is_race_free(), "verdict: {verdict:?}");
        let dynamic = check_data_race_dynamic(&corpus::size_counting_parallel(), &small());
        assert!(dynamic.is_race_free());
    }

    #[test]
    fn cycletree_parallelization_races() {
        // E4b of the evaluation: RootMode ‖ ComputeRouting races on `num`.
        let verdict = check_data_race(&corpus::cycletree_parallel(), &small());
        let witness = verdict.witness().expect("a race must be found");
        assert_eq!(witness.field, "num");
        let dynamic = check_data_race_dynamic(&corpus::cycletree_parallel(), &small());
        assert!(!dynamic.is_race_free());
    }

    #[test]
    fn disjoint_subtree_parallelism_is_race_free() {
        let verdict = check_data_race(&corpus::disjoint_parallel(), &small());
        assert!(verdict.is_race_free(), "verdict: {verdict:?}");
        let dynamic = check_data_race_dynamic(&corpus::disjoint_parallel(), &small());
        assert!(dynamic.is_race_free());
    }

    #[test]
    fn overlapping_parallel_traversals_race() {
        let verdict = check_data_race(&corpus::overlapping_parallel(), &small());
        assert!(!verdict.is_race_free());
        assert_eq!(verdict.witness().unwrap().field, "total");
    }

    #[test]
    fn sequential_programs_are_trivially_race_free() {
        for program in [
            corpus::size_counting_sequential(),
            corpus::css_minify_original(),
            corpus::cycletree_original(),
            corpus::tree_mutation_original(),
        ] {
            let verdict = check_data_race(&program, &small());
            assert!(verdict.is_race_free());
        }
    }

    #[test]
    fn raised_cancel_flag_aborts_both_race_engines_without_a_verdict() {
        let cancel = AtomicBool::new(true);
        assert!(
            check_data_race_cancellable(&corpus::size_counting_parallel(), &small(), &cancel)
                .is_none()
        );
        assert!(check_data_race_dynamic_cancellable(
            &corpus::size_counting_parallel(),
            &small(),
            &cancel
        )
        .is_none());
        // An unraised flag reproduces the plain entry point exactly.
        let cancel = AtomicBool::new(false);
        let verdict =
            check_data_race_cancellable(&corpus::cycletree_parallel(), &small(), &cancel).unwrap();
        assert_eq!(verdict.witness().unwrap().field, "num");
    }

    #[test]
    fn program_fields_are_collected() {
        let table = BlockTable::build(&corpus::cycletree_original());
        let fields = program_fields(&table);
        assert!(fields.contains(&"num".to_string()));
        assert!(fields.contains(&"min".to_string()));
        assert!(fields.contains(&"lmax".to_string()));
    }
}
