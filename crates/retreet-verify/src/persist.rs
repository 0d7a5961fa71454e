//! Crash-safe verdict persistence: the write-through layer under the
//! verdict cache.
//!
//! Every verdict the portfolio computes is appended (key, subjects,
//! verdict — witness included) to a [`retreet_store::LogStore`].  On the
//! next build with the same store path, every persisted verdict is
//! replayed into the cache before the first query arrives: restart
//! recovery generalizes the old 18-query `--warm-start` to *every verdict
//! ever computed*, witnesses byte-identical.
//!
//! Two invariants the layer maintains:
//!
//! * **Upgrade lattice** — a persisted entry is only superseded when the
//!   incoming verdict's [`Soundness::covers`] the resident one's, exactly
//!   mirroring the in-memory cache: a later bounded re-run never
//!   downgrades a persisted `Unbounded` verdict, so latest-wins replay
//!   reconstructs the lattice maximum.
//! * **Failure isolation** — a store write error is counted, never
//!   propagated: serving keeps answering from memory, and the next
//!   compaction rewrites the full live set (transient errors self-heal).
//!
//! The on-disk value encoding is a small hand-rolled binary format.
//! Programs are stored as the printed source the cache identifies them by
//! (the round-trip property `parse(print(p)) == p` makes that exact);
//! formulas, value trees and labeled trees get direct codecs.  Replay
//! parses and validates every stored program and skips the record when
//! either fails: the cache answers text lookups without parsing or
//! validating, so it may only hold programs a query could have inserted.
//! Trees are replayed in node-id order, which is valid because both tree
//! types only grow by `add_left`/`add_right` — a parent's id is always
//! smaller than its children's.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use retreet_analysis::equiv::{Disagreement, EquivCounterExample};
use retreet_analysis::race::RaceWitness;
use retreet_analysis::vtree::{NodeId, ValueTree};
use retreet_lang::parse_program;
use retreet_lang::validate::validate;
use retreet_mso::formula::{FoVar, Formula, SoVar};
use retreet_mso::tree::LabeledTree;
use retreet_store::fault::FaultPlan;
use retreet_store::{CorruptionPolicy, LogStore};

use crate::cache::CacheKey;
use crate::engine::Engine;
use crate::query::{OwnedQuery, QueryKind};
use crate::verdict::{Outcome, Soundness, Verdict};

/// Version byte leading every persisted verdict value.
const VALUE_VERSION: u8 = 1;
/// Recursion guard for the formula decoder (well past anything the MSO
/// compiler accepts, but a corrupt file must not blow the stack).
const MAX_FORMULA_DEPTH: usize = 4096;

/// Counters of the persistent verdict store; surfaced through
/// [`crate::Verifier::store_stats`] and the service's `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Verdicts currently live in the store (distinct keys).
    pub entries: usize,
    /// Verdicts recovered from disk when the store was opened.
    pub loaded: u64,
    /// Records dropped at open: checksum-corrupt or undecodable.
    pub skipped: u64,
    /// Bytes cut from the end of the log at open (torn tail).
    pub truncated_bytes: u64,
    /// Successful write-through appends since open.
    pub appends: u64,
    /// Write-through appends that failed (counted, never propagated).
    pub write_errors: u64,
    /// Compactions run since open.
    pub compactions: u64,
}

struct Inner {
    log: LogStore,
    /// Soundness of the live persisted entry per key — the disk-side
    /// upgrade-lattice guard.
    soundness: HashMap<[u8; 17], Soundness>,
}

/// One recovered entry: cache key, query subjects, verdict.
pub(crate) type RecoveredEntry = (CacheKey, Arc<OwnedQuery>, Verdict);

/// The disk-backed verdict store wired under the verdict cache.
pub(crate) struct VerdictStore {
    inner: Mutex<Inner>,
    loaded: u64,
    skipped: u64,
    truncated_bytes: u64,
    appends: AtomicU64,
    write_errors: AtomicU64,
}

impl VerdictStore {
    /// Open (or create) the store at `path` and decode every recovered
    /// verdict.  Undecodable records are dropped under
    /// [`CorruptionPolicy::SkipAndLog`] and refused under
    /// [`CorruptionPolicy::FailOpen`].
    pub(crate) fn open(
        path: impl Into<PathBuf>,
        policy: CorruptionPolicy,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<(VerdictStore, Vec<RecoveredEntry>)> {
        let (mut log, report) = LogStore::open(path, policy)?;
        let mut loaded = Vec::new();
        let mut soundness = HashMap::new();
        let mut skipped = report.skipped_corrupt as u64;
        for (key_bytes, value) in log.iter() {
            match decode_entry(key_bytes, value) {
                Ok((key, subjects, verdict)) => {
                    soundness.insert(key_bytes_of(&key), verdict.soundness);
                    loaded.push((key, Arc::new(subjects), verdict));
                }
                Err(reason) if policy == CorruptionPolicy::FailOpen => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("verdict store: undecodable entry: {reason}"),
                    ));
                }
                Err(_) => skipped += 1,
            }
        }
        if let Some(plan) = faults {
            log.set_fault_plan(plan);
        }
        let store = VerdictStore {
            loaded: loaded.len() as u64,
            skipped,
            truncated_bytes: report.truncated_bytes,
            appends: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            inner: Mutex::new(Inner { log, soundness }),
        };
        Ok((store, loaded))
    }

    /// Persist one verdict the cache accepted.  Respects the soundness
    /// lattice against the *persisted* resident entry; failures are
    /// counted, never propagated.
    pub(crate) fn write_through(&self, key: &CacheKey, subjects: &OwnedQuery, verdict: &Verdict) {
        let key_bytes = key_bytes_of(key);
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        if let Some(resident) = inner.soundness.get(&key_bytes) {
            if !verdict.soundness.covers(resident) {
                return; // never downgrade a persisted stronger verdict
            }
        }
        let value = encode_entry(subjects, verdict);
        match inner.log.put(&key_bytes, &value) {
            Ok(()) => {
                inner.soundness.insert(key_bytes, verdict.soundness);
                self.appends.fetch_add(1, Ordering::Relaxed);
                if inner.log.maybe_compact().is_err() {
                    self.write_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // Memory (and the in-memory cache) keep the verdict; the
                // next successful compaction rewrites the live set.
                inner.soundness.insert(key_bytes, verdict.soundness);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Durably flush the log (called on graceful shutdown).
    pub(crate) fn flush(&self) {
        let mut inner = self.inner.lock().expect("verdict store poisoned");
        if inner.log.sync().is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("verdict store poisoned");
        StoreStats {
            entries: inner.log.len(),
            loaded: self.loaded,
            skipped: self.skipped,
            truncated_bytes: self.truncated_bytes,
            appends: self.appends.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            compactions: inner.log.compactions(),
        }
    }
}

fn key_bytes_of(key: &CacheKey) -> [u8; 17] {
    let mut bytes = [0u8; 17];
    bytes[0] = match key.kind {
        QueryKind::DataRace => 0,
        QueryKind::Equivalence => 1,
        QueryKind::Validity => 2,
    };
    bytes[1..9].copy_from_slice(&key.h1.to_le_bytes());
    bytes[9..17].copy_from_slice(&key.h2.to_le_bytes());
    bytes
}

fn key_of_bytes(bytes: &[u8]) -> Result<CacheKey, String> {
    if bytes.len() != 17 {
        return Err(format!("key is {} bytes, want 17", bytes.len()));
    }
    let kind = match bytes[0] {
        0 => QueryKind::DataRace,
        1 => QueryKind::Equivalence,
        2 => QueryKind::Validity,
        other => return Err(format!("unknown query-kind tag {other}")),
    };
    Ok(CacheKey {
        kind,
        h1: u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes")),
        h2: u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes")),
    })
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(format!(
                "short read: want {n} bytes at {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad utf8 string: {e}"))
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after decoded value",
                self.bytes.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Tree codecs
// ---------------------------------------------------------------------------

fn put_value_tree(buf: &mut Vec<u8>, tree: &ValueTree) {
    put_u32(buf, tree.len() as u32);
    for id in tree.nodes().skip(1) {
        let parent = tree.parent(id).expect("non-root node has a parent");
        put_u32(buf, parent.0);
        put_u8(buf, u8::from(tree.left(parent) != Some(id)));
    }
    let snapshot = tree.field_snapshot();
    put_u32(buf, snapshot.len() as u32);
    for ((node, field), value) in snapshot {
        put_u32(buf, node.0);
        put_str(buf, &field);
        put_i64(buf, value);
    }
}

fn read_value_tree(r: &mut Reader<'_>) -> Result<ValueTree, String> {
    let n = r.u32()?;
    if n == 0 {
        return Err("value tree with zero nodes".into());
    }
    let mut tree = ValueTree::single();
    for id in 1..n {
        let parent = r.u32()?;
        let side = r.u8()?;
        if parent >= id {
            return Err(format!("node {id} claims later parent {parent}"));
        }
        let parent = NodeId(parent);
        let child = match side {
            0 if tree.left(parent).is_none() => tree.add_left(parent),
            1 if tree.right(parent).is_none() => tree.add_right(parent),
            0 | 1 => return Err(format!("node {id}: parent slot already taken")),
            other => return Err(format!("bad child side {other}")),
        };
        if child.0 != id {
            return Err(format!("replay produced id {} for node {id}", child.0));
        }
    }
    let fields = r.u32()?;
    for _ in 0..fields {
        let node = r.u32()?;
        if node >= n {
            return Err(format!("field on unknown node {node}"));
        }
        let field = r.str()?;
        let value = r.i64()?;
        tree.set_field(NodeId(node), &field, value);
    }
    Ok(tree)
}

fn put_labeled_tree(buf: &mut Vec<u8>, tree: &LabeledTree) {
    put_u32(buf, tree.len() as u32);
    for id in tree.nodes().skip(1) {
        let parent = tree.parent(id).expect("non-root node has a parent");
        put_u32(buf, parent.0);
        put_u8(buf, u8::from(tree.left(parent) != Some(id)));
    }
    for id in tree.nodes() {
        let labels = tree.labels(id);
        put_u32(buf, labels.len() as u32);
        for &label in labels {
            put_u32(buf, label);
        }
    }
}

fn read_labeled_tree(r: &mut Reader<'_>) -> Result<LabeledTree, String> {
    use retreet_mso::tree::NodeId as MsoNodeId;
    let n = r.u32()?;
    if n == 0 {
        return Err("labeled tree with zero nodes".into());
    }
    let mut tree = LabeledTree::single();
    for id in 1..n {
        let parent = r.u32()?;
        let side = r.u8()?;
        if parent >= id {
            return Err(format!("node {id} claims later parent {parent}"));
        }
        let parent = MsoNodeId(parent);
        let child = match side {
            0 if tree.left(parent).is_none() => tree.add_left(parent),
            1 if tree.right(parent).is_none() => tree.add_right(parent),
            0 | 1 => return Err(format!("node {id}: parent slot already taken")),
            other => return Err(format!("bad child side {other}")),
        };
        if child.0 != id {
            return Err(format!("replay produced id {} for node {id}", child.0));
        }
    }
    for id in 0..n {
        let count = r.u32()?;
        for _ in 0..count {
            tree.add_label(MsoNodeId(id), r.u32()?);
        }
    }
    Ok(tree)
}

// ---------------------------------------------------------------------------
// Formula codec
// ---------------------------------------------------------------------------

fn put_formula(buf: &mut Vec<u8>, formula: &Formula) {
    match formula {
        Formula::True => put_u8(buf, 0),
        Formula::False => put_u8(buf, 1),
        Formula::Eq(a, b) => {
            put_u8(buf, 2);
            put_str(buf, &a.0);
            put_str(buf, &b.0);
        }
        Formula::Root(a) => {
            put_u8(buf, 3);
            put_str(buf, &a.0);
        }
        Formula::Left(a, b) => {
            put_u8(buf, 4);
            put_str(buf, &a.0);
            put_str(buf, &b.0);
        }
        Formula::Right(a, b) => {
            put_u8(buf, 5);
            put_str(buf, &a.0);
            put_str(buf, &b.0);
        }
        Formula::Reach(a, b) => {
            put_u8(buf, 6);
            put_str(buf, &a.0);
            put_str(buf, &b.0);
        }
        Formula::Leaf(a) => {
            put_u8(buf, 7);
            put_str(buf, &a.0);
        }
        Formula::In(a, set) => {
            put_u8(buf, 8);
            put_str(buf, &a.0);
            put_str(buf, &set.0);
        }
        Formula::Subset(a, b) => {
            put_u8(buf, 9);
            put_str(buf, &a.0);
            put_str(buf, &b.0);
        }
        Formula::Not(inner) => {
            put_u8(buf, 10);
            put_formula(buf, inner);
        }
        Formula::And(lhs, rhs) => {
            put_u8(buf, 11);
            put_formula(buf, lhs);
            put_formula(buf, rhs);
        }
        Formula::Or(lhs, rhs) => {
            put_u8(buf, 12);
            put_formula(buf, lhs);
            put_formula(buf, rhs);
        }
        Formula::Implies(lhs, rhs) => {
            put_u8(buf, 13);
            put_formula(buf, lhs);
            put_formula(buf, rhs);
        }
        Formula::Iff(lhs, rhs) => {
            put_u8(buf, 14);
            put_formula(buf, lhs);
            put_formula(buf, rhs);
        }
        Formula::ExistsFo(var, body) => {
            put_u8(buf, 15);
            put_str(buf, &var.0);
            put_formula(buf, body);
        }
        Formula::ForallFo(var, body) => {
            put_u8(buf, 16);
            put_str(buf, &var.0);
            put_formula(buf, body);
        }
        Formula::ExistsSo(var, body) => {
            put_u8(buf, 17);
            put_str(buf, &var.0);
            put_formula(buf, body);
        }
        Formula::ForallSo(var, body) => {
            put_u8(buf, 18);
            put_str(buf, &var.0);
            put_formula(buf, body);
        }
    }
}

fn read_formula(r: &mut Reader<'_>, depth: usize) -> Result<Formula, String> {
    if depth > MAX_FORMULA_DEPTH {
        return Err("formula nests too deep".into());
    }
    let tag = r.u8()?;
    let fo = |s: String| FoVar(s);
    let so = |s: String| SoVar(s);
    Ok(match tag {
        0 => Formula::True,
        1 => Formula::False,
        2 => Formula::Eq(fo(r.str()?), fo(r.str()?)),
        3 => Formula::Root(fo(r.str()?)),
        4 => Formula::Left(fo(r.str()?), fo(r.str()?)),
        5 => Formula::Right(fo(r.str()?), fo(r.str()?)),
        6 => Formula::Reach(fo(r.str()?), fo(r.str()?)),
        7 => Formula::Leaf(fo(r.str()?)),
        8 => Formula::In(fo(r.str()?), so(r.str()?)),
        9 => Formula::Subset(so(r.str()?), so(r.str()?)),
        10 => Formula::Not(Box::new(read_formula(r, depth + 1)?)),
        11 => Formula::And(
            Box::new(read_formula(r, depth + 1)?),
            Box::new(read_formula(r, depth + 1)?),
        ),
        12 => Formula::Or(
            Box::new(read_formula(r, depth + 1)?),
            Box::new(read_formula(r, depth + 1)?),
        ),
        13 => Formula::Implies(
            Box::new(read_formula(r, depth + 1)?),
            Box::new(read_formula(r, depth + 1)?),
        ),
        14 => Formula::Iff(
            Box::new(read_formula(r, depth + 1)?),
            Box::new(read_formula(r, depth + 1)?),
        ),
        15 => Formula::ExistsFo(fo(r.str()?), Box::new(read_formula(r, depth + 1)?)),
        16 => Formula::ForallFo(fo(r.str()?), Box::new(read_formula(r, depth + 1)?)),
        17 => Formula::ExistsSo(so(r.str()?), Box::new(read_formula(r, depth + 1)?)),
        18 => Formula::ForallSo(so(r.str()?), Box::new(read_formula(r, depth + 1)?)),
        other => return Err(format!("unknown formula tag {other}")),
    })
}

// ---------------------------------------------------------------------------
// Subjects / outcome / verdict codecs
// ---------------------------------------------------------------------------

fn put_subjects(buf: &mut Vec<u8>, subjects: &OwnedQuery) {
    match subjects {
        OwnedQuery::DataRace(program) => put_str(buf, program),
        OwnedQuery::Equivalence(original, transformed) => {
            put_str(buf, original);
            put_str(buf, transformed);
        }
        OwnedQuery::Validity(formula) => put_formula(buf, formula),
    }
}

fn read_subjects(r: &mut Reader<'_>, kind: QueryKind) -> Result<OwnedQuery, String> {
    Ok(match kind {
        QueryKind::DataRace => OwnedQuery::DataRace(read_program(r)?),
        QueryKind::Equivalence => OwnedQuery::Equivalence(read_program(r)?, read_program(r)?),
        QueryKind::Validity => OwnedQuery::Validity(read_formula(r, 0)?),
    })
}

/// A stored program's text, kept only when it parses and validates.
fn read_program(r: &mut Reader<'_>) -> Result<Box<str>, String> {
    let source = r.str()?;
    let program =
        parse_program(&source).map_err(|e| format!("persisted program fails to parse: {e}"))?;
    if let Some(error) = validate(&program).first() {
        return Err(format!("persisted program fails validation: {error}"));
    }
    Ok(source.into_boxed_str())
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Outcome::RaceFree {
            trees_checked,
            configurations,
        } => {
            put_u8(buf, 0);
            put_u64(buf, *trees_checked as u64);
            put_u64(buf, *configurations as u64);
        }
        Outcome::Race(witness) => {
            put_u8(buf, 1);
            put_value_tree(buf, &witness.tree);
            put_str(buf, &witness.first);
            put_str(buf, &witness.second);
            put_u32(buf, witness.node.0);
            put_str(buf, &witness.field);
        }
        Outcome::Equivalent { trees_checked } => {
            put_u8(buf, 2);
            put_u64(buf, *trees_checked as u64);
        }
        Outcome::NotEquivalent(ce) => {
            put_u8(buf, 3);
            put_value_tree(buf, &ce.tree);
            match &ce.disagreement {
                Disagreement::Returns { first, second } => {
                    put_u8(buf, 0);
                    put_u32(buf, first.len() as u32);
                    for v in first {
                        put_i64(buf, *v);
                    }
                    put_u32(buf, second.len() as u32);
                    for v in second {
                        put_i64(buf, *v);
                    }
                }
                Disagreement::Fields { detail } => {
                    put_u8(buf, 1);
                    put_str(buf, detail);
                }
                Disagreement::DependenceOrder { detail } => {
                    put_u8(buf, 2);
                    put_str(buf, detail);
                }
                Disagreement::ExecutionError { message } => {
                    put_u8(buf, 3);
                    put_str(buf, message);
                }
            }
        }
        Outcome::Valid { trees_checked } => {
            put_u8(buf, 4);
            put_u64(buf, *trees_checked as u64);
        }
        Outcome::Invalid(None) => put_u8(buf, 5),
        Outcome::Invalid(Some(tree)) => {
            put_u8(buf, 6);
            put_labeled_tree(buf, tree);
        }
    }
}

fn read_outcome(r: &mut Reader<'_>) -> Result<Outcome, String> {
    Ok(match r.u8()? {
        0 => Outcome::RaceFree {
            trees_checked: r.u64()? as usize,
            configurations: r.u64()? as usize,
        },
        1 => Outcome::Race(Box::new(RaceWitness {
            tree: read_value_tree(r)?,
            first: r.str()?,
            second: r.str()?,
            node: NodeId(r.u32()?),
            field: r.str()?,
        })),
        2 => Outcome::Equivalent {
            trees_checked: r.u64()? as usize,
        },
        3 => {
            let tree = read_value_tree(r)?;
            let disagreement = match r.u8()? {
                0 => {
                    let n = r.u32()? as usize;
                    let first = (0..n).map(|_| r.i64()).collect::<Result<Vec<_>, _>>()?;
                    let m = r.u32()? as usize;
                    let second = (0..m).map(|_| r.i64()).collect::<Result<Vec<_>, _>>()?;
                    Disagreement::Returns { first, second }
                }
                1 => Disagreement::Fields { detail: r.str()? },
                2 => Disagreement::DependenceOrder { detail: r.str()? },
                3 => Disagreement::ExecutionError { message: r.str()? },
                other => return Err(format!("unknown disagreement tag {other}")),
            };
            Outcome::NotEquivalent(Box::new(EquivCounterExample { tree, disagreement }))
        }
        4 => Outcome::Valid {
            trees_checked: r.u64()? as usize,
        },
        5 => Outcome::Invalid(None),
        6 => Outcome::Invalid(Some(Box::new(read_labeled_tree(r)?))),
        other => return Err(format!("unknown outcome tag {other}")),
    })
}

fn put_engine(buf: &mut Vec<u8>, engine: Engine) {
    put_u8(
        buf,
        match engine {
            Engine::Automata => 0,
            Engine::Configuration => 1,
            Engine::Trace => 2,
            Engine::BoundedEnumeration => 3,
        },
    );
}

fn read_engine(r: &mut Reader<'_>) -> Result<Engine, String> {
    Ok(match r.u8()? {
        0 => Engine::Automata,
        1 => Engine::Configuration,
        2 => Engine::Trace,
        3 => Engine::BoundedEnumeration,
        other => return Err(format!("unknown engine tag {other}")),
    })
}

fn put_soundness(buf: &mut Vec<u8>, soundness: Soundness) {
    match soundness {
        Soundness::Unbounded => put_u8(buf, 0),
        Soundness::BoundedUpTo { max_nodes } => {
            put_u8(buf, 1);
            put_u64(buf, max_nodes as u64);
        }
    }
}

fn read_soundness(r: &mut Reader<'_>) -> Result<Soundness, String> {
    Ok(match r.u8()? {
        0 => Soundness::Unbounded,
        1 => Soundness::BoundedUpTo {
            max_nodes: r.u64()? as usize,
        },
        other => return Err(format!("unknown soundness tag {other}")),
    })
}

fn encode_entry(subjects: &OwnedQuery, verdict: &Verdict) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u8(&mut buf, VALUE_VERSION);
    put_subjects(&mut buf, subjects);
    put_engine(&mut buf, verdict.engine);
    put_soundness(&mut buf, verdict.soundness);
    put_u64(&mut buf, verdict.elapsed.as_nanos() as u64);
    put_outcome(&mut buf, &verdict.outcome);
    buf
}

fn decode_entry(key_bytes: &[u8], value: &[u8]) -> Result<(CacheKey, OwnedQuery, Verdict), String> {
    let key = key_of_bytes(key_bytes)?;
    let mut r = Reader::new(value);
    let version = r.u8()?;
    if version != VALUE_VERSION {
        return Err(format!("unknown value version {version}"));
    }
    let subjects = read_subjects(&mut r, key.kind)?;
    let engine = read_engine(&mut r)?;
    let soundness = read_soundness(&mut r)?;
    let elapsed = Duration::from_nanos(r.u64()?);
    let outcome = read_outcome(&mut r)?;
    r.finish()?;
    let verdict = Verdict {
        outcome,
        engine,
        soundness,
        elapsed,
        cached: false,
        coalesced: false,
    };
    Ok((key, subjects, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_lang::pretty::print_program;

    fn sample_value_tree() -> ValueTree {
        let mut tree = ValueTree::single();
        let left = tree.add_left(tree.root());
        let right = tree.add_right(tree.root());
        let deep = tree.add_right(left);
        tree.set_field(left, "num", 7);
        tree.set_field(deep, "sum", -3);
        tree.set_field(right, "num", 0);
        tree
    }

    #[test]
    fn value_tree_roundtrips_exactly() {
        let tree = sample_value_tree();
        let mut buf = Vec::new();
        put_value_tree(&mut buf, &tree);
        let mut r = Reader::new(&buf);
        let back = read_value_tree(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    fn labeled_tree_roundtrips_exactly() {
        use retreet_mso::tree::NodeId as MsoNodeId;
        let mut tree = LabeledTree::single();
        let left = tree.add_left(MsoNodeId(0));
        let _right = tree.add_right(MsoNodeId(0));
        let deep = tree.add_left(left);
        tree.add_label(MsoNodeId(0), 1);
        tree.add_label(deep, 3);
        tree.add_label(deep, 9);
        let mut buf = Vec::new();
        put_labeled_tree(&mut buf, &tree);
        let mut r = Reader::new(&buf);
        let back = read_labeled_tree(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(tree, back);
    }

    #[test]
    fn formula_roundtrips_exactly() {
        let formula = Formula::forall_fo(
            "x",
            Formula::exists_so(
                "X",
                Formula::implies(
                    Formula::In(FoVar::new("x"), SoVar::new("X")),
                    Formula::or(
                        Formula::Leaf(FoVar::new("x")),
                        Formula::not(Formula::Root(FoVar::new("x"))),
                    ),
                ),
            ),
        );
        let mut buf = Vec::new();
        put_formula(&mut buf, &formula);
        let mut r = Reader::new(&buf);
        let back = read_formula(&mut r, 0).unwrap();
        r.finish().unwrap();
        assert_eq!(formula, back);
    }

    #[test]
    fn full_entries_roundtrip_for_every_outcome_shape() {
        let program = || print_program(&corpus::size_counting_parallel()).into_boxed_str();
        let entries: Vec<(OwnedQuery, Outcome)> = vec![
            (
                OwnedQuery::DataRace(program()),
                Outcome::RaceFree {
                    trees_checked: 12,
                    configurations: 99,
                },
            ),
            (
                OwnedQuery::DataRace(program()),
                Outcome::Race(Box::new(RaceWitness {
                    tree: sample_value_tree(),
                    first: "iter A".into(),
                    second: "iter B".into(),
                    node: NodeId(2),
                    field: "num".into(),
                })),
            ),
            (
                OwnedQuery::Equivalence(
                    program(),
                    print_program(&corpus::size_counting_fused()).into_boxed_str(),
                ),
                Outcome::NotEquivalent(Box::new(EquivCounterExample {
                    tree: sample_value_tree(),
                    disagreement: Disagreement::Returns {
                        first: vec![1, -2],
                        second: vec![3],
                    },
                })),
            ),
            (
                OwnedQuery::Validity(Formula::True),
                Outcome::Valid { trees_checked: 4 },
            ),
            (OwnedQuery::Validity(Formula::False), Outcome::Invalid(None)),
        ];
        for (i, (subjects, outcome)) in entries.into_iter().enumerate() {
            let verdict = Verdict {
                outcome,
                engine: Engine::Trace,
                soundness: Soundness::BoundedUpTo { max_nodes: 5 },
                elapsed: Duration::from_micros(1234),
                cached: false,
                coalesced: false,
            };
            let key = subjects.cache_key(&crate::VerifierBuilder::default().config);
            let value = encode_entry(&subjects, &verdict);
            let (back_key, back_subjects, back_verdict) = decode_entry(&key_bytes_of(&key), &value)
                .unwrap_or_else(|e| {
                    panic!("entry {i} failed to decode: {e}");
                });
            assert_eq!(back_key, key, "entry {i}");
            assert_eq!(back_subjects, subjects, "entry {i}");
            assert_eq!(
                format!("{:?}", back_verdict.outcome),
                format!("{:?}", verdict.outcome),
                "entry {i}: witness must be byte-identical"
            );
            assert_eq!(back_verdict.engine, verdict.engine);
            assert_eq!(back_verdict.soundness, verdict.soundness);
            assert_eq!(back_verdict.elapsed, verdict.elapsed);
        }
    }

    #[test]
    fn stored_programs_that_fail_to_parse_or_validate_do_not_decode() {
        let verdict = Verdict {
            outcome: Outcome::RaceFree {
                trees_checked: 0,
                configurations: 0,
            },
            engine: Engine::Automata,
            soundness: Soundness::Unbounded,
            elapsed: Duration::from_nanos(5),
            cached: false,
            coalesced: false,
        };
        for (program, reason) in [
            ("fn F(n) { return 0; }", "fails validation"),
            ("fn Main(n) { !! }", "fails to parse"),
        ] {
            let subjects = OwnedQuery::DataRace(program.into());
            let key = subjects.cache_key(&crate::VerifierBuilder::default().config);
            let value = encode_entry(&subjects, &verdict);
            let error = decode_entry(&key_bytes_of(&key), &value).unwrap_err();
            assert!(error.contains(reason), "{program}: {error}");
        }
    }

    #[test]
    fn truncated_value_is_a_decode_error_not_a_panic() {
        let subjects = OwnedQuery::Validity(Formula::True);
        let verdict = Verdict {
            outcome: Outcome::Valid { trees_checked: 1 },
            engine: Engine::Automata,
            soundness: Soundness::Unbounded,
            elapsed: Duration::from_nanos(5),
            cached: false,
            coalesced: false,
        };
        let key = subjects.cache_key(&crate::VerifierBuilder::default().config);
        let value = encode_entry(&subjects, &verdict);
        for cut in 0..value.len() {
            assert!(
                decode_entry(&key_bytes_of(&key), &value[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
