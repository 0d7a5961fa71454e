//! Fusion-correspondence matching: unbounded equivalence verdicts.
//!
//! The bounded equivalence engines compare two programs by running them on
//! every tree up to a size budget.  This module instead *proves* the
//! equivalence of a multi-pass program and its fused form over all trees at
//! once, in the style of the paper's Theorem 3: the fused traversal is
//! correct when every per-node action of every pass reappears in the fused
//! body (under a per-pass variable correspondence), the relative order of
//! the actions of each pass is preserved (or the reordered actions are
//! independent), and actions of a later pass never overtake conflicting
//! actions of an earlier pass.
//!
//! Ordering side conditions that involve *different* nodes — a pass writing
//! a whole subtree while another reads one node of it — are discharged with
//! the exact region-overlap decider of [`retreet_mso::encode`], so a
//! successful match is sound for every tree and valuation.  Anything the
//! matcher does not understand yields [`CorrespVerdict::NotApplicable`],
//! and the caller falls back to a bounded engine.
//!
//! Claims are searched with backtracking: a complete match of a function
//! body whose child entries fail is rolled back and the next claim choice
//! is tried, within a fixed budget.  Parallel compositions are outside the
//! fragment; the verifier matches a race-free parallel program through its
//! sequential erasure ([`retreet_lang::rewrite::erase_par`]).

use std::collections::{BTreeMap, BTreeSet};

use retreet_lang::ast::{AExpr, Assign, BExpr, CallBlock, Ident, Program, Stmt, MAIN};
use retreet_mso::encode::{
    check_overlap_k, guards_equivalent_k, ConflictSide, GuardExpr, Region, StructConstraint,
};

use crate::summary::{step_of, transitive_field_summaries, FieldSummary};
use retreet_lang::blocks::BlockTable;

/// Outcome of the correspondence matcher.
#[derive(Debug, Clone)]
pub enum CorrespVerdict {
    /// The fused program simulates the multi-pass program on every tree.
    Established {
        /// Number of (fused function, pass tuple) entries verified.
        entries: usize,
    },
    /// The matcher could not establish the correspondence; a bounded check
    /// is needed.  This is *not* a disproof of equivalence.
    NotApplicable {
        /// Why matching stopped.
        reason: String,
    },
}

impl CorrespVerdict {
    /// True when the correspondence was established.
    pub fn is_established(&self) -> bool {
        matches!(self, CorrespVerdict::Established { .. })
    }
}

/// How one original pass function embeds into a fused function.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RoleSpec {
    /// The original function playing this pass.
    func: Ident,
    /// Role int-parameter index → fused int-parameter index.
    formal_map: Vec<usize>,
    /// Role return component → fused return component (None: dropped).
    res_map: Vec<Option<usize>>,
}

/// A coinduction key: a fused function together with the ordered passes it
/// is claimed to fuse.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    fused: Ident,
    roles: Vec<RoleSpec>,
}

/// The statement-level unit the matcher works over.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    Assign(Assign),
    Call(CallBlock),
    If(BExpr, Vec<Item>, Vec<Item>),
    Ret(Vec<AExpr>),
}

fn items_of(stmt: &Stmt, out: &mut Vec<Item>) -> Result<(), String> {
    match stmt {
        Stmt::Block(block) => {
            if let Some(call) = block.as_call() {
                out.push(Item::Call(call.clone()));
            } else if let Some(straight) = block.as_straight() {
                for assign in &straight.assigns {
                    out.push(Item::Assign(assign.clone()));
                }
                if let Some(values) = &straight.ret {
                    out.push(Item::Ret(values.clone()));
                }
            }
            Ok(())
        }
        Stmt::If(cond, then_branch, else_branch) => {
            let mut then_items = Vec::new();
            items_of(then_branch, &mut then_items)?;
            let mut else_items = Vec::new();
            items_of(else_branch, &mut else_items)?;
            out.push(Item::If(cond.clone(), then_items, else_items));
            Ok(())
        }
        Stmt::Seq(stmts) => {
            for stmt in stmts {
                items_of(stmt, out)?;
            }
            Ok(())
        }
        Stmt::Par(_) => Err("parallel composition is outside the fusion fragment".into()),
    }
}

fn body_items(stmt: &Stmt) -> Result<Vec<Item>, String> {
    let mut out = Vec::new();
    items_of(stmt, &mut out)?;
    Ok(out)
}

/// Role-variable → fused-variable substitution.
type Sigma = BTreeMap<Ident, Ident>;

fn subst_aexpr(expr: &AExpr, sigma: &Sigma) -> Option<AExpr> {
    match expr {
        AExpr::Const(value) => Some(AExpr::Const(*value)),
        AExpr::Var(name) => sigma.get(name).map(|mapped| AExpr::Var(mapped.clone())),
        AExpr::Field(node, field) => Some(AExpr::Field(*node, field.clone())),
        AExpr::Add(a, b) => Some(AExpr::Add(
            Box::new(subst_aexpr(a, sigma)?),
            Box::new(subst_aexpr(b, sigma)?),
        )),
        AExpr::Sub(a, b) => Some(AExpr::Sub(
            Box::new(subst_aexpr(a, sigma)?),
            Box::new(subst_aexpr(b, sigma)?),
        )),
    }
}

fn subst_bexpr(expr: &BExpr, sigma: &Sigma) -> Option<BExpr> {
    match expr {
        BExpr::True => Some(BExpr::True),
        BExpr::IsNil(node) => Some(BExpr::IsNil(*node)),
        BExpr::Gt(inner) => Some(BExpr::Gt(subst_aexpr(inner, sigma)?)),
        BExpr::Not(inner) => Some(BExpr::Not(Box::new(subst_bexpr(inner, sigma)?))),
        BExpr::And(a, b) => Some(BExpr::And(
            Box::new(subst_bexpr(a, sigma)?),
            Box::new(subst_bexpr(b, sigma)?),
        )),
    }
}

/// Lowers a purely structural guard to the encoding fragment; `None` when
/// the guard mentions arithmetic.
fn to_guard_expr(expr: &BExpr) -> Option<GuardExpr> {
    match expr {
        BExpr::True => Some(GuardExpr::True),
        BExpr::IsNil(node) => Some(GuardExpr::NilAt(step_of(*node))),
        BExpr::Gt(_) => None,
        BExpr::Not(inner) => Some(GuardExpr::Not(Box::new(to_guard_expr(inner)?))),
        BExpr::And(a, b) => Some(GuardExpr::And(
            Box::new(to_guard_expr(a)?),
            Box::new(to_guard_expr(b)?),
        )),
    }
}

fn bexpr_field_reads(expr: &BExpr, out: &mut Vec<(Region, Ident, bool)>) {
    for atom in expr.atoms() {
        if let BExpr::Gt(inner) = atom {
            for (node, field) in inner.field_reads() {
                out.push((Region::At(step_of(node)), field.clone(), false));
            }
        }
    }
}

fn bexpr_vars(expr: &BExpr, out: &mut BTreeSet<Ident>) {
    for atom in expr.atoms() {
        if let BExpr::Gt(inner) = atom {
            out.extend(inner.vars().into_iter().cloned());
        }
    }
}

/// Matching / verification state threaded through one entry.
#[derive(Debug, Clone, Default)]
struct MatchState {
    sigmas: Vec<Sigma>,
    /// Fused variable → role that writes it via plain assignment.
    owner: BTreeMap<Ident, usize>,
    /// Child entries whose verification is deferred to after matching.
    obligations: Vec<EntryKey>,
}

/// One matching scope: a fused item sequence and, per role, the item
/// sequence that must be claimed inside it.
struct Scope {
    fused: Vec<Item>,
    roles: Vec<Vec<Item>>,
    /// A function body rather than a conditional branch: its complete
    /// matches discharge the child entries they collected.
    body: bool,
}

/// Per-scope record of which role items each fused item absorbed.
type Claims = Vec<Vec<(usize, usize)>>;

/// One role call merged into a fused call:
/// `(role, item index, formal map, result-binding options)`.
type CallSlot = (usize, usize, Vec<usize>, Vec<Vec<Option<usize>>>);

const MAX_ENTRIES: usize = 64;
const MAX_DEPTH: usize = 32;
const MAX_CALL_CANDIDATES: usize = 512;
/// Complete matches whose child entries may fail before the search gives
/// up (each failure rolls back and backtracks to the next claim choice).
const MAX_BACKTRACKS: usize = 64;

struct Verifier<'a> {
    original: &'a Program,
    fused: &'a Program,
    orig_summaries: Vec<FieldSummary>,
    proven: BTreeSet<EntryKey>,
    in_progress: Vec<EntryKey>,
    entries_verified: usize,
    backtracks: usize,
}

impl<'a> Verifier<'a> {
    fn new(original: &'a Program, fused: &'a Program) -> Self {
        let table = BlockTable::build(original);
        Verifier {
            original,
            fused,
            orig_summaries: transitive_field_summaries(&table),
            proven: BTreeSet::new(),
            in_progress: Vec::new(),
            entries_verified: 0,
            backtracks: 0,
        }
    }

    fn may_overlap(&self, a: Region, b: Region) -> bool {
        let side = |region| ConflictSide {
            region,
            guard: StructConstraint::default(),
        };
        let arity = self.original.arity.max(self.fused.arity);
        !check_overlap_k(&side(a), &side(b), arity).is_disjoint()
    }

    /// Field footprint of a role item, over-approximated: direct accesses at
    /// fixed offsets, callee summaries over whole subtrees.
    fn footprint(&self, item: &Item) -> Vec<(Region, Ident, bool)> {
        let mut out = Vec::new();
        self.collect_footprint(item, &mut out);
        out
    }

    fn collect_footprint(&self, item: &Item, out: &mut Vec<(Region, Ident, bool)>) {
        match item {
            Item::Assign(Assign::SetField(node, field, value)) => {
                out.push((Region::At(step_of(*node)), field.clone(), true));
                for (read_node, read_field) in value.field_reads() {
                    out.push((Region::At(step_of(read_node)), read_field.clone(), false));
                }
            }
            Item::Assign(Assign::SetVar(_, value)) => {
                for (node, field) in value.field_reads() {
                    out.push((Region::At(step_of(node)), field.clone(), false));
                }
            }
            Item::Call(call) => {
                for arg in &call.args {
                    for (node, field) in arg.field_reads() {
                        out.push((Region::At(step_of(node)), field.clone(), false));
                    }
                }
                if let Some(callee) = self.original.func_index(&call.callee) {
                    let region = Region::Subtree(step_of(call.target));
                    let summary = &self.orig_summaries[callee];
                    for field in &summary.reads {
                        out.push((region, field.clone(), false));
                    }
                    for field in &summary.writes {
                        out.push((region, field.clone(), true));
                    }
                }
            }
            Item::If(cond, then_items, else_items) => {
                bexpr_field_reads(cond, out);
                for nested in then_items.iter().chain(else_items) {
                    self.collect_footprint(nested, out);
                }
            }
            Item::Ret(values) => {
                for value in values {
                    for (node, field) in value.field_reads() {
                        out.push((Region::At(step_of(node)), field.clone(), false));
                    }
                }
            }
        }
    }

    /// Role-local variable reads and writes of an item.
    fn var_rw(item: &Item, reads: &mut BTreeSet<Ident>, writes: &mut BTreeSet<Ident>) {
        match item {
            Item::Assign(Assign::SetField(_, _, value)) => {
                reads.extend(value.vars().into_iter().cloned());
            }
            Item::Assign(Assign::SetVar(name, value)) => {
                reads.extend(value.vars().into_iter().cloned());
                writes.insert(name.clone());
            }
            Item::Call(call) => {
                for arg in &call.args {
                    reads.extend(arg.vars().into_iter().cloned());
                }
                writes.extend(call.results.iter().cloned());
            }
            Item::If(cond, then_items, else_items) => {
                bexpr_vars(cond, reads);
                for nested in then_items.iter().chain(else_items) {
                    Verifier::var_rw(nested, reads, writes);
                }
            }
            Item::Ret(values) => {
                for value in values {
                    reads.extend(value.vars().into_iter().cloned());
                }
            }
        }
    }

    fn field_conflict(&self, a: &Item, b: &Item) -> bool {
        let fp_a = self.footprint(a);
        let fp_b = self.footprint(b);
        for (region_a, field_a, write_a) in &fp_a {
            for (region_b, field_b, write_b) in &fp_b {
                if field_a == field_b
                    && (*write_a || *write_b)
                    && self.may_overlap(*region_a, *region_b)
                {
                    return true;
                }
            }
        }
        false
    }

    fn independent(&self, a: &Item, b: &Item) -> bool {
        let (mut reads_a, mut writes_a) = (BTreeSet::new(), BTreeSet::new());
        let (mut reads_b, mut writes_b) = (BTreeSet::new(), BTreeSet::new());
        Verifier::var_rw(a, &mut reads_a, &mut writes_a);
        Verifier::var_rw(b, &mut reads_b, &mut writes_b);
        let var_clash = writes_a.intersection(&writes_b).next().is_some()
            || writes_a.intersection(&reads_b).next().is_some()
            || reads_a.intersection(&writes_b).next().is_some();
        !var_clash && !self.field_conflict(a, b)
    }

    /// The order side conditions over one matched scope: each role's item
    /// order is preserved up to independent reorderings, and a later pass
    /// never runs a conflicting action before an earlier pass.
    fn check_ordering(&self, scope: &Scope, claims: &Claims) -> Result<(), String> {
        // Per role: (role item index, fused position).
        let mut per_role: Vec<Vec<(usize, usize)>> = vec![Vec::new(); scope.roles.len()];
        for (pos, list) in claims.iter().enumerate() {
            for &(role, item) in list {
                per_role[role].push((item, pos));
            }
        }
        for (role, placed) in per_role.iter().enumerate() {
            for (i, &(item_a, pos_a)) in placed.iter().enumerate() {
                for &(item_b, pos_b) in &placed[i + 1..] {
                    let (first, second, first_pos, second_pos) = if item_a < item_b {
                        (item_a, item_b, pos_a, pos_b)
                    } else {
                        (item_b, item_a, pos_b, pos_a)
                    };
                    if first_pos <= second_pos {
                        continue;
                    }
                    let a = &scope.roles[role][first];
                    let b = &scope.roles[role][second];
                    if !self.independent(a, b) {
                        return Err(format!("pass {role} items reordered without independence"));
                    }
                }
            }
        }
        for early in 0..scope.roles.len() {
            for late in early + 1..scope.roles.len() {
                for &(item_e, pos_e) in &per_role[early] {
                    for &(item_l, pos_l) in &per_role[late] {
                        if pos_e == pos_l {
                            // Same fused item (a merged call): the child
                            // entry preserves the pass order inside it.
                            continue;
                        }
                        let a = &scope.roles[early][item_e];
                        let b = &scope.roles[late][item_l];
                        if self.field_conflict(a, b) && pos_e > pos_l {
                            return Err(format!(
                                "pass {late} overtakes a conflicting action of pass {early}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn guard_matches(&self, role_guard: &BExpr, fused_guard: &BExpr, sigma: &Sigma) -> bool {
        match subst_bexpr(role_guard, sigma) {
            Some(mapped) if &mapped == fused_guard => true,
            Some(mapped) => match (to_guard_expr(&mapped), to_guard_expr(fused_guard)) {
                (Some(a), Some(b)) => {
                    guards_equivalent_k(&a, &b, self.original.arity.max(self.fused.arity))
                }
                _ => false,
            },
            None => false,
        }
    }

    /// All injective partial maps from `wanted` role results into `avail`
    /// fused result positions, densest first.
    fn result_assignments(wanted: usize, avail: usize) -> Vec<Vec<Option<usize>>> {
        let mut out: Vec<Vec<Option<usize>>> = vec![Vec::new()];
        for _ in 0..wanted {
            let mut next = Vec::new();
            for prefix in &out {
                for pos in 0..avail {
                    if !prefix.contains(&Some(pos)) {
                        let mut extended = prefix.clone();
                        extended.push(Some(pos));
                        next.push(extended);
                    }
                }
                let mut extended = prefix.clone();
                extended.push(None);
                next.push(extended);
            }
            out = next;
        }
        out.sort_by_key(|assignment| assignment.iter().filter(|slot| slot.is_none()).count());
        out
    }

    /// Matches fused items from `idx` on; backtracks over claim choices.
    #[allow(clippy::too_many_arguments)]
    fn match_from(
        &mut self,
        scope: &Scope,
        idx: usize,
        claimed: Vec<Vec<bool>>,
        state: MatchState,
        claims: Claims,
    ) -> Result<(MatchState, Claims), String> {
        let Some(fused_item) = scope.fused.get(idx) else {
            for (role, flags) in claimed.iter().enumerate() {
                if flags.iter().any(|used| !used) {
                    return Err(format!("pass {role} has unmatched actions"));
                }
            }
            self.check_ordering(scope, &claims)?;
            if scope.body {
                self.discharge(&state.obligations)?;
            }
            return Ok((state, claims));
        };
        match fused_item {
            Item::Assign(fused_assign) => {
                let mut last_err = format!("no pass action matches fused assignment #{idx}");
                for role in 0..scope.roles.len() {
                    for (j, item) in scope.roles[role].iter().enumerate() {
                        if claimed[role][j] {
                            continue;
                        }
                        let Item::Assign(role_assign) = item else {
                            continue;
                        };
                        let Some(mut next_state) =
                            self.try_assign(fused_assign, role_assign, role, &state)
                        else {
                            continue;
                        };
                        let mut next_claimed = claimed.clone();
                        next_claimed[role][j] = true;
                        let mut next_claims = claims.clone();
                        next_claims.push(vec![(role, j)]);
                        // Keep obligations accumulated so far.
                        next_state.obligations = state.obligations.clone();
                        match self.match_from(scope, idx + 1, next_claimed, next_state, next_claims)
                        {
                            Ok(done) => return Ok(done),
                            Err(err) => last_err = err,
                        }
                    }
                }
                Err(last_err)
            }
            Item::Call(fused_call) => {
                self.match_call(scope, idx, fused_call, claimed, state, claims)
            }
            Item::If(fused_guard, fused_then, fused_else) => {
                let mut claimants = Vec::new();
                for (role, items) in scope.roles.iter().enumerate() {
                    for (j, item) in items.iter().enumerate() {
                        if claimed[role][j] {
                            continue;
                        }
                        if let Item::If(guard, _, _) = item {
                            if self.guard_matches(guard, fused_guard, &state.sigmas[role]) {
                                claimants.push((role, j));
                                break;
                            }
                        }
                    }
                }
                if claimants.is_empty() {
                    return Err(format!("no pass claims the fused conditional #{idx}"));
                }
                let branch_scope = |then_side: bool| {
                    let fused = if then_side {
                        fused_then.clone()
                    } else {
                        fused_else.clone()
                    };
                    let mut roles = vec![Vec::new(); scope.roles.len()];
                    for &(role, j) in &claimants {
                        if let Item::If(_, then_items, else_items) = &scope.roles[role][j] {
                            roles[role] = if then_side {
                                then_items.clone()
                            } else {
                                else_items.clone()
                            };
                        }
                    }
                    Scope {
                        fused,
                        roles,
                        body: false,
                    }
                };
                let after_then = self.match_scope(&branch_scope(true), state)?;
                let after_else = self.match_scope(&branch_scope(false), after_then)?;
                let mut next_claimed = claimed;
                for &(role, j) in &claimants {
                    next_claimed[role][j] = true;
                }
                let mut next_claims = claims;
                next_claims.push(claimants);
                self.match_from(scope, idx + 1, next_claimed, after_else, next_claims)
            }
            Item::Ret(fused_values) => {
                let mut claimants = Vec::new();
                for (role, items) in scope.roles.iter().enumerate() {
                    for (j, item) in items.iter().enumerate() {
                        if claimed[role][j] {
                            continue;
                        }
                        if let Item::Ret(values) = item {
                            claimants.push((role, j, values.clone()));
                            break;
                        }
                    }
                }
                if claimants.is_empty() {
                    return Err(format!("no pass claims the fused return #{idx}"));
                }
                for (role, _, values) in &claimants {
                    for (comp, slot) in self.role_res_map(*role).iter().enumerate() {
                        let Some(fused_comp) = slot else {
                            continue;
                        };
                        let Some(value) = values.get(comp) else {
                            return Err(format!("pass {role} returns too few components"));
                        };
                        let mapped = subst_aexpr(value, &state.sigmas[*role]).ok_or_else(|| {
                            format!("pass {role} return reads an unbound variable")
                        })?;
                        let fused_value = fused_values
                            .get(*fused_comp)
                            .ok_or_else(|| "fused return component out of range".to_string())?;
                        if &mapped != fused_value {
                            return Err(format!(
                                "pass {role} return component {comp} disagrees with the fused return"
                            ));
                        }
                    }
                }
                let mut next_claimed = claimed;
                let mut claim_list = Vec::new();
                for (role, j, _) in claimants {
                    next_claimed[role][j] = true;
                    claim_list.push((role, j));
                }
                let mut next_claims = claims;
                next_claims.push(claim_list);
                self.match_from(scope, idx + 1, next_claimed, state, next_claims)
            }
        }
    }

    /// The res_map of a role in the entry currently being verified.
    fn role_res_map(&self, role: usize) -> Vec<Option<usize>> {
        self.in_progress
            .last()
            .map(|key| key.roles[role].res_map.clone())
            .unwrap_or_default()
    }

    fn try_assign(
        &self,
        fused: &Assign,
        role_assign: &Assign,
        role: usize,
        state: &MatchState,
    ) -> Option<MatchState> {
        match (fused, role_assign) {
            (
                Assign::SetField(fused_node, fused_field, fused_value),
                Assign::SetField(node, field, value),
            ) => {
                if node != fused_node || field != fused_field {
                    return None;
                }
                let mapped = subst_aexpr(value, &state.sigmas[role])?;
                (&mapped == fused_value).then(|| state.clone())
            }
            (Assign::SetVar(fused_name, fused_value), Assign::SetVar(name, value)) => {
                if let Some(owner) = state.owner.get(fused_name) {
                    if *owner != role {
                        return None;
                    }
                }
                let mapped = subst_aexpr(value, &state.sigmas[role])?;
                if &mapped != fused_value {
                    return None;
                }
                let mut next = state.clone();
                next.sigmas[role].insert(name.clone(), fused_name.clone());
                next.owner.insert(fused_name.clone(), role);
                Some(next)
            }
            _ => None,
        }
    }

    /// Matches a fused call: one or more role calls (each pass contributing
    /// its same-target calls in order) merge into it, producing a child
    /// entry obligation.
    fn match_call(
        &mut self,
        scope: &Scope,
        idx: usize,
        fused_call: &CallBlock,
        claimed: Vec<Vec<bool>>,
        state: MatchState,
        claims: Claims,
    ) -> Result<(MatchState, Claims), String> {
        if self.fused.func(&fused_call.callee).is_none() {
            return Err(format!(
                "fused call to unknown function {}",
                fused_call.callee
            ));
        }
        // Per role: unclaimed same-target calls, in role order, with the
        // fused argument position of each of their arguments.
        let mut eligible: Vec<Vec<(usize, Vec<usize>)>> = Vec::new();
        for (role, items) in scope.roles.iter().enumerate() {
            let mut list = Vec::new();
            for (j, item) in items.iter().enumerate() {
                if claimed[role][j] {
                    continue;
                }
                let Item::Call(call) = item else {
                    continue;
                };
                if call.target != fused_call.target || self.original.func(&call.callee).is_none() {
                    continue;
                }
                let mut formal_map = Vec::new();
                let mut all_found = true;
                for arg in &call.args {
                    let Some(mapped) = subst_aexpr(arg, &state.sigmas[role]) else {
                        all_found = false;
                        break;
                    };
                    match fused_call
                        .args
                        .iter()
                        .position(|fused_arg| fused_arg == &mapped)
                    {
                        Some(pos) => formal_map.push(pos),
                        None => {
                            all_found = false;
                            break;
                        }
                    }
                }
                if all_found {
                    list.push((j, formal_map));
                }
            }
            list.truncate(3);
            eligible.push(list);
        }
        // Enumerate how many calls each role contributes (a prefix of its
        // eligible list), preferring larger merges.
        let mut combos = vec![Vec::new()];
        for list in &eligible {
            let mut next = Vec::new();
            for combo in &combos {
                for take in (0..=list.len()).rev() {
                    let mut extended: Vec<usize> = combo.clone();
                    extended.push(take);
                    next.push(extended);
                }
            }
            combos = next;
        }
        let mut last_err = format!("no pass claims the fused call #{idx}");
        let mut candidates = 0usize;
        for combo in combos {
            if combo.iter().all(|&take| take == 0) {
                continue;
            }
            // Per claimed role call, the result-binding options.
            let mut slots: Vec<CallSlot> = Vec::new();
            for (role, &take) in combo.iter().enumerate() {
                for &(j, ref formal_map) in &eligible[role][..take] {
                    let Item::Call(call) = &scope.roles[role][j] else {
                        unreachable!("eligible lists only hold calls");
                    };
                    let options =
                        Verifier::result_assignments(call.results.len(), fused_call.results.len());
                    slots.push((role, j, formal_map.clone(), options));
                }
            }
            let mut choice = vec![0usize; slots.len()];
            'assignments: loop {
                candidates += 1;
                if candidates > MAX_CALL_CANDIDATES {
                    return Err(format!("too many merge candidates for fused call #{idx}"));
                }
                let mut next_state = state.clone();
                let mut role_specs = Vec::new();
                let mut claim_list = Vec::new();
                let mut feasible = true;
                for (slot, (role, j, formal_map, options)) in slots.iter().enumerate() {
                    let assignment = &options[choice[slot]];
                    let Item::Call(call) = &scope.roles[*role][*j] else {
                        unreachable!("eligible lists only hold calls");
                    };
                    for (result, slot_choice) in call.results.iter().zip(assignment) {
                        match slot_choice {
                            Some(pos) => {
                                next_state.sigmas[*role]
                                    .insert(result.clone(), fused_call.results[*pos].clone());
                            }
                            None => {
                                next_state.sigmas[*role].remove(result);
                            }
                        }
                    }
                    if self.original.func(&call.callee).map(|f| f.int_params.len())
                        != Some(formal_map.len())
                    {
                        feasible = false;
                        break;
                    }
                    role_specs.push(RoleSpec {
                        func: call.callee.clone(),
                        formal_map: formal_map.clone(),
                        res_map: assignment.clone(),
                    });
                    claim_list.push((*role, *j));
                }
                if feasible {
                    next_state.obligations.push(EntryKey {
                        fused: fused_call.callee.clone(),
                        roles: role_specs,
                    });
                    let mut next_claimed = claimed.clone();
                    for &(role, j) in &claim_list {
                        next_claimed[role][j] = true;
                    }
                    let mut next_claims = claims.clone();
                    next_claims.push(claim_list);
                    match self.match_from(scope, idx + 1, next_claimed, next_state, next_claims) {
                        Ok(done) => return Ok(done),
                        Err(err) => last_err = err,
                    }
                }
                // Advance the mixed-radix assignment counter.
                for slot in (0..slots.len()).rev() {
                    choice[slot] += 1;
                    if choice[slot] < slots[slot].3.len() {
                        continue 'assignments;
                    }
                    choice[slot] = 0;
                }
                break;
            }
            if slots.is_empty() {
                continue;
            }
        }
        Err(last_err)
    }

    /// Whether some fused item of the scope could claim `item` under any
    /// variable correspondence — a necessary condition checked up front,
    /// so a hopeless scope fails before its merge choices are enumerated.
    fn claimable(item: &Item, scope: &Scope) -> bool {
        scope.fused.iter().any(|fused| match (item, fused) {
            (
                Item::Assign(Assign::SetField(node, field, _)),
                Item::Assign(Assign::SetField(fused_node, fused_field, _)),
            ) => node == fused_node && field == fused_field,
            (Item::Assign(Assign::SetVar(..)), Item::Assign(Assign::SetVar(..)))
            | (Item::Ret(_), Item::Ret(_)) => true,
            (Item::Call(call), Item::Call(fused_call)) => call.target == fused_call.target,
            (Item::If(guard, _, _), Item::If(fused_guard, _, _)) => {
                // Only a variable-free arithmetic guard is refuted here: it
                // matches nothing but itself, under every correspondence.
                let mut vars = BTreeSet::new();
                bexpr_vars(guard, &mut vars);
                guard == fused_guard || !vars.is_empty() || to_guard_expr(guard).is_some()
            }
            _ => false,
        })
    }

    fn match_scope(&mut self, scope: &Scope, state: MatchState) -> Result<MatchState, String> {
        for (role, items) in scope.roles.iter().enumerate() {
            if !items.iter().all(|item| Verifier::claimable(item, scope)) {
                return Err(format!("pass {role} has unmatched actions"));
            }
        }
        let claimed = scope
            .roles
            .iter()
            .map(|items| vec![false; items.len()])
            .collect();
        let (state, _claims) = self.match_from(scope, 0, claimed, state, Vec::new())?;
        Ok(state)
    }

    /// Verifies the child entries of one complete body match.  A failure
    /// rolls back every entry proven on the way — they may rest on this
    /// match — so the caller can backtrack to its next claim choice.
    fn discharge(&mut self, obligations: &[EntryKey]) -> Result<(), String> {
        if self.backtracks >= MAX_BACKTRACKS {
            return Err("correspondence backtracking budget exceeded".into());
        }
        let (proven, entries_verified) = (self.proven.clone(), self.entries_verified);
        let result = obligations
            .iter()
            .try_for_each(|key| self.verify_entry(key));
        if result.is_err() {
            self.proven = proven;
            self.entries_verified = entries_verified;
            self.backtracks += 1;
        }
        result
    }

    fn verify_entry(&mut self, key: &EntryKey) -> Result<(), String> {
        if self.proven.contains(key) || self.in_progress.contains(key) {
            return Ok(());
        }
        if self.entries_verified >= MAX_ENTRIES || self.in_progress.len() >= MAX_DEPTH {
            return Err("correspondence entry budget exceeded".into());
        }
        let fused_func = self
            .fused
            .func(&key.fused)
            .ok_or_else(|| format!("no fused function {}", key.fused))?;
        let fused_items = body_items(&fused_func.body)?;
        let mut role_items = Vec::new();
        let mut sigmas = Vec::new();
        for role in &key.roles {
            let role_func = self
                .original
                .func(&role.func)
                .ok_or_else(|| format!("no pass function {}", role.func))?;
            if role.formal_map.len() != role_func.int_params.len()
                || role.res_map.len() != role_func.num_returns
                || role
                    .formal_map
                    .iter()
                    .any(|&p| p >= fused_func.int_params.len())
                || role
                    .res_map
                    .iter()
                    .flatten()
                    .any(|&p| p >= fused_func.num_returns)
            {
                return Err(format!(
                    "pass {} does not fit the fused signature",
                    role.func
                ));
            }
            let mut sigma = Sigma::new();
            sigma.insert(role_func.loc_param.clone(), fused_func.loc_param.clone());
            for (formal, &pos) in role_func.int_params.iter().zip(&role.formal_map) {
                sigma.insert(formal.clone(), fused_func.int_params[pos].clone());
            }
            role_items.push(body_items(&role_func.body)?);
            sigmas.push(sigma);
        }
        let scope = Scope {
            fused: fused_items,
            roles: role_items,
            body: true,
        };
        let state = MatchState {
            sigmas,
            owner: BTreeMap::new(),
            obligations: Vec::new(),
        };
        self.in_progress.push(key.clone());
        let result = self.match_scope(&scope, state).map(drop);
        self.in_progress.pop();
        if result.is_ok() {
            self.proven.insert(key.clone());
            self.entries_verified += 1;
        }
        result
    }
}

/// Tries to establish that `fused` is the pass fusion of `original`:
/// equivalent on every tree and valuation.
///
/// `Established` is a sound unbounded equivalence proof; `NotApplicable`
/// carries no information (fall back to a bounded check).  The matcher is
/// directional — `original` is the multi-pass side — so callers deciding a
/// symmetric equivalence query should try both orders.
pub fn check_fusion_correspondence(original: &Program, fused: &Program) -> CorrespVerdict {
    if original == fused {
        return CorrespVerdict::Established { entries: 0 };
    }
    let (Some(orig_main), Some(fused_main)) = (original.main(), fused.main()) else {
        return CorrespVerdict::NotApplicable {
            reason: "both programs need a Main".into(),
        };
    };
    if orig_main.int_params != fused_main.int_params
        || orig_main.num_returns != fused_main.num_returns
    {
        return CorrespVerdict::NotApplicable {
            reason: "Main signatures differ".into(),
        };
    }
    let key = EntryKey {
        fused: MAIN.to_string(),
        roles: vec![RoleSpec {
            func: MAIN.to_string(),
            formal_map: (0..orig_main.int_params.len()).collect(),
            res_map: (0..orig_main.num_returns).map(Some).collect(),
        }],
    };
    let mut verifier = Verifier::new(original, fused);
    match verifier.verify_entry(&key) {
        Ok(()) => CorrespVerdict::Established {
            entries: verifier.entries_verified,
        },
        Err(reason) => CorrespVerdict::NotApplicable { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retreet_lang::corpus;
    use retreet_lang::parser::parse_program;
    use retreet_lang::rewrite::erase_par;
    use retreet_lang::validate::program_has_parallelism;

    #[test]
    fn identical_programs_are_trivially_equivalent() {
        let program = corpus::size_counting_sequential();
        let verdict = check_fusion_correspondence(&program, &program);
        assert!(verdict.is_established());
    }

    #[test]
    fn size_counting_fusion_is_established() {
        let verdict = check_fusion_correspondence(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused(),
        );
        match verdict {
            CorrespVerdict::Established { entries } => assert!(entries >= 2, "{entries}"),
            other => panic!("expected an established fusion, got {other:?}"),
        }
    }

    #[test]
    fn invalid_size_counting_fusion_is_rejected() {
        let verdict = check_fusion_correspondence(
            &corpus::size_counting_sequential(),
            &corpus::size_counting_fused_invalid(),
        );
        assert!(!verdict.is_established(), "got {verdict:?}");
    }

    #[test]
    fn tree_mutation_fusion_is_established() {
        let verdict = check_fusion_correspondence(
            &corpus::tree_mutation_original(),
            &corpus::tree_mutation_fused(),
        );
        assert!(verdict.is_established(), "got {verdict:?}");
    }

    #[test]
    fn css_minify_fusion_is_established() {
        let verdict = check_fusion_correspondence(
            &corpus::css_minify_original(),
            &corpus::css_minify_fused(),
        );
        assert!(verdict.is_established(), "got {verdict:?}");
    }

    #[test]
    fn cycletree_fusion_is_established() {
        let verdict =
            check_fusion_correspondence(&corpus::cycletree_original(), &corpus::cycletree_fused());
        assert!(verdict.is_established(), "got {verdict:?}");
    }

    /// The tuner's partial fusions of the three CSS passes: `[CV+MF][RI]`
    /// (`leading_fused`) or `[CV][MF+RI]`, with the sibling recursive calls
    /// sequential or in a `Par`.
    fn css_partial_fusion(leading_fused: bool, parallel: bool) -> Program {
        const CONVERT: &str = "if (n.kind > 0) { n.value = n.value - 1; }";
        const FONT: &str = "if (n.prop > 0) { n.value = 400; }";
        const INIT: &str = "if (n.initial > n.value) { n.value = 0; }";
        let pass = |name: &str, actions: &[&str]| {
            let (results, zeros) = match actions.len() {
                1 => (["a", "b"], "0"),
                _ => (["f0_a, f1_a", "f0_b, f1_b"], "0, 0"),
            };
            let left = format!("{} = {name}(n.l);", results[0]);
            let right = format!("{} = {name}(n.r);", results[1]);
            let recurse = if parallel {
                format!("{{ {left} || {right} }}")
            } else {
                format!("{left} {right}")
            };
            format!(
                "fn {name}(n) {{ if (n == nil) {{ return {zeros}; }} else {{ {recurse} {} \
                 return {zeros}; }} }}\n",
                actions.concat()
            )
        };
        let source = if leading_fused {
            pass("Fused_ConvertValues_MinifyFont", &[CONVERT, FONT])
                + &pass("ReduceInit", &[INIT])
                + "fn Main(n) { x, y = Fused_ConvertValues_MinifyFont(n); z = ReduceInit(n); \
                   return 0; }"
        } else {
            pass("ConvertValues", &[CONVERT])
                + &pass("Fused_MinifyFont_ReduceInit", &[FONT, INIT])
                + "fn Main(n) { x = ConvertValues(n); y, z = Fused_MinifyFont_ReduceInit(n); \
                   return 0; }"
        };
        parse_program(&source).unwrap()
    }

    #[test]
    fn partial_css_fusions_are_established_in_both_schedules() {
        // A leading unfused pass must not be merged with its successors
        // just because the call shapes allow it: the matcher backtracks
        // when the merged entry fails.
        for leading_fused in [true, false] {
            for parallel in [false, true] {
                let candidate = css_partial_fusion(leading_fused, parallel);
                assert_eq!(program_has_parallelism(&candidate), parallel);
                let sequential = erase_par(&candidate).expect("the sibling calls share no local");
                let verdict =
                    check_fusion_correspondence(&corpus::css_minify_original(), &sequential);
                assert!(
                    matches!(verdict, CorrespVerdict::Established { entries: 3 }),
                    "leading_fused={leading_fused} parallel={parallel}: {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn reordered_conflicting_rewrites_are_rejected() {
        // Like the css fusion, but the fused pass applies MinifyFont before
        // ConvertValues — a later pass overtaking an earlier write to
        // `value`, which changes the result whenever both guards fire.
        let reordered = parse_program(
            r#"
            fn FusedMinify(n) {
                if (n == nil) {
                    return 0;
                } else {
                    a = FusedMinify(n.l);
                    b = FusedMinify(n.r);
                    if (n.prop > 0) {
                        n.value = 400;
                    }
                    if (n.kind > 0) {
                        n.value = n.value - 1;
                    }
                    if (n.initial > n.value) {
                        n.value = 0;
                    }
                    return 0;
                }
            }
            fn Main(n) {
                x = FusedMinify(n);
                return 0;
            }
        "#,
        )
        .unwrap();
        let verdict = check_fusion_correspondence(&corpus::css_minify_original(), &reordered);
        assert!(!verdict.is_established(), "got {verdict:?}");
    }

    #[test]
    fn the_matcher_is_directional() {
        // Fused → sequential needs a "defusion" the matcher does not do.
        let verdict = check_fusion_correspondence(
            &corpus::size_counting_fused(),
            &corpus::size_counting_sequential(),
        );
        assert!(!verdict.is_established());
    }

    #[test]
    fn parallel_programs_are_not_applicable() {
        let verdict = check_fusion_correspondence(
            &corpus::size_counting_parallel(),
            &corpus::size_counting_fused(),
        );
        assert!(!verdict.is_established());
    }
}
