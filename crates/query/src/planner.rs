//! The rule- and cost-based query planner.
//!
//! [`plan_query`] lowers a parsed [`Query`] into a [`PhysicalPlan`] in a
//! single pass that doubles as the metadata-resolution phase of Table 2:
//! every path step is resolved against the store's catalog exactly once
//! ([`XmlStore::estimate_step`]), and the resulting cardinalities feed the
//! plan choices directly. The decisions, formerly pattern-matched inside
//! the evaluator on **every execution**:
//!
//! * **IndexLookup join** — a single-`for` FLWOR whose `where` equates a
//!   path over the bound variable with an outer expression (Q8's
//!   correlated inner query) builds a lookup index over the source once
//!   and probes it, unless the source is estimated to be a singleton.
//! * **HashJoin** — a two-`for` FLWOR with an equi-join conjunct (Q9/Q10)
//!   hashes the build side, unless the estimates say a nested loop is
//!   cheaper (`n₁·n₂ ≤ n₁+n₂`).
//! * **Predicate pushdown** — each `where` conjunct is scheduled at the
//!   shallowest clause depth where its variables are bound (the
//!   optimization that makes the paper's Q12 cheaper than Q11).
//! * **Access paths** — `tag[@id = "…"]` becomes an ID-index probe,
//!   `tag[1]`/`tag[last()]` a positional-index probe, `…/tag/text()` an
//!   inlined-column read, and `count(…//tag)` an Aggregate over summary
//!   counts — each only when [`XmlStore::planner_caps`] says the backend
//!   affords it.
//! * **IndexScan** — a predicate-free `descendant::tag` step on a backend
//!   whose native descendant access walks (Systems A/B/C/F/G,
//!   `PlannerCaps::element_index`) is costed against the shared
//!   element-name index using the posting list's **exact** cardinality —
//!   not an estimate, even on the statistics-free System F. Sparse
//!   postings win (two binary searches + a slice); dense postings (more
//!   than one element in [`INDEX_SCAN_DENSITY`]) fall back to the
//!   streamed axis scan, whose sequential locality beats posting jumps
//!   when most of the store matches anyway.
//!
//! [`PlanMode::Naive`] suppresses every rewrite and produces the pure
//! nested-loop plan the optimizer oracle executes as the specification.

use xmark_store::{PlannerCaps, PositionSpec, XmlStore};

/// IndexScan density gate: the posting list must cover at most one node
/// in this many for the stab to beat the streamed axis scan.
pub const INDEX_SCAN_DENSITY: usize = 4;

use crate::ast::*;
use crate::compile::CompileStats;
use crate::plan::*;

/// Plan `query` against `store`, collecting compile statistics.
///
/// The caller is responsible for bracketing with
/// [`XmlStore::begin_compile`] / [`XmlStore::metadata_accesses`] (see
/// [`crate::compile::compile`]).
pub fn plan_query(
    query: &Query,
    store: &dyn XmlStore,
    mode: PlanMode,
) -> (PhysicalPlan, CompileStats) {
    let mut planner = Planner {
        store,
        mode,
        caps: store.planner_caps(),
        stats: CompileStats::default(),
    };
    let functions = query
        .functions
        .iter()
        .map(|f| PlanFunction {
            name: f.name.clone(),
            params: f.params.clone(),
            body: planner.plan_expr(&f.body),
        })
        .collect();
    let body = planner.plan_expr(&query.body);
    (
        PhysicalPlan {
            functions,
            body,
            mode,
        },
        planner.stats,
    )
}

struct Planner<'s> {
    store: &'s dyn XmlStore,
    mode: PlanMode,
    caps: PlannerCaps,
    stats: CompileStats,
}

impl Planner<'_> {
    fn optimized(&self) -> bool {
        self.mode == PlanMode::Optimized
    }

    fn plan_expr(&mut self, expr: &Expr) -> PlanExpr {
        match expr {
            Expr::Str(s) => PlanExpr::Str(s.clone()),
            Expr::Num(n) => PlanExpr::Num(*n),
            Expr::Empty => PlanExpr::Empty,
            Expr::Var(v) => PlanExpr::Var(v.clone()),
            Expr::Sequence(parts) => {
                PlanExpr::Sequence(parts.iter().map(|p| self.plan_expr(p)).collect())
            }
            Expr::Or(parts) => PlanExpr::Or(parts.iter().map(|p| self.plan_expr(p)).collect()),
            Expr::And(parts) => PlanExpr::And(parts.iter().map(|p| self.plan_expr(p)).collect()),
            Expr::Cmp(op, a, b) => PlanExpr::Cmp(
                *op,
                Box::new(self.plan_expr(a)),
                Box::new(self.plan_expr(b)),
            ),
            Expr::Arith(op, a, b) => PlanExpr::Arith(
                *op,
                Box::new(self.plan_expr(a)),
                Box::new(self.plan_expr(b)),
            ),
            Expr::Neg(e) => PlanExpr::Neg(Box::new(self.plan_expr(e))),
            Expr::Before(a, b) => {
                PlanExpr::Before(Box::new(self.plan_expr(a)), Box::new(self.plan_expr(b)))
            }
            Expr::Call(name, args) => self.plan_call(name, args),
            Expr::Element(ctor) => PlanExpr::Element(Box::new(self.plan_ctor(ctor))),
            Expr::Some {
                bindings,
                satisfies,
            } => PlanExpr::Some {
                bindings: bindings
                    .iter()
                    .map(|(v, e)| (v.clone(), self.plan_expr(e)))
                    .collect(),
                satisfies: Box::new(self.plan_expr(satisfies)),
            },
            Expr::Path { base, steps } => PlanExpr::Path(Box::new(self.plan_path(base, steps))),
            Expr::Flwor(f) => PlanExpr::Flwor(Box::new(self.plan_flwor(f))),
        }
    }

    // ---- calls: the Aggregate lowering ----------------------------------

    /// `count(path)` whose final step is a predicate-free descendant tag
    /// test lowers to an Aggregate over `count_descendants_named` — the
    /// paper's Q6/Q7 observation that a structural summary answers counts
    /// without touching nodes.
    fn plan_call(&mut self, name: &str, args: &[Expr]) -> PlanExpr {
        if self.optimized() && name == "count" && args.len() == 1 {
            if let Expr::Path { base, steps } = &args[0] {
                if let Some(aggregate) = self.try_aggregate(base, steps) {
                    return PlanExpr::Aggregate(Box::new(aggregate));
                }
            }
        }
        PlanExpr::Call(
            name.to_string(),
            args.iter().map(|a| self.plan_expr(a)).collect(),
        )
    }

    fn try_aggregate(&mut self, base: &PathBase, steps: &[Step]) -> Option<AggregatePlan> {
        let last = steps.last()?;
        if last.axis != Axis::Descendant || !last.preds.is_empty() {
            return None;
        }
        let NodeTest::Tag(tag) = &last.test else {
            return None;
        };
        let prefix = &steps[..steps.len() - 1];
        if prefix.iter().any(|s| !s.preds.is_empty()) {
            return None;
        }
        let tag = tag.clone();
        // Plan the full path (prefix plus counted step) so the compile
        // statistics cover exactly the same catalog touches as the
        // unlowered form, then split off the counted tag.
        let mut path = self.plan_path(base, steps);
        let counted = path.steps.pop().expect("last step exists");
        path.memo = path.memo.is_some().then(|| path_signature(&path.steps));
        path.inlined_tail = None;
        path.value_tail = None;
        path.est_rows = last_tag_estimate(&path.steps);
        Some(AggregatePlan {
            input: path,
            tag,
            summary: self.caps.summary_counts,
            // Walking backends answer the count as a posting-range length
            // of the shared element-name index instead.
            indexed: matches!(counted.access, StepAccess::IndexScan),
            est_rows: counted.est_rows,
        })
    }

    // ---- paths -----------------------------------------------------------

    fn plan_path(&mut self, base: &PathBase, steps: &[Step]) -> PathPlan {
        let base = match base {
            PathBase::Root => PlanBase::Root,
            PathBase::Var(v) => PlanBase::Var(v.clone()),
            PathBase::Context => PlanBase::Context,
            PathBase::Expr(e) => PlanBase::Expr(self.plan_expr(e)),
        };
        let planned: Vec<PlanStep> = steps.iter().map(|s| self.plan_step(s)).collect();
        let pred_free = steps.iter().all(|s| s.preds.is_empty());
        let memo = (matches!(base, PlanBase::Root) && pred_free).then(|| path_signature(&planned));
        let inlined_tail = self.inlined_tail_of(steps);
        let value_tail = if inlined_tail.is_none() && self.caps.child_values {
            self.tail_tag_of(steps)
        } else {
            None
        };
        let est_rows = last_tag_estimate(&planned);
        PathPlan {
            base,
            steps: planned,
            memo,
            inlined_tail,
            value_tail,
            est_rows,
        }
    }

    /// Annotate `…/tag/text()` tails for System C's entity columns.
    fn inlined_tail_of(&self, steps: &[Step]) -> Option<String> {
        if !self.caps.inlined_values {
            return None;
        }
        self.tail_tag_of(steps)
    }

    /// The tag of a final predicate-free `tag/text()` tail (child axes
    /// only) — the shape both the entity columns and the shared
    /// child-value index answer. `None` in naive mode.
    fn tail_tag_of(&self, steps: &[Step]) -> Option<String> {
        if !self.optimized() || steps.len() < 2 {
            return None;
        }
        let tag_step = &steps[steps.len() - 2];
        let text_step = &steps[steps.len() - 1];
        if tag_step.axis != Axis::Child || !tag_step.preds.is_empty() {
            return None;
        }
        if text_step.axis != Axis::Child
            || text_step.test != NodeTest::Text
            || !text_step.preds.is_empty()
        {
            return None;
        }
        match &tag_step.test {
            NodeTest::Tag(tag) => Some(tag.clone()),
            _ => None,
        }
    }

    fn plan_step(&mut self, step: &Step) -> PlanStep {
        // Catalog resolution: one estimate per non-attribute tag step —
        // the Table 2 metadata-access accounting.
        let mut est_rows = match (&step.test, step.axis) {
            (NodeTest::Tag(_), Axis::Attribute) => 0,
            (NodeTest::Tag(tag), _) => {
                self.stats.steps_resolved += 1;
                let est = self.store.estimate_step(tag);
                self.stats.estimated_rows += est.rows;
                est.rows
            }
            _ => 0,
        };
        let access = self.step_access(step);
        if let StepAccess::IndexScan = access {
            // The posting list is the catalog here: record its exact
            // cardinality (System F plans these steps with real numbers
            // despite having no statistics of its own).
            if let NodeTest::Tag(tag) = &step.test {
                est_rows = self.exact_postings(tag).unwrap_or(est_rows as usize) as u64;
            }
        }
        PlanStep {
            axis: step.axis,
            test: step.test.clone(),
            preds: step.preds.iter().map(|p| self.plan_pred(p)).collect(),
            access,
            est_rows,
        }
    }

    /// Exact whole-document posting cardinality of `tag` from the shared
    /// element-name index, or `None` when the index cannot serve this
    /// store (ids not verified pre-order). Builds the index on the first
    /// compilation against the store — the lazily-paid analogue of System
    /// D's "the summary is the metadata"; the plan cache and the
    /// `build_indexes()` warmups keep it off the request path.
    fn exact_postings(&self, tag: &str) -> Option<usize> {
        let index = self.store.indexes().element(self.store);
        index.ordered().then(|| index.count(tag))
    }

    fn plan_pred(&mut self, pred: &Pred) -> PlanPred {
        match pred {
            Pred::Position(k) => PlanPred::Position(*k),
            Pred::Last => PlanPred::Last,
            Pred::Expr(e) => PlanPred::Expr(self.plan_expr(e)),
        }
    }

    fn step_access(&self, step: &Step) -> StepAccess {
        if !self.optimized() {
            return StepAccess::Generic;
        }
        // Predicate-free descendant steps: cost the shared element-name
        // index against the streamed axis scan on its exact posting
        // cardinality.
        if step.preds.is_empty() {
            if self.caps.element_index && step.axis == Axis::Descendant {
                if let NodeTest::Tag(tag) = &step.test {
                    if let Some(postings) = self.exact_postings(tag) {
                        if postings * INDEX_SCAN_DENSITY <= self.store.node_count() {
                            return StepAccess::IndexScan;
                        }
                    }
                }
            }
            return StepAccess::Generic;
        }
        if step.preds.len() != 1 {
            return StepAccess::Generic;
        }
        // `tag[@id = "literal"]` through the ID index (every mass-storage
        // system's Q1 plan).
        if self.caps.id_index && step.axis != Axis::Attribute {
            if let (NodeTest::Tag(_), Some(lit)) = (&step.test, id_literal(&step.preds[0])) {
                return StepAccess::IdProbe(lit.to_string());
            }
        }
        // `tag[1]` / `tag[last()]` through the positional index (Q2/Q3 on
        // System C).
        if self.caps.positional_index
            && step.axis == Axis::Child
            && matches!(step.test, NodeTest::Tag(_))
        {
            match step.preds[0] {
                Pred::Position(k) => return StepAccess::Positional(PositionSpec::First(k)),
                Pred::Last => return StepAccess::Positional(PositionSpec::Last),
                Pred::Expr(_) => {}
            }
        }
        StepAccess::Generic
    }

    // ---- FLWOR strategies -------------------------------------------------

    fn plan_flwor(&mut self, f: &Flwor) -> FlworPlan {
        let conjuncts_ast: Vec<&Expr> = match &f.where_clause {
            None => Vec::new(),
            Some(Expr::And(parts)) => parts.iter().collect(),
            Some(other) => vec![other],
        };
        // Plan every piece exactly once — the statistics pass counts each
        // catalog touch once regardless of which strategy wins.
        let sources: Vec<PlanExpr> = f
            .clauses
            .iter()
            .map(|c| match c {
                Clause::For(_, e) | Clause::Let(_, e) => self.plan_expr(e),
            })
            .collect();
        let conjuncts: Vec<PlanExpr> = conjuncts_ast.iter().map(|c| self.plan_expr(c)).collect();
        let order_by = f
            .order_by
            .as_ref()
            .map(|(k, asc)| (self.plan_expr(k), *asc));
        let ret = self.plan_expr(&f.ret);
        let strategy = self.choose_strategy(f, &conjuncts_ast, sources, conjuncts);
        FlworPlan {
            strategy,
            order_by,
            ret,
        }
    }

    fn choose_strategy(
        &self,
        f: &Flwor,
        conjuncts_ast: &[&Expr],
        sources: Vec<PlanExpr>,
        conjuncts: Vec<PlanExpr>,
    ) -> Strategy {
        if self.optimized() {
            if let Some((join_idx, inner_is_lhs)) = detect_index_lookup(f, conjuncts_ast) {
                let est_build = expr_estimate(&sources[0]);
                // Cost gate: a singleton source makes the index useless.
                if est_build != 1 {
                    return build_index_lookup(
                        f,
                        sources,
                        conjuncts,
                        join_idx,
                        inner_is_lhs,
                        est_build,
                    );
                }
            }
            if let Some((join_idx, v1_is_lhs)) = detect_hash_join(f, conjuncts_ast) {
                let est_probe = expr_estimate(&sources[0]);
                let est_build = expr_estimate(&sources[1]);
                // Cost gate: hash when n₁·n₂ reaches n₁+n₂ or the sizes
                // are unknown (System F/G plan optimistically, as the old
                // runtime rewrites did unconditionally). Only degenerate
                // singleton sides fall back to the nested loop.
                let hash_wins = est_probe == 0
                    || est_build == 0
                    || est_probe * est_build >= est_probe + est_build;
                if hash_wins {
                    return build_hash_join(
                        f,
                        conjuncts_ast,
                        sources,
                        conjuncts,
                        join_idx,
                        v1_is_lhs,
                        est_probe,
                        est_build,
                    );
                }
            }
        }
        self.nested_loop(f, conjuncts_ast, sources, conjuncts)
    }

    /// The fallback strategy: clause-by-clause iteration with the
    /// predicate-pushdown schedule (everything at the deepest level in
    /// naive mode).
    fn nested_loop(
        &self,
        f: &Flwor,
        conjuncts_ast: &[&Expr],
        sources: Vec<PlanExpr>,
        conjuncts: Vec<PlanExpr>,
    ) -> Strategy {
        let clauses: Vec<PlanClause> = f
            .clauses
            .iter()
            .zip(sources)
            .map(|(c, src)| match c {
                Clause::For(v, _) => PlanClause::For(v.clone(), src),
                Clause::Let(v, _) => PlanClause::Let(v.clone(), src),
            })
            .collect();
        let mut filters: Vec<Vec<PlanExpr>> = vec![Vec::new(); clauses.len() + 1];
        for (ast, planned) in conjuncts_ast.iter().zip(conjuncts) {
            let depth = if self.optimized() {
                schedule_depth(f, ast)
            } else {
                f.clauses.len()
            };
            filters[depth].push(planned);
        }
        Strategy::NestedLoop { clauses, filters }
    }
}

/// The shallowest clause depth at which every variable a conjunct uses is
/// bound — where pushdown schedules it.
fn schedule_depth(f: &Flwor, conjunct: &Expr) -> usize {
    let mut depth = 0;
    for (i, clause) in f.clauses.iter().enumerate() {
        let var = match clause {
            Clause::For(v, _) | Clause::Let(v, _) => v,
        };
        if expr_uses_var(conjunct, var) {
            depth = i + 1;
        }
    }
    depth
}

// ---- join detection (syntactic, over the AST) ----------------------------

/// Decorrelated-lookup shape: `for $v in <absolute pred-free path> where
/// path($v) = <outer expr> [and rest] …`. Returns the join conjunct's index
/// and whether the inner key is the left side.
fn detect_index_lookup(f: &Flwor, conjuncts: &[&Expr]) -> Option<(usize, bool)> {
    let [Clause::For(v, src)] = f.clauses.as_slice() else {
        return None;
    };
    let Expr::Path {
        base: PathBase::Root,
        steps: src_steps,
    } = src
    else {
        return None;
    };
    if src_steps.iter().any(|s| !s.preds.is_empty()) {
        return None;
    }
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let Expr::Cmp(CmpOp::Eq, a, b) = conjunct else {
            continue;
        };
        if is_var_key(a, v) && !expr_uses_var(b, v) {
            return Some((i, true));
        }
        if is_var_key(b, v) && !expr_uses_var(a, v) {
            return Some((i, false));
        }
    }
    None
}

/// Equi-join shape: `for $a in s1, $b in s2 where path($a) = path($b)
/// [and rest] …` with `s2` independent of `$a`. Returns the join conjunct's
/// index and whether the `$a`-side key is the left side.
fn detect_hash_join(f: &Flwor, conjuncts: &[&Expr]) -> Option<(usize, bool)> {
    let [Clause::For(v1, _), Clause::For(v2, s2)] = f.clauses.as_slice() else {
        return None;
    };
    if expr_uses_var(s2, v1) {
        return None;
    }
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let Expr::Cmp(CmpOp::Eq, a, b) = conjunct else {
            continue;
        };
        if is_var_key(a, v1) && is_var_key(b, v2) {
            return Some((i, true));
        }
        if is_var_key(a, v2) && is_var_key(b, v1) {
            return Some((i, false));
        }
    }
    None
}

/// Is `e` a predicate-free path rooted at variable `v`?
fn is_var_key(e: &Expr, v: &str) -> bool {
    match e {
        Expr::Path {
            base: PathBase::Var(var),
            steps,
        } => var == v && steps.iter().all(|s| s.preds.is_empty()),
        _ => false,
    }
}

// ---- strategy construction (over planned pieces) -------------------------

fn build_index_lookup(
    f: &Flwor,
    mut sources: Vec<PlanExpr>,
    mut conjuncts: Vec<PlanExpr>,
    join_idx: usize,
    inner_is_lhs: bool,
    est_build: u64,
) -> Strategy {
    let var = match &f.clauses[0] {
        Clause::For(v, _) => v.clone(),
        Clause::Let(..) => unreachable!("detection matched a for clause"),
    };
    let source = sources.remove(0);
    let (inner_key, outer_key) = split_eq(conjuncts.remove(join_idx), inner_is_lhs);
    let sig = format!(
        "{}|{}",
        plan_path_signature(&source).expect("detection guaranteed an invariant source"),
        plan_path_signature(&inner_key).expect("detection guaranteed a path key"),
    );
    Strategy::IndexLookup {
        var,
        source,
        inner_key,
        outer_key,
        sig,
        residual: conjuncts,
        est_build,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_hash_join(
    f: &Flwor,
    conjuncts_ast: &[&Expr],
    mut sources: Vec<PlanExpr>,
    mut conjuncts: Vec<PlanExpr>,
    join_idx: usize,
    v1_is_lhs: bool,
    est_probe: u64,
    est_build: u64,
) -> Strategy {
    let (probe_var, build_var) = match f.clauses.as_slice() {
        [Clause::For(v1, _), Clause::For(v2, _)] => (v1.clone(), v2.clone()),
        _ => unreachable!("detection matched two for clauses"),
    };
    let build_src = sources.remove(1);
    let probe_src = sources.remove(0);
    // Partition what is not the join conjunct: probe-side equalities
    // against an outer expression hoist out of the per-pair filter; the
    // rest stays residual.
    let mut hoisted = Vec::new();
    let mut residual = Vec::new();
    let mut join_conjunct = None;
    for (i, planned) in conjuncts.drain(..).enumerate() {
        if i == join_idx {
            join_conjunct = Some(planned);
            continue;
        }
        match hoistable_side(conjuncts_ast[i], &probe_var, &build_var) {
            Some(probe_is_lhs) => {
                let (probe_key, outer) = split_eq(planned, probe_is_lhs);
                let sig = invariant_join_signature(&probe_src, &probe_key).map(|s| s + "#probe");
                hoisted.push(HoistedEq {
                    probe_key,
                    outer,
                    sig,
                });
            }
            None => residual.push(planned),
        }
    }
    let (probe_key, build_key) = split_eq(join_conjunct.expect("join conjunct present"), v1_is_lhs);
    let build_sig = invariant_join_signature(&build_src, &build_key);
    let probe_sig = invariant_join_signature(&probe_src, &probe_key).map(|s| s + "#probe");
    Strategy::HashJoin {
        probe_var,
        probe_src,
        probe_key,
        probe_sig,
        build_var,
        build_src,
        build_key,
        build_sig,
        hoisted,
        residual,
        est_probe,
        est_build,
    }
}

/// Is this conjunct a probe-side equality against an expression free of
/// both join variables (`path($probe) = outer` or mirrored)? Returns
/// which side the probe key is on.
fn hoistable_side(conjunct: &Expr, probe_var: &str, build_var: &str) -> Option<bool> {
    let Expr::Cmp(CmpOp::Eq, a, b) = conjunct else {
        return None;
    };
    let free = |e: &Expr| !expr_uses_var(e, probe_var) && !expr_uses_var(e, build_var);
    if is_var_key(a, probe_var) && free(b) {
        return Some(true);
    }
    if is_var_key(b, probe_var) && free(a) {
        return Some(false);
    }
    None
}

/// Split a planned equality conjunct into its two sides, normalized so the
/// first returned key is the probe/inner side.
fn split_eq(conjunct: PlanExpr, first_is_lhs: bool) -> (PlanExpr, PlanExpr) {
    let PlanExpr::Cmp(CmpOp::Eq, a, b) = conjunct else {
        unreachable!("detection matched an equality conjunct")
    };
    if first_is_lhs {
        (*a, *b)
    } else {
        (*b, *a)
    }
}

/// The memo signature of a planned absolute predicate-free path, or the
/// signature of a var-rooted key path.
fn plan_path_signature(e: &PlanExpr) -> Option<String> {
    match e {
        PlanExpr::Path(p) => Some(path_signature(&p.steps)),
        _ => None,
    }
}

/// A cache signature for a (source, key-path) pair, or `None` when either
/// side is not loop-invariant.
pub(crate) fn invariant_join_signature(src: &PlanExpr, key: &PlanExpr) -> Option<String> {
    let PlanExpr::Path(src_path) = src else {
        return None;
    };
    // `memo` is only set for absolute predicate-free paths — exactly the
    // loop-invariance criterion.
    src_path.memo.as_ref()?;
    let PlanExpr::Path(key_path) = key else {
        return None;
    };
    if !matches!(key_path.base, PlanBase::Var(_))
        || key_path.steps.iter().any(|s| !s.preds.is_empty())
    {
        return None;
    }
    Some(format!(
        "{}|{}",
        path_signature(&src_path.steps),
        path_signature(&key_path.steps)
    ))
}

/// The planner's cardinality estimate for a planned source expression
/// (0 = unknown).
pub(crate) fn expr_estimate(e: &PlanExpr) -> u64 {
    match e {
        PlanExpr::Path(p) => p.est_rows,
        _ => 0,
    }
}

/// Estimate of a step sequence: the extent of its last resolved tag step.
pub(crate) fn last_tag_estimate(steps: &[PlanStep]) -> u64 {
    steps
        .iter()
        .rev()
        .find(|s| matches!(s.test, NodeTest::Tag(_)) && s.axis != Axis::Attribute)
        .map(|s| s.est_rows)
        .unwrap_or(0)
}

/// `tag[@id = "literal"]`: extract the literal when the predicate has the
/// ID-probe shape.
fn id_literal(pred: &Pred) -> Option<&str> {
    let Pred::Expr(Expr::Cmp(CmpOp::Eq, lhs, rhs)) = pred else {
        return None;
    };
    let (attr_path, literal) = match (lhs.as_ref(), rhs.as_ref()) {
        (
            Expr::Path {
                base: PathBase::Context,
                steps,
            },
            Expr::Str(s),
        ) => (steps, s),
        (
            Expr::Str(s),
            Expr::Path {
                base: PathBase::Context,
                steps,
            },
        ) => (steps, s),
        _ => return None,
    };
    if attr_path.len() == 1
        && attr_path[0].axis == Axis::Attribute
        && attr_path[0].test == NodeTest::Tag("id".to_string())
    {
        Some(literal)
    } else {
        None
    }
}

// ---- variable-use analysis (over the AST) --------------------------------

/// Does `expr` reference the variable `var` anywhere?
pub(crate) fn expr_uses_var(expr: &Expr, var: &str) -> bool {
    match expr {
        Expr::Var(v) => v == var,
        Expr::Path { base, steps } => {
            let base_uses = match base {
                PathBase::Var(v) => v == var,
                PathBase::Expr(e) => expr_uses_var(e, var),
                PathBase::Root | PathBase::Context => false,
            };
            base_uses
                || steps.iter().any(|s| {
                    s.preds.iter().any(|p| match p {
                        Pred::Expr(e) => expr_uses_var(e, var),
                        _ => false,
                    })
                })
        }
        Expr::Flwor(f) => {
            f.clauses.iter().any(|c| match c {
                Clause::For(_, e) | Clause::Let(_, e) => expr_uses_var(e, var),
            }) || f
                .where_clause
                .as_ref()
                .is_some_and(|w| expr_uses_var(w, var))
                || f.order_by
                    .as_ref()
                    .is_some_and(|(k, _)| expr_uses_var(k, var))
                || expr_uses_var(&f.ret, var)
        }
        Expr::Or(parts) | Expr::And(parts) | Expr::Sequence(parts) => {
            parts.iter().any(|p| expr_uses_var(p, var))
        }
        Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::Before(a, b) => {
            expr_uses_var(a, var) || expr_uses_var(b, var)
        }
        Expr::Neg(e) => expr_uses_var(e, var),
        Expr::Call(_, args) => args.iter().any(|a| expr_uses_var(a, var)),
        Expr::Some {
            bindings,
            satisfies,
        } => bindings.iter().any(|(_, e)| expr_uses_var(e, var)) || expr_uses_var(satisfies, var),
        Expr::Element(ctor) => ctor_uses_var(ctor, var),
        Expr::Str(_) | Expr::Num(_) | Expr::Empty => false,
    }
}

fn ctor_uses_var(ctor: &ElementCtor, var: &str) -> bool {
    ctor.attrs.iter().any(|(_, parts)| {
        parts.iter().any(|p| match p {
            AttrPart::Expr(e) => expr_uses_var(e, var),
            AttrPart::Lit(_) => false,
        })
    }) || ctor.content.iter().any(|c| match c {
        Content::Expr(e) => expr_uses_var(e, var),
        Content::Element(nested) => ctor_uses_var(nested, var),
        Content::Text(_) => false,
    })
}

impl Planner<'_> {
    fn plan_ctor(&mut self, ctor: &ElementCtor) -> PlanElement {
        PlanElement {
            tag: ctor.tag.clone(),
            attrs: ctor
                .attrs
                .iter()
                .map(|(name, parts)| {
                    (
                        name.clone(),
                        parts
                            .iter()
                            .map(|p| match p {
                                AttrPart::Lit(s) => PlanAttrPart::Lit(s.clone()),
                                AttrPart::Expr(e) => PlanAttrPart::Expr(self.plan_expr(e)),
                            })
                            .collect(),
                    )
                })
                .collect(),
            content: ctor
                .content
                .iter()
                .map(|c| match c {
                    Content::Text(t) => PlanContent::Text(t.clone()),
                    Content::Expr(e) => PlanContent::Expr(self.plan_expr(e)),
                    Content::Element(nested) => PlanContent::Element(self.plan_ctor(nested)),
                })
                .collect(),
        }
    }
}
