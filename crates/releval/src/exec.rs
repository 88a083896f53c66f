//! The physical-plan executor: one hash-join operator core under every
//! evaluator.
//!
//! [`relalgebra::physical`] lowers a query to a [`PhysicalPlan`] once; this
//! module executes that plan under the three row models the strategies need:
//!
//! * **plain tuples** ([`execute`]) — syntactic value equality; this is what
//!   naïve evaluation *is*, and (on complete inputs) textbook evaluation. The
//!   worlds strategy runs this executor once per possible world against the
//!   single shared plan.
//! * **the certain⁺/possible? pair** ([`approx::execute_approx`]) — the
//!   sound approximation's under/over pair, with marked-null three-valued
//!   filters and unification-aware set operators.
//! * **condition-carrying c-table rows** ([`ctable::execute_ctable`]) — the
//!   Imieliński–Lipski algebra re-expressed on the operator core; rows carry
//!   [`ctables::condition::Condition`]s instead of being filtered outright.
//!
//! All three share the same kernel shape: **hash what is ground, loop what
//! is symbolic**. Under syntactic equality every row is "ground" (a marked
//! null is just a value), so plain execution is pure build/probe hashing —
//! hash equi-join, hash union/difference/intersection, hash-lookup division.
//! Under valuation-aware semantics a key containing a null can match rows a
//! hash lookup would miss, so the kernel's `SplitIndex` partitions rows
//! into hashable ground keys and a (typically small) symbolic remainder that
//! the model-specific operators handle pair by pair.
//!
//! Executors compute the active-domain diagonal `Δ` **once per execution**
//! and serve every `Delta` node from that cache — the worlds strategy used
//! to recompute (and clone) the domain on every `Δ` evaluation in every
//! world.
//!
//! [`OpStats`] counts what actually happened (operators run, hash joins,
//! build/probe rows, symbolic fallback pairs); the engine surfaces it in
//! [`CertainReport`](../../engine) alongside the plan's `EXPLAIN` text.

pub mod approx;
pub mod columnar;
pub mod ctable;

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relalgebra::predicate::Predicate;
use relmodel::value::Value;
use relmodel::{Database, Relation, Tuple};

/// Execution telemetry: what the physical operators actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Physical operator nodes evaluated (across all worlds, for the worlds
    /// strategy).
    pub operators: usize,
    /// Hash joins executed.
    pub hash_joins: usize,
    /// Rows hashed into join build tables.
    pub build_rows: usize,
    /// Rows probed against join build tables (or, in an index nested-loop
    /// join, against a relation's resident key index).
    pub probe_rows: usize,
    /// Rows emitted by joins (before any parent operator).
    pub join_rows_out: usize,
    /// Row pairs handled by the symbolic (null-key / condition-row) fallback
    /// outside the hash path. Zero for plain execution, where every key is
    /// syntactically ground.
    pub fallback_pairs: usize,
    /// Morsel chunks processed by the columnar executors' operator loops.
    /// Zero for the row-at-a-time reference path.
    pub batches: usize,
    /// Probe-side rows routed through the vectorized ground run of a
    /// run-splitting columnar operator (join, ∪/−/∩ membership, ÷). Under
    /// syntactic equality every row is ground, so for the plain columnar
    /// executor this counts all probed rows.
    pub ground_rows: usize,
    /// Probe-side rows routed to the per-row symbolic fallback of a
    /// run-splitting columnar operator. `ground_rows + symbolic_rows` is the
    /// total probed-row traffic of the batched core.
    pub symbolic_rows: usize,
    /// Hash tables (join build sides, membership / dedup tables, resident
    /// key indexes built by this execution) actually constructed. The
    /// batched enumeration folds build tables over the world-invariant runs
    /// once per shard, so across an enumeration this stays near the
    /// per-shard table count.
    pub tables_built: usize,
    /// Cache hits on those tables: evaluations served by a table built for
    /// an earlier world/repair of the same shard, or by a relation's
    /// resident key index, instead of rebuilding.
    /// `tables_reused / (tables_built + tables_reused)` is the reuse rate
    /// the bench gate tracks.
    pub tables_reused: usize,
}

/// Number of counters in [`OpStats`] (the length of
/// [`OpStats::to_array`]).
pub const OP_STATS_FIELDS: usize = 11;

impl OpStats {
    /// The counters as a fixed array, in declaration order. Built by
    /// exhaustive destructuring — adding a counter without updating this
    /// (and thereby [`OpStats::merge`]) is a compile error, so aggregation
    /// across worlds shards can never silently drop a field.
    pub fn to_array(&self) -> [usize; OP_STATS_FIELDS] {
        let OpStats {
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        } = *self;
        [
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        ]
    }

    /// Inverse of [`OpStats::to_array`].
    pub fn from_array(a: [usize; OP_STATS_FIELDS]) -> OpStats {
        let [operators, hash_joins, build_rows, probe_rows, join_rows_out, fallback_pairs, batches, ground_rows, symbolic_rows, tables_built, tables_reused] =
            a;
        OpStats {
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        }
    }

    /// Accumulates another execution's counters into this one (used by the
    /// worlds strategy to aggregate across per-world executions and worker
    /// shards). Sums every counter, by construction: the conversion through
    /// [`OpStats::to_array`] destructures exhaustively.
    pub fn merge(&mut self, other: &OpStats) {
        let mut sum = self.to_array();
        for (s, o) in sum.iter_mut().zip(other.to_array()) {
            *s += o;
        }
        *self = OpStats::from_array(sum);
    }

    /// One-line telemetry rendering, used in EXPLAIN footers and the
    /// examples.
    pub fn summary(&self) -> String {
        format!(
            "operators {} · hash joins {} · build rows {} · probe rows {} · join rows out {} · fallback pairs {}\nbatches {} · ground rows {} · symbolic rows {} · tables built {} · tables reused {}",
            self.operators,
            self.hash_joins,
            self.build_rows,
            self.probe_rows,
            self.join_rows_out,
            self.fallback_pairs,
            self.batches,
            self.ground_rows,
            self.symbolic_rows,
            self.tables_built,
            self.tables_reused,
        )
    }
}

/// The plan's EXPLAIN text with the execution telemetry attached as a
/// footer — what `examples/explain_tour.rs` prints after running a plan.
pub fn explain_executed(plan: &PhysicalPlan, stats: &OpStats) -> String {
    plan.explain_with_footer(&stats.summary())
}

/// What one physical operator did during a profiled execution — the
/// per-node record behind `EXPLAIN ANALYZE`.
///
/// All counters are **inclusive** of the node's subtree (Postgres-style):
/// a parent's `nanos` covers its children's, so sibling subtrees can be
/// compared directly and the root's time is the whole execution. Wall-clock
/// lives here and deliberately **not** in [`OpStats`], which the
/// differential tests compare with `Eq` across executors and must stay
/// deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// The plan-unique preorder id of the node
    /// ([`relalgebra::physical::PhysNode::id`]).
    pub id: u32,
    /// Rows the node emitted (post-dedup, pre-parent).
    pub rows: usize,
    /// Morsel chunks processed in the subtree rooted here.
    pub batches: usize,
    /// Hash tables constructed in the subtree rooted here.
    pub tables_built: usize,
    /// Hash-table cache hits in the subtree rooted here.
    pub tables_reused: usize,
    /// Was this node (not its subtree) answered from a resident key index —
    /// an index selection or an index nested-loop join — instead of a scan
    /// or a per-query hash table?
    pub indexed: bool,
    /// Inclusive wall-clock for the subtree, in nanoseconds.
    pub nanos: u64,
}

/// Executes a physical plan over a database under **syntactic** value
/// equality (nulls are ordinary values) — the evaluation the naïve,
/// complete, and per-world strategies share.
pub fn execute(plan: &PhysicalPlan, db: &Database) -> Relation {
    execute_counted(plan, db).0
}

/// [`execute`] plus the operator telemetry.
pub fn execute_counted<'a>(plan: &'a PhysicalPlan, db: &'a Database) -> (Relation, OpStats) {
    let mut exec = PlainExec {
        db,
        delta: None,
        stats: OpStats::default(),
    };
    let rows = exec.eval(plan.root());
    (
        Relation::from_tuples(plan.arity(), rows.into_iter().map(Cow::into_owned)),
        exec.stats,
    )
}

/// [`execute`] with a caller-provided stats accumulator — the worlds
/// strategy threads one accumulator through its whole per-world loop.
pub fn execute_into(plan: &PhysicalPlan, db: &Database, stats: &mut OpStats) -> Relation {
    let (answers, run) = execute_counted(plan, db);
    stats.merge(&run);
    answers
}

/// Rows flowing between plain operators: leaves are **borrowed** from the
/// database (or the plan's literal relations), so a scan copies nothing and
/// operators only pay for the rows they actually build — the same zero-copy
/// discipline as the logical interpreter's `Cow<Relation>`, per row.
type Rows<'a> = Vec<Cow<'a, Tuple>>;

struct PlainExec<'a> {
    db: &'a Database,
    /// The Δ diagonal, computed on first use and reused for every `Delta`
    /// node of this execution.
    delta: Option<Vec<Tuple>>,
    stats: OpStats,
}

impl<'a> PlainExec<'a> {
    /// Evaluates a node to a duplicate-free row vector.
    fn eval(&mut self, node: &'a PhysNode) -> Rows<'a> {
        self.stats.operators += 1;
        match node.op() {
            PhysOp::Scan(name) => self
                .db
                .relation(name)
                .expect("physical plans are lowered from typechecked queries")
                .iter()
                .map(Cow::Borrowed)
                .collect(),
            PhysOp::Values(rel) => rel.iter().map(Cow::Borrowed).collect(),
            PhysOp::Delta => {
                self.ensure_delta();
                self.delta
                    .as_deref()
                    .expect("just initialised")
                    .iter()
                    .map(|t| Cow::Owned(t.clone()))
                    .collect()
            }
            PhysOp::Filter { input, predicate } => {
                let mut rows = self.eval(input);
                rows.retain(|t| predicate.eval_naive(t));
                rows
            }
            PhysOp::Project { input, columns } => {
                let rows = self.eval(input);
                let mut seen: HashSet<Tuple> = HashSet::with_capacity(rows.len());
                let mut out = Vec::with_capacity(rows.len());
                for t in rows {
                    let projected = t.project(columns);
                    if seen.insert(projected.clone()) {
                        out.push(Cow::Owned(projected));
                    }
                }
                out
            }
            PhysOp::NestedProduct { left, right } => {
                let left = self.eval(left);
                let right = self.eval(right);
                let mut out = Vec::with_capacity(left.len().saturating_mul(right.len()));
                for l in &left {
                    for r in &right {
                        out.push(Cow::Owned(l.concat(r)));
                    }
                }
                out
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let left = self.eval(left);
                let right = self.eval(right);
                let left_refs: Vec<&Tuple> = left.iter().map(|c| c.as_ref()).collect();
                let right_refs: Vec<&Tuple> = right.iter().map(|c| c.as_ref()).collect();
                syntactic_hash_join(
                    &left_refs,
                    &right_refs,
                    keys,
                    |row| residual.as_ref().is_none_or(|p| p.eval_naive(row)),
                    &mut self.stats,
                )
                .into_iter()
                .map(Cow::Owned)
                .collect()
            }
            PhysOp::Union { left, right } => {
                let mut rows = self.eval(left);
                let seen: HashSet<&Tuple> = rows.iter().map(|c| c.as_ref()).collect();
                let right = self.eval(right);
                let mut fresh = Vec::new();
                for t in right {
                    if !seen.contains(t.as_ref()) {
                        fresh.push(t);
                    }
                }
                // Two-phase extend keeps `seen`'s borrows of `rows` legal.
                drop(seen);
                rows.extend(fresh);
                rows
            }
            PhysOp::Difference { left, right } => {
                let mut rows = self.eval(left);
                // `Cow`'s Hash/Eq delegate to the underlying tuple, so
                // borrowed and owned rows compare and hash identically.
                let exclude: HashSet<Cow<'a, Tuple>> = self.eval(right).into_iter().collect();
                rows.retain(|t| !exclude.contains(t));
                rows
            }
            PhysOp::Intersect { left, right } => {
                let mut rows = self.eval(left);
                let keep: HashSet<Cow<'a, Tuple>> = self.eval(right).into_iter().collect();
                rows.retain(|t| keep.contains(t));
                rows
            }
            PhysOp::Divide { left, right } => {
                let dividend = self.eval(left);
                let divisor = self.eval(right);
                hash_divide(&dividend, &divisor, node.arity())
                    .into_iter()
                    .map(Cow::Owned)
                    .collect()
            }
        }
    }

    fn ensure_delta(&mut self) {
        if self.delta.is_none() {
            self.delta = Some(delta_diagonal(self.db));
        }
    }
}

/// The `Δ` diagonal of `db`'s active domain — one `(v, v)` tuple per value.
/// Shared by the plain and pair executors, which both compute it once per
/// execution and serve every `Delta` node from the cache.
pub(crate) fn delta_diagonal(db: &Database) -> Vec<Tuple> {
    db.active_domain()
        .into_iter()
        .map(|v| Tuple::new(vec![v.clone(), v]))
        .collect()
}

/// The shared syntactic hash equi-join: builds a hash table on the smaller
/// side's key columns, probes with the other, and keeps concatenated rows
/// passing `keep` (the residual predicate under the caller's semantics).
/// Under syntactic equality every value — marked nulls included — is an
/// exact hash key, so this one kernel serves naïve evaluation, per-world
/// evaluation, and the certain side of the approximation pair.
pub(crate) fn syntactic_hash_join(
    left: &[&Tuple],
    right: &[&Tuple],
    keys: &[(usize, usize)],
    mut keep: impl FnMut(&Tuple) -> bool,
    stats: &mut OpStats,
) -> Vec<Tuple> {
    let left_cols: Vec<usize> = keys.iter().map(|(l, _)| *l).collect();
    let right_cols: Vec<usize> = keys.iter().map(|(_, r)| *r).collect();
    let build_left = left.len() <= right.len();
    let (build, probe, build_cols, probe_cols) = if build_left {
        (left, right, &left_cols, &right_cols)
    } else {
        (right, left, &right_cols, &left_cols)
    };
    stats.hash_joins += 1;
    stats.build_rows += build.len();
    stats.probe_rows += probe.len();
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(build.len());
    for t in build {
        table.entry(t.key(build_cols)).or_default().push(t);
    }
    let mut out = Vec::new();
    for p in probe {
        if let Some(bucket) = table.get(&p.key(probe_cols)) {
            for b in bucket {
                let row = if build_left { b.concat(p) } else { p.concat(b) };
                if keep(&row) {
                    out.push(row);
                }
            }
        }
    }
    stats.join_rows_out += out.len();
    out
}

/// Hash-lookup relational division: group dividend suffixes by prefix, then
/// check each prefix's suffix set against the divisor with O(1) lookups —
/// no `Relation::contains` tree walks in the inner loop.
fn hash_divide(
    dividend: &[Cow<'_, Tuple>],
    divisor: &[Cow<'_, Tuple>],
    prefix_arity: usize,
) -> Vec<Tuple> {
    let dividend_arity = prefix_arity + divisor.first().map_or(0, |t| t.arity());
    let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
    let suffix_cols: Vec<usize> = (prefix_arity..dividend_arity).collect();
    let mut groups: HashMap<Vec<Value>, HashSet<Vec<Value>>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for t in dividend {
        let prefix = t.key(&prefix_cols);
        let entry = groups.entry(prefix.clone()).or_default();
        if entry.is_empty() {
            order.push(prefix);
        }
        entry.insert(t.key(&suffix_cols));
    }
    let divisor_keys: Vec<Vec<Value>> = divisor.iter().map(|s| s.key(&suffix_keys_of(s))).collect();
    let mut out = Vec::new();
    for prefix in order {
        let suffixes = &groups[&prefix];
        if divisor_keys.iter().all(|s| suffixes.contains(s)) {
            out.push(Tuple::new(prefix));
        }
    }
    out
}

fn suffix_keys_of(s: &Tuple) -> Vec<usize> {
    (0..s.arity()).collect()
}

/// Rows partitioned for valuation-aware probing: rows whose key columns are
/// all constants are hashed exactly; rows with nulls in the key can match
/// values a hash lookup would miss, so they sit in a symbolic remainder the
/// caller pairs up explicitly. `R` is the row type — a plain [`Tuple`] for
/// the approximation pair, a condition-carrying row for c-tables.
pub(crate) struct SplitIndex<'a, R> {
    ground: HashMap<Vec<Value>, Vec<&'a R>>,
    symbolic: Vec<&'a R>,
    all: Vec<&'a R>,
}

impl<'a, R> SplitIndex<'a, R> {
    /// Indexes `rows` by the values of `key_cols` of `tuple_of(row)`.
    pub fn build(
        rows: impl IntoIterator<Item = &'a R>,
        key_cols: &[usize],
        tuple_of: impl Fn(&R) -> &Tuple,
    ) -> Self {
        let mut ground: HashMap<Vec<Value>, Vec<&'a R>> = HashMap::new();
        let mut symbolic = Vec::new();
        let mut all = Vec::new();
        for row in rows {
            let t = tuple_of(row);
            if t.key_is_complete(key_cols) {
                ground.entry(t.key(key_cols)).or_default().push(row);
            } else {
                symbolic.push(row);
            }
            all.push(row);
        }
        SplitIndex {
            ground,
            symbolic,
            all,
        }
    }

    /// Rows that could match a probe tuple: for a ground probe key, the
    /// exact hash bucket plus every symbolic row; for a null-bearing probe
    /// key, every row. The result is a superset of the semantically matching
    /// rows — callers re-check each candidate under their own semantics.
    pub fn candidates(&self, probe: &Tuple, key_cols: &[usize]) -> Vec<&'a R> {
        if probe.key_is_complete(key_cols) {
            let mut out: Vec<&'a R> = self
                .ground
                .get(&probe.key(key_cols))
                .map(|bucket| bucket.to_vec())
                .unwrap_or_default();
            out.extend(self.symbolic.iter().copied());
            out
        } else {
            self.all.to_vec()
        }
    }

    /// How many rows sit outside the hash path.
    pub fn symbolic_len(&self) -> usize {
        self.symbolic.len()
    }
}

/// The full join predicate of a hash join — its equi-key atoms (in
/// concatenated-row coordinates) conjoined with the residual. The
/// valuation-aware executors re-check candidate pairs against this, so the
/// hash path can never change semantics, only skip non-matches.
pub(crate) fn join_predicate(
    keys: &[(usize, usize)],
    left_arity: usize,
    residual: &Option<Predicate>,
) -> Predicate {
    use relalgebra::predicate::Operand;
    let atoms = keys
        .iter()
        .map(|(l, r)| Predicate::eq(Operand::col(*l), Operand::col(left_arity + *r)));
    let keyed = Predicate::conjoin(atoms);
    match residual {
        None => keyed,
        Some(p) => keyed.and(p.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::eval_unchecked;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{DatabaseBuilder, Value};

    fn db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["b"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("R", &[1, 20])
            .tuple("R", vec![Value::int(3), Value::null(0)])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .tuple("S", vec![Value::null(0), Value::int(300)])
            .ints("U", &[10])
            .ints("U", &[20])
            .build()
    }

    fn run(expr: &RaExpr) -> (Relation, OpStats) {
        let d = db();
        let plan = PlannedQuery::new(expr.clone(), d.schema()).unwrap();
        execute_counted(plan.physical(), &d)
    }

    /// Physical execution must agree with the logical tree-walking
    /// interpreter on every operator (syntactic semantics on both sides).
    fn assert_matches_logical(expr: &RaExpr) {
        let d = db();
        let (physical, _) = run(expr);
        let logical = eval_unchecked(expr, &d).into_owned();
        assert_eq!(physical, logical, "physical != logical for {expr}");
    }

    /// Merging shard telemetry must sum **every** field — the worlds
    /// evaluator folds per-shard `OpStats` together, and a field skipped by
    /// `merge` would silently drift. `to_array`/`from_array` destructure
    /// exhaustively, so this test plus the `OP_STATS_FIELDS` bound breaks
    /// at compile time when a counter is added without updating the merge.
    #[test]
    fn op_stats_merge_sums_every_field() {
        // Distinct primes in every slot so a dropped or swapped field is
        // detected no matter which one it is.
        let a = OpStats::from_array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]);
        assert_eq!(a.to_array(), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]);
        let mut merged = OpStats::default();
        merged.merge(&a);
        merged.merge(&a);
        let doubled: Vec<usize> = a.to_array().iter().map(|x| x * 2).collect();
        assert_eq!(
            merged.to_array().to_vec(),
            doubled,
            "merge must double every field"
        );
        // And the batch/run counters land in the summary telemetry.
        let text = merged.summary();
        assert!(text.contains("batches 34"), "summary: {text}");
        assert!(text.contains("ground rows 38"), "summary: {text}");
        assert!(text.contains("symbolic rows 46"), "summary: {text}");
        assert!(text.contains("tables built 58"), "summary: {text}");
        assert!(text.contains("tables reused 62"), "summary: {text}");
        // The array conversions are inverses — a reordered destructuring
        // would survive the doubling check above but not this roundtrip.
        assert_eq!(OpStats::from_array(a.to_array()), a);
        // The same summary (table counters included) reaches the
        // `explain_executed` footer verbatim, `-- `-prefixed per line.
        let d = db();
        let plan = PlannedQuery::new(RaExpr::relation("R"), d.schema()).unwrap();
        let footer = explain_executed(plan.physical(), &merged);
        for line in merged.summary().lines() {
            assert!(
                footer.contains(&format!("-- {line}")),
                "footer must carry every summary line: {footer}"
            );
        }
    }

    #[test]
    fn equi_join_hashes_and_matches_the_interpreter() {
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let (out, stats) = run(&q);
        assert_eq!(stats.hash_joins, 1);
        assert!(stats.build_rows > 0 && stats.probe_rows > 0);
        // The null key ⊥0 matches syntactically: R(3,⊥0) ⋈ S(⊥0,300).
        assert!(out.contains(&Tuple::new(vec![
            Value::int(3),
            Value::null(0),
            Value::null(0),
            Value::int(300)
        ])));
        assert_matches_logical(&q);
    }

    #[test]
    fn residual_predicates_filter_join_output() {
        let q = RaExpr::relation("R").product(RaExpr::relation("S")).select(
            Predicate::eq(Operand::col(1), Operand::col(2))
                .and(Predicate::neq(Operand::col(0), Operand::col(3))),
        );
        assert_matches_logical(&q);
    }

    #[test]
    fn every_operator_matches_the_interpreter() {
        let r = RaExpr::relation("R");
        let cases = vec![
            r.clone(),
            r.clone().project(vec![1]),
            r.clone()
                .select(Predicate::eq(Operand::col(0), Operand::int(1))),
            r.clone().product(RaExpr::relation("U")),
            r.clone().project(vec![0]).union(RaExpr::relation("U")),
            r.clone().project(vec![1]).difference(RaExpr::relation("U")),
            r.clone()
                .project(vec![1])
                .intersection(RaExpr::relation("U")),
            r.clone().divide(RaExpr::relation("U")),
            RaExpr::Delta,
            RaExpr::Delta.union(RaExpr::Delta),
            RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[7])]))
                .union(r.clone().project(vec![0])),
        ];
        for q in cases {
            assert_matches_logical(&q);
        }
    }

    #[test]
    fn hash_divide_handles_the_textbook_cases() {
        let q = RaExpr::relation("R").divide(RaExpr::relation("U"));
        let (out, _) = run(&q);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::ints(&[1])));
        // Empty divisor: every prefix qualifies.
        let mut d = db();
        d.set_relation("U", Relation::new(1)).unwrap();
        let plan = PlannedQuery::new(
            RaExpr::relation("R").divide(RaExpr::relation("U")),
            d.schema(),
        )
        .unwrap();
        let out = execute(plan.physical(), &d);
        assert_eq!(out.len(), 3, "∀ over ∅ holds for all prefixes");
    }

    #[test]
    fn delta_is_computed_once_per_execution() {
        // Two Δ nodes, one execution: the cache serves the second.
        let q = RaExpr::Delta
            .union(RaExpr::Delta.select(Predicate::eq(Operand::col(0), Operand::col(1))));
        let d = db();
        let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
        let mut exec = PlainExec {
            db: &d,
            delta: None,
            stats: OpStats::default(),
        };
        let rows = exec.eval(plan.physical().root());
        assert!(exec.delta.is_some(), "Δ cache must be populated");
        assert_eq!(
            Relation::from_tuples(2, rows.into_iter().map(Cow::into_owned)),
            eval_unchecked(&q, &d).into_owned()
        );
    }

    #[test]
    fn leaf_rows_are_borrowed_not_cloned() {
        // Scans must not copy the database: the zero-copy discipline the
        // logical interpreter's `Cow<Relation>` established, kept per row.
        let d = db();
        let plan = PlannedQuery::new(RaExpr::relation("R"), d.schema()).unwrap();
        let mut exec = PlainExec {
            db: &d,
            delta: None,
            stats: OpStats::default(),
        };
        let rows = exec.eval(plan.physical().root());
        assert!(
            rows.iter().all(|c| matches!(c, Cow::Borrowed(_))),
            "scan rows must be borrowed from the database"
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let (_, stats) = run(&q);
        let mut total = OpStats::default();
        total.merge(&stats);
        total.merge(&stats);
        assert_eq!(total.hash_joins, 2 * stats.hash_joins);
        assert_eq!(total.operators, 2 * stats.operators);
    }

    #[test]
    fn split_index_routes_ground_and_symbolic_rows() {
        let rows = [
            Tuple::ints(&[1, 10]),
            Tuple::ints(&[2, 20]),
            Tuple::new(vec![Value::null(0), Value::int(30)]),
        ];
        let index = SplitIndex::build(rows.iter(), &[0], |t| t);
        assert_eq!(index.symbolic_len(), 1);
        // Ground probe: its bucket plus the symbolic row.
        let candidates = index.candidates(&Tuple::ints(&[1, 99]), &[0]);
        assert_eq!(candidates.len(), 2);
        // Null probe: everything.
        let probe = Tuple::new(vec![Value::null(7), Value::int(0)]);
        assert_eq!(index.candidates(&probe, &[0]).len(), 3);
        // Unmatched ground probe: only the symbolic row.
        assert_eq!(index.candidates(&Tuple::ints(&[9, 9]), &[0]).len(), 1);
    }
}
