//! The morsel-driven columnar executor: batch the ground, isolate the
//! symbolic.
//!
//! This module is the batched counterpart of the row-at-a-time executor in
//! [`super`] (which is kept as the differential-fuzz reference). The same
//! [`PhysicalPlan`] runs under both; the difference is purely physical:
//!
//! * **Columnar batches.** Operators consume and produce
//!   [`ColumnBatch`]es — column vectors of [`Value`] with a
//!   validity/null-id sidecar per column — instead of `Cow<Tuple>` rows. No
//!   per-row `Tuple` (and no per-key `Vec<Value>`) is allocated on the hot
//!   path; predicates and join residuals evaluate in place through
//!   `Predicate::eval_naive_on`.
//! * **Morsels.** Inner loops run over fixed-size row ranges
//!   ([`morsel_rows`] rows at a time, overridable via the `MORSEL_ROWS`
//!   environment variable) so a chunk's columns stay cache-resident;
//!   [`OpStats::batches`] counts the chunks.
//! * **Ground/symbolic runs.** The `SplitIndex` idea of the row core,
//!   lifted to batch granularity: [`ColumnBatch::ground_split`] reads the
//!   sidecars — built **once per relation version**, during the leaf
//!   transpose, and reused by every operator of every execution — and
//!   partitions a batch into a ground run for the tight hash/compare loops
//!   and a symbolic remainder for the per-row fallback. Under this
//!   executor's syntactic equality every row is ground; the
//!   valuation-aware executors in [`approx`] and [`ctable`] are where the
//!   split earns its keep.
//! * **Raw `u64` hashing.** The [`RowTable`] kernel (shared with
//!   `relmodel`) chains row ids under precomputed 64-bit hashes
//!   ([`hash_key`]) — build and probe never allocate, and a probe touches
//!   only `heads`/`next`/`hashes` until a hash matches, when the caller
//!   verifies column-wise equality.
//!
//! Scans transpose each relation **once per relation version**: a scan
//! borrows the batch memoized on the relation itself ([`Relation::batch`]),
//! so every scan of every execution over the same version — and over any
//! database clone that left the relation untouched — shares one `Arc`.
//! Literal relations in a (cached) plan ride the same memo. The Δ diagonal
//! is computed once per execution. Conversion back to the set-semantics
//! [`Relation`] happens once, at the root.
//!
//! **Resident key indexes.** A relation version also memoizes one hash
//! index per column ([`Relation::key_index`], a [`RowTable`] over its
//! batch), and two selective shapes are answered from it instead of
//! reading every row:
//!
//! * **index selection** — `σ[p](Scan R)` where `p` has a top-level
//!   conjunct `#c = constant`: the constant is looked up in R's column-`c`
//!   index, the whole of `p` is re-checked on the candidates, and the
//!   survivors are gathered in row order;
//! * **index nested-loop join** — a hash join with a `Scan R` input whose
//!   other input has at most a quarter of R's rows: each row of the small
//!   side probes R's index on its first key column, every key pair and the
//!   residual are verified, and rows are emitted left-then-right as the
//!   hash join emits them.
//!
//! Both fire only when R holds more rows than one morsel; otherwise, and
//! for every other shape, the per-query hash path runs. The choice reads
//! only sizes the executor observes. Equality stays syntactic (the hash
//! tags keep `⊥n`, `Int` and `Str` apart, and every candidate is
//! verified), so the answers are those of the hash path, nulls included.
//! In [`OpStats`] a resident index counts as `tables_reused`, one built by
//! this execution as `tables_built` plus R's rows in `build_rows`; an
//! index join's lookups count as `probe_rows`.

pub mod approx;
pub mod ctable;
pub mod split;

use std::sync::Arc;

use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relalgebra::predicate::{Operand, Predicate};
use relmodel::batch::{hash_key, hash_values, morsel_ranges, morsel_rows, ColumnBatch, RowTable};
use relmodel::value::Value;
use relmodel::{Database, Relation};

use super::{NodeProfile, OpStats};

/// Executes a physical plan over a database under **syntactic** value
/// equality, on the batched core — the columnar counterpart of
/// [`super::execute`], and the executor the naive/complete strategies and
/// the worlds fold now run.
pub fn execute(plan: &PhysicalPlan, db: &Database) -> Relation {
    execute_counted(plan, db).0
}

/// [`execute`] plus the operator telemetry.
pub fn execute_counted(plan: &PhysicalPlan, db: &Database) -> (Relation, OpStats) {
    execute_counted_with_morsel(plan, db, morsel_rows())
}

/// [`execute_counted`] with an explicit morsel size — the differential
/// tests sweep this to pin chunk-boundary behaviour, and benches use it to
/// isolate the knob.
pub fn execute_counted_with_morsel(
    plan: &PhysicalPlan,
    db: &Database,
    morsel: usize,
) -> (Relation, OpStats) {
    let mut exec = ColumnarExec {
        db,
        delta: None,
        morsel: morsel.max(1),
        stats: OpStats::default(),
        profile: None,
        indexed: false,
    };
    let out = exec.eval(plan.root());
    (out.to_relation(), exec.stats)
}

/// [`execute_counted_with_morsel`] plus a per-node [`NodeProfile`] for every
/// operator in the plan — the measurement pass behind `EXPLAIN ANALYZE`.
///
/// Profiles are **inclusive** (a node's time/batches cover its whole
/// subtree, Postgres-style) and keyed by [`PhysNode::id`]; they are emitted
/// in completion (post) order, so the root is last. Wall-clock lives here
/// and *not* in [`OpStats`], which stays deterministic and `Eq`-comparable
/// across executors.
pub fn execute_profiled_with_morsel(
    plan: &PhysicalPlan,
    db: &Database,
    morsel: usize,
) -> (Relation, OpStats, Vec<NodeProfile>) {
    let mut exec = ColumnarExec {
        db,
        delta: None,
        morsel: morsel.max(1),
        stats: OpStats::default(),
        profile: Some(Vec::with_capacity(plan.operator_count())),
        indexed: false,
    };
    let out = exec.eval(plan.root());
    let profiles = exec.profile.take().expect("profiling was requested");
    (out.to_relation(), exec.stats, profiles)
}

/// [`execute`] with a caller-provided stats accumulator — the worlds
/// strategy threads one accumulator through its whole per-world loop.
pub fn execute_into(plan: &PhysicalPlan, db: &Database, stats: &mut OpStats) -> Relation {
    let (answers, run) = execute_counted(plan, db);
    stats.merge(&run);
    answers
}

struct ColumnarExec<'a> {
    db: &'a Database,
    delta: Option<Arc<ColumnBatch>>,
    morsel: usize,
    stats: OpStats,
    /// When `Some`, every `eval` appends an inclusive [`NodeProfile`] for
    /// the node it just finished. `None` costs one branch per operator —
    /// nothing on the per-row path.
    profile: Option<Vec<NodeProfile>>,
    /// Set by an operator answered from a resident key index, and taken by
    /// `eval` for that node's profile.
    indexed: bool,
}

impl<'a> ColumnarExec<'a> {
    /// Evaluates a node to a duplicate-free batch, recording an inclusive
    /// per-node profile when profiling is on.
    fn eval(&mut self, node: &'a PhysNode) -> Arc<ColumnBatch> {
        if self.profile.is_none() {
            return self.eval_op(node);
        }
        let batches_before = self.stats.batches;
        let built_before = self.stats.tables_built;
        let reused_before = self.stats.tables_reused;
        let started = std::time::Instant::now();
        let out = self.eval_op(node);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stats = &self.stats;
        let sample = NodeProfile {
            id: node.id(),
            rows: out.len(),
            batches: stats.batches - batches_before,
            tables_built: stats.tables_built - built_before,
            tables_reused: stats.tables_reused - reused_before,
            indexed: std::mem::take(&mut self.indexed),
            nanos,
        };
        self.profile.as_mut().expect("checked above").push(sample);
        out
    }

    /// The operator dispatch proper (leaves are sets; every operator
    /// preserves the duplicate-free invariant, deduplicating where it must).
    fn eval_op(&mut self, node: &'a PhysNode) -> Arc<ColumnBatch> {
        self.stats.operators += 1;
        match node.op() {
            PhysOp::Scan(name) => Arc::clone(scan(self.db, name)),
            PhysOp::Values(rel) => Arc::clone(rel.batch()),
            PhysOp::Delta => {
                if self.delta.is_none() {
                    let rows = super::delta_diagonal(self.db);
                    self.delta = Some(Arc::new(ColumnBatch::from_rows(2, rows.iter())));
                }
                Arc::clone(self.delta.as_ref().expect("just initialised"))
            }
            PhysOp::Filter {
                input: child,
                predicate,
            } => {
                let input = self.eval(child);
                let keep_row = |row: usize| predicate.eval_naive_on(&|i| input.value(i, row));
                let keep = match self.indexable(child).zip(constant_key(predicate)) {
                    Some((rel, (col, key))) => {
                        let index = self.index(rel, col);
                        let mut rows: Vec<u32> = index
                            .probe(hash_values([&key]))
                            .filter(|&row| keep_row(row as usize))
                            .collect();
                        rows.sort_unstable();
                        rows
                    }
                    None => select_rows(&input, self.morsel, &mut self.stats, keep_row),
                };
                if keep.len() == input.len() {
                    input
                } else {
                    Arc::new(input.gather(&keep))
                }
            }
            PhysOp::Project { input, columns } => {
                let input = self.eval(input);
                Arc::new(project_dedup(&input, columns, self.morsel, &mut self.stats))
            }
            PhysOp::NestedProduct { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                Arc::new(product(&l, &r, self.morsel, &mut self.stats))
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let la = left.arity();
                let l = self.eval(left);
                let r = self.eval(right);
                let keep = |li: usize, ri: usize| {
                    residual.as_ref().is_none_or(|p| {
                        p.eval_naive_on(&|i| {
                            if i < la {
                                l.value(i, li)
                            } else {
                                r.value(i - la, ri)
                            }
                        })
                    })
                };
                // Index nested-loop join: a scanned side at least four
                // times the other's size serves the probes from its index.
                let indexed = [(right, &l, false), (left, &r, true)].into_iter().find_map(
                    |(scanned, other, indexed_left)| {
                        self.indexable(scanned)
                            .filter(|rel| other.len().saturating_mul(4) <= rel.len())
                            .map(|rel| (rel, indexed_left))
                    },
                );
                let out = match indexed {
                    Some((rel, indexed_left)) => {
                        let (lc, rc) = keys[0];
                        let index = self.index(rel, if indexed_left { lc } else { rc });
                        probe_join(
                            &l,
                            &r,
                            keys,
                            index,
                            indexed_left,
                            1,
                            keep,
                            self.morsel,
                            &mut self.stats,
                        )
                    }
                    None => syntactic_join(&l, &r, keys, keep, self.morsel, &mut self.stats),
                };
                Arc::new(out)
            }
            PhysOp::Union { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                Arc::new(union_batches(&l, &r, self.morsel, &mut self.stats))
            }
            PhysOp::Difference { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let keep = membership_keep(&l, &r, false, self.morsel, &mut self.stats);
                Arc::new(l.gather(&keep))
            }
            PhysOp::Intersect { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let keep = membership_keep(&l, &r, true, self.morsel, &mut self.stats);
                Arc::new(l.gather(&keep))
            }
            PhysOp::Divide { left, right } => {
                let dividend = self.eval(left);
                let divisor = self.eval(right);
                Arc::new(divide_syntactic(
                    &dividend,
                    &divisor,
                    node.arity(),
                    self.morsel,
                    &mut self.stats,
                ))
            }
        }
    }

    /// The base relation `node` scans, when it holds more rows than one
    /// morsel — the size above which a resident index beats a pass over it.
    fn indexable(&self, node: &PhysNode) -> Option<&'a Relation> {
        match node.op() {
            PhysOp::Scan(name) => self.db.relation(name).filter(|r| r.len() > self.morsel),
            _ => None,
        }
    }

    /// `rel`'s index on `col`, booked as reused when resident and as built
    /// (with `rel.len()` build rows) when this call builds it. Marks the
    /// node being evaluated as index-served.
    fn index(&mut self, rel: &'a Relation, col: usize) -> &'a RowTable {
        if rel.resident_key_index(col).is_some() {
            self.stats.tables_reused += 1;
        } else {
            self.stats.tables_built += 1;
            self.stats.build_rows += rel.len();
        }
        self.indexed = true;
        rel.key_index(col)
    }
}

/// The first top-level conjunct of `p` of the form `#c = constant` (either
/// operand order), as the column and the constant's value.
fn constant_key(p: &Predicate) -> Option<(usize, Value)> {
    match p {
        Predicate::Eq(Operand::Column(c), Operand::Const(k))
        | Predicate::Eq(Operand::Const(k), Operand::Column(c)) => {
            Some((*c, Value::Const(k.clone())))
        }
        Predicate::And(a, b) => constant_key(a).or_else(|| constant_key(b)),
        _ => None,
    }
}

/// The resident batch of a scanned base relation — transposed at most once
/// per relation version, whichever executor asks first.
pub(crate) fn scan<'d>(db: &'d Database, name: &str) -> &'d Arc<ColumnBatch> {
    db.relation(name)
        .expect("physical plans are lowered from typechecked queries")
        .batch()
}

// ---------------------------------------------------------------------------
// Shared columnar operator kernels (plain executor + the certain sides of
// the pair executor).
// ---------------------------------------------------------------------------

/// Morsel-chunked selection: the kept row ids, in order.
pub(crate) fn select_rows(
    batch: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
    keep: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    for range in morsel_ranges(batch.len(), morsel) {
        stats.batches += 1;
        for row in range {
            if keep(row) {
                out.push(row as u32);
            }
        }
    }
    out
}

/// Morsel-chunked duplicate-eliminating projection: gathers `cols` of each
/// row, keeping the first occurrence of every projected row (hash dedup in
/// the same pass — no intermediate batch).
pub(crate) fn project_dedup(
    input: &ColumnBatch,
    cols: &[usize],
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let out_cols: Vec<usize> = (0..cols.len()).collect();
    let mut out = ColumnBatch::with_capacity(cols.len(), input.len());
    stats.tables_built += 1;
    let mut table = RowTable::with_capacity(input.len());
    for range in morsel_ranges(input.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(input, cols, row);
            let dup = table
                .probe(h)
                .any(|o| out.keys_equal(o as usize, &out_cols, input, row, cols));
            if !dup {
                table.insert(h, out.len() as u32);
                out.push_gather(input, row, cols);
            }
        }
    }
    out
}

/// Morsel-chunked nested-loop product.
pub(crate) fn product(
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let mut out =
        ColumnBatch::with_capacity(l.arity() + r.arity(), l.len().saturating_mul(r.len()));
    for range in morsel_ranges(l.len(), morsel) {
        stats.batches += 1;
        for li in range {
            for ri in 0..r.len() {
                out.push_concat(l, li, r, ri);
            }
        }
    }
    out
}

/// The columnar syntactic hash equi-join: builds a [`RowTable`] on the
/// smaller side's key columns, probes with the other in morsel chunks, and
/// keeps concatenated rows passing `keep` (called with the *left* and
/// *right* row ids; the output is always left-then-right). Serves both the
/// plain executor and — with a marked-3VL residual check — the certain side
/// of the pair executor, exactly like the row kernel it replaces.
pub(crate) fn syntactic_join(
    l: &ColumnBatch,
    r: &ColumnBatch,
    keys: &[(usize, usize)],
    keep: impl Fn(usize, usize) -> bool,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let build_left = l.len() <= r.len();
    let (build, build_cols): (_, Vec<usize>) = if build_left {
        (l, keys.iter().map(|(lc, _)| *lc).collect())
    } else {
        (r, keys.iter().map(|(_, rc)| *rc).collect())
    };
    stats.build_rows += build.len();
    stats.tables_built += 1;
    let table = RowTable::build(build, &build_cols);
    probe_join(
        l,
        r,
        keys,
        &table,
        build_left,
        keys.len(),
        keep,
        morsel,
        stats,
    )
}

/// The probe half of an equi-join: every row of the side `table` was *not*
/// built over probes it in morsel chunks, hashing its first `hashed` key
/// columns (the columns the table is keyed on), and each candidate is
/// verified on **all** key pairs before `keep` sees it. `table_left` says
/// which side the table's row ids index. Output is left-then-right. Serves
/// the per-query hash join (table keyed on every key column) and the index
/// nested-loop join (a resident index on the first key column).
#[allow(clippy::too_many_arguments)]
fn probe_join(
    l: &ColumnBatch,
    r: &ColumnBatch,
    keys: &[(usize, usize)],
    table: &RowTable,
    table_left: bool,
    hashed: usize,
    keep: impl Fn(usize, usize) -> bool,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let left_cols: Vec<usize> = keys.iter().map(|(lc, _)| *lc).collect();
    let right_cols: Vec<usize> = keys.iter().map(|(_, rc)| *rc).collect();
    let (build, probe, build_cols, probe_cols) = if table_left {
        (l, r, &left_cols, &right_cols)
    } else {
        (r, l, &right_cols, &left_cols)
    };
    stats.hash_joins += 1;
    stats.probe_rows += probe.len();
    // Syntactic equality: every probed row takes the ground path.
    stats.ground_rows += probe.len();
    let mut out = ColumnBatch::with_capacity(l.arity() + r.arity(), probe.len());
    for range in morsel_ranges(probe.len(), morsel) {
        stats.batches += 1;
        for prow in range {
            let h = hash_key(probe, &probe_cols[..hashed], prow);
            for brow in table.probe(h) {
                let brow = brow as usize;
                if !build.keys_equal(brow, build_cols, probe, prow, probe_cols) {
                    continue;
                }
                let (li, ri) = if table_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                if keep(li, ri) {
                    out.push_concat(l, li, r, ri);
                }
            }
        }
    }
    stats.join_rows_out += out.len();
    out
}

/// Columnar set union: all of `l`, plus the rows of `r` with no syntactic
/// duplicate in `l` (both inputs duplicate-free by the operator invariant).
pub(crate) fn union_batches(
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    if r.is_empty() {
        return l.clone();
    }
    if l.is_empty() {
        return r.clone();
    }
    let all_cols: Vec<usize> = (0..l.arity()).collect();
    stats.tables_built += 1;
    let table = RowTable::build(l, &all_cols);
    stats.ground_rows += r.len();
    let mut out = l.clone();
    for range in morsel_ranges(r.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(r, &all_cols, row);
            let dup = table.probe(h).any(|lr| l.rows_equal(lr as usize, r, row));
            if !dup {
                out.push_gather(r, row, &all_cols);
            }
        }
    }
    out
}

/// Full-row syntactic membership of `l`'s rows in `r`: the kept row ids —
/// members for intersection (`keep_member`), non-members for difference.
pub(crate) fn membership_keep(
    l: &ColumnBatch,
    r: &ColumnBatch,
    keep_member: bool,
    morsel: usize,
    stats: &mut OpStats,
) -> Vec<u32> {
    let all_cols: Vec<usize> = (0..l.arity()).collect();
    stats.tables_built += 1;
    let table = RowTable::build(r, &all_cols);
    stats.ground_rows += l.len();
    let mut out = Vec::new();
    for range in morsel_ranges(l.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(l, &all_cols, row);
            let member = table.probe(h).any(|rr| r.rows_equal(rr as usize, l, row));
            if member == keep_member {
                out.push(row as u32);
            }
        }
    }
    out
}

/// Hash-lookup relational division on batches: distinct dividend prefixes,
/// each checked against every divisor row via a full-row membership table —
/// the incremental hash of `prefix ++ suffix` never materializes the
/// combined row.
pub(crate) fn divide_syntactic(
    dividend: &ColumnBatch,
    divisor: &ColumnBatch,
    prefix_arity: usize,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
    let all_cols: Vec<usize> = (0..dividend.arity()).collect();
    stats.ground_rows += dividend.len();
    // Distinct prefixes, in first-occurrence order.
    let mut reps: Vec<u32> = Vec::new();
    stats.tables_built += 1;
    let mut prefixes = RowTable::with_capacity(dividend.len());
    for range in morsel_ranges(dividend.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(dividend, &prefix_cols, row);
            let dup = prefixes.probe(h).any(|p| {
                dividend.keys_equal(p as usize, &prefix_cols, dividend, row, &prefix_cols)
            });
            if !dup {
                prefixes.insert(h, row as u32);
                reps.push(row as u32);
            }
        }
    }
    stats.tables_built += 1;
    let full = RowTable::build(dividend, &all_cols);
    let mut out = ColumnBatch::with_capacity(prefix_arity, reps.len());
    for &rep in &reps {
        let rep = rep as usize;
        let qualifies = (0..divisor.len()).all(|srow| {
            let h = hash_values(
                prefix_cols
                    .iter()
                    .map(|&c| dividend.value(c, rep))
                    .chain((0..divisor.arity()).map(|c| divisor.value(c, srow))),
            );
            full.probe(h).any(|d| {
                let d = d as usize;
                dividend.keys_equal(d, &prefix_cols, dividend, rep, &prefix_cols)
                    && (0..divisor.arity())
                        .all(|c| dividend.value(prefix_arity + c, d) == divisor.value(c, srow))
            })
        });
        if qualifies {
            out.push_gather(dividend, rep, &prefix_cols);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{DatabaseBuilder, Tuple, Value};

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

    fn cases() -> Vec<RaExpr> {
        let r = RaExpr::relation("R");
        let join = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        vec![
            r.clone(),
            r.clone().project(vec![1]),
            r.clone()
                .select(Predicate::eq(Operand::col(0), Operand::int(1))),
            r.clone().product(RaExpr::relation("U")),
            join.clone(),
            join.clone().project(vec![0, 3]),
            RaExpr::relation("R").product(RaExpr::relation("S")).select(
                Predicate::eq(Operand::col(1), Operand::col(2))
                    .and(Predicate::neq(Operand::col(0), Operand::col(3))),
            ),
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
        ]
    }

    /// The batched executor must agree with the row-at-a-time reference on
    /// every operator, at every morsel size (chunk boundaries included).
    #[test]
    fn columnar_matches_row_reference_across_morsel_sizes() {
        let d = db();
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
            let reference = super::super::execute(plan.physical(), &d);
            for morsel in [1, 2, 3, 1024] {
                let (batched, _) = execute_counted_with_morsel(plan.physical(), &d, morsel);
                assert_eq!(
                    batched, reference,
                    "columnar != row for {q} (morsel {morsel})"
                );
            }
        }
    }

    #[test]
    fn scans_borrow_the_resident_batch_across_executions() {
        // R is scanned twice per execution; the first execution transposes
        // each scanned relation once, and later ones transpose nothing.
        let d = db();
        let q = RaExpr::relation("R")
            .union(RaExpr::relation("R"))
            .product(RaExpr::relation("U"));
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        assert!(d.relation("R").unwrap().resident_batch().is_none());
        let first = execute(plan.physical(), &d);
        let resident: Vec<Arc<ColumnBatch>> = ["R", "U"]
            .iter()
            .map(|n| Arc::clone(d.relation(n).unwrap().resident_batch().expect("scanned")))
            .collect();
        assert!(
            d.relation("S").unwrap().resident_batch().is_none(),
            "an unscanned relation is never transposed"
        );
        let second = execute(plan.physical(), &d);
        assert_eq!(first, second);
        // The pair executor scans through the same memo.
        approx::execute_approx(plan.physical(), &d);
        for (n, batch) in ["R", "U"].iter().zip(&resident) {
            let memo = d.relation(n).unwrap().resident_batch().expect("kept");
            assert!(Arc::ptr_eq(memo, batch), "{n} was transposed again");
            assert_eq!(
                Arc::strong_count(batch),
                2,
                "only the memo and this test hold {n}'s batch"
            );
        }
    }

    #[test]
    fn an_execution_after_a_mutation_sees_the_new_version() {
        let mut d = db();
        let plan = PlannedQuery::new(RaExpr::relation("U"), d.schema()).unwrap();
        let before = execute(plan.physical(), &d);
        let pinned = d.clone();
        d.insert("U", Tuple::ints(&[99])).unwrap();
        let after = execute(plan.physical(), &d);
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.contains(&Tuple::ints(&[99])));
        d.relation_mut("U").unwrap().remove(&Tuple::ints(&[99]));
        assert_eq!(execute(plan.physical(), &d), before);
        assert_eq!(
            execute(plan.physical(), &pinned),
            before,
            "the clone taken before the insert still answers its own version"
        );
    }

    /// `R(i, i)` and `S(i, 2i)` for `i < n`.
    fn keyed_db(n: i64) -> Database {
        let mut b = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"]);
        for i in 0..n {
            b = b.ints("R", &[i, i]).ints("S", &[i, 2 * i]);
        }
        b.build()
    }

    fn key_lookup(k: i64) -> RaExpr {
        RaExpr::relation("R").product(RaExpr::relation("S")).select(
            Predicate::eq(Operand::col(0), Operand::int(k))
                .and(Predicate::eq(Operand::col(1), Operand::col(2))),
        )
    }

    #[test]
    fn key_lookups_probe_resident_indexes_across_executions() {
        let d = keyed_db(40);
        let plan = PlannedQuery::new(key_lookup(7), d.schema()).unwrap();
        let (first, cold) = execute_counted_with_morsel(plan.physical(), &d, 8);
        assert_eq!(
            first,
            Relation::from_tuples(4, vec![Tuple::ints(&[7, 7, 7, 14])])
        );
        assert_eq!(cold.tables_built, 2, "R's index on #0 and S's on #0");
        assert_eq!(cold.build_rows, 80);
        assert_eq!(cold.tables_reused, 0);
        let resident: Vec<Arc<RowTable>> = ["R", "S"]
            .iter()
            .map(|n| Arc::clone(d.relation(n).unwrap().resident_key_index(0).expect("built")))
            .collect();

        let (second, warm) = execute_counted_with_morsel(plan.physical(), &d, 8);
        assert_eq!(second, first);
        assert_eq!(warm.tables_built, 0, "a warm key lookup builds no table");
        assert_eq!(warm.build_rows, 0);
        assert_eq!(warm.tables_reused, 2, "the filter and the join");
        assert_eq!(warm.probe_rows, 1, "one lookup per row of the small side");
        assert_eq!(warm.hash_joins, 1);
        assert_eq!(warm.join_rows_out, 1);
        for (n, index) in ["R", "S"].iter().zip(&resident) {
            let memo = d.relation(n).unwrap().resident_key_index(0).expect("kept");
            assert!(Arc::ptr_eq(memo, index), "{n}'s index was rebuilt");
        }

        // The hash path (every relation within one morsel) agrees, and
        // reads every row instead.
        let (hashed, scan) = execute_counted_with_morsel(plan.physical(), &d, 40);
        assert_eq!(hashed, first);
        assert_eq!(scan.tables_reused, 0);
        assert_eq!(scan.probe_rows, 40);
        // A missing key and a constant of another type find nothing.
        for k in [RaExpr::relation("R").select(Predicate::eq(Operand::str("7"), Operand::col(0)))]
            .into_iter()
            .chain([key_lookup(99)])
        {
            let plan = PlannedQuery::new(k, d.schema()).unwrap();
            assert!(execute_counted_with_morsel(plan.physical(), &d, 8)
                .0
                .is_empty());
        }
    }

    #[test]
    fn index_join_takes_the_scanned_side_at_four_times_the_other() {
        let d = keyed_db(40);
        // σ[#3 = 14] puts the selective side on the right: R's index on its
        // key column #1 serves the probes.
        let q = RaExpr::relation("R").product(RaExpr::relation("S")).select(
            Predicate::eq(Operand::col(1), Operand::col(2))
                .and(Predicate::eq(Operand::col(3), Operand::int(14))),
        );
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let (out, _) = execute_counted_with_morsel(plan.physical(), &d, 8);
        assert_eq!(out, super::super::execute(plan.physical(), &d));
        assert!(d.relation("R").unwrap().resident_key_index(1).is_some());
        // Equal sizes: neither side is four times the other, so the
        // unfiltered join hashes.
        let join = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = PlannedQuery::new(join, d.schema()).unwrap();
        let (out, stats) = execute_counted_with_morsel(plan.physical(), &d, 8);
        assert_eq!(out.len(), 40);
        assert_eq!((stats.tables_built, stats.tables_reused), (1, 0));
        assert_eq!(stats.probe_rows, 40);
    }

    #[test]
    fn telemetry_counts_batches_and_runs() {
        let d = db();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let (_, stats) = execute_counted_with_morsel(plan.physical(), &d, 2);
        assert!(stats.batches >= 2, "4 probe rows at morsel 2 → ≥2 chunks");
        assert_eq!(stats.hash_joins, 1);
        assert_eq!(
            stats.ground_rows, stats.probe_rows,
            "plain execution routes every probed row through the ground run"
        );
        assert_eq!(stats.symbolic_rows, 0);
    }
}
