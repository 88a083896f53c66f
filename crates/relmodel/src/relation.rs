//! Relations: finite sets of tuples of a fixed arity.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::batch::{ColumnBatch, RowTable};
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{Constant, NullId, Value};

/// A relation instance: a set of tuples, all of the same arity.
///
/// Set semantics is used throughout (the paper works with sets); tuples are
/// stored in a `BTreeSet` to get deterministic iteration order.
///
/// A relation is a cheap, shareable *version*:
///
/// * the tuple set sits behind an `Arc` and is copied on write — cloning a
///   relation (an answer, say) is `O(1)`, a [`crate::Database`] clone is
///   `O(relations)`, and only the first mutation of a shared clone pays for
///   the copy;
/// * its columnar transpose is memoized ([`Relation::batch`]) — built on
///   first use, carried by clones, dropped by every mutation — so each
///   version is transposed at most once however many queries scan it;
/// * so is a hash index per column ([`Relation::key_index`]): a
///   [`RowTable`] over the batch's row ids, built from the batch on first
///   use and kept, carried and dropped exactly like it. The columnar
///   executor answers `σ[#c = constant]` and joins whose other side has at
///   most a quarter of the relation's rows by probing it, once the
///   relation holds more than one morsel of rows.
///
/// Equality, ordering, `Debug` and serde look at the arity and the tuples
/// only; whether the memos are filled is invisible to them.
#[derive(Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Relation {
    arity: usize,
    tuples: Arc<BTreeSet<Tuple>>,
    #[cfg_attr(feature = "serde", serde(skip))]
    batch: OnceLock<Arc<ColumnBatch>>,
    /// One slot per column, allocated on the first index request.
    #[cfg_attr(feature = "serde", serde(skip))]
    indexes: OnceLock<Box<[OnceLock<Arc<RowTable>>]>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    fn cmp(&self, other: &Self) -> Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.tuples.cmp(&other.tuples))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("arity", &self.arity)
            .field("tuples", &*self.tuples)
            .finish()
    }
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation::from_set(arity, BTreeSet::new())
    }

    fn from_set(arity: usize, tuples: BTreeSet<Tuple>) -> Self {
        Relation {
            arity,
            tuples: Arc::new(tuples),
            batch: OnceLock::new(),
            indexes: OnceLock::new(),
        }
    }

    /// Creates a relation from tuples; panics (in debug and test builds) if
    /// the tuples do not all have the stated arity — a programming error in
    /// literals.
    ///
    /// This is the bulk-construction hot path of the physical operators
    /// (every projection, product and join output lands here), so the
    /// per-tuple arity check is a `debug_assert!`: exhaustive in debug and
    /// test builds, reduced in release builds to a single check of the
    /// **first input tuple**. A mixed-arity iterator whose first element
    /// happens to match can therefore slip through in release — callers are
    /// the evaluators, whose output arities the type checker already
    /// proved, and the debug/test suites run the exhaustive check.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        // Collecting through `FromIterator` lets the standard library take its
        // sort-and-bulk-build path for `BTreeSet`, which is markedly faster
        // than tuple-at-a-time insertion for large intermediate results.
        let mut first_checked = false;
        let tuples: BTreeSet<Tuple> = tuples
            .into_iter()
            .inspect(|t| {
                debug_assert_eq!(
                    t.arity(),
                    arity,
                    "tuple {t} has arity {}, relation expects {arity}",
                    t.arity()
                );
                if !first_checked {
                    first_checked = true;
                    assert_eq!(
                        t.arity(),
                        arity,
                        "tuple {t} has arity {}, relation expects {arity}",
                        t.arity()
                    );
                }
            })
            .collect();
        Relation::from_set(arity, tuples)
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple. Returns `true` if it was not already present.
    /// Panics on arity mismatch (checked insertion happens at database level).
    /// A no-op insert neither copies a shared tuple set nor drops the
    /// memoized batch and indexes.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "arity mismatch inserting {tuple}"
        );
        if self.tuples.contains(&tuple) {
            return false;
        }
        self.tuples_mut().insert(tuple)
    }

    /// Removes a tuple; returns whether it was present. A no-op remove
    /// neither copies a shared tuple set nor drops the memoized batch and
    /// indexes.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple) && self.tuples_mut().remove(tuple)
    }

    /// The write path: unshares the tuple set (copy on write) and drops the
    /// memoized batch and indexes, which no longer describe this version.
    fn tuples_mut(&mut self) -> &mut BTreeSet<Tuple> {
        self.batch = OnceLock::new();
        self.indexes = OnceLock::new();
        Arc::make_mut(&mut self.tuples)
    }

    /// The relation transposed into a [`ColumnBatch`], built on first call
    /// and memoized: every later call — from any thread, and on any clone
    /// made after the first call — returns the same `Arc`. Columnar
    /// executors scan base relations through this, so a relation version is
    /// transposed once, not once per query.
    pub fn batch(&self) -> &Arc<ColumnBatch> {
        self.batch
            .get_or_init(|| Arc::new(ColumnBatch::from_relation(self)))
    }

    /// The memoized batch, if [`Relation::batch`] already built it — a peek
    /// that never transposes.
    pub fn resident_batch(&self) -> Option<&Arc<ColumnBatch>> {
        self.batch.get()
    }

    /// A hash index on column `col`: a [`RowTable`] chaining the row ids of
    /// [`Relation::batch`] under the hash of their value at `col`
    /// ([`crate::batch::hash_key`] with the key `[col]`). Built from the
    /// batch on first call and memoized per (version, column) like the
    /// batch itself: later calls, from any thread and on clones made after
    /// the first call, return the same `Arc`, and every mutation drops it.
    /// Probing yields candidates only — callers verify equality on the
    /// batch, so hash collisions cost comparisons, never answers.
    ///
    /// Panics if `col` is not a column of the relation.
    pub fn key_index(&self, col: usize) -> &Arc<RowTable> {
        assert!(
            col < self.arity,
            "no column {col} in a {}-ary relation",
            self.arity
        );
        let slots = self
            .indexes
            .get_or_init(|| (0..self.arity).map(|_| OnceLock::new()).collect());
        slots[col].get_or_init(|| Arc::new(RowTable::build(self.batch(), &[col])))
    }

    /// The memoized index on `col`, if [`Relation::key_index`] already built
    /// it — a peek that never builds.
    pub fn resident_key_index(&self, col: usize) -> Option<&Arc<RowTable>> {
        self.indexes.get()?.get(col)?.get()
    }

    /// Does the relation contain this tuple?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterates over the tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The underlying tuple set.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.tuples
    }

    /// Does the relation contain no nulls?
    pub fn is_complete(&self) -> bool {
        self.tuples.iter().all(Tuple::is_complete)
    }

    /// Set of nulls occurring in the relation.
    pub fn null_ids(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(|t| t.null_ids()).collect()
    }

    /// Set of constants occurring in the relation.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.tuples.iter().flat_map(|t| t.constants()).collect()
    }

    /// The *complete part*: the sub-relation of tuples without nulls.
    ///
    /// This is the `D_cmpl` operation of the paper — taking the complete part
    /// of a naïvely evaluated answer yields the classical certain answers for
    /// queries where naïve evaluation works.
    ///
    /// On a null-free relation this is a shared clone (`O(1)` beyond the
    /// completeness check), memoized batch included.
    pub fn complete_part(&self) -> Relation {
        if self.is_complete() {
            return self.clone();
        }
        Relation::from_set(
            self.arity,
            self.tuples
                .iter()
                .filter(|t| t.is_complete())
                .cloned()
                .collect(),
        )
    }

    /// Applies a valuation to every tuple. Note that distinct tuples may be
    /// merged (set semantics).
    pub fn apply(&self, v: &Valuation) -> Relation {
        Relation::from_set(self.arity, self.tuples.iter().map(|t| t.apply(v)).collect())
    }

    /// Applies an arbitrary value-level mapping to nulls (e.g. a homomorphism).
    pub fn map_nulls(&self, f: &mut impl FnMut(NullId) -> Value) -> Relation {
        Relation::from_set(
            self.arity,
            self.tuples.iter().map(|t| t.map_nulls(f)).collect(),
        )
    }

    /// Set union with another relation of the same arity.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "union of relations with different arities"
        );
        Relation::from_set(
            self.arity,
            self.tuples.union(&other.tuples).cloned().collect(),
        )
    }

    /// Set difference with another relation of the same arity.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "difference of relations with different arities"
        );
        Relation::from_set(
            self.arity,
            self.tuples.difference(&other.tuples).cloned().collect(),
        )
    }

    /// Set intersection with another relation of the same arity.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "intersection of relations with different arities"
        );
        Relation::from_set(
            self.arity,
            self.tuples.intersection(&other.tuples).cloned().collect(),
        )
    }

    /// Is this relation a subset of the other?
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.tuples.is_subset(&other.tuples)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Builds a relation from tuples, inferring the arity from the first
    /// tuple; an empty iterator yields an empty 0-ary relation.
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let tuples: Vec<Tuple> = iter.into_iter().collect();
        let arity = tuples.first().map_or(0, Tuple::arity);
        Relation::from_tuples(arity, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Constant;

    fn r_paper() -> Relation {
        // R = {(1,⊥), (⊥,2)} — the tableau example of §4 of the paper.
        Relation::from_tuples(
            2,
            vec![
                Tuple::new(vec![Value::int(1), Value::null(0)]),
                Tuple::new(vec![Value::null(0), Value::int(2)]),
            ],
        )
    }

    #[test]
    fn basics() {
        let r = r_paper();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(!r.is_complete());
        assert_eq!(r.null_ids().len(), 1);
        assert_eq!(r.constants().len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_insert() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1]));
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new(1);
        assert!(r.insert(Tuple::ints(&[1])));
        assert!(
            !r.insert(Tuple::ints(&[1])),
            "set semantics: duplicate insert is a no-op"
        );
        assert!(r.contains(&Tuple::ints(&[1])));
        assert!(r.remove(&Tuple::ints(&[1])));
        assert!(!r.remove(&Tuple::ints(&[1])));
        assert!(r.is_empty());
    }

    #[test]
    fn complete_part_keeps_null_free_tuples() {
        let r = Relation::from_tuples(
            2,
            vec![
                Tuple::ints(&[1, 2]),
                Tuple::new(vec![Value::int(2), Value::null(0)]),
            ],
        );
        let c = r.complete_part();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&Tuple::ints(&[1, 2])));
    }

    #[test]
    fn apply_valuation_can_merge_tuples() {
        // {(⊥0), (⊥1)} under ⊥0,⊥1 ↦ 5 collapses to {(5)}
        let r = Relation::from_tuples(
            1,
            vec![
                Tuple::new(vec![Value::null(0)]),
                Tuple::new(vec![Value::null(1)]),
            ],
        );
        let v = Valuation::from_pairs(vec![
            (NullId(0), Constant::Int(5)),
            (NullId(1), Constant::Int(5)),
        ]);
        let applied = r.apply(&v);
        assert_eq!(applied.len(), 1);
        assert!(applied.is_complete());
    }

    #[test]
    fn set_operations() {
        let a = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        let b = Relation::from_tuples(1, vec![Tuple::ints(&[2]), Tuple::ints(&[3])]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b).len(), 1);
        assert_eq!(a.intersection(&b).len(), 1);
        assert!(a.intersection(&b).contains(&Tuple::ints(&[2])));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![Tuple::ints(&[1, 2])].into_iter().collect();
        assert_eq!(r.arity(), 2);
        let empty: Relation = Vec::<Tuple>::new().into_iter().collect();
        assert_eq!(empty.arity(), 0);
    }

    #[test]
    fn batch_is_memoized_per_version() {
        let r = r_paper();
        assert!(
            r.resident_batch().is_none(),
            "nothing is transposed eagerly"
        );
        let first = Arc::clone(r.batch());
        assert!(Arc::ptr_eq(&first, r.batch()), "the second call reuses it");
        assert_eq!(first.to_relation(), r);
        let copy = r.clone();
        assert!(
            Arc::ptr_eq(copy.resident_batch().expect("clones carry it"), &first),
            "a clone shares the memo"
        );
    }

    #[test]
    fn mutation_drops_the_memo_and_the_next_batch_sees_it() {
        let mut r = Relation::from_tuples(1, vec![Tuple::ints(&[1])]);
        let before = Arc::clone(r.batch());
        assert!(!r.insert(Tuple::ints(&[1])), "no-op insert");
        assert!(
            Arc::ptr_eq(r.resident_batch().expect("kept"), &before),
            "a no-op insert keeps the memo"
        );
        assert!(r.insert(Tuple::ints(&[2])));
        assert!(r.resident_batch().is_none(), "insert drops the memo");
        assert_eq!(r.batch().len(), 2, "the next transpose sees the insert");
        assert!(!r.remove(&Tuple::ints(&[9])));
        assert!(
            r.resident_batch().is_some(),
            "a no-op remove keeps the memo"
        );
        assert!(r.remove(&Tuple::ints(&[1])));
        assert!(r.resident_batch().is_none(), "remove drops the memo");
        assert_eq!(
            r.batch().to_relation(),
            Relation::from_tuples(1, vec![Tuple::ints(&[2])])
        );
    }

    #[test]
    fn clone_then_mutate_leaves_the_original_untouched() {
        let original = r_paper();
        let batch = Arc::clone(original.batch());
        let mut copy = original.clone();
        assert!(
            std::ptr::eq(copy.tuples(), original.tuples()),
            "a clone shares the tuple set"
        );
        copy.insert(Tuple::ints(&[7, 7]));
        assert!(
            !std::ptr::eq(copy.tuples(), original.tuples()),
            "copied on write"
        );
        assert_eq!(original.len(), 2);
        assert!(!original.contains(&Tuple::ints(&[7, 7])));
        assert!(Arc::ptr_eq(
            original.resident_batch().expect("kept"),
            &batch
        ));
        assert_eq!(batch.len(), 2);
        assert_eq!(copy.batch().len(), 3);
    }

    #[test]
    fn equality_and_ordering_ignore_the_memo() {
        let cold = r_paper();
        let warm = r_paper();
        let _ = warm.batch();
        assert_eq!(cold, warm);
        assert_eq!(cold.cmp(&warm), Ordering::Equal);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        let smaller = Relation::from_tuples(2, vec![Tuple::ints(&[0, 0])]);
        let _ = smaller.batch();
        assert_eq!(smaller.cmp(&cold), Ordering::Less);
        assert_eq!(cold.cmp(&smaller), Ordering::Greater);
    }

    fn candidates(r: &Relation, col: usize, key: &Value) -> Vec<Tuple> {
        let batch = r.batch();
        let mut rows: Vec<u32> = r
            .key_index(col)
            .probe(crate::batch::hash_values([key]))
            .filter(|&row| batch.value(col, row as usize) == key)
            .collect();
        rows.sort_unstable();
        rows.into_iter()
            .map(|row| batch.tuple_at(row as usize))
            .collect()
    }

    #[test]
    fn key_index_is_memoized_per_version_and_column() {
        let r = r_paper();
        assert!(
            r.resident_key_index(0).is_none(),
            "nothing is built eagerly"
        );
        let col0 = Arc::clone(r.key_index(0));
        assert!(
            Arc::ptr_eq(&col0, r.key_index(0)),
            "the second call reuses it"
        );
        assert!(
            r.resident_key_index(1).is_none(),
            "each column has its own memo"
        );
        let col1 = Arc::clone(r.key_index(1));
        assert!(!Arc::ptr_eq(&col0, &col1));
        let copy = r.clone();
        assert!(Arc::ptr_eq(copy.key_index(0), &col0), "clones carry it");
        assert!(Arc::ptr_eq(
            copy.resident_key_index(1).expect("carried"),
            &col1
        ));
        // Lookups are by syntactic value: ⊥0 finds only ⊥0's row.
        assert_eq!(
            candidates(&r, 0, &Value::null(0)),
            vec![Tuple::new(vec![Value::null(0), Value::int(2)])]
        );
        assert_eq!(candidates(&r, 1, &Value::int(2)).len(), 1);
        assert!(candidates(&r, 1, &Value::str("2")).is_empty());
    }

    #[test]
    fn mutation_drops_the_index_and_a_no_op_keeps_it() {
        let mut r = Relation::from_tuples(2, vec![Tuple::ints(&[1, 10])]);
        let before = Arc::clone(r.key_index(0));
        assert!(!r.insert(Tuple::ints(&[1, 10])), "no-op insert");
        assert!(Arc::ptr_eq(r.resident_key_index(0).expect("kept"), &before));
        assert!(!r.remove(&Tuple::ints(&[9, 9])), "no-op remove");
        assert!(r.resident_key_index(0).is_some());
        assert!(r.insert(Tuple::ints(&[1, 11])));
        assert!(r.resident_key_index(0).is_none(), "insert drops it");
        assert_eq!(
            candidates(&r, 0, &Value::int(1)).len(),
            2,
            "the rebuilt index sees the insert"
        );
        assert!(r.remove(&Tuple::ints(&[1, 10])));
        assert!(r.resident_key_index(0).is_none(), "remove drops it");
        assert_eq!(
            candidates(&r, 0, &Value::int(1)),
            vec![Tuple::ints(&[1, 11])]
        );
    }

    #[test]
    fn clone_then_mutate_leaves_the_original_index_intact() {
        let original = r_paper();
        let index = Arc::clone(original.key_index(1));
        let mut copy = original.clone();
        copy.insert(Tuple::ints(&[7, 2]));
        assert!(copy.resident_key_index(1).is_none());
        assert!(Arc::ptr_eq(
            original.resident_key_index(1).expect("kept"),
            &index
        ));
        assert_eq!(candidates(&original, 1, &Value::int(2)).len(), 1);
        assert_eq!(candidates(&copy, 1, &Value::int(2)).len(), 2);
    }

    #[test]
    fn equality_and_ordering_ignore_the_index() {
        let cold = r_paper();
        let warm = r_paper();
        let _ = warm.key_index(0);
        assert_eq!(cold, warm);
        assert_eq!(cold.cmp(&warm), Ordering::Equal);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    }

    #[test]
    #[should_panic(expected = "no column 2")]
    fn key_index_rejects_a_missing_column() {
        r_paper().key_index(2);
    }

    #[test]
    fn complete_part_of_a_null_free_relation_is_shared() {
        let r = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        let batch = Arc::clone(r.batch());
        let c = r.complete_part();
        assert!(std::ptr::eq(c.tuples(), r.tuples()));
        assert!(Arc::ptr_eq(c.resident_batch().expect("carried"), &batch));
        assert!(r_paper().complete_part().is_empty());
    }

    #[test]
    fn display() {
        let r = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        assert_eq!(r.to_string(), "{(1), (2)}");
    }
}
