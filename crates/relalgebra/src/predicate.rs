//! Selection predicates: Boolean combinations of (in)equality atoms over
//! column positions and constants.
//!
//! The paper's fragments are defined over equality atoms; inequality (`≠`) and
//! negation are what pushes a query out of the positive fragment, which is why
//! the classifier in [`crate::classify`] inspects predicates.

use std::collections::BTreeSet;
use std::fmt;

use relmodel::value::{Constant, Value};
use relmodel::Tuple;

/// One side of a comparison: a column of the input tuple or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// The value in the given (0-based) column.
    Column(usize),
    /// A constant.
    Const(Constant),
}

impl Operand {
    /// Convenience constructor for a column operand.
    pub fn col(i: usize) -> Self {
        Operand::Column(i)
    }

    /// Convenience constructor for an integer constant operand.
    pub fn int(i: i64) -> Self {
        Operand::Const(Constant::Int(i))
    }

    /// Convenience constructor for a string constant operand.
    pub fn str(s: impl Into<String>) -> Self {
        Operand::Const(Constant::from(s.into()))
    }

    /// Resolves the operand against a tuple (columns out of range are a
    /// programming error caught by the type checker; this panics).
    pub fn resolve(&self, tuple: &Tuple) -> Value {
        match self {
            Operand::Column(i) => tuple[*i].clone(),
            Operand::Const(c) => Value::Const(c.clone()),
        }
    }

    /// The largest column index mentioned, if any.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Operand::Column(i) => Some(*i),
            Operand::Const(_) => None,
        }
    }

    /// Constants mentioned by the operand.
    pub fn constants(&self) -> BTreeSet<Constant> {
        match self {
            Operand::Column(_) => BTreeSet::new(),
            Operand::Const(c) => std::iter::once(c.clone()).collect(),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(i) => write!(f, "#{i}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A selection predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Equality of two operands.
    Eq(Operand, Operand),
    /// Inequality of two operands (not positive: pushes a query out of UCQ).
    NotEq(Operand, Operand),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (not positive).
    Not(Box<Predicate>),
}

impl Predicate {
    /// `a = b`.
    pub fn eq(a: Operand, b: Operand) -> Self {
        Predicate::Eq(a, b)
    }

    /// `a ≠ b`.
    pub fn neq(a: Operand, b: Operand) -> Self {
        Predicate::NotEq(a, b)
    }

    /// Conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation of a predicate.
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Is the predicate *positive*: free of `Not` and `NotEq` (and `False`,
    /// which is the negation of `True`)?
    ///
    /// Positive predicates keep selections inside the positive relational
    /// algebra / UCQ fragment for which OWA-naïve evaluation is correct.
    pub fn is_positive(&self) -> bool {
        match self {
            Predicate::True | Predicate::Eq(_, _) => true,
            Predicate::False | Predicate::NotEq(_, _) | Predicate::Not(_) => false,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.is_positive() && b.is_positive(),
        }
    }

    /// The largest column index mentioned, if any. Used for arity checking.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Eq(a, b) | Predicate::NotEq(a, b) => {
                a.max_column().into_iter().chain(b.max_column()).max()
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.max_column().into_iter().chain(b.max_column()).max()
            }
            Predicate::Not(p) => p.max_column(),
        }
    }

    /// Constants mentioned anywhere in the predicate.
    pub fn constants(&self) -> BTreeSet<Constant> {
        match self {
            Predicate::True | Predicate::False => BTreeSet::new(),
            Predicate::Eq(a, b) | Predicate::NotEq(a, b) => {
                let mut s = a.constants();
                s.extend(b.constants());
                s
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                let mut s = a.constants();
                s.extend(b.constants());
                s
            }
            Predicate::Not(p) => p.constants(),
        }
    }

    /// Evaluates the predicate on a tuple of a **complete** database (or under
    /// naïve evaluation, where nulls are treated as ordinary values and
    /// equality is syntactic).
    pub fn eval_naive(&self, tuple: &Tuple) -> bool {
        self.eval_naive_on(&|i| &tuple[i])
    }

    /// [`Predicate::eval_naive`] over a *virtual* row: `at` maps a column
    /// index to its value in place. The columnar executor evaluates
    /// predicates directly against batch columns (and against the
    /// unmaterialized concatenation of a join's build and probe rows)
    /// through this accessor — no tuple is built and no value is cloned.
    pub fn eval_naive_on<'a, F: Fn(usize) -> &'a Value>(&self, at: &F) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Eq(a, b) => operand_eq_syntactic(a, b, at),
            Predicate::NotEq(a, b) => !operand_eq_syntactic(a, b, at),
            Predicate::And(a, b) => a.eval_naive_on(at) && b.eval_naive_on(at),
            Predicate::Or(a, b) => a.eval_naive_on(at) || b.eval_naive_on(at),
            Predicate::Not(p) => !p.eval_naive_on(at),
        }
    }

    /// Evaluates the predicate under SQL's three-valued logic: any comparison
    /// touching a null is `Unknown`, and `Unknown` propagates through the
    /// Kleene connectives.
    pub fn eval_3vl(&self, tuple: &Tuple) -> relmodel::value::Truth {
        use relmodel::value::Truth;
        match self {
            Predicate::True => Truth::True,
            Predicate::False => Truth::False,
            Predicate::Eq(a, b) => a.resolve(tuple).eq_3vl(&b.resolve(tuple)),
            Predicate::NotEq(a, b) => a.resolve(tuple).eq_3vl(&b.resolve(tuple)).not(),
            Predicate::And(a, b) => a.eval_3vl(tuple).and(b.eval_3vl(tuple)),
            Predicate::Or(a, b) => a.eval_3vl(tuple).or(b.eval_3vl(tuple)),
            Predicate::Not(p) => p.eval_3vl(tuple).not(),
        }
    }

    /// Three-valued evaluation **aware of marked-null identity**: comparing a
    /// marked null with *itself* is certainly `True` (every valuation sends it
    /// to one value), while any other comparison touching a null is `Unknown`.
    ///
    /// This sits strictly between [`Predicate::eval_naive`] (which also calls
    /// *distinct* nulls unequal) and [`Predicate::eval_3vl`] (which forgets
    /// null identity entirely): its `True`s hold in every valuation and its
    /// `False`s fail in every valuation, which is what the certain⁺/possible?
    /// approximation evaluators need.
    pub fn eval_3vl_marked(&self, tuple: &Tuple) -> relmodel::value::Truth {
        self.eval_3vl_marked_on(&|i| &tuple[i])
    }

    /// [`Predicate::eval_3vl_marked`] over a virtual row, as in
    /// [`Predicate::eval_naive_on`]: the certain⁺/possible? columnar
    /// operators re-check candidate pairs through this accessor without
    /// materializing the concatenated row.
    pub fn eval_3vl_marked_on<'a, F: Fn(usize) -> &'a Value>(
        &self,
        at: &F,
    ) -> relmodel::value::Truth {
        use relmodel::value::Truth;
        match self {
            Predicate::True => Truth::True,
            Predicate::False => Truth::False,
            Predicate::Eq(a, b) => operand_eq_marked(a, b, at),
            Predicate::NotEq(a, b) => operand_eq_marked(a, b, at).not(),
            Predicate::And(a, b) => a.eval_3vl_marked_on(at).and(b.eval_3vl_marked_on(at)),
            Predicate::Or(a, b) => a.eval_3vl_marked_on(at).or(b.eval_3vl_marked_on(at)),
            Predicate::Not(p) => p.eval_3vl_marked_on(at).not(),
        }
    }

    /// Shifts every column reference by `offset`; used when a predicate
    /// written against one operand of a product must apply to the
    /// concatenated tuple.
    pub fn shift_columns(&self, offset: usize) -> Predicate {
        self.map_columns(&|i| i + offset)
    }

    /// Rewrites every column reference through `f`; the physical-plan
    /// rewrites use this to move predicates across projections and products
    /// (e.g. un-shifting a conjunct pushed to the right operand of a
    /// product, or routing a predicate through a projection's column list).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Predicate {
        let map_op = |o: &Operand| match o {
            Operand::Column(i) => Operand::Column(f(*i)),
            c => c.clone(),
        };
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Eq(a, b) => Predicate::Eq(map_op(a), map_op(b)),
            Predicate::NotEq(a, b) => Predicate::NotEq(map_op(a), map_op(b)),
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.map_columns(f))),
        }
    }

    /// All column indices mentioned anywhere in the predicate. The
    /// physical-plan rewrites use this to decide which operand of a product
    /// a conjunct can be pushed into.
    pub fn columns(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        let op = |o: &Operand, out: &mut BTreeSet<usize>| {
            if let Operand::Column(i) = o {
                out.insert(*i);
            }
        };
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Eq(a, b) | Predicate::NotEq(a, b) => {
                op(a, out);
                op(b, out);
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }

    /// Splits the predicate into its top-level conjuncts (flattening nested
    /// `And`s); a predicate without `And` is a single conjunct. `True` has
    /// no conjuncts. The inverse of folding with [`Predicate::and`].
    pub fn conjuncts(&self) -> Vec<Predicate> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts(&self, out: &mut Vec<Predicate>) {
        match self {
            Predicate::True => {}
            Predicate::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            other => out.push(other.clone()),
        }
    }

    /// Folds conjuncts back into one predicate (empty list ⇒ `True`).
    pub fn conjoin(conjuncts: impl IntoIterator<Item = Predicate>) -> Predicate {
        let mut iter = conjuncts.into_iter();
        match iter.next() {
            None => Predicate::True,
            Some(first) => iter.fold(first, Predicate::and),
        }
    }
}

/// Syntactic equality of two resolved operands, borrow-only: a column reads
/// through the accessor, a constant compares in place.
fn operand_eq_syntactic<'a, F: Fn(usize) -> &'a Value>(a: &Operand, b: &Operand, at: &F) -> bool {
    match (a, b) {
        (Operand::Column(i), Operand::Column(j)) => at(*i) == at(*j),
        (Operand::Column(i), Operand::Const(c)) | (Operand::Const(c), Operand::Column(i)) => {
            matches!(at(*i), Value::Const(x) if x == c)
        }
        (Operand::Const(x), Operand::Const(y)) => x == y,
    }
}

/// Marked-null three-valued equality of two resolved operands, borrow-only:
/// syntactically equal values (same constant or the *same* null) are `True`,
/// distinct constants are `False`, anything else involves a null whose value
/// depends on the valuation.
fn operand_eq_marked<'a, F: Fn(usize) -> &'a Value>(
    a: &Operand,
    b: &Operand,
    at: &F,
) -> relmodel::value::Truth {
    use relmodel::value::Truth;
    let is_const = |o: &Operand| match o {
        Operand::Column(i) => at(*i).is_const(),
        Operand::Const(_) => true,
    };
    if operand_eq_syntactic(a, b, at) {
        Truth::True
    } else if is_const(a) && is_const(b) {
        Truth::False
    } else {
        Truth::Unknown
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Eq(a, b) => write!(f, "{a} = {b}"),
            Predicate::NotEq(a, b) => write!(f, "{a} <> {b}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::value::Truth;

    #[test]
    fn positivity() {
        let p = Predicate::eq(Operand::col(0), Operand::int(1));
        assert!(p.is_positive());
        assert!(p.clone().and(Predicate::True).is_positive());
        assert!(p.clone().or(p.clone()).is_positive());
        assert!(!p.clone().negate().is_positive());
        assert!(!Predicate::neq(Operand::col(0), Operand::int(1)).is_positive());
        assert!(!Predicate::False.is_positive());
    }

    #[test]
    fn max_column_and_constants() {
        let p = Predicate::eq(Operand::col(2), Operand::str("x"))
            .and(Predicate::neq(Operand::col(5), Operand::int(3)));
        assert_eq!(p.max_column(), Some(5));
        assert_eq!(p.constants().len(), 2);
        assert_eq!(Predicate::True.max_column(), None);
    }

    #[test]
    fn naive_evaluation_is_syntactic() {
        let t = Tuple::new(vec![Value::null(0), Value::null(0), Value::null(1)]);
        let same_null = Predicate::eq(Operand::col(0), Operand::col(1));
        let diff_null = Predicate::eq(Operand::col(0), Operand::col(2));
        assert!(
            same_null.eval_naive(&t),
            "the same marked null is equal to itself"
        );
        assert!(
            !diff_null.eval_naive(&t),
            "distinct nulls are not naively equal"
        );
    }

    #[test]
    fn three_valued_evaluation_is_unknown_on_nulls() {
        let t = Tuple::new(vec![Value::null(0), Value::int(1)]);
        let p = Predicate::eq(Operand::col(0), Operand::col(1));
        assert_eq!(p.eval_3vl(&t), Truth::Unknown);
        let q = Predicate::eq(Operand::col(1), Operand::int(1));
        assert_eq!(q.eval_3vl(&t), Truth::True);
        // Tautology from the paper: col0 = 'oid1' OR col0 <> 'oid1' is Unknown on a null.
        let taut = Predicate::eq(Operand::col(0), Operand::str("oid1"))
            .or(Predicate::neq(Operand::col(0), Operand::str("oid1")));
        assert_eq!(taut.eval_3vl(&t), Truth::Unknown);
        assert!(
            taut.eval_naive(&t),
            "naïve evaluation sees the tautology as true"
        );
    }

    #[test]
    fn marked_three_valued_evaluation_knows_null_identity() {
        let t = Tuple::new(vec![
            Value::null(0),
            Value::null(0),
            Value::null(1),
            Value::int(1),
        ]);
        let same = Predicate::eq(Operand::col(0), Operand::col(1));
        assert_eq!(
            same.eval_3vl_marked(&t),
            Truth::True,
            "⊥0 = ⊥0 certainly holds"
        );
        assert_eq!(same.negate().eval_3vl_marked(&t), Truth::False);
        let cross = Predicate::eq(Operand::col(0), Operand::col(2));
        assert_eq!(
            cross.eval_3vl_marked(&t),
            Truth::Unknown,
            "⊥0 = ⊥1 depends on the valuation"
        );
        let vs_const = Predicate::eq(Operand::col(0), Operand::col(3));
        assert_eq!(vs_const.eval_3vl_marked(&t), Truth::Unknown);
        let consts = Predicate::eq(Operand::col(3), Operand::int(1));
        assert_eq!(consts.eval_3vl_marked(&t), Truth::True);
        assert_eq!(
            Predicate::eq(Operand::col(3), Operand::int(2)).eval_3vl_marked(&t),
            Truth::False
        );
    }

    #[test]
    fn accessor_evaluation_agrees_with_tuple_evaluation() {
        // A virtual concatenated row, as the columnar join sees it: two
        // separate value stores behind one accessor.
        let left = [Value::int(1), Value::null(0)];
        let right = [Value::null(0), Value::int(2)];
        let at = |i: usize| {
            if i < 2 {
                &left[i]
            } else {
                &right[i - 2]
            }
        };
        let concat = Tuple::new(vec![
            Value::int(1),
            Value::null(0),
            Value::null(0),
            Value::int(2),
        ]);
        let cases = [
            Predicate::eq(Operand::col(1), Operand::col(2)),
            Predicate::eq(Operand::col(0), Operand::col(3)),
            Predicate::neq(Operand::col(0), Operand::int(1)),
            Predicate::eq(Operand::col(3), Operand::int(2))
                .and(Predicate::eq(Operand::col(1), Operand::col(2))),
            Predicate::eq(Operand::str("x"), Operand::str("x"))
                .or(Predicate::eq(Operand::col(0), Operand::col(1))),
            Predicate::eq(Operand::col(0), Operand::col(2)).negate(),
            Predicate::False,
        ];
        for p in cases {
            assert_eq!(p.eval_naive_on(&at), p.eval_naive(&concat), "naive {p}");
            assert_eq!(
                p.eval_3vl_marked_on(&at),
                p.eval_3vl_marked(&concat),
                "marked {p}"
            );
        }
    }

    #[test]
    fn shift_columns() {
        let p = Predicate::eq(Operand::col(0), Operand::col(1))
            .and(Predicate::neq(Operand::col(2), Operand::int(5)));
        let shifted = p.shift_columns(3);
        assert_eq!(shifted.max_column(), Some(5));
        let t = Tuple::ints(&[9, 9, 9, 7, 7, 4]);
        assert!(shifted.eval_naive(&t));
    }

    #[test]
    fn display() {
        let p = Predicate::eq(Operand::col(0), Operand::str("a")).or(Predicate::True.negate());
        assert_eq!(p.to_string(), "(#0 = a OR NOT (true))");
    }

    #[test]
    fn columns_collects_every_reference() {
        let p = Predicate::eq(Operand::col(0), Operand::col(3))
            .and(Predicate::neq(Operand::col(1), Operand::int(5)).negate());
        assert_eq!(p.columns().into_iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!(Predicate::True.columns().is_empty());
    }

    #[test]
    fn conjuncts_round_trip() {
        let a = Predicate::eq(Operand::col(0), Operand::int(1));
        let b = Predicate::neq(Operand::col(1), Operand::int(2));
        let c = Predicate::eq(Operand::col(2), Operand::col(3)).or(Predicate::True);
        let p = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(p.conjuncts(), vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(Predicate::conjoin(p.conjuncts()), p);
        assert_eq!(Predicate::True.conjuncts(), Vec::<Predicate>::new());
        assert_eq!(Predicate::conjoin(Vec::new()), Predicate::True);
        // An `Or` is one conjunct, not two.
        assert_eq!(c.conjuncts().len(), 1);
    }

    #[test]
    fn map_columns_rewrites_through_a_projection() {
        // σ over π[2,0]: predicate column i refers to projection output i,
        // which reads input column cols[i].
        let cols = [2usize, 0usize];
        let p = Predicate::eq(Operand::col(0), Operand::col(1));
        let pushed = p.map_columns(&|i| cols[i]);
        assert_eq!(pushed.to_string(), "#2 = #0");
        let t = Tuple::ints(&[7, 8, 7]);
        assert!(pushed.eval_naive(&t));
    }
}
