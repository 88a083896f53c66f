//! Conjunctive queries, their tableau representation, and homomorphism-based
//! containment.
//!
//! A conjunctive query (CQ) is a `∃,∧`-query `Q(x̄) :- R₁(t̄₁), …, Rₙ(t̄ₙ)`.
//! The paper's Section 4 exploits the duality between CQs and incomplete
//! databases: the body of a Boolean CQ *is* a naïve table (its tableau), and
//! conversely every naïve database is the tableau of a Boolean CQ (its
//! canonical query). Certain answers under OWA reduce to CQ containment,
//! which by the Chandra–Merlin theorem reduces to homomorphism existence.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use relmodel::value::{Constant, NullId, Value};
use relmodel::{Database, Schema, Tuple};

/// A term of a conjunctive query: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable, identified by a number.
    Var(u64),
    /// A constant.
    Const(Constant),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(i: u64) -> Self {
        Term::Var(i)
    }

    /// Convenience constructor for an integer constant term.
    pub fn int(i: i64) -> Self {
        Term::Const(Constant::Int(i))
    }

    /// Convenience constructor for a string constant term.
    pub fn str(s: impl Into<String>) -> Self {
        Term::Const(Constant::from(s.into()))
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(i) => write!(f, "x{i}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A relational atom `R(t₁, …, tₖ)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Variables occurring in the atom.
    pub fn variables(&self) -> BTreeSet<u64> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(*v),
                Term::Const(_) => None,
            })
            .collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}({})", self.relation, args.join(", "))
    }
}

/// A conjunctive query `head :- body` (the head lists the free/output terms;
/// an empty head makes the query Boolean).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConjunctiveQuery {
    /// Output terms (answer tuple template).
    pub head: Vec<Term>,
    /// Body atoms, implicitly conjoined and existentially closed.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Creates a conjunctive query.
    pub fn new(head: Vec<Term>, body: Vec<Atom>) -> Self {
        ConjunctiveQuery { head, body }
    }

    /// Creates a Boolean conjunctive query (empty head).
    pub fn boolean(body: Vec<Atom>) -> Self {
        ConjunctiveQuery {
            head: Vec::new(),
            body,
        }
    }

    /// Is the query Boolean?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// All variables of the query (head and body).
    pub fn variables(&self) -> BTreeSet<u64> {
        let mut vars: BTreeSet<u64> = self.body.iter().flat_map(|a| a.variables()).collect();
        for t in &self.head {
            if let Term::Var(v) = t {
                vars.insert(*v);
            }
        }
        vars
    }

    /// Is the query *safe*: every head variable occurs in the body?
    pub fn is_safe(&self) -> bool {
        let body_vars: BTreeSet<u64> = self.body.iter().flat_map(|a| a.variables()).collect();
        self.head.iter().all(|t| match t {
            Term::Var(v) => body_vars.contains(v),
            Term::Const(_) => true,
        })
    }

    /// Constants mentioned by the query.
    pub fn constants(&self) -> BTreeSet<Constant> {
        let mut out = BTreeSet::new();
        for t in self
            .head
            .iter()
            .chain(self.body.iter().flat_map(|a| a.terms.iter()))
        {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        }
        out
    }

    /// Renames every variable by adding `offset`; used to make two queries
    /// variable-disjoint before combining them.
    pub fn shift_vars(&self, offset: u64) -> ConjunctiveQuery {
        let shift = |t: &Term| match t {
            Term::Var(v) => Term::Var(v + offset),
            c => c.clone(),
        };
        ConjunctiveQuery {
            head: self.head.iter().map(shift).collect(),
            body: self
                .body
                .iter()
                .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(shift).collect()))
                .collect(),
        }
    }

    /// The largest variable index used, if any.
    pub fn max_var(&self) -> Option<u64> {
        self.variables().into_iter().max()
    }

    /// Applies a substitution of variables by terms to the whole query.
    pub fn substitute(&self, subst: &BTreeMap<u64, Term>) -> ConjunctiveQuery {
        let apply = |t: &Term| match t {
            Term::Var(v) => subst.get(v).cloned().unwrap_or_else(|| t.clone()),
            c => c.clone(),
        };
        ConjunctiveQuery {
            head: self.head.iter().map(apply).collect(),
            body: self
                .body
                .iter()
                .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(apply).collect()))
                .collect(),
        }
    }

    /// The *tableau* (canonical database) of the query: its body atoms, with
    /// each variable turned into a marked null.
    ///
    /// This is the object half of the duality of Section 4: the tableau of
    /// `Q_D` is `D` itself.
    pub fn tableau(&self, schema: &Schema) -> Database {
        let mut db = Database::new(schema.clone());
        for atom in &self.body {
            let tuple: Tuple = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Value::Null(NullId(*v)),
                    Term::Const(c) => Value::Const(c.clone()),
                })
                .collect();
            db.insert(&atom.relation, tuple)
                .unwrap_or_else(|e| panic!("query atom {atom} does not fit schema: {e}"));
        }
        db
    }

    /// The head as a tuple over `Const ∪ Null` (variables become nulls); this
    /// is the "answer template" matching [`ConjunctiveQuery::tableau`].
    pub fn head_tuple(&self) -> Tuple {
        self.head
            .iter()
            .map(|t| match t {
                Term::Var(v) => Value::Null(NullId(*v)),
                Term::Const(c) => Value::Const(c.clone()),
            })
            .collect()
    }

    /// The canonical (Boolean) query of a naïve database: its positive diagram
    /// viewed as a query, with each null becoming a variable. Inverse of
    /// [`ConjunctiveQuery::tableau`] for Boolean queries.
    pub fn canonical_query_of(db: &Database) -> ConjunctiveQuery {
        let mut body = Vec::new();
        for (name, rel) in db.iter() {
            for t in rel.iter() {
                let terms: Vec<Term> = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Null(n) => Term::Var(n.0),
                        Value::Const(c) => Term::Const(c.clone()),
                    })
                    .collect();
                body.push(Atom::new(name, terms));
            }
        }
        ConjunctiveQuery::boolean(body)
    }

    /// Decides containment `self ⊆ other` by the Chandra–Merlin theorem:
    /// `self ⊆ other` iff there is a homomorphism from `other` to `self`
    /// mapping head to head (variables to terms, constants to themselves).
    pub fn contained_in(&self, other: &ConjunctiveQuery) -> bool {
        if self.arity() != other.arity() {
            return false;
        }
        // Freeze `self`: treat its variables as distinct fresh constants; the
        // frozen body is the structure we search a homomorphism into.
        let frozen_facts: Vec<Atom> = self.body.clone();
        // The homomorphism must map other's head terms onto self's head terms
        // (frozen). Seed the assignment accordingly.
        let mut assignment: BTreeMap<u64, Term> = BTreeMap::new();
        for (o, s) in other.head.iter().zip(self.head.iter()) {
            match o {
                Term::Const(c) => {
                    // constants in the container head must match literally
                    if Term::Const(c.clone()) != *s {
                        return false;
                    }
                }
                Term::Var(v) => {
                    if let Some(prev) = assignment.get(v) {
                        if prev != s {
                            return false;
                        }
                    } else {
                        assignment.insert(*v, s.clone());
                    }
                }
            }
        }
        hom_search(&other.body, 0, &frozen_facts, &mut assignment)
    }

    /// Decides equivalence of two conjunctive queries (mutual containment).
    pub fn equivalent_to(&self, other: &ConjunctiveQuery) -> bool {
        self.contained_in(other) && other.contained_in(self)
    }

    /// Minimises the query (computes its core): repeatedly tries to drop a
    /// body atom while preserving equivalence.
    pub fn minimize(&self) -> ConjunctiveQuery {
        let mut current = self.clone();
        loop {
            let mut improved = false;
            for i in 0..current.body.len() {
                let mut candidate = current.clone();
                candidate.body.remove(i);
                if !candidate.is_safe() {
                    continue;
                }
                if candidate.equivalent_to(&current) {
                    current = candidate;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return current;
            }
        }
    }
}

/// Backtracking homomorphism search: finds an assignment of the variables of
/// `pattern` (processed atom by atom from `idx`) to terms of the frozen
/// `target` atoms such that every pattern atom maps onto some target atom.
fn hom_search(
    pattern: &[Atom],
    idx: usize,
    target: &[Atom],
    assignment: &mut BTreeMap<u64, Term>,
) -> bool {
    if idx == pattern.len() {
        return true;
    }
    let atom = &pattern[idx];
    for fact in target.iter().filter(|f| f.relation == atom.relation) {
        if fact.terms.len() != atom.terms.len() {
            continue;
        }
        let mut added: Vec<u64> = Vec::new();
        let mut ok = true;
        for (pt, ft) in atom.terms.iter().zip(fact.terms.iter()) {
            match pt {
                Term::Const(c) => {
                    if Term::Const(c.clone()) != *ft {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match assignment.get(v) {
                    Some(existing) => {
                        if existing != ft {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        assignment.insert(*v, ft.clone());
                        added.push(*v);
                    }
                },
            }
        }
        if ok && hom_search(pattern, idx + 1, target, assignment) {
            return true;
        }
        for v in added {
            assignment.remove(&v);
        }
    }
    false
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|t| t.to_string()).collect();
        let body: Vec<String> = self.body.iter().map(|a| a.to_string()).collect();
        write!(f, "Q({}) :- {}", head.join(", "), body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::Schema;

    fn schema() -> Schema {
        Schema::builder().relation("R", &["a", "b"]).build()
    }

    /// The paper's §4 example: R = {(1,⊥),(⊥,2)} viewed as the Boolean CQ
    /// ∃x R(1,x) ∧ R(x,2).
    fn paper_cq() -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![Term::int(1), Term::var(0)]),
            Atom::new("R", vec![Term::var(0), Term::int(2)]),
        ])
    }

    #[test]
    fn basic_accessors() {
        let q = paper_cq();
        assert!(q.is_boolean());
        assert_eq!(q.arity(), 0);
        assert_eq!(q.variables().len(), 1);
        assert_eq!(q.constants().len(), 2);
        assert!(q.is_safe());
        assert_eq!(q.max_var(), Some(0));
        assert!(q.to_string().contains("R(1, x0)"));
    }

    #[test]
    fn tableau_roundtrip() {
        let q = paper_cq();
        let db = q.tableau(&schema());
        assert_eq!(db.relation("R").unwrap().len(), 2);
        assert_eq!(db.null_ids().len(), 1);
        let back = ConjunctiveQuery::canonical_query_of(&db);
        assert!(
            back.equivalent_to(&q),
            "tableau ↔ canonical query is an equivalence"
        );
    }

    #[test]
    fn unsafe_query_detected() {
        let q = ConjunctiveQuery::new(
            vec![Term::var(5)],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        assert!(!q.is_safe());
    }

    #[test]
    fn containment_boolean() {
        // Q1 = ∃x,y R(x,y) ∧ R(y,x); Q2 = ∃x,y R(x,y). Q1 ⊆ Q2.
        let q1 = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![Term::var(0), Term::var(1)]),
            Atom::new("R", vec![Term::var(1), Term::var(0)]),
        ]);
        let q2 = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![Term::var(0), Term::var(1)])]);
        assert!(q1.contained_in(&q2));
        assert!(!q2.contained_in(&q1));
        assert!(!q1.equivalent_to(&q2));
    }

    #[test]
    fn containment_with_head_and_constants() {
        // Q1(x) :- R(x, 1) ; Q2(x) :- R(x, y). Q1 ⊆ Q2 but not conversely.
        let q1 = ConjunctiveQuery::new(
            vec![Term::var(0)],
            vec![Atom::new("R", vec![Term::var(0), Term::int(1)])],
        );
        let q2 = ConjunctiveQuery::new(
            vec![Term::var(0)],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        assert!(q1.contained_in(&q2));
        assert!(!q2.contained_in(&q1));
    }

    #[test]
    fn containment_rejects_arity_mismatch() {
        let q1 = ConjunctiveQuery::new(
            vec![Term::var(0)],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let q2 = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![Term::var(0), Term::var(1)])]);
        assert!(!q1.contained_in(&q2));
    }

    #[test]
    fn minimization_removes_redundant_atoms() {
        // Q(x) :- R(x,y), R(x,z) minimises to Q(x) :- R(x,y).
        let q = ConjunctiveQuery::new(
            vec![Term::var(0)],
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
        );
        let m = q.minimize();
        assert_eq!(m.body.len(), 1);
        assert!(m.equivalent_to(&q));
    }

    #[test]
    fn shift_and_substitute() {
        let q = paper_cq().shift_vars(10);
        assert_eq!(q.max_var(), Some(10));
        let mut subst = BTreeMap::new();
        subst.insert(10u64, Term::int(9));
        let grounded = q.substitute(&subst);
        assert!(grounded.variables().is_empty());
    }

    #[test]
    fn head_tuple_uses_nulls_for_vars() {
        let q = ConjunctiveQuery::new(
            vec![Term::var(3), Term::int(2)],
            vec![Atom::new("R", vec![Term::var(3), Term::var(4)])],
        );
        let t = q.head_tuple();
        assert_eq!(t.values()[0], Value::null(3));
        assert_eq!(t.values()[1], Value::int(2));
    }
}
