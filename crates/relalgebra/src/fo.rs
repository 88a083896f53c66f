//! First-order formulas (relational calculus), used as the *logical theory*
//! view of incomplete databases (Section 4 of the paper) and to define the
//! fragment `Pos∀G` of positive formulas with universal guards (Section 6).

use std::collections::BTreeSet;
use std::fmt;

use relmodel::value::Constant;

/// A first-order term: a named variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FoTerm {
    /// A variable, identified by name.
    Var(String),
    /// A constant.
    Const(Constant),
}

impl FoTerm {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Self {
        FoTerm::Var(name.into())
    }

    /// Convenience constructor for an integer constant.
    pub fn int(i: i64) -> Self {
        FoTerm::Const(Constant::Int(i))
    }

    /// Convenience constructor for a string constant.
    pub fn str(s: impl Into<String>) -> Self {
        FoTerm::Const(Constant::from(s.into()))
    }
}

impl fmt::Display for FoTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoTerm::Var(v) => write!(f, "{v}"),
            FoTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A first-order formula over a relational vocabulary with equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// A relational atom `R(t₁, …, tₖ)`.
    Atom {
        /// Relation name.
        relation: String,
        /// Argument terms.
        terms: Vec<FoTerm>,
    },
    /// Equality `t₁ = t₂`.
    Eq(FoTerm, FoTerm),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction (empty conjunction is `True`).
    And(Vec<Formula>),
    /// N-ary disjunction (empty disjunction is `False`).
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification over a block of variables.
    Exists(Vec<String>, Box<Formula>),
    /// Universal quantification over a block of variables.
    Forall(Vec<String>, Box<Formula>),
}

impl Formula {
    /// A relational atom.
    pub fn atom(relation: impl Into<String>, terms: Vec<FoTerm>) -> Self {
        Formula::Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Conjunction of two formulas, flattening nested conjunctions.
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, f) | (f, Formula::True) => f,
            (Formula::And(mut a), Formula::And(b)) => {
                a.extend(b);
                Formula::And(a)
            }
            (Formula::And(mut a), f) => {
                a.push(f);
                Formula::And(a)
            }
            (f, Formula::And(mut b)) => {
                b.insert(0, f);
                Formula::And(b)
            }
            (a, b) => Formula::And(vec![a, b]),
        }
    }

    /// Disjunction of two formulas, flattening nested disjunctions.
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, f) | (f, Formula::False) => f,
            (Formula::Or(mut a), Formula::Or(b)) => {
                a.extend(b);
                Formula::Or(a)
            }
            (Formula::Or(mut a), f) => {
                a.push(f);
                Formula::Or(a)
            }
            (f, Formula::Or(mut b)) => {
                b.insert(0, f);
                Formula::Or(b)
            }
            (a, b) => Formula::Or(vec![a, b]),
        }
    }

    /// Negation.
    pub fn negate(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Implication `self → other`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// Existential closure over the given variables (no-op for an empty list).
    pub fn exists(vars: Vec<String>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Exists(vars, Box::new(body))
        }
    }

    /// Universal closure over the given variables (no-op for an empty list).
    pub fn forall(vars: Vec<String>, body: Formula) -> Formula {
        if vars.is_empty() {
            body
        } else {
            Formula::Forall(vars, Box::new(body))
        }
    }

    /// The set of free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        fn term_vars(t: &FoTerm, out: &mut BTreeSet<String>) {
            if let FoTerm::Var(v) = t {
                out.insert(v.clone());
            }
        }
        match self {
            Formula::True | Formula::False => BTreeSet::new(),
            Formula::Atom { terms, .. } => {
                let mut out = BTreeSet::new();
                for t in terms {
                    term_vars(t, &mut out);
                }
                out
            }
            Formula::Eq(a, b) => {
                let mut out = BTreeSet::new();
                term_vars(a, &mut out);
                term_vars(b, &mut out);
                out
            }
            Formula::Not(f) => f.free_vars(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().flat_map(Formula::free_vars).collect(),
            Formula::Implies(a, b) => {
                let mut out = a.free_vars();
                out.extend(b.free_vars());
                out
            }
            Formula::Exists(vars, body) | Formula::Forall(vars, body) => {
                let mut out = body.free_vars();
                for v in vars {
                    out.remove(v);
                }
                out
            }
        }
    }

    /// Is the formula a sentence (no free variables)?
    pub fn is_sentence(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Is the formula *positive*: built from atoms, equalities, `True`/`False`
    /// using only ∧, ∨, ∃ and ∀ (no negation, no implication)?
    pub fn is_positive(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => true,
            Formula::Not(_) | Formula::Implies(_, _) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_positive),
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.is_positive(),
        }
    }

    /// Is the formula *existential positive* (`∃,∧,∨` only — the logical form
    /// of UCQ)?
    pub fn is_existential_positive(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => true,
            Formula::Not(_) | Formula::Implies(_, _) | Formula::Forall(_, _) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_existential_positive),
            Formula::Exists(_, f) => f.is_existential_positive(),
        }
    }

    /// Is the formula in `Pos∀G` — positive formulas with universal guards?
    ///
    /// `Pos∀G` formulas are closed under ∧, ∨, ∃, ∀ and the guarded rule:
    /// `∀x̄ (R(x̄) → φ)` where `R` is a relation symbol applied to the
    /// quantified (distinct) variables and `φ` is again in `Pos∀G`.
    /// This class is preserved under strong onto homomorphisms and forms a
    /// representation system for CWA (Sections 5.2 and 6.2 of the paper).
    pub fn is_pos_forall_g(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(_, _) => true,
            Formula::Not(_) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_pos_forall_g),
            Formula::Exists(_, f) => f.is_pos_forall_g(),
            Formula::Forall(vars, body) => match body.as_ref() {
                // The guarded implication pattern ∀x̄ (R(x̄) → φ).
                Formula::Implies(guard, inner) => {
                    is_guard_atom(guard, vars) && inner.is_pos_forall_g()
                }
                // Plain universal quantification over a Pos∀G body.
                other => other.is_pos_forall_g(),
            },
            // Implication is only allowed directly under a universal guard.
            Formula::Implies(_, _) => false,
        }
    }
}

/// Is `guard` a relational atom whose arguments are exactly the distinct
/// quantified variables `vars` (in any order)?
fn is_guard_atom(guard: &Formula, vars: &[String]) -> bool {
    match guard {
        Formula::Atom { terms, .. } => {
            let mut seen = BTreeSet::new();
            if terms.len() != vars.len() {
                return false;
            }
            for t in terms {
                match t {
                    FoTerm::Var(v) => {
                        if !vars.contains(v) || !seen.insert(v.clone()) {
                            return false;
                        }
                    }
                    FoTerm::Const(_) => return false,
                }
            }
            true
        }
        _ => false,
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
            Formula::Atom { relation, terms } => {
                let args: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
                write!(f, "{relation}({})", args.join(", "))
            }
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::Not(inner) => write!(f, "¬({inner})"),
            Formula::And(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊤");
                }
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∧ "))
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    return write!(f, "⊥");
                }
                let parts: Vec<String> = fs.iter().map(|g| format!("({g})")).collect();
                write!(f, "{}", parts.join(" ∨ "))
            }
            Formula::Implies(a, b) => write!(f, "({a}) → ({b})"),
            Formula::Exists(vars, body) => write!(f, "∃{} ({body})", vars.join(",")),
            Formula::Forall(vars, body) => write!(f, "∀{} ({body})", vars.join(",")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom_rxy() -> Formula {
        Formula::atom("R", vec![FoTerm::var("x"), FoTerm::var("y")])
    }

    #[test]
    fn free_vars_and_sentences() {
        let f = atom_rxy();
        assert_eq!(f.free_vars().len(), 2);
        assert!(!f.is_sentence());
        let closed = Formula::exists(vec!["x".into(), "y".into()], f);
        assert!(closed.is_sentence());
        let partially = Formula::exists(vec!["x".into()], atom_rxy());
        assert_eq!(
            partially.free_vars(),
            vec!["y".to_string()].into_iter().collect()
        );
    }

    #[test]
    fn positivity_classes() {
        let pos = Formula::exists(
            vec!["x".into()],
            atom_rxy().and(Formula::Eq(FoTerm::var("y"), FoTerm::int(2))),
        );
        assert!(pos.is_positive());
        assert!(pos.is_existential_positive());
        assert!(pos.is_pos_forall_g());

        let with_forall = Formula::forall(vec!["x".into()], atom_rxy());
        assert!(with_forall.is_positive());
        assert!(!with_forall.is_existential_positive());
        assert!(with_forall.is_pos_forall_g());

        let negated = atom_rxy().negate();
        assert!(!negated.is_positive());
        assert!(!negated.is_pos_forall_g());
    }

    #[test]
    fn guarded_universal_is_pos_forall_g() {
        // ∀x,y (R(x,y) → ∃z R(y,z))
        let guard = Formula::atom("R", vec![FoTerm::var("x"), FoTerm::var("y")]);
        let inner = Formula::exists(
            vec!["z".into()],
            Formula::atom("R", vec![FoTerm::var("y"), FoTerm::var("z")]),
        );
        let f = Formula::forall(vec!["x".into(), "y".into()], guard.implies(inner));
        assert!(f.is_pos_forall_g());
        assert!(!f.is_existential_positive());
        assert!(
            !f.is_positive(),
            "implication is not part of the plain positive fragment"
        );
    }

    #[test]
    fn unguarded_implication_is_not_pos_forall_g() {
        // ∀x,y (R(x,y) ∧ R(y,x) → R(x,x)) — guard is not a single atom over the
        // quantified variables.
        let guard = Formula::atom("R", vec![FoTerm::var("x"), FoTerm::var("y")])
            .and(Formula::atom("R", vec![FoTerm::var("y"), FoTerm::var("x")]));
        let f = Formula::forall(
            vec!["x".into(), "y".into()],
            guard.implies(Formula::atom("R", vec![FoTerm::var("x"), FoTerm::var("x")])),
        );
        assert!(!f.is_pos_forall_g());

        // Guard atom with repeated variable is also rejected.
        let bad_guard = Formula::atom("R", vec![FoTerm::var("x"), FoTerm::var("x")]);
        let f2 = Formula::forall(
            vec!["x".into(), "y".into()],
            bad_guard.implies(Formula::True),
        );
        assert!(!f2.is_pos_forall_g());

        // Bare implication outside a universal guard is rejected.
        let f3 = atom_rxy().implies(Formula::True);
        assert!(!f3.is_pos_forall_g());
    }

    #[test]
    fn and_or_flattening() {
        let f = atom_rxy().and(atom_rxy()).and(atom_rxy());
        match f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened conjunction, got {other}"),
        }
        let g = Formula::False.or(atom_rxy());
        assert_eq!(g, atom_rxy());
        let h = Formula::True.and(atom_rxy());
        assert_eq!(h, atom_rxy());
    }

    #[test]
    fn display() {
        let f = Formula::forall(
            vec!["x".into()],
            Formula::atom("S", vec![FoTerm::var("x")]).implies(Formula::True),
        );
        assert_eq!(f.to_string(), "∀x ((S(x)) → (⊤))");
        assert_eq!(Formula::And(vec![]).to_string(), "⊤");
        assert_eq!(Formula::Or(vec![]).to_string(), "⊥");
    }
}
