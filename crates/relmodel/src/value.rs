//! Atomic values: constants and marked nulls.
//!
//! Databases in this workspace are populated by two kinds of elements, exactly
//! as in the paper: *constants* from a countably infinite set `Const`, and
//! *nulls* from a countably infinite set `Null`. Nulls are **marked** (naïve):
//! the same null may occur several times, and every occurrence must be
//! replaced by the same constant under a valuation.

use std::fmt;
use std::sync::Arc;

/// A constant value — an element of the countably infinite set `Const`.
///
/// Two concrete carrier types are supported: 64-bit integers and strings.
/// They are totally ordered (integers before strings) so that relations can be
/// kept in deterministic order.
///
/// Strings are shared (`Arc<str>`): cloning a constant — and so a value, a
/// tuple, or a transposed column — is a reference-count bump, never a copy
/// of the text.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Constant {
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(Arc<str>),
}

impl Constant {
    /// Returns the constant as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Constant::Int(i) => Some(*i),
            Constant::Str(_) => None,
        }
    }

    /// Returns the constant as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Constant::Int(_) => None,
            Constant::Str(s) => Some(s),
        }
    }
}

impl From<i64> for Constant {
    fn from(i: i64) -> Self {
        Constant::Int(i)
    }
}

impl From<&str> for Constant {
    fn from(s: &str) -> Self {
        Constant::Str(s.into())
    }
}

impl From<String> for Constant {
    fn from(s: String) -> Self {
        Constant::Str(s.into())
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(i) => write!(f, "{i}"),
            Constant::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Identifier of a marked null `⊥ᵢ`.
///
/// Each distinct identifier denotes a distinct unknown value; repeated
/// occurrences of the same `NullId` must be interpreted by the same constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NullId(pub u64);

impl NullId {
    /// The raw numeric identifier.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

/// An atomic database value: either a constant or a marked null.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// A known constant.
    Const(Constant),
    /// An unknown value, identified by a marked null.
    Null(NullId),
}

impl Value {
    /// Creates an integer constant value.
    pub fn int(i: i64) -> Self {
        Value::Const(Constant::Int(i))
    }

    /// Creates a string constant value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Const(Constant::Str(s.into().into()))
    }

    /// Creates a marked null with the given identifier.
    pub fn null(id: u64) -> Self {
        Value::Null(NullId(id))
    }

    /// Is this value a constant?
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Is this value a null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the constant inside, if any.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Value::Const(c) => Some(c),
            Value::Null(_) => None,
        }
    }

    /// Returns the null identifier inside, if any.
    pub fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Const(_) => None,
            Value::Null(n) => Some(*n),
        }
    }

    /// Equality of values in the sense of *naïve evaluation*: values are
    /// compared syntactically, with a null equal only to itself.
    ///
    /// This is ordinary `==`; the method exists to make call sites explicit
    /// about which notion of equality they use (contrast with
    /// [`Value::eq_3vl`]).
    pub fn eq_naive(&self, other: &Value) -> bool {
        self == other
    }

    /// Equality of values under SQL's three-valued logic: comparing anything
    /// with a null yields `Unknown`.
    pub fn eq_3vl(&self, other: &Value) -> Truth {
        match (self, other) {
            (Value::Const(a), Value::Const(b)) => {
                if a == b {
                    Truth::True
                } else {
                    Truth::False
                }
            }
            _ => Truth::Unknown,
        }
    }
}

impl From<Constant> for Value {
    fn from(c: Constant) -> Self {
        Value::Const(c)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<NullId> for Value {
    fn from(n: NullId) -> Self {
        Value::Null(n)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null(n) => write!(f, "{n}"),
        }
    }
}

/// SQL's three truth values, used by the 3-valued-logic evaluator
/// (the "practice" baseline the paper criticises).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Truth {
    /// Definitely false.
    False,
    /// Unknown (some comparison involved a null).
    Unknown,
    /// Definitely true.
    True,
}

impl Truth {
    /// Kleene conjunction.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)] // `Truth` is not a `bool`; `!` would suggest two-valued logic
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Converts from a Boolean.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// SQL `WHERE` clause semantics: only `True` selects a row.
    pub fn is_true(self) -> bool {
        self == Truth::True
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truth::True => write!(f, "true"),
            Truth::False => write!(f, "false"),
            Truth::Unknown => write!(f, "unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compare_and_display() {
        let a = Constant::Int(1);
        let b = Constant::Str("x".into());
        assert!(a < b, "integers order before strings");
        assert_eq!(a.to_string(), "1");
        assert_eq!(b.to_string(), "x");
        assert_eq!(a.as_int(), Some(1));
        assert_eq!(b.as_str(), Some("x"));
        assert_eq!(a.as_str(), None);
        assert_eq!(b.as_int(), None);
    }

    #[test]
    fn value_constructors() {
        assert!(Value::int(3).is_const());
        assert!(Value::str("a").is_const());
        assert!(Value::null(7).is_null());
        assert_eq!(Value::null(7).as_null(), Some(NullId(7)));
        assert_eq!(Value::int(3).as_const(), Some(&Constant::Int(3)));
        assert_eq!(Value::from(5i64), Value::int(5));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(NullId(2)), Value::null(2));
    }

    #[test]
    fn naive_equality_is_syntactic() {
        assert!(Value::null(1).eq_naive(&Value::null(1)));
        assert!(!Value::null(1).eq_naive(&Value::null(2)));
        assert!(!Value::null(1).eq_naive(&Value::int(1)));
        assert!(Value::int(1).eq_naive(&Value::int(1)));
    }

    #[test]
    fn three_valued_equality() {
        assert_eq!(Value::int(1).eq_3vl(&Value::int(1)), Truth::True);
        assert_eq!(Value::int(1).eq_3vl(&Value::int(2)), Truth::False);
        assert_eq!(Value::int(1).eq_3vl(&Value::null(0)), Truth::Unknown);
        assert_eq!(Value::null(0).eq_3vl(&Value::null(0)), Truth::Unknown);
    }

    #[test]
    fn kleene_logic_tables() {
        use Truth::*;
        // conjunction
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(Unknown.and(Unknown), Unknown);
        // disjunction
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(Unknown.or(Unknown), Unknown);
        // negation
        assert_eq!(True.not(), False);
        assert_eq!(False.not(), True);
        assert_eq!(Unknown.not(), Unknown);
    }

    #[test]
    fn tautology_fails_in_3vl() {
        // The paper's §1 example: `x = c OR x <> c` is not True when x is null.
        let x = Value::null(0);
        let c = Value::str("oid1");
        let t = x.eq_3vl(&c).or(x.eq_3vl(&c).not());
        assert_eq!(t, Truth::Unknown);
        assert!(
            !t.is_true(),
            "SQL drops the row even though the condition is a tautology"
        );
    }

    #[test]
    fn display_of_values() {
        assert_eq!(Value::null(3).to_string(), "⊥3");
        assert_eq!(Value::int(-4).to_string(), "-4");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Truth::Unknown.to_string(), "unknown");
    }
}
