//! Recursive-descent parser producing [`RaExpr`]s.

use std::fmt;

use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};

use crate::lexer::{tokenize, LexError, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// An unexpected token (or end of input) was found.
    Unexpected {
        /// What was found, rendered as text (`"end of input"` if none).
        found: String,
        /// What the parser was expecting.
        expected: String,
    },
    /// Input continued after a complete expression.
    TrailingInput(String),
    /// The query nests deeper than [`MAX_NESTING`] levels.
    TooDeep {
        /// The nesting bound that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected } => {
                write!(f, "unexpected `{found}`, expected {expected}")
            }
            ParseError::TrailingInput(tok) => {
                write!(f, "unexpected trailing input starting at `{tok}`")
            }
            ParseError::TooDeep { limit } => {
                write!(f, "query nests deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// The deepest nesting [`parse`] accepts. It bounds two things: the
/// parser's own recursion (every parenthesis, operator argument and `not`
/// is one level down) and the height of the tree it returns (every
/// operator node is one level up, a chained `union`/`minus`/`and`/`or`
/// included, and a selection's predicate counts into the selection's
/// height). A query past either bound is rejected with
/// [`ParseError::TooDeep`] as soon as the parser reaches it — before its own
/// recursion, or any later recursive pass over the tree (typecheck,
/// planning, analysis, evaluation), can exhaust the stack. At this bound
/// every such pass fits a 2 MB thread stack in debug builds with room to
/// spare, and release builds need far less.
pub const MAX_NESTING: usize = 128;

/// Parses a query in the textual syntax into a relational algebra expression.
pub fn parse(input: &str) -> Result<RaExpr, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let (expr, _) = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError::TrailingInput(
            parser.tokens[parser.pos].to_string(),
        ));
    }
    Ok(expr)
}

/// A parsed item and the height of its tree (a leaf is 1).
type Measured<T> = (T, usize);

/// The height of a node over children of height `below`, failing past
/// [`MAX_NESTING`].
fn node_height(below: usize) -> Result<usize, ParseError> {
    if below >= MAX_NESTING {
        return Err(ParseError::TooDeep { limit: MAX_NESTING });
    }
    Ok(below + 1)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursion levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Runs `f` one recursion level down, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(ParseError::TooDeep { limit: MAX_NESTING });
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t == token => Ok(()),
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: what.to_owned(),
            }),
        }
    }

    fn keyword(&self) -> Option<&str> {
        match self.peek() {
            Some(Token::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn expr(&mut self) -> Result<Measured<RaExpr>, ParseError> {
        self.nested(Self::chain)
    }

    /// `term (op term)*`, associated to the left.
    fn chain(&mut self) -> Result<Measured<RaExpr>, ParseError> {
        let (mut left, mut height) = self.term()?;
        loop {
            let op = match self.keyword() {
                Some("union") | Some("minus") | Some("intersect") | Some("divide") => {
                    self.keyword().map(str::to_owned)
                }
                _ => None,
            };
            let Some(op) = op else { break };
            self.next();
            let (right, right_height) = self.term()?;
            height = node_height(height.max(right_height))?;
            left = match op.as_str() {
                "union" => left.union(right),
                "minus" => left.difference(right),
                "intersect" => left.intersection(right),
                "divide" => left.divide(right),
                _ => unreachable!("operator keywords are matched above"),
            };
        }
        Ok((left, height))
    }

    fn term(&mut self) -> Result<Measured<RaExpr>, ParseError> {
        match self.next() {
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "select" => {
                    self.expect(&Token::LBracket, "`[` after select")?;
                    let (pred, pred_height) = self.predicate()?;
                    self.expect(&Token::RBracket, "`]` after predicate")?;
                    self.expect(&Token::LParen, "`(` after select[..]")?;
                    let (inner, height) = self.expr()?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((inner.select(pred), node_height(height.max(pred_height))?))
                }
                "project" => {
                    self.expect(&Token::LBracket, "`[` after project")?;
                    let cols = self.columns()?;
                    self.expect(&Token::RBracket, "`]` after columns")?;
                    self.expect(&Token::LParen, "`(` after project[..]")?;
                    let (inner, height) = self.expr()?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((inner.project(cols), node_height(height)?))
                }
                "product" => {
                    self.expect(&Token::LParen, "`(` after product")?;
                    let (a, a_height) = self.expr()?;
                    self.expect(&Token::Comma, "`,` between product operands")?;
                    let (b, b_height) = self.expr()?;
                    self.expect(&Token::RParen, "`)`")?;
                    Ok((a.product(b), node_height(a_height.max(b_height))?))
                }
                "delta" => Ok((RaExpr::Delta, 1)),
                name => Ok((RaExpr::relation(name), 1)),
            },
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: "an expression".to_owned(),
            }),
        }
    }

    fn columns(&mut self) -> Result<Vec<usize>, ParseError> {
        let mut cols = Vec::new();
        loop {
            if self.peek() == Some(&Token::Hash) {
                self.next();
            }
            match self.next() {
                Some(Token::Number(n)) if n >= 0 => cols.push(n as usize),
                other => {
                    return Err(ParseError::Unexpected {
                        found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                        expected: "a non-negative column number".to_owned(),
                    })
                }
            }
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(cols)
    }

    fn predicate(&mut self) -> Result<Measured<Predicate>, ParseError> {
        self.nested(Self::disjunction)
    }

    fn disjunction(&mut self) -> Result<Measured<Predicate>, ParseError> {
        let (mut left, mut height) = self.conjunction()?;
        while self.keyword() == Some("or") {
            self.next();
            let (right, right_height) = self.conjunction()?;
            height = node_height(height.max(right_height))?;
            left = left.or(right);
        }
        Ok((left, height))
    }

    fn conjunction(&mut self) -> Result<Measured<Predicate>, ParseError> {
        let (mut left, mut height) = self.atom()?;
        while self.keyword() == Some("and") {
            self.next();
            let (right, right_height) = self.atom()?;
            height = node_height(height.max(right_height))?;
            left = left.and(right);
        }
        Ok((left, height))
    }

    fn atom(&mut self) -> Result<Measured<Predicate>, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s == "not" => {
                self.next();
                let (p, height) = self.nested(Self::atom)?;
                Ok((p.negate(), node_height(height)?))
            }
            Some(Token::Ident(s)) if s == "true" => {
                self.next();
                Ok((Predicate::True, 1))
            }
            Some(Token::Ident(s)) if s == "false" => {
                self.next();
                Ok((Predicate::False, 1))
            }
            Some(Token::LParen) => {
                self.next();
                let p = self.predicate()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(p)
            }
            _ => {
                let left = self.operand()?;
                let negated = match self.next() {
                    Some(Token::Eq) => false,
                    Some(Token::NotEq) => true,
                    other => {
                        return Err(ParseError::Unexpected {
                            found: other
                                .map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                            expected: "`=` or `!=`".to_owned(),
                        })
                    }
                };
                let right = self.operand()?;
                let p = if negated {
                    Predicate::neq(left, right)
                } else {
                    Predicate::eq(left, right)
                };
                Ok((p, 1))
            }
        }
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.next() {
            Some(Token::Hash) => match self.next() {
                Some(Token::Number(n)) if n >= 0 => Ok(Operand::col(n as usize)),
                other => Err(ParseError::Unexpected {
                    found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                    expected: "a column number after `#`".to_owned(),
                }),
            },
            Some(Token::Number(n)) => Ok(Operand::int(n)),
            Some(Token::Str(s)) => Ok(Operand::str(s)),
            other => Err(ParseError::Unexpected {
                found: other.map_or_else(|| "end of input".to_owned(), |t| t.to_string()),
                expected: "`#<col>`, a number, or a string".to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::classify::{classify, QueryClass};

    #[test]
    fn parses_the_unpaid_orders_query() {
        let q = parse("project[#0](Order) minus project[#1](Pay)").unwrap();
        assert_eq!(q.to_string(), "(π[#0](Order) − π[#1](Pay))");
        assert_eq!(classify(&q), QueryClass::FullRa);
    }

    #[test]
    fn parses_selection_predicates() {
        let q = parse("project[#0](select[#1 = 'oid1' or #1 != 'oid1'](Pay))").unwrap();
        assert!(q.to_string().contains("oid1"));
        let q = parse("select[not (#0 = 1) and true](R)").unwrap();
        assert_eq!(classify(&q), QueryClass::FullRa);
        let q = parse("select[#0 = 1 and #1 = #2](product(R, S))").unwrap();
        assert_eq!(classify(&q), QueryClass::Positive);
    }

    #[test]
    fn parses_set_operators_left_associatively() {
        let q = parse("R union S union T").unwrap();
        assert_eq!(q.to_string(), "((R ∪ S) ∪ T)");
        let q = parse("R minus S intersect T").unwrap();
        assert_eq!(q.to_string(), "((R − S) ∩ T)");
    }

    #[test]
    fn parses_division_and_delta() {
        let q = parse("R divide project[#0](S)").unwrap();
        assert_eq!(classify(&q), QueryClass::RaCwa);
        let q = parse("R divide delta").unwrap();
        assert_eq!(classify(&q), QueryClass::RaCwa);
    }

    #[test]
    fn parses_parenthesised_expressions() {
        let q = parse("R minus (S union T)").unwrap();
        assert_eq!(q.to_string(), "(R − (S ∪ T))");
    }

    #[test]
    fn boolean_projection() {
        // project[] is not valid (needs at least one column); a Boolean query is
        // written by projecting onto no columns via "project[](..)" — we require
        // at least one number, so use the library API for that. Check the error.
        assert!(parse("project[](R)").is_err());
    }

    fn nested_projections(depth: usize) -> String {
        format!("{}R{}", "project[#0](".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded_at_the_parser() {
        let too_deep = Err(ParseError::TooDeep { limit: MAX_NESTING });
        // A leaf is one level; every projection adds one.
        assert!(parse(&nested_projections(MAX_NESTING - 1)).is_ok());
        assert_eq!(parse(&nested_projections(MAX_NESTING)), too_deep);
        assert_eq!(parse(&nested_projections(100_000)), too_deep);
        // Parentheses build no node but recurse: they are bounded too.
        let parens = |n: usize| format!("{}R{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_NESTING - 1)).is_ok());
        assert_eq!(parse(&parens(100_000)), too_deep);
        // Chains of set operators and connectives grow the tree without
        // recursing in the parser: they count towards its height.
        let unions = |n: usize| vec!["R"; n + 1].join(" union ");
        assert!(parse(&unions(MAX_NESTING - 1)).is_ok());
        assert_eq!(parse(&unions(MAX_NESTING)), too_deep);
        let ands = vec!["#0 = 1"; 100_000].join(" and ");
        assert_eq!(parse(&format!("select[{ands}](R)")), too_deep);
        let nots = "not ".repeat(100_000);
        assert_eq!(parse(&format!("select[{nots}#0 = 1](R)")), too_deep);
        // A chain's first operand sits one level deeper per operator, so a
        // nested first operand and a long chain add up.
        let half = MAX_NESTING / 2;
        let stacked = format!("{}{}", nested_projections(half), " union R".repeat(half));
        assert_eq!(parse(&stacked), too_deep);
        // A selection is as tall as its predicate.
        let tall_pred = vec!["#0 = 1"; MAX_NESTING].join(" or ");
        assert_eq!(parse(&format!("select[{tall_pred}](R)")), too_deep);
        // Siblings do not add up: height is per path, not per query.
        let deepest = nested_projections(MAX_NESTING - 2);
        assert!(parse(&format!("product({deepest}, {deepest})")).is_ok());
        assert!(ParseError::TooDeep { limit: 3 }
            .to_string()
            .contains("deeper than 3"));
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("select[#0 = ](R)").is_err());
        assert!(parse("project[#0](R) extra").is_err());
        assert!(parse("select[#0 1](R)").is_err());
        assert!(parse("product(R)").is_err());
        assert!(parse("select #0 = 1 (R)").is_err());
        assert!(parse("project[#-1](R)").is_err());
        let err = parse("select['a' <> ](R)").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }
}
