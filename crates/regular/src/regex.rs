//! Regular expressions over event symbols.
//!
//! This is the target representation of the paper's behavior inference:
//! `r ::= ε | ∅ | f | r·r | r+r | r*` (Fig. 4). Construction goes through
//! smart constructors that apply the standard algebraic identities
//! (`∅·r = ∅`, `ε·r = r`, `∅+r = r`, `(r*)* = r*`, …) so inferred behaviors
//! stay small.

use crate::symbol::{Alphabet, Symbol};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A regular expression over [`Symbol`]s.
///
/// Values are immutable trees with shared (`Arc`) children, so cloning is
/// cheap. Use the associated constructor functions rather than building
/// variants directly: they normalize away trivial redexes.
///
/// # Examples
///
/// ```
/// use shelley_regular::{Alphabet, Regex};
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// let b = ab.intern("b");
/// // (a·b)* — matches the empty word and any repetition of "ab".
/// let r = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
/// assert!(r.matches(&[]));
/// assert!(r.matches(&[a, b, a, b]));
/// assert!(!r.matches(&[a, a]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language `∅`.
    Empty,
    /// The language containing only the empty word, `ε`.
    Epsilon,
    /// A single event symbol `f`.
    Sym(Symbol),
    /// Concatenation `r₁·r₂`.
    Concat(Arc<Regex>, Arc<Regex>),
    /// Union `r₁+r₂`.
    Union(Arc<Regex>, Arc<Regex>),
    /// Kleene star `r*`.
    Star(Arc<Regex>),
}

impl Regex {
    /// The empty language `∅`.
    pub fn empty() -> Self {
        Regex::Empty
    }

    /// The empty word `ε`.
    pub fn epsilon() -> Self {
        Regex::Epsilon
    }

    /// A single symbol.
    pub fn sym(s: Symbol) -> Self {
        Regex::Sym(s)
    }

    /// Concatenation with simplification (`∅` annihilates, `ε` is identity).
    pub fn concat(a: Regex, b: Regex) -> Self {
        match (a, b) {
            (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
            (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
            (a, b) => Regex::Concat(Arc::new(a), Arc::new(b)),
        }
    }

    /// Union with simplification (`∅` is identity; idempotence on equal arms).
    pub fn union(a: Regex, b: Regex) -> Self {
        match (a, b) {
            (Regex::Empty, r) | (r, Regex::Empty) => r,
            (a, b) if a == b => a,
            (a, b) => Regex::Union(Arc::new(a), Arc::new(b)),
        }
    }

    /// Kleene star with simplification (`∅* = ε* = ε`, `(r*)* = r*`).
    pub fn star(a: Regex) -> Self {
        match a {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            a => Regex::Star(Arc::new(a)),
        }
    }

    /// Unions all expressions (`∅` for an empty sequence).
    pub fn union_all<I: IntoIterator<Item = Regex>>(items: I) -> Self {
        items.into_iter().fold(Regex::Empty, Regex::union)
    }

    /// The expression matching exactly the given word.
    pub fn word(word: &[Symbol]) -> Self {
        word.iter()
            .copied()
            .map(Regex::sym)
            .fold(Regex::Epsilon, Regex::concat)
    }

    /// Whether the empty word is in the language (`ε ∈ L(r)`).
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(a, b) => a.nullable() && b.nullable(),
            Regex::Union(a, b) => a.nullable() || b.nullable(),
        }
    }

    /// Whether the language is empty (`L(r) = ∅`).
    ///
    /// This structural check is exact for regular expressions.
    pub fn is_empty_language(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Sym(_) | Regex::Star(_) => false,
            Regex::Concat(a, b) => a.is_empty_language() || b.is_empty_language(),
            Regex::Union(a, b) => a.is_empty_language() && b.is_empty_language(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(a, b) | Regex::Union(a, b) => 1 + a.size() + b.size(),
            Regex::Star(a) => 1 + a.size(),
        }
    }

    /// The set of symbols that occur in the expression.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(s) => {
                out.insert(*s);
            }
            Regex::Concat(a, b) | Regex::Union(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            Regex::Star(a) => a.collect_symbols(out),
        }
    }

    /// Renders the expression with symbol names from `alphabet`, in the
    /// paper's notation (`·`, `+`, `*`, `ε`, `∅`).
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> DisplayRegex<'a> {
        DisplayRegex {
            regex: self,
            alphabet,
        }
    }
}

/// Pretty-printer returned by [`Regex::display`].
#[derive(Debug)]
pub struct DisplayRegex<'a> {
    regex: &'a Regex,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayRegex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_regex(f, self.regex, self.alphabet, 0)
    }
}

/// Precedence levels: union = 0, concat = 1, star/atom = 2.
fn write_regex(f: &mut fmt::Formatter<'_>, r: &Regex, ab: &Alphabet, prec: u8) -> fmt::Result {
    match r {
        Regex::Empty => write!(f, "∅"),
        Regex::Epsilon => write!(f, "ε"),
        Regex::Sym(s) => write!(f, "{}", ab.name(*s)),
        Regex::Union(a, b) => {
            if prec > 0 {
                write!(f, "(")?;
            }
            write_regex(f, a, ab, 0)?;
            write!(f, " + ")?;
            write_regex(f, b, ab, 0)?;
            if prec > 0 {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Concat(a, b) => {
            if prec > 1 {
                write!(f, "(")?;
            }
            write_regex(f, a, ab, 1)?;
            write!(f, " · ")?;
            write_regex(f, b, ab, 1)?;
            if prec > 1 {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Star(a) => {
            write_regex(f, a, ab, 2)?;
            write!(f, "*")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Alphabet, Symbol, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        (ab, a, b, c)
    }

    #[test]
    fn smart_concat_simplifies() {
        let (_, a, _, _) = abc();
        assert_eq!(Regex::concat(Regex::empty(), Regex::sym(a)), Regex::Empty);
        assert_eq!(
            Regex::concat(Regex::epsilon(), Regex::sym(a)),
            Regex::sym(a)
        );
        assert_eq!(
            Regex::concat(Regex::sym(a), Regex::epsilon()),
            Regex::sym(a)
        );
    }

    #[test]
    fn smart_union_simplifies() {
        let (_, a, _, _) = abc();
        assert_eq!(Regex::union(Regex::empty(), Regex::sym(a)), Regex::sym(a));
        assert_eq!(Regex::union(Regex::sym(a), Regex::sym(a)), Regex::sym(a));
    }

    #[test]
    fn smart_star_simplifies() {
        let (_, a, _, _) = abc();
        assert_eq!(Regex::star(Regex::empty()), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::epsilon()), Regex::Epsilon);
        let sa = Regex::star(Regex::sym(a));
        assert_eq!(Regex::star(sa.clone()), sa);
    }

    #[test]
    fn nullable_cases() {
        let (_, a, b, _) = abc();
        assert!(Regex::epsilon().nullable());
        assert!(!Regex::empty().nullable());
        assert!(!Regex::sym(a).nullable());
        assert!(Regex::star(Regex::sym(a)).nullable());
        assert!(Regex::union(Regex::sym(a), Regex::epsilon()).nullable());
        assert!(!Regex::concat(Regex::sym(a), Regex::sym(b)).nullable());
    }

    #[test]
    fn empty_language_detection() {
        let (_, a, _, _) = abc();
        assert!(Regex::Empty.is_empty_language());
        // Manually-built (bypassing smart constructors) dead concatenation.
        let dead = Regex::Concat(Arc::new(Regex::Sym(a)), Arc::new(Regex::Empty));
        assert!(dead.is_empty_language());
        assert!(!Regex::star(Regex::sym(a)).is_empty_language());
    }

    #[test]
    fn display_matches_paper_notation() {
        let (ab, a, b, c) = abc();
        // (a·((b·∅)+c))* from Example 3, built without simplification of b·∅.
        let inner = Regex::Union(
            Arc::new(Regex::Concat(
                Arc::new(Regex::Sym(b)),
                Arc::new(Regex::Empty),
            )),
            Arc::new(Regex::Sym(c)),
        );
        let r = Regex::Star(Arc::new(Regex::Concat(
            Arc::new(Regex::Sym(a)),
            Arc::new(inner),
        )));
        assert_eq!(r.display(&ab).to_string(), "(a · (b · ∅ + c))*");
    }

    #[test]
    fn word_and_size() {
        let (_, a, b, _) = abc();
        let w = Regex::word(&[a, b]);
        assert!(w.matches(&[a, b]));
        assert!(!w.matches(&[a]));
        assert!(w.size() >= 3);
    }
}
