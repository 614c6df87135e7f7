//! LTLf formulas in negation normal form.
//!
//! Shelley's temporal claims (`@claim("(!a.open) W b.open")`) are linear
//! temporal logic on finite traces (LTLf, De Giacomo & Vardi 2013). A trace
//! here is a finite — possibly empty — word of events; an atom `a.open`
//! holds at a position iff the event at that position *is* `a.open`.
//!
//! Formulas are kept in **negation normal form** with ACI-normalized
//! (flattened, sorted, deduplicated) conjunctions and disjunctions. That
//! canonicalization is what makes the progression-based automaton
//! construction ([`crate::MonitorView::materialize`]) terminate: the
//! reachable state space is a finite set of normalized positive boolean
//! combinations of subformulas.

use shelley_regular::{Alphabet, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// An LTLf formula in negation normal form.
///
/// `F φ` and `G φ` are provided as sugar ([`Formula::eventually`],
/// [`Formula::globally`]) over `U`/`R`; weak until `φ W ψ` desugars to
/// `(φ U ψ) ∨ G φ` exactly as the paper defines it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// `true`.
    True,
    /// `false`.
    False,
    /// The event at the current position is exactly this symbol.
    Atom(Symbol),
    /// The exact complement of [`Formula::Atom`]: either there is no
    /// current position (empty trace remainder) or the event at the current
    /// position differs from this symbol. Making `NotAtom` hold vacuously
    /// on the empty remainder is what keeps [`Formula::negate`] a true
    /// language complement even for empty traces.
    NotAtom(Symbol),
    /// Holds iff the remaining trace is empty (no current position).
    /// Produced by progression of [`Formula::WeakNext`]; not part of the
    /// claim surface syntax.
    Empty,
    /// Holds iff there is a current position (dual of [`Formula::Empty`]).
    /// Produced by progression of [`Formula::Next`].
    Nonempty,
    /// N-ary conjunction (normalized: flat, sorted, deduplicated).
    And(BTreeSet<Formula>),
    /// N-ary disjunction (normalized).
    Or(BTreeSet<Formula>),
    /// Strong next `X φ`: there is a next position and φ holds there.
    Next(Box<Formula>),
    /// Weak next `X[!] φ`: if there is a next position, φ holds there.
    WeakNext(Box<Formula>),
    /// `φ U ψ`: ψ eventually holds, and φ holds until then.
    Until(Box<Formula>, Box<Formula>),
    /// `φ R ψ`: ψ holds up to and including the first position where φ
    /// holds (or forever).
    Release(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// The constant `true`.
    pub fn tt() -> Formula {
        Formula::True
    }

    /// The constant `false`.
    pub fn ff() -> Formula {
        Formula::False
    }

    /// An event atom.
    pub fn atom(s: Symbol) -> Formula {
        Formula::Atom(s)
    }

    /// Conjunction with ACI normalization and constant folding.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::and_all([a, b])
    }

    /// N-ary conjunction with ACI normalization and constant folding.
    pub fn and_all<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut set = BTreeSet::new();
        for f in items {
            match f {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => set.extend(inner),
                other => {
                    set.insert(other);
                }
            }
        }
        match set.len() {
            0 => Formula::True,
            1 => set.into_iter().next().expect("one element"),
            _ => Formula::And(set),
        }
    }

    /// Disjunction with ACI normalization and constant folding.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::or_all([a, b])
    }

    /// N-ary disjunction with ACI normalization and constant folding.
    pub fn or_all<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut set = BTreeSet::new();
        for f in items {
            match f {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => set.extend(inner),
                other => {
                    set.insert(other);
                }
            }
        }
        match set.len() {
            0 => Formula::False,
            1 => set.into_iter().next().expect("one element"),
            _ => Formula::Or(set),
        }
    }

    /// Implication `a -> b` (classical, via NNF).
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or(a.negate(), b)
    }

    /// Strong next.
    pub fn next(f: Formula) -> Formula {
        Formula::Next(Box::new(f))
    }

    /// Weak next.
    pub fn weak_next(f: Formula) -> Formula {
        Formula::WeakNext(Box::new(f))
    }

    /// `φ U ψ` with constant folding.
    ///
    /// The folds respect possibly-empty traces: `U` always requires at
    /// least one position, so `φ U true ≡ nonempty` (not `true`) and
    /// `false U ψ ≡ nonempty ∧ ψ`.
    pub fn until(a: Formula, b: Formula) -> Formula {
        match (&a, &b) {
            (_, Formula::False) => Formula::False,
            (_, Formula::True) => Formula::Nonempty,
            (Formula::False, _) => Formula::and(Formula::Nonempty, b),
            _ => Formula::Until(Box::new(a), Box::new(b)),
        }
    }

    /// `φ R ψ` with constant folding.
    ///
    /// Dually to [`Formula::until`], `R` holds vacuously on the empty
    /// trace: `φ R false ≡ empty` (not `false`) and
    /// `true R ψ ≡ empty ∨ ψ`.
    pub fn release(a: Formula, b: Formula) -> Formula {
        match (&a, &b) {
            (_, Formula::True) => Formula::True,
            (_, Formula::False) => Formula::Empty,
            (Formula::True, _) => Formula::or(Formula::Empty, b),
            _ => Formula::Release(Box::new(a), Box::new(b)),
        }
    }

    /// `F φ = true U φ`.
    pub fn eventually(f: Formula) -> Formula {
        Formula::until(Formula::True, f)
    }

    /// `G φ = false R φ`.
    pub fn globally(f: Formula) -> Formula {
        Formula::release(Formula::False, f)
    }

    /// Weak until, the paper's `φ₁ W φ₂ = (φ₁ U φ₂) ∨ G φ₁`.
    pub fn weak_until(a: Formula, b: Formula) -> Formula {
        Formula::or(Formula::until(a.clone(), b), Formula::globally(a))
    }

    /// The negation, pushed to NNF (every operator has a dual).
    pub fn negate(&self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Empty => Formula::Nonempty,
            Formula::Nonempty => Formula::Empty,
            Formula::Atom(s) => Formula::NotAtom(*s),
            Formula::NotAtom(s) => Formula::Atom(*s),
            Formula::And(items) => Formula::or_all(items.iter().map(Formula::negate)),
            Formula::Or(items) => Formula::and_all(items.iter().map(Formula::negate)),
            Formula::Next(f) => Formula::weak_next(f.negate()),
            Formula::WeakNext(f) => Formula::next(f.negate()),
            Formula::Until(a, b) => Formula::release(a.negate(), b.negate()),
            Formula::Release(a, b) => Formula::until(a.negate(), b.negate()),
        }
    }

    /// All atoms occurring in the formula.
    pub fn atoms(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Formula::True | Formula::False | Formula::Empty | Formula::Nonempty => {}
            Formula::Atom(s) | Formula::NotAtom(s) => {
                out.insert(*s);
            }
            Formula::And(items) | Formula::Or(items) => {
                for f in items {
                    f.collect_atoms(out);
                }
            }
            Formula::Next(f) | Formula::WeakNext(f) => f.collect_atoms(out),
            Formula::Until(a, b) | Formula::Release(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::True
            | Formula::False
            | Formula::Empty
            | Formula::Nonempty
            | Formula::Atom(_)
            | Formula::NotAtom(_) => 1,
            Formula::And(items) | Formula::Or(items) => {
                1 + items.iter().map(Formula::size).sum::<usize>()
            }
            Formula::Next(f) | Formula::WeakNext(f) => 1 + f.size(),
            Formula::Until(a, b) | Formula::Release(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Renders the formula with event names from `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> DisplayFormula<'a> {
        DisplayFormula {
            formula: self,
            alphabet,
        }
    }
}

/// Pretty-printer returned by [`Formula::display`].
#[derive(Debug)]
pub struct DisplayFormula<'a> {
    formula: &'a Formula,
    alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayFormula<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_formula(f, self.formula, self.alphabet, false)
    }
}

fn write_formula(
    f: &mut fmt::Formatter<'_>,
    formula: &Formula,
    ab: &Alphabet,
    parens: bool,
) -> fmt::Result {
    let write_binary = |f: &mut fmt::Formatter<'_>,
                        op: &str,
                        a: &Formula,
                        b: &Formula,
                        parens: bool|
     -> fmt::Result {
        if parens {
            write!(f, "(")?;
        }
        write_formula(f, a, ab, true)?;
        write!(f, " {op} ")?;
        write_formula(f, b, ab, true)?;
        if parens {
            write!(f, ")")?;
        }
        Ok(())
    };
    match formula {
        Formula::True => write!(f, "true"),
        Formula::False => write!(f, "false"),
        Formula::Empty => write!(f, "empty"),
        Formula::Nonempty => write!(f, "nonempty"),
        Formula::Atom(s) => write!(f, "{}", ab.name(*s)),
        Formula::NotAtom(s) => write!(f, "!{}", ab.name(*s)),
        Formula::And(items) => {
            if parens {
                write!(f, "(")?;
            }
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, " & ")?;
                }
                write_formula(f, item, ab, true)?;
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Formula::Or(items) => {
            if parens {
                write!(f, "(")?;
            }
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write_formula(f, item, ab, true)?;
            }
            if parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        Formula::Next(g) => {
            write!(f, "X ")?;
            write_formula(f, g, ab, true)
        }
        Formula::WeakNext(g) => {
            write!(f, "X[!] ")?;
            write_formula(f, g, ab, true)
        }
        Formula::Until(a, b) => {
            if **a == Formula::True {
                write!(f, "F ")?;
                return write_formula(f, b, ab, true);
            }
            write_binary(f, "U", a, b, parens)
        }
        Formula::Release(a, b) => {
            if **a == Formula::False {
                write!(f, "G ")?;
                return write_formula(f, b, ab, true);
            }
            write_binary(f, "R", a, b, parens)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a.open");
        let b = ab.intern("b.open");
        (ab, a, b)
    }

    #[test]
    fn and_normalizes() {
        let (_, a, b) = ab2();
        let f1 = Formula::and(Formula::atom(a), Formula::atom(b));
        let f2 = Formula::and(Formula::atom(b), Formula::atom(a));
        assert_eq!(f1, f2);
        assert_eq!(
            Formula::and(Formula::tt(), Formula::atom(a)),
            Formula::atom(a)
        );
        assert_eq!(Formula::and(Formula::ff(), Formula::atom(a)), Formula::ff());
        // Flattening: (a & (a & b)) == (a & b).
        let nested = Formula::and(Formula::atom(a), f1.clone());
        assert_eq!(nested, f1);
    }

    #[test]
    fn or_normalizes() {
        let (_, a, _) = ab2();
        assert_eq!(
            Formula::or(Formula::ff(), Formula::atom(a)),
            Formula::atom(a)
        );
        assert_eq!(Formula::or(Formula::tt(), Formula::atom(a)), Formula::tt());
        assert_eq!(
            Formula::or(Formula::atom(a), Formula::atom(a)),
            Formula::atom(a)
        );
    }

    #[test]
    fn negation_is_involutive() {
        let (_, a, b) = ab2();
        let f = Formula::weak_until(Formula::atom(a).negate(), Formula::atom(b));
        assert_eq!(f.negate().negate(), f);
    }

    #[test]
    fn duals() {
        let (_, a, _) = ab2();
        let f = Formula::globally(Formula::atom(a));
        // ¬G a = F ¬a.
        assert_eq!(f.negate(), Formula::eventually(Formula::NotAtom(a)));
        let x = Formula::next(Formula::atom(a));
        assert_eq!(x.negate(), Formula::weak_next(Formula::NotAtom(a)));
    }

    #[test]
    fn display_claim() {
        let (ab, a, b) = ab2();
        let f = Formula::weak_until(Formula::NotAtom(a), Formula::atom(b));
        let s = f.display(&ab).to_string();
        // W desugars to (¬a U b) ∨ G ¬a.
        assert!(s.contains("U"), "{s}");
        assert!(s.contains("G"), "{s}");
        assert!(s.contains("!a.open"), "{s}");
    }

    #[test]
    fn atoms_collected() {
        let (_, a, b) = ab2();
        let f = Formula::until(Formula::atom(a), Formula::next(Formula::atom(b)));
        assert_eq!(f.atoms(), BTreeSet::from([a, b]));
    }
}
