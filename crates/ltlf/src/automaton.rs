//! LTLf monitors via progression quotienting.
//!
//! States are normalized formulas; the transition on event `e` is
//! [`progress`](crate::progress); a state accepts iff
//! [`accepts_empty`](crate::accepts_empty). ACI normalization of `∧`/`∨`
//! (see [`Formula`]) keeps the reachable state space finite.
//!
//! The monitor accepts exactly the finite traces satisfying the formula, so
//! model checking `L(M) ⊆ L(φ)` reduces to emptiness of `L(M) ∩ L(¬φ)` —
//! the paper's future-work observation that Shelley can work directly with
//! regular languages instead of encoding into ω-regular NuSMV models.
//!
//! The monitor is a *lazy* view: [`MonitorView`] implements [`Lang`]
//! directly by progression, so checks explore only the formula states
//! their model actually reaches. Compiling the full DFA up front
//! ([`materialize`](MonitorView::materialize), worst-case exponential in
//! the alphabet) is the escape hatch for export.

use crate::semantics::{accepts_empty, progress};
use crate::syntax::Formula;
use shelley_regular::lang::{self, Lang};
use shelley_regular::{Alphabet, Dfa, Symbol};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Canonicalizes a progression state.
///
/// Progression rebuilds boolean structure around the temporal *closure*
/// formulas (the `U`/`R`/`X` subterms of the original claim), and two
/// semantically equal states can differ syntactically — left alone, the
/// state space would grow without bound. Converting every state to DNF
/// over closure literals (with absorption and complementary-literal
/// pruning) makes equality semantic enough for the quotient to stay
/// finite: literals always belong to the finite closure of the original
/// formula, so there are finitely many DNFs.
///
/// DNF conversion is exponential in the worst case, which is acceptable at
/// claim size (a few operators).
fn canonicalize(f: Formula) -> Formula {
    match &f {
        Formula::And(_) | Formula::Or(_) => {}
        _ => return f,
    }
    let clauses = dnf(&f);
    // Absorption: drop clauses that are supersets of another clause.
    let mut kept: Vec<&BTreeSet<Formula>> = Vec::new();
    for c in &clauses {
        if !clauses.iter().any(|d| d != c && d.is_subset(c)) {
            kept.push(c);
        }
    }
    Formula::or_all(
        kept.into_iter()
            .map(|c| Formula::and_all(c.iter().cloned())),
    )
}

/// DNF over non-boolean literals. Clauses with complementary or mutually
/// exclusive (distinct `Atom`) literals are dropped.
fn dnf(f: &Formula) -> BTreeSet<BTreeSet<Formula>> {
    match f {
        Formula::Or(items) => items.iter().flat_map(dnf).collect(),
        Formula::And(items) => {
            let mut acc: BTreeSet<BTreeSet<Formula>> = BTreeSet::from([BTreeSet::new()]);
            for item in items {
                let item_dnf = dnf(item);
                let mut next = BTreeSet::new();
                for clause in &acc {
                    for extra in &item_dnf {
                        let mut merged = clause.clone();
                        merged.extend(extra.iter().cloned());
                        if clause_consistent(&merged) {
                            next.insert(merged);
                        }
                    }
                }
                acc = next;
            }
            acc
        }
        lit => BTreeSet::from([BTreeSet::from([lit.clone()])]),
    }
}

/// Cheap unsatisfiability filter for a conjunction of literals.
fn clause_consistent(clause: &BTreeSet<Formula>) -> bool {
    let mut atom: Option<Symbol> = None;
    for lit in clause {
        match lit {
            // Two distinct event atoms can never hold at the same position.
            Formula::Atom(s) => {
                if let Some(prev) = atom {
                    if prev != *s {
                        return false;
                    }
                }
                atom = Some(*s);
            }
            Formula::NotAtom(s) if clause.contains(&Formula::Atom(*s)) => {
                return false;
            }
            Formula::Empty if clause.contains(&Formula::Nonempty) => {
                return false;
            }
            _ => {}
        }
    }
    if let Some(a) = atom {
        if clause.contains(&Formula::NotAtom(a)) || clause.contains(&Formula::Empty) {
            return false;
        }
    }
    true
}

/// A lazy LTLf monitor: the formula's language as a [`Lang`] view.
///
/// States *are* canonicalized formulas; stepping progresses the formula by
/// one event and re-canonicalizes. Nothing is compiled up front — a check
/// that only drives the monitor along its model's reachable traces touches
/// only those formula states, while the full monitor DFA can be exponential
/// in the alphabet.
///
/// [`materialize`](Self::materialize) builds the complete DFA when an
/// export actually needs it.
///
/// # Examples
///
/// ```
/// use shelley_ltlf::{parse_formula, MonitorView};
/// use shelley_regular::lang::Lang;
/// use shelley_regular::Alphabet;
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let f = parse_formula("G !fail", &mut ab)?;
/// let fail = ab.lookup("fail").unwrap();
/// let view = MonitorView::new(&f, Arc::new(ab));
/// let mut state = view.start();
/// assert!(view.is_accepting(&state));
/// state = view.step(&state, fail);
/// assert!(!view.is_accepting(&state));
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonitorView {
    start: Formula,
    alphabet: Arc<Alphabet>,
}

impl MonitorView {
    /// A lazy monitor for `formula` over `alphabet`.
    ///
    /// Events mentioned by the formula but absent from `alphabet` are
    /// impossible; callers should intern the formula's atoms into the
    /// alphabet first (the claim parser does this automatically).
    pub fn new(formula: &Formula, alphabet: Arc<Alphabet>) -> Self {
        MonitorView {
            start: canonicalize(formula.clone()),
            alphabet,
        }
    }

    /// Compiles the complete monitor DFA (the eager escape hatch),
    /// accepting exactly the finite traces satisfying the formula.
    ///
    /// ```
    /// use shelley_ltlf::{parse_formula, MonitorView};
    /// use shelley_regular::Alphabet;
    /// use std::sync::Arc;
    ///
    /// let mut ab = Alphabet::new();
    /// let f = parse_formula("(!a.open) W b.open", &mut ab)?;
    /// let a_open = ab.lookup("a.open").unwrap();
    /// let b_open = ab.lookup("b.open").unwrap();
    /// let dfa = MonitorView::new(&f, Arc::new(ab)).materialize();
    /// assert!(dfa.accepts(&[b_open, a_open]));
    /// assert!(!dfa.accepts(&[a_open]));
    /// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
    /// ```
    pub fn materialize(&self) -> Dfa {
        lang::materialize(self)
    }
}

impl Lang for MonitorView {
    type State = Formula;

    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn start(&self) -> Formula {
        self.start.clone()
    }

    fn step(&self, state: &Formula, symbol: Symbol) -> Formula {
        canonicalize(progress(state, symbol))
    }

    fn is_accepting(&self, state: &Formula) -> bool {
        accepts_empty(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::eval;
    use shelley_regular::lang::{Complement, Product};

    fn monitor_dfa(formula: &Formula, alphabet: Arc<Alphabet>) -> Dfa {
        MonitorView::new(formula, alphabet).materialize()
    }

    fn setup() -> (Arc<Alphabet>, Symbol, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        (Arc::new(ab), a, b, c)
    }

    #[test]
    fn dfa_agrees_with_eval_on_samples() {
        let (ab, a, b, c) = setup();
        let formulas = [
            Formula::globally(Formula::NotAtom(a)),
            Formula::eventually(Formula::atom(b)),
            Formula::weak_until(Formula::NotAtom(a), Formula::atom(b)),
            Formula::until(
                Formula::or(Formula::atom(a), Formula::atom(c)),
                Formula::atom(b),
            ),
            Formula::next(Formula::atom(c)),
            Formula::and(
                Formula::eventually(Formula::atom(a)),
                Formula::globally(Formula::NotAtom(b)),
            ),
        ];
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![a],
            vec![b],
            vec![c],
            vec![a, b],
            vec![b, a],
            vec![c, b, a],
            vec![a, a, b, c],
            vec![c, c, c],
        ];
        for f in &formulas {
            let dfa = monitor_dfa(f, ab.clone());
            for w in &words {
                assert_eq!(dfa.accepts(w), eval(f, w), "formula {f:?} word {w:?}");
            }
        }
    }

    #[test]
    fn monitor_of_negation_is_complement() {
        let (ab, a, b, _) = setup();
        let f = Formula::weak_until(Formula::NotAtom(a), Formula::atom(b));
        let pos = monitor_dfa(&f, ab.clone());
        let neg = monitor_dfa(&f.negate(), ab.clone());
        let comp = Complement::new(&neg);
        assert!(lang::is_empty(&Product::difference(&pos, &comp)));
        assert!(lang::is_empty(&Product::difference(&comp, &pos)));
    }

    #[test]
    fn automaton_is_small_for_simple_claims() {
        let (ab, a, b, _) = setup();
        let f = Formula::weak_until(Formula::NotAtom(a), Formula::atom(b));
        let dfa = monitor_dfa(&f, ab).minimize();
        // !a W b has a 3-state minimal monitor (waiting / satisfied / failed).
        assert!(dfa.num_states() <= 3, "{} states", dfa.num_states());
    }

    #[test]
    fn view_agrees_with_materialized_dfa() {
        let (ab, a, b, c) = setup();
        let f = Formula::until(
            Formula::or(Formula::atom(a), Formula::atom(c)),
            Formula::atom(b),
        );
        let view = MonitorView::new(&f, ab.clone());
        let dfa = view.materialize();
        for w in [
            vec![],
            vec![a],
            vec![a, b],
            vec![c, b],
            vec![b, a],
            vec![a, c, b],
        ] {
            let mut state = view.start();
            for &s in &w {
                state = view.step(&state, s);
            }
            assert_eq!(view.is_accepting(&state), dfa.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn true_and_false_monitors() {
        let (ab, a, _, _) = setup();
        let all = monitor_dfa(&Formula::tt(), ab.clone());
        assert!(all.accepts(&[]));
        assert!(all.accepts(&[a, a]));
        let none = monitor_dfa(&Formula::ff(), ab);
        assert!(lang::is_empty(&none));
    }
}
