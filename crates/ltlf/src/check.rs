//! Model checking a regular model against an LTLf claim.
//!
//! A *model* is any automaton whose language is the set of complete event
//! traces a system can produce (in Shelley, the integration automaton of a
//! composite class). A claim `φ` holds iff every model trace satisfies it:
//! `L(M) ⊆ L(φ)`, decided via emptiness of `L(M) ∩ L(¬φ)` with a shortest
//! violating trace as counterexample.
//!
//! The `¬φ` monitor is driven **lazily** through its
//! [`MonitorView`]: only the formula states reachable along the model's
//! traces are ever progressed, so an adversarial claim with an exponential
//! monitor DFA costs nothing beyond what the model can reach. The eager
//! compile-then-search pipeline (a [materialized](MonitorView::materialize)
//! monitor + [`ops::shortest_joint_word`]) must return the same witnesses;
//! the unit tests here and the property suites pin that.

use crate::automaton::MonitorView;
use crate::syntax::Formula;
use shelley_regular::{ops, Nfa, Symbol, Word};
use std::collections::BTreeSet;

/// The result of checking one claim against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// Every model trace satisfies the claim.
    Holds,
    /// Some model trace violates the claim; a shortest one is returned
    /// (marker symbols preserved where the model interleaves them).
    Violated {
        /// A shortest violating trace.
        counterexample: Word,
    },
}

impl ClaimOutcome {
    /// Whether the claim holds.
    pub fn holds(&self) -> bool {
        matches!(self, ClaimOutcome::Holds)
    }
}

/// Checks `L(model) ⊆ L(claim)`, ignoring the symbols in `markers` (they
/// advance the model but are invisible to the claim).
///
/// # Panics
///
/// Panics if `model`'s alphabet differs from the alphabet the claim monitor
/// is built over (they must share one `Alphabet`).
pub fn check_claim(model: &Nfa, claim: &Formula, markers: &BTreeSet<Symbol>) -> ClaimOutcome {
    let bad = MonitorView::new(&claim.negate(), model.alphabet().clone());
    match ops::shortest_joint_word(model, &bad, markers) {
        None => ClaimOutcome::Holds,
        Some(counterexample) => ClaimOutcome::Violated { counterexample },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use crate::semantics::eval;
    use shelley_regular::{parse_regex, Alphabet};
    use std::sync::Arc;

    #[test]
    fn claim_holds_on_conforming_model() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        // Model: b.open then a.open (conforming).
        let model_re = parse_regex("b.open ; a.open", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab);
        assert!(check_claim(&model, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn claim_violated_with_shortest_counterexample() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        // Model: either the long conforming trace or a short violating one.
        let model_re = parse_regex("(b.open ; a.open) + (a.test ; a.open)", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab.clone());
        match check_claim(&model, &claim, &BTreeSet::new()) {
            ClaimOutcome::Violated { counterexample } => {
                assert_eq!(ab.render_word(&counterexample), "a.test, a.open");
                assert!(!eval(&claim, &counterexample));
            }
            ClaimOutcome::Holds => panic!("claim should be violated"),
        }
    }

    #[test]
    fn markers_are_invisible_to_the_claim() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("G !fail", &mut ab).unwrap();
        // Model with an interleaved marker `op` that must not confuse the
        // monitor: op ; ok is fine, op ; fail is not.
        let ok_model = parse_regex("op ; ok", &mut ab).unwrap();
        let bad_model = parse_regex("op ; fail", &mut ab).unwrap();
        let op = ab.lookup("op").unwrap();
        let fail = ab.lookup("fail").unwrap();
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([op]);
        assert!(check_claim(&Nfa::from_regex(&ok_model, ab.clone()), &claim, &markers).holds());
        match check_claim(&Nfa::from_regex(&bad_model, ab), &claim, &markers) {
            ClaimOutcome::Violated { counterexample } => {
                // Marker preserved in the reported trace.
                assert_eq!(counterexample, vec![op, fail]);
            }
            ClaimOutcome::Holds => panic!("should be violated"),
        }
    }

    #[test]
    fn empty_model_satisfies_everything() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("F done", &mut ab).unwrap();
        let empty = parse_regex("void", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&empty, ab);
        assert!(check_claim(&model, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn a_late_epsilon_path_gives_the_empty_witness() {
        use shelley_regular::Label;
        // `S -ε-> W`, `S -ε-> U`, `U -a-> X`, `W -ε-> X`, with `X` accepting
        // and `a` a marker: `X` is first reached over the marker edge, and only
        // then over the cheaper ε-path.
        let mut ab = Alphabet::new();
        let claim = parse_formula("F b", &mut ab).unwrap();
        let a = ab.intern("a");
        let mut builder = Nfa::builder(Arc::new(ab));
        let [s, w, u, x] = [(); 4].map(|()| builder.add_state());
        builder.set_start(s);
        builder.add_edge(s, Label::Eps, w);
        builder.add_edge(s, Label::Eps, u);
        builder.add_edge(u, Label::Sym(a), x);
        builder.add_edge(w, Label::Eps, x);
        builder.mark_accepting(x);
        let outcome = check_claim(&builder.build(), &claim, &BTreeSet::from([a]));
        assert_eq!(
            outcome,
            ClaimOutcome::Violated {
                counterexample: vec![]
            }
        );
    }

    #[test]
    fn lazy_check_matches_eager_oracle() {
        // The eager oracle: compile the ¬φ monitor DFA up front, then run
        // the same searches. Counterexamples must be byte-identical.
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        let model_re =
            parse_regex("(b.open ; a.open) + (a.test ; a.open) + a.open", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let model = Nfa::from_regex(&model_re, ab.clone());
        let eager_bad = MonitorView::new(&claim.negate(), ab.clone()).materialize();
        let eager =
            match shelley_regular::ops::shortest_joint_word(&model, &eager_bad, &BTreeSet::new()) {
                None => ClaimOutcome::Holds,
                Some(counterexample) => ClaimOutcome::Violated { counterexample },
            };
        assert_eq!(check_claim(&model, &claim, &BTreeSet::new()), eager);
    }
}
