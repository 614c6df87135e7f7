//! The symbolic fixpoint search over the encoded product.
//!
//! Violation detection is a breadth-first **onion-ring** reachability
//! fixpoint: ring `k` is the set of product configurations first reachable
//! by a trace of exactly `k` events (ε moves are free, marker events cost
//! one ring like any other — identical to the explicit joint search's 0-1
//! cost model, so shortest witness *lengths* agree between backends). The
//! image of a ring is `unprime(∃even (ring ∧ Tₑ))` unioned over events; the
//! search stops at the first ring intersecting the accepting set, or when a
//! ring comes up empty.
//!
//! A counterexample is rebuilt backwards: pick one concrete configuration
//! (a full satisfying cube) of the hit, then per ring find an event whose
//! preimage `∃odd (Tₑ ∧ prime(point))` meets the previous ring. Each ring
//! holds only configurations genuinely reachable at that depth, so the
//! walk always succeeds and yields a word of exactly the ring depth.

use crate::bdd::FALSE;
use crate::encode::Encoding;
use shelley_ltlf::{ClaimOutcome, Formula};
use shelley_regular::{Nfa, Symbol, Word};
use std::collections::BTreeSet;

/// Statistics of one symbolic check, for benchmarks and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicSearch {
    /// The verdict, identical in meaning to the explicit checker's.
    pub outcome: ClaimOutcome,
    /// Breadth-first rings explored (= witness length + 1 on violation).
    pub layers: usize,
    /// Nodes in the BDD arena when the search finished.
    pub bdd_nodes: usize,
    /// Variable pairs spent on the binary-encoded system state.
    pub system_bits: usize,
    /// Variable pairs spent on monitor obligation leaves.
    pub monitor_vars: usize,
}

/// Checks `L(model) ⊆ L(claim)` symbolically — same contract as
/// [`shelley_ltlf::check_claim`], decided with BDDs instead of an explicit
/// product search. Symbols in `markers` advance the model but are invisible
/// to the claim.
///
/// # Panics
///
/// Panics if `model`'s alphabet differs from the one the claim's symbols
/// were interned in (they must share one `Alphabet`).
pub fn check_claim(model: &Nfa, claim: &Formula, markers: &BTreeSet<Symbol>) -> ClaimOutcome {
    check_claim_counted(model, claim, markers).outcome
}

/// [`check_claim`] with search statistics.
pub fn check_claim_counted(
    model: &Nfa,
    claim: &Formula,
    markers: &BTreeSet<Symbol>,
) -> SymbolicSearch {
    let bad = claim.negate();
    let Some(mut enc) = Encoding::build(model, &bad, markers) else {
        // Empty model language: every claim holds vacuously.
        return SymbolicSearch {
            outcome: ClaimOutcome::Holds,
            layers: 0,
            bdd_nodes: 0,
            system_bits: 0,
            monitor_vars: 0,
        };
    };

    let mut rings = vec![enc.init];
    let mut visited = enc.init;
    let mut frontier = enc.init;
    let outcome = loop {
        if frontier == FALSE {
            break ClaimOutcome::Holds;
        }
        let hit = enc.bdd.and(frontier, enc.accept);
        if hit != FALSE {
            let counterexample = extract_witness(&mut enc, &rings, hit);
            break ClaimOutcome::Violated { counterexample };
        }
        let mut next = FALSE;
        for &(_, t) in &enc.trans {
            let step = enc.bdd.and(frontier, t);
            let image = enc.bdd.exists_parity(step, false);
            let image = enc.bdd.unprime(image);
            next = enc.bdd.or(next, image);
        }
        let unvisited = enc.bdd.not(visited);
        next = enc.bdd.and(next, unvisited);
        if next == FALSE {
            break ClaimOutcome::Holds;
        }
        visited = enc.bdd.or(visited, next);
        rings.push(next);
        frontier = next;
    };

    SymbolicSearch {
        outcome,
        layers: rings.len(),
        bdd_nodes: enc.bdd.node_count(),
        system_bits: enc.system_bits,
        monitor_vars: enc.monitor_vars,
    }
}

/// Rebuilds a violating word of length `rings.len() - 1` backwards from one
/// concrete configuration of `hit` (a nonempty subset of the last ring).
fn extract_witness(enc: &mut Encoding, rings: &[crate::bdd::Ref], hit: crate::bdd::Ref) -> Word {
    let mut point = enc
        .bdd
        .any_sat(hit, enc.npairs)
        .expect("hit is satisfiable");
    let mut word = Vec::with_capacity(rings.len() - 1);
    for i in (1..rings.len()).rev() {
        let cube = enc.bdd.cube(&point);
        let primed = enc.bdd.prime(cube);
        let mut stepped = false;
        for &(e, t) in &enc.trans {
            let rel = enc.bdd.and(t, primed);
            let pre = enc.bdd.exists_parity(rel, true);
            let cand = enc.bdd.and(pre, rings[i - 1]);
            if cand != FALSE {
                word.push(e);
                point = enc
                    .bdd
                    .any_sat(cand, enc.npairs)
                    .expect("candidate is satisfiable");
                stepped = true;
                break;
            }
        }
        assert!(stepped, "ring {i} configuration has no predecessor");
    }
    word.reverse();
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelley_ltlf::{check_claim as explicit_check, eval, parse_formula};
    use shelley_regular::{parse_regex, Alphabet};
    use std::sync::Arc;

    fn model(re: &str, ab: &mut Alphabet) -> Nfa {
        let r = parse_regex(re, ab).unwrap();
        Nfa::from_regex(&r, Arc::new(ab.clone()))
    }

    #[test]
    fn claim_holds_on_conforming_model() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        let nfa = model("b.open ; a.open", &mut ab);
        assert!(check_claim(&nfa, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn violation_produces_a_shortest_valid_counterexample() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("(!a.open) W b.open", &mut ab).unwrap();
        let nfa = model("(b.open ; a.open) + (a.test ; a.open)", &mut ab);
        match check_claim(&nfa, &claim, &BTreeSet::new()) {
            ClaimOutcome::Violated { counterexample } => {
                assert_eq!(counterexample.len(), 2);
                // The witness violates the claim…
                assert!(!eval(&claim, &counterexample));
                // …and matches the explicit engine's length.
                match explicit_check(&nfa, &claim, &BTreeSet::new()) {
                    ClaimOutcome::Violated { counterexample: w } => {
                        assert_eq!(w.len(), counterexample.len());
                    }
                    ClaimOutcome::Holds => panic!("oracle disagrees"),
                }
            }
            ClaimOutcome::Holds => panic!("claim should be violated"),
        }
    }

    #[test]
    fn empty_word_violations_are_found_at_ring_zero() {
        let mut ab = Alphabet::new();
        // The empty trace (model accepts ε) already violates F done.
        let claim = parse_formula("F done", &mut ab).unwrap();
        let nfa = model("done*", &mut ab);
        let search = check_claim_counted(&nfa, &claim, &BTreeSet::new());
        match search.outcome {
            ClaimOutcome::Violated { counterexample } => assert!(counterexample.is_empty()),
            ClaimOutcome::Holds => panic!("empty trace violates F done"),
        }
        assert_eq!(search.layers, 1);
    }

    #[test]
    fn empty_model_satisfies_everything() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("F done", &mut ab).unwrap();
        let nfa = model("void", &mut ab);
        assert!(check_claim(&nfa, &claim, &BTreeSet::new()).holds());
    }

    #[test]
    fn markers_advance_the_model_but_not_the_monitor() {
        let mut ab = Alphabet::new();
        let claim = parse_formula("G !fail", &mut ab).unwrap();
        let ok = model("op ; ok", &mut ab);
        let bad = model("op ; fail", &mut ab);
        let op = ab.lookup("op").unwrap();
        let fail = ab.lookup("fail").unwrap();
        let markers = BTreeSet::from([op]);
        assert!(check_claim(&ok, &claim, &markers).holds());
        match check_claim(&bad, &claim, &markers) {
            ClaimOutcome::Violated { counterexample } => {
                // Marker preserved in the reported trace, same as explicit.
                assert_eq!(counterexample, vec![op, fail]);
            }
            ClaimOutcome::Holds => panic!("should be violated"),
        }
    }

    #[test]
    fn a_late_epsilon_path_gives_the_empty_witness_on_both_engines() {
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
        let nfa = builder.build();
        let markers = BTreeSet::from([a]);
        let empty = ClaimOutcome::Violated {
            counterexample: vec![],
        };
        assert_eq!(check_claim(&nfa, &claim, &markers), empty);
        assert_eq!(explicit_check(&nfa, &claim, &markers), empty);
    }

    #[test]
    fn agrees_with_explicit_engine_on_a_hand_picked_grid() {
        let claims = [
            "G !c",
            "F b",
            "(!a) W b",
            "X b",
            "a U b",
            "G (a -> X b)",
            "F (a & X c)",
        ];
        let models = ["a ; b ; c", "(a + b)*", "b*; c", "a ; (b + c) ; a", "void"];
        for c in claims {
            for m in models {
                let mut ab = Alphabet::new();
                // Intern all names first so claim/model share symbols.
                for n in ["a", "b", "c"] {
                    ab.intern(n);
                }
                let claim = parse_formula(c, &mut ab).unwrap();
                let nfa = model(m, &mut ab);
                let sym = check_claim(&nfa, &claim, &BTreeSet::new());
                let exp = explicit_check(&nfa, &claim, &BTreeSet::new());
                match (&sym, &exp) {
                    (ClaimOutcome::Holds, ClaimOutcome::Holds) => {}
                    (
                        ClaimOutcome::Violated { counterexample: s },
                        ClaimOutcome::Violated { counterexample: e },
                    ) => {
                        assert_eq!(s.len(), e.len(), "witness lengths differ: {c} on {m}");
                        assert!(!eval(&claim, s), "invalid witness: {c} on {m}");
                    }
                    _ => panic!("verdicts differ on claim {c} model {m}: {sym:?} vs {exp:?}"),
                }
            }
        }
    }
}
