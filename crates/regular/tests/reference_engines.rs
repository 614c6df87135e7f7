//! Unit-sized checks of the product engines against the reference engines
//! of `shelley-oracle`: the bitset ε-closures and subset stepping against
//! the `BTreeSet` walk, the antichain inclusion search against the classic
//! unpruned one, and Hopcroft against Moore minimization.

use shelley_oracle::regular::{self as oracle, epsilon_closure};
use shelley_regular::lang::NfaView;
use shelley_regular::{
    antichain, parse_regex, Alphabet, CompiledNfa, Dfa, Label, Nfa, Regex, StateId, StateSet,
    Symbol,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn compile3(r: &Regex) -> (Nfa, CompiledNfa) {
    let ab = Arc::new(Alphabet::from_names(["a", "b", "c"]));
    let nfa = Nfa::from_regex(r, ab);
    let compiled = CompiledNfa::compile(&nfa);
    (nfa, compiled)
}

fn as_btree(set: &StateSet) -> BTreeSet<StateId> {
    set.iter().collect()
}

#[test]
fn closures_match_reference_epsilon_closure() {
    let a = Symbol::from_index(0);
    let b = Symbol::from_index(1);
    let r = Regex::star(Regex::union(
        Regex::word(&[a, b]),
        Regex::star(Regex::sym(b)),
    ));
    let (nfa, compiled) = compile3(&r);
    for q in 0..nfa.num_states() {
        let reference = epsilon_closure(&nfa, &BTreeSet::from([q]));
        assert_eq!(as_btree(compiled.closure_of(q)), reference, "state {q}");
    }
    assert_eq!(
        as_btree(&compiled.start_set()),
        epsilon_closure(&nfa, &BTreeSet::from([nfa.start()]))
    );
}

#[test]
fn stepping_matches_reference_subset_simulation() {
    let a = Symbol::from_index(0);
    let b = Symbol::from_index(1);
    let c = Symbol::from_index(2);
    let r = Regex::union(
        Regex::concat(Regex::star(Regex::sym(a)), Regex::word(&[b, c])),
        Regex::star(Regex::word(&[a, b])),
    );
    let (nfa, compiled) = compile3(&r);
    let mut current = compiled.start_set();
    let mut scratch = compiled.empty_set();
    let mut reference = epsilon_closure(&nfa, &BTreeSet::from([nfa.start()]));
    let mut word = Vec::new();
    for sym in [a, b, a, b, c, a] {
        compiled.step_into(&current, sym, &mut scratch);
        std::mem::swap(&mut current, &mut scratch);
        let mut next = BTreeSet::new();
        for &q in &reference {
            for &(label, dst) in nfa.edges_from(q) {
                if label == Label::Sym(sym) {
                    next.insert(dst);
                }
            }
        }
        reference = epsilon_closure(&nfa, &next);
        assert_eq!(as_btree(&current), reference);
        let accepts = reference.iter().any(|&q| nfa.is_accepting(q));
        assert_eq!(compiled.is_accepting(&current), accepts);
        word.push(sym);
        assert_eq!(nfa.accepts(&word), accepts, "word {word:?}");
    }
}

#[test]
fn antichain_agrees_with_classic_subset_on_inclusion_and_violation() {
    let mut ab = Alphabet::new();
    let small = parse_regex("a ; b", &mut ab).unwrap();
    let big = parse_regex("(a ; b) + (a ; c)", &mut ab).unwrap();
    let ab = Arc::new(ab);
    let (small, big) = (
        Nfa::from_regex(&small, ab.clone()),
        Nfa::from_regex(&big, ab),
    );
    let no_markers = BTreeSet::new();
    let (result, _) = antichain::projected_subset_counted(&small, &NfaView::new(&big), &no_markers);
    assert_eq!(result, Ok(()));
    let classic = oracle::subset_of(&NfaView::new(&big), &NfaView::new(&small)).unwrap_err();
    let (result, stats) =
        antichain::projected_subset_counted(&big, &NfaView::new(&small), &no_markers);
    let witness = result.unwrap_err();
    assert_eq!(witness.len(), classic.len());
    // The witness replays as a genuine violation.
    assert!(big.accepts(&witness) && !small.accepts(&witness));
    assert!(stats.frontier >= 1);
}

#[test]
fn hopcroft_agrees_with_naive() {
    let mut ab = Alphabet::new();
    let a = ab.intern("a");
    let b = ab.intern("b");
    let ab = Arc::new(ab);
    let exprs = [
        Regex::star(Regex::sym(a)),
        Regex::union(Regex::word(&[a, b]), Regex::word(&[b, a])),
        Regex::concat(
            Regex::star(Regex::union(Regex::sym(a), Regex::sym(b))),
            Regex::word(&[a, b, a]),
        ),
        Regex::epsilon(),
        Regex::empty(),
    ];
    for r in &exprs {
        let dfa = Dfa::from_nfa(&Nfa::from_regex(r, ab.clone()));
        let h = dfa.minimize();
        let m = oracle::minimize_naive(&dfa);
        assert_eq!(h.num_states(), m.num_states(), "expr {r:?}");
        assert!(oracle::equivalent(&h, &m).is_ok());
        assert!(oracle::equivalent(&h, &dfa).is_ok());
    }
}
