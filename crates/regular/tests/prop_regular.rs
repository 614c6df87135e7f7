//! Property-based tests for the regular-language toolkit.
//!
//! The key invariant: every representation of a language (regex via
//! derivatives, Thompson NFA, subset-construction DFA, minimized DFA) must
//! agree on membership, and the lazy boolean algebra must satisfy its laws
//! and match the eager reference algebra of `shelley-oracle`.

use proptest::prelude::*;
use shelley_oracle::regular as oracle;
use shelley_regular::{Alphabet, Dfa, Nfa, Regex, Symbol};
use std::sync::Arc;

const NSYMS: usize = 3;

fn alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["a", "b", "c"]))
}

fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::empty()),
        Just(Regex::epsilon()),
        (0..NSYMS).prop_map(|i| Regex::sym(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(5, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::union(a, b)),
            inner.prop_map(Regex::star),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec((0..NSYMS).prop_map(Symbol::from_index), 0..8)
}

proptest! {
    /// Derivative-based membership agrees with the NFA and DFA pipelines.
    #[test]
    fn representations_agree(r in arb_regex(), w in arb_word()) {
        let ab = alphabet();
        let expected = r.matches(&w);
        let nfa = Nfa::from_regex(&r, ab.clone());
        prop_assert_eq!(nfa.accepts(&w), expected);
        let dfa = Dfa::from_nfa(&nfa);
        prop_assert_eq!(dfa.accepts(&w), expected);
        let min = dfa.minimize();
        prop_assert_eq!(min.accepts(&w), expected);
    }

    /// Hopcroft and naive minimization build equivalent automata of equal size.
    #[test]
    fn minimizers_agree(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab));
        let h = dfa.minimize();
        let n = oracle::minimize_naive(&dfa);
        prop_assert_eq!(h.num_states(), n.num_states());
        prop_assert!(oracle::equivalent(&h, &n).is_ok());
        prop_assert!(oracle::equivalent(&h, &dfa).is_ok());
    }

    /// Minimizing twice is a fixpoint (state count stabilizes).
    #[test]
    fn minimize_is_idempotent(r in arb_regex()) {
        let ab = alphabet();
        let m1 = Dfa::from_nfa(&Nfa::from_regex(&r, ab)).minimize();
        let m2 = m1.minimize();
        prop_assert_eq!(m1.num_states(), m2.num_states());
    }

    /// De Morgan over the lazy language algebra.
    #[test]
    fn de_morgan(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
        use shelley_regular::lang::{self, Complement, NfaView, Product};
        let ab = alphabet();
        let n1 = Nfa::from_regex(&r1, ab.clone());
        let n2 = Nfa::from_regex(&r2, ab);
        let (v1, v2) = (NfaView::new(&n1), NfaView::new(&n2));
        let lhs = lang::materialize(&Complement::new(Product::intersection(&v1, &v2)));
        let rhs = lang::materialize(&Product::union(Complement::new(&v1), Complement::new(&v2)));
        prop_assert_eq!(lhs.accepts(&w), rhs.accepts(&w));
        prop_assert!(oracle::equivalent(&lhs, &rhs).is_ok());
    }

    /// Concatenation of languages corresponds to splitting the word.
    #[test]
    fn concat_splits(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
        let cat = Regex::concat(r1.clone(), r2.clone());
        let direct = cat.matches(&w);
        let split = (0..=w.len())
            .any(|i| r1.matches(&w[..i]) && r2.matches(&w[i..]));
        prop_assert_eq!(direct, split);
    }

    /// Union behaves pointwise.
    #[test]
    fn union_pointwise(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
        let u = Regex::union(r1.clone(), r2.clone());
        prop_assert_eq!(u.matches(&w), r1.matches(&w) || r2.matches(&w));
    }

    /// Star absorbs repetition: if w ∈ L(r*) and v ∈ L(r*) then wv ∈ L(r*).
    #[test]
    fn star_is_closed_under_concat(
        r in arb_regex(),
        w in arb_word(),
        v in arb_word()
    ) {
        let star = Regex::star(r);
        if star.matches(&w) && star.matches(&v) {
            let mut wv = w.clone();
            wv.extend_from_slice(&v);
            prop_assert!(star.matches(&wv));
        }
    }

    /// Enumerated words are all members; membership of enumerated words is
    /// complete up to the bound.
    #[test]
    fn enumeration_sound_and_complete(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab));
        let words = dfa.enumerate_words(4, 2000);
        for w in &words {
            prop_assert!(r.matches(w), "enumerated non-member {:?}", w);
        }
        // Cross-check counts (only when the enumeration wasn't truncated).
        if words.len() < 2000 {
            let counts = dfa.count_words_by_length(4);
            let total: u64 = counts.iter().sum();
            prop_assert_eq!(total, words.len() as u64);
        }
    }

    /// The reference inclusion check's counterexamples are genuine.
    #[test]
    fn subset_counterexamples_are_real(r1 in arb_regex(), r2 in arb_regex()) {
        let ab = alphabet();
        let d1 = Dfa::from_nfa(&Nfa::from_regex(&r1, ab.clone()));
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&r2, ab));
        match oracle::subset_of(&d1, &d2) {
            Ok(()) => {
                // Spot-check on enumerated words of d1.
                for w in d1.enumerate_words(3, 50) {
                    prop_assert!(d2.accepts(&w));
                }
            }
            Err(w) => {
                prop_assert!(d1.accepts(&w));
                prop_assert!(!d2.accepts(&w));
            }
        }
    }

    /// The NFA-side 0-1 BFS of `ops` (a joint search against the
    /// all-accepting monitor) finds a word as short as the reference BFS
    /// over the determinized table.
    #[test]
    fn shortest_words_agree(r in arb_regex()) {
        use shelley_regular::ops;
        let ab = alphabet();
        let nfa = Nfa::from_regex(&r, ab.clone());
        let dfa = Dfa::from_nfa(&nfa);
        let anything = Dfa::from_parts(ab, vec![0; NSYMS], 0, &[true]);
        let nfa_word = ops::shortest_joint_word(&nfa, &anything, &Default::default());
        match (nfa_word, oracle::shortest_accepted(&dfa)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.len(), b.len());
                prop_assert!(r.matches(&a));
                prop_assert!(r.matches(&b));
            }
            (a, b) => prop_assert!(false, "disagree: {:?} vs {:?}", a, b),
        }
    }

    /// Erasing all symbols of a word-regex leaves only ε.
    #[test]
    fn erase_everything_gives_epsilon(w in arb_word()) {
        let ab = alphabet();
        let r = Regex::word(&w);
        let nfa = Nfa::from_regex(&r, ab.clone());
        let all: std::collections::BTreeSet<Symbol> = ab.symbols().collect();
        let erased = nfa.erase_symbols(&all);
        prop_assert!(erased.accepts(&[]));
    }
}

/// One mutation of a [`shelley_regular::StateSet`] under test against its
/// `BTreeSet<usize>` model.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    UnionPrepared(Vec<usize>),
    IntersectPrepared(Vec<usize>),
    DifferencePrepared(Vec<usize>),
    Clear,
}

fn arb_set_op(capacity: usize) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        4 => (0..capacity).prop_map(SetOp::Insert),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::UnionPrepared),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::IntersectPrepared),
        2 => proptest::collection::vec(0..capacity, 0..8).prop_map(SetOp::DifferencePrepared),
        1 => Just(SetOp::Clear),
    ]
}

fn hash_of(value: &impl std::hash::Hash) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    /// `StateSet` agrees with a `BTreeSet<usize>` model under every
    /// interleaving of insert/union/clear: same membership, same ascending
    /// iteration order, same emptiness and length, and Eq/Hash consistent
    /// with set equality.
    #[test]
    fn stateset_matches_btreeset_model(
        capacity in 1usize..200,
        ops in proptest::collection::vec(arb_set_op(199), 0..40)
    ) {
        use shelley_regular::StateSet;
        use std::collections::BTreeSet;
        let mut set = StateSet::new(capacity);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(q) => {
                    let q = q % capacity;
                    prop_assert_eq!(set.insert(q), model.insert(q));
                }
                SetOp::UnionPrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        model.insert(q);
                    }
                    prop_assert_eq!(
                        set.intersects(&other),
                        other.iter().any(|q| set.contains(q))
                    );
                    set.union_with(&other);
                }
                SetOp::IntersectPrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    let mut other_model: BTreeSet<usize> = BTreeSet::new();
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        other_model.insert(q);
                    }
                    set.intersect_with(&other);
                    model = model.intersection(&other_model).copied().collect();
                }
                SetOp::DifferencePrepared(items) => {
                    let mut other = StateSet::new(capacity);
                    let mut other_model: BTreeSet<usize> = BTreeSet::new();
                    for q in items {
                        let q = q % capacity;
                        other.insert(q);
                        other_model.insert(q);
                    }
                    set.difference_with(&other);
                    model = model.difference(&other_model).copied().collect();
                }
                SetOp::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            // Iteration order, length, membership, emptiness.
            let elements: Vec<usize> = set.iter().collect();
            let expected: Vec<usize> = model.iter().copied().collect();
            prop_assert_eq!(&elements, &expected);
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            for q in 0..capacity {
                prop_assert_eq!(set.contains(q), model.contains(&q));
            }
            // Eq/Hash consistency: rebuilding the same contents in a
            // different order yields an equal set with an equal hash.
            let mut rebuilt = StateSet::new(capacity);
            for &q in model.iter().rev() {
                rebuilt.insert(q);
            }
            prop_assert_eq!(&rebuilt, &set);
            prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));
        }
    }

    /// The bitset engine ([`NfaView`] over `CompiledNfa`) and the
    /// `BTreeSet` reference engine ([`NfaViewRef`]) are byte-identical:
    /// same subset verdicts and witnesses, same shortest words, and the
    /// same materialized automaton — state numbering included. That
    /// materialization is `Dfa::from_nfa`, so this also pins subset
    /// construction to the reference numbering.
    #[test]
    fn bitset_engine_matches_reference_engine(r1 in arb_regex(), r2 in arb_regex()) {
        use oracle::NfaViewRef;
        use shelley_regular::lang::{self, NfaView, Product};
        let ab = alphabet();
        let n1 = Nfa::from_regex(&r1, ab.clone());
        let n2 = Nfa::from_regex(&r2, ab.clone());

        // Verdicts and witnesses.
        prop_assert_eq!(
            oracle::subset_of(&NfaView::new(&n1), &NfaView::new(&n2)),
            oracle::subset_of(&NfaViewRef::new(&n1), &NfaViewRef::new(&n2))
        );
        prop_assert_eq!(
            lang::shortest_accepted(&NfaView::new(&n1)),
            lang::shortest_accepted(&NfaViewRef::new(&n1))
        );
        prop_assert_eq!(
            lang::shortest_accepted(&Product::difference(NfaView::new(&n1), NfaView::new(&n2))),
            lang::shortest_accepted(&Product::difference(
                NfaViewRef::new(&n1),
                NfaViewRef::new(&n2)
            ))
        );

        // Materialization: identical tables, numbering, acceptance.
        let bitset = lang::materialize(&NfaView::new(&n1));
        let reference = lang::materialize(&NfaViewRef::new(&n1));
        prop_assert_eq!(bitset.num_states(), reference.num_states());
        prop_assert_eq!(bitset.start(), reference.start());
        for q in 0..reference.num_states() {
            prop_assert_eq!(bitset.is_accepting(q), reference.is_accepting(q));
            prop_assert_eq!(bitset.row(q), reference.row(q));
        }
    }

    /// Marker-aware joint search (the generic 0-1 BFS of `ops`) returns
    /// identical witnesses whether the monitor runs on the bitset engine or
    /// the `BTreeSet` reference engine.
    #[test]
    fn joint_search_agrees_across_engines(
        r1 in arb_regex(),
        r2 in arb_regex(),
        marker in 0..NSYMS
    ) {
        use oracle::NfaViewRef;
        use shelley_regular::lang::NfaView;
        use shelley_regular::ops;
        use std::collections::BTreeSet;
        let ab = alphabet();
        let model = Nfa::from_regex(&r1, ab.clone());
        let spec = Nfa::from_regex(&r2, ab);
        let markers = BTreeSet::from([Symbol::from_index(marker)]);
        prop_assert_eq!(
            ops::shortest_joint_word(&model, &NfaView::new(&spec), &markers),
            ops::shortest_joint_word(&model, &NfaViewRef::new(&spec), &markers)
        );
        prop_assert_eq!(
            ops::projected_subset(&model, &NfaView::new(&spec), &markers),
            ops::projected_subset(&model, &NfaViewRef::new(&spec), &markers)
        );
    }
}

proptest! {
    /// The lazy language-view engine and the eager reference algebra of
    /// `shelley-oracle` produce byte-identical answers: same subset
    /// verdicts, same witnesses, same shortest words, on every generated
    /// pair of regexes.
    #[test]
    fn lazy_engine_matches_eager_engine(r1 in arb_regex(), r2 in arb_regex()) {
        use shelley_regular::lang::{self, Complement, NfaView, Product};
        let ab = alphabet();
        let n1 = Nfa::from_regex(&r1, ab.clone());
        let n2 = Nfa::from_regex(&r2, ab.clone());
        let d1 = Dfa::from_nfa(&n1);
        let d2 = Dfa::from_nfa(&n2);

        // Subset checks: verdict AND witness must be byte-identical.
        prop_assert_eq!(
            oracle::subset_of(&NfaView::new(&n1), &NfaView::new(&n2)).err(),
            oracle::shortest_accepted(&oracle::difference(&d1, &d2))
        );

        // Boolean combinators: shortest accepted word must be identical to
        // the eager product construction's (both are shortlex-minimal).
        prop_assert_eq!(
            lang::shortest_accepted(&Product::intersection(NfaView::new(&n1), NfaView::new(&n2))),
            oracle::shortest_accepted(&oracle::intersect(&d1, &d2))
        );
        prop_assert_eq!(
            lang::shortest_accepted(&Product::union(NfaView::new(&n1), NfaView::new(&n2))),
            oracle::shortest_accepted(&oracle::union(&d1, &d2))
        );
        prop_assert_eq!(
            lang::shortest_accepted(&Product::difference(NfaView::new(&n1), NfaView::new(&n2))),
            oracle::shortest_accepted(&oracle::difference(&d1, &d2))
        );
        prop_assert_eq!(
            lang::shortest_accepted(&Complement::new(NfaView::new(&n1))),
            oracle::shortest_accepted(&oracle::complement(&d1))
        );
    }

    /// The lazy shortest-word search on a DFA view and on the NFA's
    /// subset view returns exactly what the reference BFS over the table
    /// returns (all shortlex-minimal, same tie-breaking).
    #[test]
    fn lazy_shortest_accepted_matches_dfa_search(r in arb_regex()) {
        use shelley_regular::lang;
        let ab = alphabet();
        let nfa = Nfa::from_regex(&r, ab.clone());
        let dfa = Dfa::from_nfa(&nfa);
        let reference = oracle::shortest_accepted(&dfa);
        prop_assert_eq!(lang::shortest_accepted(&dfa), reference.clone());
        prop_assert_eq!(lang::shortest_accepted(&lang::NfaView::new(&nfa)), reference.clone());
        prop_assert_eq!(lang::is_empty(&dfa), reference.is_none());
    }

    /// State elimination recovers the same language.
    #[test]
    fn to_regex_roundtrip(r in arb_regex()) {
        let ab = alphabet();
        let nfa = Nfa::from_regex(&r, ab.clone());
        let recovered = nfa.to_regex();
        let d1 = Dfa::from_nfa(&nfa);
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&recovered, ab));
        prop_assert!(oracle::equivalent(&d1, &d2).is_ok());
    }

    /// DFA-to-regex after minimization also recovers the language.
    #[test]
    fn dfa_to_regex_roundtrip(r in arb_regex()) {
        let ab = alphabet();
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone())).minimize();
        let back = dfa.to_regex();
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&back, ab));
        prop_assert!(oracle::equivalent(&dfa, &d2).is_ok());
    }
}

/// Runs the product's one inclusion engine, the antichain search, with
/// `markers` invisible to the spec.
fn antichain_check(
    model: &Nfa,
    spec: &Nfa,
    markers: &std::collections::BTreeSet<Symbol>,
) -> Result<(), Vec<Symbol>> {
    use shelley_regular::{antichain, lang::NfaView};
    antichain::projected_subset_counted(model, &NfaView::new(spec), markers).0
}

/// Asserts the three antichain-vs-classic guarantees on one pair: the
/// same verdict, witnesses of equal length, and an antichain witness that
/// replays (the model accepts it, the spec rejects its marker-erased
/// projection).
fn assert_antichain_matches_classic(
    model: &Nfa,
    spec: &Nfa,
    markers: &std::collections::BTreeSet<Symbol>,
) -> Result<(), TestCaseError> {
    use shelley_regular::{lang::NfaView, ops};
    let classic = ops::projected_subset(model, &NfaView::new(spec), markers);
    match (classic, antichain_check(model, spec, markers)) {
        (Ok(()), Ok(())) => {}
        (Err(c), Err(p)) => {
            prop_assert_eq!(c.len(), p.len(), "witness lengths diverge");
            prop_assert!(model.accepts(&p), "witness not in the model");
            prop_assert!(
                !spec.accepts(&ops::strip_markers(&p, markers)),
                "projection not outside the spec"
            );
        }
        (c, p) => prop_assert!(false, "verdicts diverge: {:?} vs {:?}", c, p),
    }
    Ok(())
}

/// Regexes over 4 symbols, up to 8 levels deep: longer witnesses and wider
/// macrostates than [`arb_regex`], where antichain pruning actually bites.
fn arb_regex4() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        1 => Just(Regex::epsilon()),
        6 => (0..4usize).prop_map(|i| Regex::sym(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(8, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::concat(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Regex::union(a, b)),
            inner.prop_map(Regex::star),
        ]
    })
}

proptest! {
    /// The antichain inclusion engine and the classic unpruned search give
    /// the same verdict on every generated pair of languages, and when
    /// both find a violation the antichain's witness is exactly as short
    /// as the classic shortlex-minimal one and replays as a genuine
    /// counterexample (accepted by the model, rejected by the spec).
    #[test]
    fn antichain_subset_matches_classic(r1 in arb_regex(), r2 in arb_regex()) {
        use shelley_regular::lang::NfaView;
        let ab = alphabet();
        let n1 = Nfa::from_regex(&r1, ab.clone());
        let n2 = Nfa::from_regex(&r2, ab);
        let classic = oracle::subset_of(&NfaView::new(&n1), &NfaView::new(&n2));
        let pruned = antichain_check(&n1, &n2, &std::collections::BTreeSet::new());
        match (classic, pruned) {
            (Ok(()), Ok(())) => {}
            (Err(c), Err(p)) => {
                prop_assert_eq!(c.len(), p.len(), "witness lengths diverge");
                prop_assert!(n1.accepts(&p), "witness not in the model");
                prop_assert!(!n2.accepts(&p), "witness not outside the spec");
            }
            (c, p) => prop_assert!(false, "verdicts diverge: {:?} vs {:?}", c, p),
        }
    }

    /// Marker-aware inclusion: the antichain joint search agrees with the
    /// classic 0-1 BFS of `ops` on verdict and witness length, and its
    /// witnesses replay — the model accepts the word, the spec rejects its
    /// marker-erased projection.
    #[test]
    fn antichain_projected_matches_classic(
        r1 in arb_regex(),
        r2 in arb_regex(),
        marker in 0..NSYMS
    ) {
        let ab = alphabet();
        let model = Nfa::from_regex(&r1, ab.clone());
        let spec = Nfa::from_regex(&r2, ab);
        let markers = std::collections::BTreeSet::from([Symbol::from_index(marker)]);
        assert_antichain_matches_classic(&model, &spec, &markers)?;
    }

    /// The flat transition table every [`Dfa`] stores agrees with the
    /// `BTreeSet` reference engine, on the raw subset-construction
    /// automaton and on its minimized form alike: for each state `q`
    /// reached by word `w` and each symbol `s`, the table's successor
    /// accepts exactly when the reference simulation of `w·s` does.
    #[test]
    fn dense_table_agrees_with_reference_engine(r in arb_regex(), w in arb_word()) {
        use shelley_regular::lang::Lang;
        let ab = alphabet();
        let nfa = Nfa::from_regex(&r, ab.clone());
        let reference = oracle::NfaViewRef::new(&nfa);
        let dfa = Dfa::from_nfa(&nfa);
        for d in [&dfa, &dfa.minimize()] {
            for q in 0..d.num_states() {
                let word = d.shortest_word_to(q).expect("every state is reachable");
                let subset = word.iter().fold(reference.start(), |set, &s| reference.step(&set, s));
                prop_assert_eq!(d.is_accepting(q), reference.is_accepting(&subset));
                for s in ab.symbols() {
                    prop_assert_eq!(d.row(q)[s.index()] as usize, d.step(q, s));
                    prop_assert_eq!(
                        d.is_accepting(d.step(q, s)),
                        reference.is_accepting(&reference.step(&subset, s))
                    );
                }
            }
        }
        prop_assert_eq!(dfa.accepts(&w), r.matches(&w));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The antichain-vs-classic guarantees on the wider 4-symbol, depth-8
    /// family, with no marker or one of the four symbols as the marker.
    #[test]
    fn antichain_matches_classic_on_four_symbols(
        r1 in arb_regex4(),
        r2 in arb_regex4(),
        marker in 0..5usize
    ) {
        let ab = Arc::new(Alphabet::from_names(["a", "b", "c", "d"]));
        let model = Nfa::from_regex(&r1, ab.clone());
        let spec = Nfa::from_regex(&r2, ab);
        let markers: std::collections::BTreeSet<Symbol> =
            (marker < 4).then(|| Symbol::from_index(marker)).into_iter().collect();
        assert_antichain_matches_classic(&model, &spec, &markers)?;
    }
}

/// A pinned pair where the antichain's witness is a *different* word of
/// the same length as the classic shortlex-least one. After `a`, the spec
/// `a*` still accepts; after `b` its macrostate is empty — a ⊆-smaller
/// macrostate at the same distance — so the antichain prunes the `a`
/// branch and reports `b, d, b`. This is why the usage check re-derives
/// the paper's canonical counterexample with the classic search once the
/// antichain has found a violation.
#[test]
fn antichain_witness_can_differ_from_the_shortlex_witness() {
    use shelley_regular::lang::NfaView;
    use shelley_regular::{ops, parse_regex};
    let mut ab = Alphabet::new();
    let model = parse_regex("((a + b) ; d) ; b", &mut ab).unwrap();
    let spec = parse_regex("a*", &mut ab).unwrap();
    let marker = ab.intern("d");
    let ab = Arc::new(ab);
    let model = Nfa::from_regex(&model, ab.clone());
    let spec = Nfa::from_regex(&spec, ab.clone());
    let markers = std::collections::BTreeSet::from([marker]);
    let classic = ops::projected_subset(&model, &NfaView::new(&spec), &markers).unwrap_err();
    let pruned = antichain_check(&model, &spec, &markers).unwrap_err();
    assert_eq!(ab.render_word(&classic), "a, d, b");
    assert_eq!(ab.render_word(&pruned), "b, d, b");
    assert_antichain_matches_classic(&model, &spec, &markers).unwrap();
}
