//! Cross-representation language operations.
//!
//! The verification passes of `shelley-core` need one operation the plain
//! DFA algebra does not provide: searching an NFA whose words *interleave
//! marker symbols* (operation names in an integration automaton) against a
//! monitor that only observes the non-marker symbols. Keeping the markers
//! in the witness lets error messages print traces exactly as the paper
//! does (`open_a, a.test, a.open`).
//!
//! The monitor side is any [`Lang`] — a [`Dfa`](crate::Dfa), an on-the-fly
//! [`NfaView`](crate::lang::NfaView), or an LTLf progression monitor — so
//! no caller has to determinize or compile a monitor automaton before
//! searching. The NFA side is an explicit edge-order 0-1 BFS: ε-edges cost
//! nothing, symbol and marker edges cost one, and a node reached again at
//! a strictly shorter distance is re-queued, so witnesses are shortest.
//! Ties go to the first discovery, which makes witnesses deterministic.

use crate::lang::{self, Complement, Lang};
use crate::nfa::{Label, Nfa, StateId};
use crate::symbol::{Symbol, Word};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The outcome of a counted joint search: the witness (if any) plus the
/// number of distinct product states discovered.
///
/// The state count is what the lazy-vs-eager benchmarks compare against the
/// size of the materialized monitor: an adversarial claim can have an
/// exponential monitor DFA while the reachable product stays linear in the
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointSearch {
    /// A shortest joint word, `None` when the intersection is empty.
    pub witness: Option<Word>,
    /// Distinct `(NFA state, monitor state)` pairs discovered.
    pub visited: usize,
}

/// Searches for a shortest word accepted by both `nfa` and `monitor`, where
/// symbols in `ignored` advance only the NFA (the monitor does not observe
/// them).
///
/// The returned word *includes* the ignored marker symbols in the positions
/// where the NFA consumed them. Returns `None` when the (marker-erased)
/// intersection is empty.
///
/// The monitor is stepped lazily through its [`Lang`] interface, so a
/// materialized [`Dfa`](crate::Dfa) and the lazy view it came from give the
/// same witness.
///
/// # Panics
///
/// Panics if the automata are over different alphabets, or if `ignored`
/// contains a symbol outside the shared alphabet (a symbol interned into
/// some other alphabet) — marker sets must always come from the same
/// [`Alphabet`](crate::Alphabet) as the automata.
pub fn shortest_joint_word<L: Lang>(
    nfa: &Nfa,
    monitor: &L,
    ignored: &BTreeSet<Symbol>,
) -> Option<Word> {
    shortest_joint_word_counted(nfa, monitor, ignored).witness
}

/// [`shortest_joint_word`] plus the number of product states discovered.
///
/// # Panics
///
/// Same contract as [`shortest_joint_word`].
pub fn shortest_joint_word_counted<L: Lang>(
    nfa: &Nfa,
    monitor: &L,
    ignored: &BTreeSet<Symbol>,
) -> JointSearch {
    assert_eq!(
        **nfa.alphabet(),
        **monitor.alphabet(),
        "joint search over different alphabets"
    );
    lang::assert_markers_in_alphabet(ignored, nfa.alphabet());
    // Discovered nodes, interned once; per node, its best distance so far
    // and the (node, consumed symbol) it was reached from.
    let start = (nfa.start(), monitor.start());
    let mut index: HashMap<(StateId, L::State), usize> = HashMap::from([(start.clone(), 0)]);
    let mut nodes = vec![start];
    let mut best: Vec<(u32, Parent)> = vec![(0, None)];
    let mut deque: VecDeque<(usize, u32)> = VecDeque::from([(0, 0)]);
    while let Some((id, dist)) = deque.pop_front() {
        // A stale entry: the node was re-queued at a shorter distance and
        // already expanded from there.
        if dist > best[id].0 {
            continue;
        }
        let qn = nodes[id].0;
        if nfa.is_accepting(qn) && monitor.is_accepting(&nodes[id].1) {
            let mut word = Vec::new();
            let mut cur = id;
            while let Some((prev, sym)) = best[cur].1 {
                word.extend(sym);
                cur = prev;
            }
            word.reverse();
            return JointSearch {
                witness: Some(word),
                visited: nodes.len(),
            };
        }
        for &(label, dst) in nfa.edges_from(qn) {
            let qm = &nodes[id].1;
            let (next, consumed, cost) = match label {
                Label::Eps => ((dst, qm.clone()), None, 0),
                Label::Sym(s) if ignored.contains(&s) => ((dst, qm.clone()), Some(s), 1),
                Label::Sym(s) => ((dst, monitor.step(qm, s)), Some(s), 1),
            };
            let next_dist = dist + cost;
            let next_id = match index.entry(next) {
                Entry::Vacant(slot) => {
                    let next_id = nodes.len();
                    nodes.push(slot.key().clone());
                    slot.insert(next_id);
                    best.push((next_dist, Some((id, consumed))));
                    next_id
                }
                // Relax only on a strictly shorter distance, so the first
                // discovery wins every tie.
                Entry::Occupied(slot) if next_dist < best[*slot.get()].0 => {
                    best[*slot.get()] = (next_dist, Some((id, consumed)));
                    *slot.get()
                }
                Entry::Occupied(_) => continue,
            };
            // 0-1 BFS: ε-edges keep the distance; symbol edges extend it.
            if cost == 0 {
                deque.push_front((next_id, next_dist));
            } else {
                deque.push_back((next_id, next_dist));
            }
        }
    }
    JointSearch {
        witness: None,
        visited: nodes.len(),
    }
}

/// The node a joint search reached a node from, with the symbol consumed
/// on the way (`None` over an ε-edge); `None` for the start node.
type Parent = Option<(usize, Option<Symbol>)>;

/// Checks whether the marker-erased language of `nfa` is included in
/// `spec`'s language; on failure returns a shortest violating word *with*
/// markers preserved.
///
/// Formally: let `π` erase the symbols in `markers`; this checks
/// `π(L(nfa)) ⊆ L(spec)` and, on failure, yields `w ∈ L(nfa)` with
/// `π(w) ∉ L(spec)`.
///
/// The spec is complemented lazily (acceptance flip on its [`Lang`] view),
/// so passing an [`NfaView`](crate::lang::NfaView) of the spec automaton
/// performs the whole check without any subset construction.
///
/// # Panics
///
/// Same contract as [`shortest_joint_word`]: the automata must share one
/// alphabet and every marker must belong to it.
pub fn projected_subset<L: Lang>(
    nfa: &Nfa,
    spec: &L,
    markers: &BTreeSet<Symbol>,
) -> Result<(), Word> {
    match shortest_joint_word(nfa, &Complement::new(spec), markers) {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Removes every symbol in `markers` from `word`.
pub fn strip_markers(word: &[Symbol], markers: &BTreeSet<Symbol>) -> Word {
    word.iter()
        .copied()
        .filter(|s| !markers.contains(s))
        .collect()
}

/// Keeps only the symbols in `keep` (projection onto a sub-alphabet).
pub fn project(word: &[Symbol], keep: &BTreeSet<Symbol>) -> Word {
    word.iter().copied().filter(|s| keep.contains(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::Dfa;
    use crate::lang::NfaView;
    use crate::regex::Regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    #[test]
    fn joint_search_respects_markers() {
        // NFA language: m·a·m·b (markers m interleaved).
        // Monitor accepts exactly a·b. Joint word must be m,a,m,b.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::word(&[m, a, m, b]), ab.clone());
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::word(&[a, b]), ab));
        let markers = BTreeSet::from([m]);
        let w = shortest_joint_word(&nfa, &monitor, &markers).unwrap();
        assert_eq!(w, vec![m, a, m, b]);
        assert_eq!(strip_markers(&w, &markers), vec![a, b]);
    }

    #[test]
    fn projected_subset_detects_violation() {
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        // Behavior: m·a (marker then a). Spec: must be a·b.
        let nfa = Nfa::from_regex(&Regex::word(&[m, a]), ab.clone());
        let spec = Dfa::from_nfa(&Nfa::from_regex(&Regex::word(&[a, b]), ab.clone()));
        let witness = projected_subset(&nfa, &spec, &markers).unwrap_err();
        assert_eq!(strip_markers(&witness, &markers), vec![a]);
        // Conforming behavior passes.
        let good = Nfa::from_regex(&Regex::word(&[m, a, b]), ab);
        assert!(projected_subset(&good, &spec, &markers).is_ok());
    }

    #[test]
    fn joint_search_finds_shortest() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        // NFA: a·a·a + b; monitor: everything.
        let nfa = Nfa::from_regex(
            &Regex::union(Regex::word(&[a, a, a]), Regex::sym(b)),
            ab.clone(),
        );
        let sigma = Regex::star(Regex::union(Regex::sym(a), Regex::sym(b)));
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&sigma, ab));
        let w = shortest_joint_word(&nfa, &monitor, &BTreeSet::new()).unwrap();
        assert_eq!(w, vec![b]);
    }

    #[test]
    fn project_keeps_only_requested_symbols() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let c = ab.intern("c");
        let keep = BTreeSet::from([a, c]);
        assert_eq!(project(&[a, b, c, b, a], &keep), vec![a, c, a]);
    }

    #[test]
    fn lazy_monitor_matches_eager_monitor() {
        // Same search, one eager Dfa monitor, one lazy NfaView monitor:
        // identical witnesses, and the lazy side visits no *more* states.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let model = Nfa::from_regex(
            &Regex::union(Regex::word(&[m, a, b]), Regex::word(&[m, b, a])),
            ab.clone(),
        );
        let spec_nfa = Nfa::from_regex(&Regex::word(&[a, b]), ab);
        let spec_dfa = Dfa::from_nfa(&spec_nfa);
        let eager = projected_subset(&model, &spec_dfa, &markers);
        let lazy = projected_subset(&model, &NfaView::new(&spec_nfa), &markers);
        assert_eq!(eager, lazy);
        assert_eq!(eager.unwrap_err(), vec![m, b, a]);
    }

    #[test]
    fn marker_only_traces_need_an_empty_accepting_monitor() {
        // The model's only word is pure markers: m·m. Its projection is ε,
        // so inclusion holds iff the spec accepts ε.
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let model = Nfa::from_regex(&Regex::word(&[m, m]), ab.clone());

        // Spec requiring at least one `a`: the marker-only trace violates
        // it, and the witness preserves the markers.
        let strict = Dfa::from_nfa(&Nfa::from_regex(&Regex::sym(a), ab.clone()));
        let witness = projected_subset(&model, &strict, &markers).unwrap_err();
        assert_eq!(witness, vec![m, m]);
        assert!(strip_markers(&witness, &markers).is_empty());

        // Spec accepting ε (a*): the same trace conforms.
        let lenient = Dfa::from_nfa(&Nfa::from_regex(&Regex::star(Regex::sym(a)), ab));
        assert!(projected_subset(&model, &lenient, &markers).is_ok());
    }

    #[test]
    fn empty_alphabet_joint_search() {
        // Over an empty alphabet the only word is ε; the joint search
        // reduces to "do both start states accept".
        let ab = Arc::new(Alphabet::new());
        let eps = Nfa::from_regex(&Regex::Epsilon, ab.clone());
        let void = Nfa::from_regex(&Regex::Empty, ab);
        let accept_eps = Dfa::from_nfa(&eps);
        assert_eq!(
            shortest_joint_word(&eps, &accept_eps, &BTreeSet::new()),
            Some(vec![])
        );
        assert_eq!(
            shortest_joint_word(&void, &accept_eps, &BTreeSet::new()),
            None
        );
        assert!(projected_subset(&void, &accept_eps, &BTreeSet::new()).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside the shared alphabet")]
    fn ignored_symbols_must_belong_to_the_alphabet() {
        // A marker interned into a *different* alphabet is a caller bug:
        // the search panics instead of silently never matching it.
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::sym(a), ab.clone());
        let monitor = Dfa::from_nfa(&nfa);
        let mut other = Alphabet::new();
        other.intern("x");
        let foreign = other.intern("y"); // index 1, outside `ab` (len 1).
        let _ = shortest_joint_word(&nfa, &monitor, &BTreeSet::from([foreign]));
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn joint_search_rejects_mismatched_alphabets() {
        let mut ab1 = Alphabet::new();
        let a = ab1.intern("a");
        let nfa = Nfa::from_regex(&Regex::sym(a), Arc::new(ab1));
        let mut ab2 = Alphabet::new();
        let b = ab2.intern("b");
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::sym(b), Arc::new(ab2)));
        let _ = shortest_joint_word(&nfa, &monitor, &BTreeSet::new());
    }

    #[test]
    fn counted_search_reports_product_states() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&Regex::word(&[a, b]), ab.clone());
        let monitor = Dfa::from_nfa(&Nfa::from_regex(&Regex::word(&[a, b]), ab));
        let search = shortest_joint_word_counted(&nfa, &monitor, &BTreeSet::new());
        assert_eq!(search.witness, Some(vec![a, b]));
        assert!(search.visited >= 3, "visited {}", search.visited);
    }

    /// `S -ε-> W`, `S -ε-> U`, `U -a-> X`, `W -ε-> X`, with `X` accepting:
    /// `X` is first discovered over the `a` edge (distance 1) and only
    /// then over the ε-path (distance 0).
    fn late_epsilon_diamond() -> (Nfa, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut builder = Nfa::builder(Arc::new(ab));
        let [s, w, u, x] = [(); 4].map(|()| builder.add_state());
        builder.set_start(s);
        builder.add_edge(s, Label::Eps, w);
        builder.add_edge(s, Label::Eps, u);
        builder.add_edge(u, Label::Sym(a), x);
        builder.add_edge(w, Label::Eps, x);
        builder.mark_accepting(x);
        (builder.build(), a, b)
    }

    #[test]
    fn a_shorter_epsilon_path_found_later_wins() {
        let (nfa, a, b) = late_epsilon_diamond();
        let markers = BTreeSet::from([a]);
        // Spec b+: the marker-only trace `a` and the empty trace both
        // violate it; the empty one is shorter.
        let spec = Nfa::from_regex(
            &Regex::concat(Regex::sym(b), Regex::star(Regex::sym(b))),
            nfa.alphabet().clone(),
        );
        assert_eq!(
            projected_subset(&nfa, &NfaView::new(&spec), &markers),
            Err(vec![])
        );
        let (antichain, _) =
            crate::antichain::projected_subset_counted(&nfa, &NfaView::new(&spec), &markers);
        assert_eq!(antichain, Err(vec![]));
        let anything = Nfa::from_regex(&Regex::star(Regex::sym(b)), nfa.alphabet().clone());
        let search = shortest_joint_word_counted(&nfa, &NfaView::new(&anything), &markers);
        assert_eq!(search.witness, Some(vec![]));
        assert_eq!(search.visited, 4);
    }
}
