//! Reference engines for `shelley-regular`.
//!
//! Each mirrors a product engine in the most direct representation:
//!
//! * [`NfaViewRef`] determinizes on the fly over `BTreeSet` subsets with
//!   a fresh ε-edge walk per step ([`epsilon_closure`]) — the bitset
//!   [`NfaView`](shelley_regular::lang::NfaView) must agree with it state
//!   for state, numbering included;
//! * [`subset_of`] is the classic unpruned inclusion search (a lazy BFS of
//!   the difference product), the source of canonical shortlex witnesses
//!   the antichain engine is compared with;
//! * [`minimize_naive`] is Moore's O(n²·|Σ|) partition refinement, the
//!   baseline for Hopcroft's [`Dfa::minimize`];
//! * [`intersect`], [`union`], [`difference`] and [`complement`] are the
//!   eager DFA algebra — full pair tables built up front — and
//!   [`shortest_accepted`] is a BFS over a table's rows: the references
//!   for the lazy [`Product`], [`Complement`](lang::Complement) and
//!   [`lang::shortest_accepted`].

use shelley_regular::lang::{self, Lang, Product};
use shelley_regular::{Alphabet, Dfa, Label, Nfa, StateId, Symbol, Word};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// ε-closure of a set of NFA states, by a worklist walk over ε-edges.
pub fn epsilon_closure(nfa: &Nfa, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
    let mut closure = states.clone();
    let mut queue: VecDeque<StateId> = states.iter().copied().collect();
    while let Some(q) = queue.pop_front() {
        for &(label, dst) in nfa.edges_from(q) {
            if label == Label::Eps && closure.insert(dst) {
                queue.push_back(dst);
            }
        }
    }
    closure
}

/// On-the-fly determinization of an [`Nfa`] over `BTreeSet` subsets.
///
/// Semantics are identical to [`NfaView`](shelley_regular::lang::NfaView):
/// states are ε-closed subsets, stepping is one symbol move plus
/// [`epsilon_closure`]. Only the representation differs — one heap node
/// per element and a fresh ε-edge walk per step.
#[derive(Debug, Clone, Copy)]
pub struct NfaViewRef<'a> {
    nfa: &'a Nfa,
}

impl<'a> NfaViewRef<'a> {
    /// Wraps `nfa` without determinizing or compiling it.
    pub fn new(nfa: &'a Nfa) -> Self {
        NfaViewRef { nfa }
    }
}

impl Lang for NfaViewRef<'_> {
    type State = BTreeSet<StateId>;

    fn alphabet(&self) -> &Arc<Alphabet> {
        self.nfa.alphabet()
    }

    fn start(&self) -> Self::State {
        epsilon_closure(self.nfa, &BTreeSet::from([self.nfa.start()]))
    }

    fn step(&self, state: &Self::State, symbol: Symbol) -> Self::State {
        let mut next = BTreeSet::new();
        for &q in state {
            for &(label, dst) in self.nfa.edges_from(q) {
                if label == Label::Sym(symbol) {
                    next.insert(dst);
                }
            }
        }
        epsilon_closure(self.nfa, &next)
    }

    fn is_accepting(&self, state: &Self::State) -> bool {
        state.iter().any(|&q| self.nfa.is_accepting(q))
    }
}

/// Checks `L(a) ⊆ L(b)` by a lazy BFS of the difference product; on
/// failure returns the shortlex-least shortest word in the difference.
///
/// Every reachable product state is distinguished — exponential when `b`
/// is a blowing-up NFA view, which is what the antichain engine avoids.
/// On two [`Dfa`]s this is [`difference`] + [`shortest_accepted`], witness
/// for witness.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn subset_of<A: Lang, B: Lang>(a: &A, b: &B) -> Result<(), Word> {
    match lang::shortest_accepted(&Product::difference(a, b)) {
        None => Ok(()),
        Some(w) => Err(w),
    }
}

/// Checks language equivalence; on failure returns a shortest
/// distinguishing word.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn equivalent<A: Lang, B: Lang>(a: &A, b: &B) -> Result<(), Word> {
    subset_of(a, b)?;
    subset_of(b, a)
}

/// The eager product of two DFAs: every reachable state pair is numbered
/// in BFS discovery order (symbols in dense index order) and tabled up
/// front; `combine` decides acceptance from the two factors'.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn product(a: &Dfa, b: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
    assert_eq!(
        **a.alphabet(),
        **b.alphabet(),
        "product of DFAs over different alphabets"
    );
    let accepts = |(qa, qb): (StateId, StateId)| combine(a.is_accepting(qa), b.is_accepting(qb));
    let start = (a.start(), b.start());
    let mut index: HashMap<(StateId, StateId), usize> = HashMap::from([(start, 0)]);
    // Pairs in discovery order, which is also the BFS queue order.
    let mut pairs = vec![start];
    let mut table = Vec::new();
    let mut q = 0;
    while q < pairs.len() {
        let (qa, qb) = pairs[q];
        for (&da, &db) in a.row(qa).iter().zip(b.row(qb)) {
            let pair = (da as StateId, db as StateId);
            let dst = *index.entry(pair).or_insert_with(|| {
                pairs.push(pair);
                pairs.len() - 1
            });
            table.push(u32::try_from(dst).expect("DFA state id exceeds u32"));
        }
        q += 1;
    }
    let accepting: Vec<bool> = pairs.iter().map(|&p| accepts(p)).collect();
    Dfa::from_parts(a.alphabet().clone(), table, 0, &accepting)
}

/// `L(a) ∩ L(b)` as an eager [`product`].
pub fn intersect(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, |x, y| x && y)
}

/// `L(a) ∪ L(b)` as an eager [`product`].
pub fn union(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, |x, y| x || y)
}

/// `L(a) \ L(b)` as an eager [`product`].
pub fn difference(a: &Dfa, b: &Dfa) -> Dfa {
    product(a, b, |x, y| x && !y)
}

/// The same table with acceptance flipped on every state.
pub fn complement(dfa: &Dfa) -> Dfa {
    let states = 0..dfa.num_states();
    let table = states.clone().flat_map(|q| dfa.row(q).to_vec()).collect();
    let accepting: Vec<bool> = states.map(|q| !dfa.is_accepting(q)).collect();
    Dfa::from_parts(dfa.alphabet().clone(), table, dfa.start(), &accepting)
}

/// A shortest accepted word by BFS over the table's rows (symbols in dense
/// index order, acceptance tested at dequeue): the shortlex-least one.
pub fn shortest_accepted(dfa: &Dfa) -> Option<Word> {
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; dfa.num_states()];
    let mut visited = vec![false; dfa.num_states()];
    let mut queue = VecDeque::from([dfa.start()]);
    visited[dfa.start()] = true;
    while let Some(q) = queue.pop_front() {
        if dfa.is_accepting(q) {
            let mut word = Vec::new();
            let mut cur = q;
            while let Some((prev, sym)) = parent[cur] {
                word.push(sym);
                cur = prev;
            }
            word.reverse();
            return Some(word);
        }
        for (sym_idx, &dst) in dfa.row(q).iter().enumerate() {
            let dst = dst as StateId;
            if !visited[dst] {
                visited[dst] = true;
                parent[dst] = Some((q, Symbol::from_index(sym_idx)));
                queue.push_back(dst);
            }
        }
    }
    None
}

/// Moore minimization: iterated refinement of state signatures until the
/// partition stops changing. Quadratic; the baseline Hopcroft's
/// [`Dfa::minimize`] must match in state count and language.
pub fn minimize_naive(dfa: &Dfa) -> Dfa {
    let nsyms = dfa.alphabet().len();
    let symbols = || (0..nsyms).map(Symbol::from_index);
    // Reachable states in BFS order, renumbered densely.
    let mut dense: HashMap<StateId, usize> = HashMap::from([(dfa.start(), 0)]);
    let mut reachable = vec![dfa.start()];
    let mut next_unvisited = 0;
    while next_unvisited < reachable.len() {
        let q = reachable[next_unvisited];
        next_unvisited += 1;
        for s in symbols() {
            let dst = dfa.step(q, s);
            dense.entry(dst).or_insert_with(|| {
                reachable.push(dst);
                reachable.len() - 1
            });
        }
    }
    let succ = |i: usize, s: Symbol| dense[&dfa.step(reachable[i], s)];

    let n = reachable.len();
    let mut class: Vec<usize> = reachable
        .iter()
        .map(|&q| usize::from(dfa.is_accepting(q)))
        .collect();
    loop {
        let mut signature: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut next: Vec<usize> = vec![0; n];
        for (i, slot) in next.iter_mut().enumerate() {
            let row: Vec<usize> = symbols().map(|s| class[succ(i, s)]).collect();
            let fresh = signature.len();
            *slot = *signature.entry((class[i], row)).or_insert(fresh);
        }
        if next == class {
            break;
        }
        class = next;
    }

    // Quotient by the final partition.
    let nblocks = class.iter().copied().max().map_or(0, |m| m + 1);
    let mut table = vec![0u32; nblocks * nsyms];
    let mut accepting = vec![false; nblocks];
    for (i, &q) in reachable.iter().enumerate() {
        let b = class[i];
        accepting[b] |= dfa.is_accepting(q);
        for s in symbols() {
            table[b * nsyms + s.index()] =
                u32::try_from(class[succ(i, s)]).expect("DFA state id exceeds u32");
        }
    }
    Dfa::from_parts(dfa.alphabet().clone(), table, class[0], &accepting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelley_regular::lang::NfaView;
    use shelley_regular::parse_regex;

    fn compile(pattern: &str) -> Nfa {
        let mut ab = Alphabet::new();
        let re = parse_regex(pattern, &mut ab).unwrap();
        Nfa::from_regex(&re, Arc::new(ab))
    }

    #[test]
    fn reference_view_materializes_like_subset_construction() {
        let nfa = compile("(a ; b)* + (a ; c)");
        let reference = lang::materialize(&NfaViewRef::new(&nfa));
        let direct = Dfa::from_nfa(&nfa);
        assert_eq!(reference.num_states(), direct.num_states());
        for q in 0..direct.num_states() {
            assert_eq!(reference.is_accepting(q), direct.is_accepting(q));
            assert_eq!(reference.row(q), direct.row(q));
        }
    }

    #[test]
    fn subset_witness_is_the_shortest_difference_word() {
        let mut ab = Alphabet::new();
        let small = parse_regex("a ; b", &mut ab).unwrap();
        let big = parse_regex("(a ; b) + (a ; c)", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let (ns, nb) = (
            Nfa::from_regex(&small, ab.clone()),
            Nfa::from_regex(&big, ab.clone()),
        );
        assert_eq!(subset_of(&NfaView::new(&ns), &NfaView::new(&nb)), Ok(()));
        let witness = subset_of(&NfaView::new(&nb), &NfaView::new(&ns)).unwrap_err();
        assert_eq!(ab.render_word(&witness), "a, c");
        // The same question over eager DFAs gives the same word.
        let (ds, db) = (Dfa::from_nfa(&ns), Dfa::from_nfa(&nb));
        assert_eq!(subset_of(&db, &ds), Err(witness.clone()));
        assert_eq!(shortest_accepted(&difference(&db, &ds)), Some(witness));
        assert!(equivalent(&ds, &ds.minimize()).is_ok());
    }

    #[test]
    fn eager_algebra_decides_membership() {
        // L1 = words starting with a; L2 = words ending with b.
        let mut ab = Alphabet::new();
        let l1 = parse_regex("a ; (a + b)*", &mut ab).unwrap();
        let l2 = parse_regex("(a + b)* ; b", &mut ab).unwrap();
        let (a, b) = (ab.lookup("a").unwrap(), ab.lookup("b").unwrap());
        let ab = Arc::new(ab);
        let d1 = Dfa::from_nfa(&Nfa::from_regex(&l1, ab.clone()));
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&l2, ab));
        let both = intersect(&d1, &d2);
        assert!(both.accepts(&[a, b]) && !both.accepts(&[a]) && !both.accepts(&[b, b]));
        let either = union(&d1, &d2);
        assert!(either.accepts(&[a]) && either.accepts(&[b, b]) && !either.accepts(&[b, a]));
        let not_l1 = complement(&d1);
        assert!(not_l1.accepts(&[b]) && !not_l1.accepts(&[a]));
        assert_eq!(shortest_accepted(&not_l1), Some(vec![]));
        assert_eq!(shortest_accepted(&intersect(&d1, &not_l1)), None);
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn product_requires_same_alphabet() {
        let d1 = Dfa::from_nfa(&compile("a"));
        let d2 = Dfa::from_nfa(&compile("x"));
        let _ = intersect(&d1, &d2);
    }
}
