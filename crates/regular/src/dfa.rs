//! Deterministic finite automata (complete by construction).
//!
//! A [`Dfa`] is one flat row-major `states × symbols` table of `u32`
//! targets plus a [`StateSet`] accepting bitset: stepping is one
//! multiply-add and one cache line, and the hot loops (dead-state
//! predecessor scans, minimization, the BFS of
//! [`shortest_word_to`](Dfa::shortest_word_to)) walk whole
//! [rows](Dfa::row). Determinization is
//! [`lang::materialize`](crate::lang::materialize) of a lazy view; the
//! boolean algebra (products, complement, emptiness) lives on the lazy
//! [`lang`](crate::lang) views.

use crate::lang::{self, NfaView};
use crate::nfa::{Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Alphabet, Symbol, Word};
use std::collections::VecDeque;
use std::sync::Arc;

/// A complete deterministic finite automaton.
///
/// Every state has exactly one successor per alphabet symbol (a rejecting
/// sink completes partial transition functions).
///
/// # Examples
///
/// ```
/// use shelley_regular::{Alphabet, Regex, Nfa, Dfa};
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let a = ab.intern("a");
/// let b = ab.intern("b");
/// let nfa = Nfa::from_regex(&Regex::word(&[a, b]), Arc::new(ab));
/// let dfa = Dfa::from_nfa(&nfa);
/// assert!(dfa.accepts(&[a, b]));
/// assert!(!dfa.accepts(&[b, a]));
/// ```
#[derive(Debug, Clone)]
pub struct Dfa {
    alphabet: Arc<Alphabet>,
    /// Row width: `alphabet.len()`, kept inline for the stepping hot path.
    nsyms: usize,
    nstates: usize,
    start: u32,
    /// `table[q * symbols + s]` is the successor of `q` on symbol index `s`.
    table: Box<[u32]>,
    accepting: StateSet,
}

/// Narrows a state id to a table entry.
///
/// # Panics
///
/// Panics if `state` exceeds `u32`.
pub(crate) fn state_u32(state: StateId) -> u32 {
    u32::try_from(state).expect("DFA state id exceeds u32")
}

impl Dfa {
    /// Determinizes `nfa` by subset construction:
    /// [`materialize`](lang::materialize) of its [`NfaView`]. State
    /// numbering is BFS discovery order with symbols scanned in dense index
    /// order.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        lang::materialize(&NfaView::new(nfa))
    }

    /// Builds a DFA from a row-major transition table:
    /// `table[q * symbols + s]` is the successor of state `q` on symbol
    /// index `s`, and `accepting[q]` marks state `q` accepting. Every
    /// constructor funnels through here, so lookups are plain arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the table does not hold `accepting.len() × alphabet.len()`
    /// entries, or if `start` or any target is out of range.
    pub fn from_parts(
        alphabet: Arc<Alphabet>,
        table: Vec<u32>,
        start: StateId,
        accepting: &[bool],
    ) -> Dfa {
        let nsyms = alphabet.len();
        let nstates = accepting.len();
        assert_eq!(
            table.len(),
            nstates * nsyms,
            "transition table is not states × symbols"
        );
        assert!(start < nstates, "start state out of range");
        assert!(
            table.iter().all(|&dst| (dst as usize) < nstates),
            "transition target out of range"
        );
        let mut acc = StateSet::new(nstates);
        for (q, _) in accepting.iter().enumerate().filter(|(_, &a)| a) {
            acc.insert(q);
        }
        Dfa {
            alphabet,
            nsyms,
            nstates,
            start: state_u32(start),
            table: table.into_boxed_slice(),
            accepting: acc,
        }
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.nstates
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start as StateId
    }

    /// Whether `state` accepts (bitset probe).
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(state)
    }

    /// The successor of `state` on `symbol`: one flat-table load.
    #[inline]
    pub fn step(&self, state: StateId, symbol: Symbol) -> StateId {
        self.table[state * self.nsyms + symbol.index()] as StateId
    }

    /// The full successor row of `state`, one `u32` per symbol index.
    ///
    /// Hot loops (BFS searches, dead-state predecessor scans) iterate this
    /// slice instead of re-indexing per symbol.
    #[inline]
    pub fn row(&self, state: StateId) -> &[u32] {
        &self.table[state * self.nsyms..(state + 1) * self.nsyms]
    }

    /// The accepting states as a [`StateSet`] sized to this automaton.
    pub fn accepting_set(&self) -> StateSet {
        self.accepting.clone()
    }

    /// The image of a state *set* under `symbol`: `{ δ(q, symbol) | q ∈ set }`.
    ///
    /// This is the transfer function of automaton-valued dataflow analyses,
    /// where the abstract value at a program point is the set of DFA states
    /// reachable along some path.
    pub fn step_set(&self, set: &StateSet, symbol: Symbol) -> StateSet {
        let mut out = StateSet::new(self.num_states());
        for q in set {
            out.insert(self.step(q, symbol));
        }
        out
    }

    /// Runs the automaton on `word` from the start state.
    pub fn run(&self, word: &[Symbol]) -> StateId {
        word.iter().fold(self.start(), |q, &s| self.step(q, s))
    }

    /// Decides `word ∈ L(self)`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.is_accepting(self.run(word))
    }

    /// Finds a shortest word driving the start state to `target`, if any
    /// (breadth-first in symbol order, so the witness is deterministic).
    pub fn shortest_word_to(&self, target: StateId) -> Option<Word> {
        let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; self.num_states()];
        let mut visited = vec![false; self.num_states()];
        let mut queue = VecDeque::from([self.start()]);
        visited[self.start()] = true;
        while let Some(q) = queue.pop_front() {
            if q == target {
                let mut word = Vec::new();
                let mut cur = q;
                while let Some((prev, sym)) = parent[cur] {
                    word.push(sym);
                    cur = prev;
                }
                word.reverse();
                return Some(word);
            }
            for (sym_idx, &dst) in self.row(q).iter().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn ab2() -> (Arc<Alphabet>, Symbol, Symbol) {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        (Arc::new(ab), a, b)
    }

    fn dfa_of(r: &Regex, ab: Arc<Alphabet>) -> Dfa {
        Dfa::from_nfa(&Nfa::from_regex(r, ab))
    }

    #[test]
    fn subset_construction_preserves_language() {
        let (ab, a, b) = ab2();
        let r = Regex::union(
            Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b))),
            Regex::sym(b),
        );
        let dfa = dfa_of(&r, ab);
        for w in [
            vec![],
            vec![a],
            vec![b],
            vec![a, b],
            vec![a, b, a, b],
            vec![b, b],
            vec![a, a],
        ] {
            assert_eq!(dfa.accepts(&w), r.matches(&w), "word {:?}", w);
        }
    }

    #[test]
    fn accepting_set_and_step_set() {
        let (ab, a, b) = ab2();
        // (a·b)*: accepting states are exactly where a word of even ab-pairs
        // ends; stepping the full reachable set on `a` lands where `a` leads.
        let r = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
        let dfa = dfa_of(&r, ab);
        let acc = dfa.accepting_set();
        assert!(acc.contains(dfa.start()));
        let mut all = StateSet::new(dfa.num_states());
        for q in 0..dfa.num_states() {
            all.insert(q);
        }
        let on_a = dfa.step_set(&all, a);
        for q in &on_a {
            assert!((0..dfa.num_states()).any(|p| dfa.step(p, a) == q));
        }
        // Stepping the start set along the accepted word a·b returns to an
        // accepting state.
        let mut start = StateSet::new(dfa.num_states());
        start.insert(dfa.start());
        let after = dfa.step_set(&dfa.step_set(&start, a), b);
        assert!(after.is_subset_of(&acc));
    }

    #[test]
    fn shortest_word_to_reaches_every_state() {
        let (ab, a, b) = ab2();
        let r = Regex::star(Regex::concat(Regex::sym(a), Regex::sym(b)));
        let dfa = dfa_of(&r, ab);
        for q in 0..dfa.num_states() {
            let word = dfa
                .shortest_word_to(q)
                .expect("complete DFA: all reachable");
            assert_eq!(dfa.run(&word), q);
        }
        assert_eq!(dfa.shortest_word_to(dfa.start()), Some(vec![]));
    }

    #[test]
    fn packs_rows_and_accepting_bits() {
        // Two states over two symbols: 0 -a-> 1, 0 -b-> 0, 1 -*-> 1.
        let (ab, a, b) = ab2();
        let dfa = Dfa::from_parts(ab, vec![1, 0, 1, 1], 0, &[false, true]);
        assert_eq!(dfa.num_states(), 2);
        assert_eq!(dfa.start(), 0);
        assert_eq!(dfa.step(0, a), 1);
        assert_eq!(dfa.step(0, b), 0);
        assert_eq!(dfa.row(1), &[1, 1]);
        assert!(!dfa.is_accepting(0));
        assert!(dfa.is_accepting(1));
        assert_eq!(dfa.accepting_set().len(), 1);
    }

    #[test]
    fn empty_alphabet_table() {
        let dfa = Dfa::from_parts(Arc::new(Alphabet::new()), vec![], 0, &[true]);
        assert_eq!(dfa.num_states(), 1);
        assert!(dfa.row(0).is_empty());
        assert!(dfa.accepts(&[]));
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn rejects_out_of_range_targets() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        let _ = Dfa::from_parts(Arc::new(ab), vec![2, 0], 0, &[false, true]);
    }

    #[test]
    #[should_panic(expected = "states × symbols")]
    fn rejects_ragged_tables() {
        let (ab, _, _) = ab2();
        let _ = Dfa::from_parts(ab, vec![0, 0, 1], 0, &[false, true]);
    }

    #[test]
    #[should_panic(expected = "start state out of range")]
    fn rejects_out_of_range_start() {
        let (ab, _, _) = ab2();
        let _ = Dfa::from_parts(ab, vec![0, 0], 1, &[true]);
    }
}
