//! Flat transition tables: the one representation behind every
//! [`Dfa`](crate::Dfa).
//!
//! A [`DenseDfa`] packs the transition function into one contiguous
//! `states × symbols` array of `u32` targets plus a [`StateSet`] accepting
//! bitset. Every [`Dfa`](crate::Dfa) constructor (subset construction,
//! products, minimization, [`lang::materialize`](crate::lang::materialize))
//! writes this row-major table directly, and stepping, BFS searches and
//! dead-state analysis read it: one multiply-add and one cache line per
//! step.

use crate::nfa::StateId;
use crate::stateset::StateSet;
use crate::symbol::Symbol;

/// A dense row-major transition table with an accepting bitset.
///
/// Construction validates the shape (every row has exactly
/// `num_symbols` entries, every target is in range), so lookups are plain
/// arithmetic.
#[derive(Debug, Clone)]
pub struct DenseDfa {
    nsyms: usize,
    nstates: usize,
    start: u32,
    /// `table[q * nsyms + s]` is the successor of `q` on symbol index `s`.
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

impl DenseDfa {
    /// Packs a row-major table: `table[q * nsyms + s]` is the successor of
    /// state `q` on symbol index `s`, and `accepting[q]` marks state `q`
    /// accepting. The number of states is `accepting.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not hold exactly `accepting.len() × nsyms`
    /// entries, or if `start` or any target is out of range.
    pub(crate) fn new(
        nsyms: usize,
        table: Vec<u32>,
        start: StateId,
        accepting: &[bool],
    ) -> DenseDfa {
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
        DenseDfa {
            nsyms,
            nstates,
            start: state_u32(start),
            table: table.into_boxed_slice(),
            accepting: acc,
        }
    }

    /// The same table with acceptance flipped on every state.
    pub(crate) fn complement(&self) -> DenseDfa {
        let mut accepting = StateSet::new(self.nstates);
        for q in (0..self.nstates).filter(|&q| !self.is_accepting(q)) {
            accepting.insert(q);
        }
        DenseDfa {
            accepting,
            ..self.clone()
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.nstates
    }

    /// Number of alphabet symbols (the row width).
    pub fn num_symbols(&self) -> usize {
        self.nsyms
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start as StateId
    }

    /// The successor of `state` on `symbol`: one flat-array load.
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

    /// Whether `state` accepts (bitset probe).
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(state)
    }

    /// The accepting states as a [`StateSet`] sized to this automaton.
    pub fn accepting_set(&self) -> &StateSet {
        &self.accepting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_rows_and_accepting_bits() {
        // Two states over two symbols: 0 -a-> 1, 0 -b-> 0, 1 -*-> 1.
        let dense = DenseDfa::new(2, vec![1, 0, 1, 1], 0, &[false, true]);
        assert_eq!(dense.num_states(), 2);
        assert_eq!(dense.num_symbols(), 2);
        assert_eq!(dense.start(), 0);
        assert_eq!(dense.step(0, Symbol::from_index(0)), 1);
        assert_eq!(dense.step(0, Symbol::from_index(1)), 0);
        assert_eq!(dense.row(1), &[1, 1]);
        assert!(!dense.is_accepting(0));
        assert!(dense.is_accepting(1));
        assert_eq!(dense.accepting_set().len(), 1);
        let flipped = dense.complement();
        assert!(flipped.is_accepting(0) && !flipped.is_accepting(1));
        assert_eq!(flipped.row(0), dense.row(0));
    }

    #[test]
    fn empty_alphabet_table() {
        let dense = DenseDfa::new(0, vec![], 0, &[true]);
        assert_eq!(dense.num_states(), 1);
        assert!(dense.row(0).is_empty());
        assert!(dense.is_accepting(0));
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn rejects_out_of_range_targets() {
        let _ = DenseDfa::new(1, vec![2, 0], 0, &[false, true]);
    }

    #[test]
    #[should_panic(expected = "states × symbols")]
    fn rejects_ragged_tables() {
        let _ = DenseDfa::new(2, vec![0, 0, 1], 0, &[false, true]);
    }
}
