//! Antichain-pruned inclusion checking over lazy language views.
//!
//! The classic inclusion check
//! ([`ops::projected_subset`](crate::ops::projected_subset)) determinizes
//! the spec side on the fly: the product search distinguishes every
//! reachable spec macrostate, which on adversarial specs (`Σ*·a·Σ^n`) means
//! `2^n` macrostates even when the model side is tiny. The antichain
//! algorithm of De Wulf, Doyen, Henzinger & Raskin (CAV'06) observes that
//! an inclusion search only needs the **⊆-minimal** macrostates: a pair
//! `(q, S)` can reach a violation — a word the model accepts while the spec
//! macrostate holds no accepting state — only if `(q, S')` with `S' ⊆ S`
//! can, at the same or smaller distance, because macrostate successors are
//! monotone under `⊆` and a smaller macrostate rejects everything a larger
//! one rejects. The searches here therefore keep, per model state, an
//! *antichain* of kept spec macrostates and discard every newly discovered
//! pair that a kept pair subsumes (same model state, `⊆`-smaller macrostate,
//! no larger distance).
//!
//! Two guarantees survive the pruning, both pinned by differential property
//! suites against the classic engine:
//!
//! * **Witnesses replay.** A kept pair's macrostate is always the *exact*
//!   subset-construction state of its discovery word — pruning discards
//!   whole pairs, it never approximates a macrostate — so an extracted
//!   counterexample is a genuine violation, not an artifact.
//! * **Witness length is preserved.** Every pruned pair is dominated by a
//!   kept pair at equal-or-smaller distance that rejects at least as much,
//!   so the first violation dequeued is as short as the classic engine's.
//!   Only the shortlex tie-break may differ: the ⊆-minimal representative
//!   that survives pruning may spell a different word of the same length.
//!
//! [`projected_subset_counted`] is the product's one inclusion entry point.
//! Its spec side is an [`NfaView`] — the antichain order *is* the `⊆`
//! order on its [`StateSet`] macrostates, tested with the word-parallel
//! block kernels of [`StateSet`] — and its model side an explicit [`Nfa`]
//! searched by the marker-aware 0-1 BFS of [`ops`](crate::ops). A plain
//! `L(a) ⊆ L(b)` check is the marker-free case.

use crate::lang::{self, Lang, NfaView};
use crate::nfa::{Label, Nfa, StateId};
use crate::stateset::StateSet;
use crate::symbol::{Symbol, Word};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Search counters of one antichain inclusion check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InclusionStats {
    /// Pairs kept on the frontier (discovered and not subsumed).
    pub frontier: usize,
    /// Candidate pairs discarded because a kept pair with a strictly
    /// smaller macrostate subsumed them.
    pub pruned: usize,
}

impl InclusionStats {
    fn absorb(&mut self, other: InclusionStats) {
        self.frontier += other.frontier;
        self.pruned += other.pruned;
    }
}

/// The per-model-state antichain: kept spec macrostates plus the distance
/// each was discovered at.
#[derive(Default)]
struct Frontier {
    sets: Vec<StateSet>,
    labels: Vec<u32>,
}

impl Frontier {
    /// Whether `cand` (at distance `label`) is subsumed by a kept entry.
    /// Returns `None` to keep, `Some(proper)` to discard — `proper` is
    /// `false` for an exact re-discovery (plain dedup, not pruning).
    fn subsumes(&self, cand: &StateSet, label: u32) -> Option<bool> {
        self.sets
            .iter()
            .zip(self.labels.iter())
            .find(|(kept, &kept_label)| kept_label <= label && kept.is_subset_of(cand))
            .map(|(kept, _)| kept != cand)
    }

    /// Whether a *strictly* smaller kept entry at equal-or-smaller distance
    /// dominates `cand` — the pop-time test. A pair can be kept before the
    /// ⊆-minimal representative of its level is discovered; skipping its
    /// expansion once a dominator exists is what keeps the frontier an
    /// antichain in effect. The strict-subset requirement keeps an entry
    /// from dominating itself (sets are deduped at push, so equality means
    /// "same entry").
    fn dominated(&self, cand: &StateSet, label: u32) -> bool {
        self.sets
            .iter()
            .zip(self.labels.iter())
            .any(|(kept, &kept_label)| {
                kept_label <= label && kept != cand && kept.is_subset_of(cand)
            })
    }

    fn keep(&mut self, set: StateSet, label: u32) {
        self.sets.push(set);
        self.labels.push(label);
    }
}

/// Checks `π(L(nfa)) ⊆ L(spec)` (with `π` erasing `markers`) by the same
/// marker-aware 0-1 BFS as [`ops::projected_subset`](crate::ops::projected_subset),
/// pruning the frontier with the antichain order on spec macrostates.
///
/// On failure returns a violating word (markers preserved) of the same
/// length as the classic engine's shortest witness, though not always the
/// same word; the counters report the search's frontier and pruning.
///
/// # Panics
///
/// Panics if the automata are over different alphabets, or if `markers`
/// contains a symbol outside the shared alphabet.
pub fn projected_subset_counted(
    nfa: &Nfa,
    spec: &NfaView<'_>,
    markers: &BTreeSet<Symbol>,
) -> (Result<(), Word>, InclusionStats) {
    assert_eq!(
        **nfa.alphabet(),
        **spec.alphabet(),
        "joint search over different alphabets"
    );
    lang::assert_markers_in_alphabet(markers, nfa.alphabet());
    let compiled = spec.compiled();
    let mut stats = InclusionStats::default();

    // Discovered pairs; `parents` records the consumed symbol (`None` for
    // ε-edges), exactly like the classic joint search.
    let mut nfa_states: Vec<StateId> = Vec::new();
    let mut spec_sets: Vec<StateSet> = Vec::new();
    let mut parents: Vec<Option<(usize, Option<Symbol>)>> = Vec::new();
    let mut store: HashMap<StateId, Frontier> = HashMap::new();

    let start_set = compiled.start_set();
    store
        .entry(nfa.start())
        .or_default()
        .keep(start_set.clone(), 0);
    nfa_states.push(nfa.start());
    spec_sets.push(start_set);
    parents.push(None);

    let mut deque: VecDeque<(usize, u32)> = VecDeque::from([(0, 0)]);
    let mut scratch = compiled.empty_set();
    while let Some((idx, label)) = deque.pop_front() {
        let qn = nfa_states[idx];
        // Violation: the model accepts while the spec macrostate rejects.
        if nfa.is_accepting(qn) && !compiled.is_accepting(&spec_sets[idx]) {
            stats.frontier = nfa_states.len();
            let word = spell_joint(&parents, idx);
            return (Err(word), stats);
        }
        // Pop-time antichain skip: a strictly smaller macrostate kept at
        // equal-or-smaller distance rejects at least as much, so its
        // expansion dominates this one's. (Acceptance was tested above, so
        // a violation at this level is never lost.)
        if store[&qn].dominated(&spec_sets[idx], label) {
            stats.pruned += 1;
            continue;
        }
        for &(edge, dst) in nfa.edges_from(qn) {
            let (consumed, cost, stepped) = match edge {
                Label::Eps => (None, 0, false),
                Label::Sym(s) if markers.contains(&s) => (Some(s), 1, false),
                Label::Sym(s) => {
                    compiled.step_into(&spec_sets[idx], s, &mut scratch);
                    (Some(s), 1, true)
                }
            };
            let cand = if stepped { &scratch } else { &spec_sets[idx] };
            let next_label = label + cost;
            let frontier = store.entry(dst).or_default();
            match frontier.subsumes(cand, next_label) {
                Some(proper) => {
                    if proper {
                        stats.pruned += 1;
                    }
                }
                None => {
                    let owned = cand.clone();
                    frontier.keep(owned.clone(), next_label);
                    let id = nfa_states.len();
                    nfa_states.push(dst);
                    spec_sets.push(owned);
                    parents.push(Some((idx, consumed)));
                    // 0-1 BFS: ε-edges keep the distance, symbol edges
                    // extend it — the classic engine's exact discipline.
                    if cost == 0 {
                        deque.push_front((id, next_label));
                    } else {
                        deque.push_back((id, next_label));
                    }
                }
            }
        }
    }
    stats.frontier = nfa_states.len();
    (Ok(()), stats)
}

/// Sums the counters of per-subsystem checks into one total.
pub fn absorb_stats(total: &mut InclusionStats, one: InclusionStats) {
    total.absorb(one);
}

fn spell_joint(parents: &[Option<(usize, Option<Symbol>)>], mut idx: usize) -> Word {
    let mut word = Vec::new();
    while let Some((prev, sym)) = parents[idx] {
        if let Some(s) = sym {
            word.push(s);
        }
        idx = prev;
    }
    word.reverse();
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::parser::parse_regex;
    use crate::regex::Regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    fn included(model: &Nfa, spec: &Nfa) -> (Result<(), Word>, InclusionStats) {
        projected_subset_counted(model, &NfaView::new(spec), &BTreeSet::new())
    }

    #[test]
    fn prunes_subsumed_macrostates_on_the_blowup_family() {
        // Spec Σ*·a·Σ^(n-1): classic determinization distinguishes 2^n
        // macrostates; the model a·(a+b)^(n-1) is included. The antichain
        // keeps one ⊆-minimal macrostate per position.
        let n = 8;
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let sigma = Regex::union(Regex::sym(a), Regex::sym(b));
        let mut spec = Regex::concat(Regex::star(sigma.clone()), Regex::sym(a));
        let mut model = Regex::sym(a);
        for _ in 0..n - 1 {
            spec = Regex::concat(spec, sigma.clone());
            model = Regex::concat(model, sigma.clone());
        }
        let spec = Nfa::from_regex(&spec, ab.clone());
        let model = Nfa::from_regex(&model, ab);
        let (result, stats) = included(&model, &spec);
        assert_eq!(result, Ok(()));
        assert!(stats.pruned > 0, "no pruning on the blowup family");
        // Classic explores the exponential macrostate space; the antichain
        // frontier stays far below it.
        let (_, classic_visited) = lang::shortest_accepted_counted(&lang::Product::difference(
            NfaView::new(&model),
            NfaView::new(&spec),
        ));
        assert!(
            stats.frontier * 4 < classic_visited,
            "frontier {} vs classic {classic_visited}",
            stats.frontier
        );
    }

    #[test]
    fn projected_agrees_with_classic_joint_search() {
        let mut ab = Alphabet::new();
        let m = ab.intern("m");
        let a = ab.intern("a");
        let b = ab.intern("b");
        let ab = Arc::new(ab);
        let markers = BTreeSet::from([m]);
        let model = Nfa::from_regex(&Regex::word(&[m, a]), ab.clone());
        let spec = Nfa::from_regex(&Regex::word(&[a, b]), ab.clone());
        let classic = ops::projected_subset(&model, &NfaView::new(&spec), &markers).unwrap_err();
        let (result, stats) = projected_subset_counted(&model, &NfaView::new(&spec), &markers);
        let witness = result.unwrap_err();
        assert_eq!(witness.len(), classic.len());
        assert_eq!(ops::strip_markers(&witness, &markers), vec![a]);
        assert!(stats.frontier >= 1);
        // Conforming behavior passes under both engines.
        let good = Nfa::from_regex(&Regex::word(&[m, a, b]), ab);
        let (result, _) = projected_subset_counted(&good, &NfaView::new(&spec), &markers);
        assert!(result.is_ok());
        assert!(ops::projected_subset(&good, &NfaView::new(&spec), &markers).is_ok());
    }

    #[test]
    fn empty_alphabet_inclusion() {
        let ab = Arc::new(Alphabet::new());
        let eps = Nfa::from_regex(&Regex::Epsilon, ab.clone());
        let void = Nfa::from_regex(&Regex::Empty, ab);
        assert_eq!(included(&void, &eps).0, Ok(()));
        let witness = included(&eps, &void).0.unwrap_err();
        assert!(witness.is_empty());
    }

    #[test]
    #[should_panic(expected = "different alphabets")]
    fn rejects_mismatched_alphabets() {
        let mut ab = Alphabet::new();
        let r = parse_regex("a", &mut ab).unwrap();
        let n1 = Nfa::from_regex(&r, Arc::new(ab));
        let mut other = Alphabet::new();
        let r = parse_regex("a ; b", &mut other).unwrap();
        let n2 = Nfa::from_regex(&r, Arc::new(other));
        let _ = included(&n1, &n2);
    }

    #[test]
    #[should_panic(expected = "outside the shared alphabet")]
    fn rejects_foreign_markers() {
        let mut ab = Alphabet::new();
        let r = parse_regex("a", &mut ab).unwrap();
        let nfa = Nfa::from_regex(&r, Arc::new(ab));
        let foreign = Symbol::from_index(99);
        let _ = projected_subset_counted(&nfa, &NfaView::new(&nfa), &BTreeSet::from([foreign]));
    }

    #[test]
    fn stats_absorb_sums() {
        let mut total = InclusionStats::default();
        absorb_stats(
            &mut total,
            InclusionStats {
                frontier: 3,
                pruned: 1,
            },
        );
        absorb_stats(
            &mut total,
            InclusionStats {
                frontier: 2,
                pruned: 4,
            },
        );
        assert_eq!(
            total,
            InclusionStats {
                frontier: 5,
                pruned: 5,
            }
        );
    }
}
