//! Automaton → regular expression conversion (state elimination).
//!
//! Closes the Kleene loop: behaviors are inferred as regexes, compiled to
//! automata for verification, and — with this module — converted back to
//! regexes so whole-system languages (e.g. a composite's integration
//! language) can be displayed to users.

use crate::dfa::Dfa;
use crate::nfa::{Label, Nfa};
use crate::regex::Regex;
use std::collections::HashMap;

impl Nfa {
    /// Converts the automaton to an equivalent regular expression by GNFA
    /// state elimination.
    ///
    /// The result can be large (state elimination is worst-case
    /// exponential) but always denotes exactly `L(self)`.
    pub fn to_regex(&self) -> Regex {
        // GNFA edges: (from, to) -> regex, with fresh start/accept states.
        let n = self.num_states();
        let start = n;
        let accept = n + 1;
        let mut edges: HashMap<(usize, usize), Regex> = HashMap::new();
        let add = |edges: &mut HashMap<(usize, usize), Regex>, from: usize, to: usize, r: Regex| {
            let entry = edges.entry((from, to)).or_insert(Regex::Empty);
            *entry = Regex::union(entry.clone(), r);
        };
        add(&mut edges, start, self.start(), Regex::Epsilon);
        for q in 0..n {
            if self.is_accepting(q) {
                add(&mut edges, q, accept, Regex::Epsilon);
            }
            for &(label, dst) in self.edges_from(q) {
                let r = match label {
                    Label::Eps => Regex::Epsilon,
                    Label::Sym(s) => Regex::Sym(s),
                };
                add(&mut edges, q, dst, r);
            }
        }

        // Eliminate the original states one by one.
        for victim in 0..n {
            let self_loop = edges
                .get(&(victim, victim))
                .cloned()
                .unwrap_or(Regex::Empty);
            let loop_star = Regex::star(self_loop);
            let incoming: Vec<(usize, Regex)> = edges
                .iter()
                .filter(|((f, t), _)| *t == victim && *f != victim)
                .map(|((f, _), r)| (*f, r.clone()))
                .collect();
            let outgoing: Vec<(usize, Regex)> = edges
                .iter()
                .filter(|((f, t), _)| *f == victim && *t != victim)
                .map(|((_, t), r)| (*t, r.clone()))
                .collect();
            for (f, rin) in &incoming {
                for (t, rout) in &outgoing {
                    let path =
                        Regex::concat(rin.clone(), Regex::concat(loop_star.clone(), rout.clone()));
                    add(&mut edges, *f, *t, path);
                }
            }
            edges.retain(|(f, t), _| *f != victim && *t != victim);
        }

        edges.get(&(start, accept)).cloned().unwrap_or(Regex::Empty)
    }
}

impl Dfa {
    /// Converts the automaton to an equivalent regular expression.
    ///
    /// Minimizing first usually yields a much smaller expression.
    pub fn to_regex(&self) -> Regex {
        // Reuse the NFA elimination by viewing the DFA as an NFA.
        let alphabet = self.alphabet().clone();
        let mut b = Nfa::builder(alphabet);
        for _ in 0..self.num_states() {
            b.add_state();
        }
        b.set_start(self.start());
        let dead = self.dead_states();
        for q in 0..self.num_states() {
            if self.is_accepting(q) {
                b.mark_accepting(q);
            }
            if dead[q] {
                continue;
            }
            for sym in self.alphabet().symbols() {
                let dst = self.step(q, sym);
                if !dead[dst] {
                    b.add_edge(q, Label::Sym(sym), dst);
                }
            }
        }
        b.build().to_regex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_regex;
    use crate::symbol::Alphabet;
    use std::sync::Arc;

    fn same_language(d1: &Dfa, d2: &Dfa) -> bool {
        use crate::lang::{is_empty, Product};
        is_empty(&Product::difference(d1, d2)) && is_empty(&Product::difference(d2, d1))
    }

    fn roundtrip(pattern: &str) {
        let mut ab = Alphabet::new();
        let original = parse_regex(pattern, &mut ab).unwrap();
        let ab = Arc::new(ab);
        let nfa = Nfa::from_regex(&original, ab.clone());
        let recovered = nfa.to_regex();
        // Language equivalence via DFA comparison.
        let d1 = Dfa::from_nfa(&nfa);
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&recovered, ab));
        assert!(
            same_language(&d1, &d2),
            "{pattern} -> {:?} changed language",
            recovered
        );
    }

    #[test]
    fn roundtrips_basic_languages() {
        for pattern in [
            "a",
            "eps",
            "void",
            "a ; b ; c",
            "a + b",
            "a*",
            "(a ; b)* ; c",
            "(test ; (open ; close + clean))*",
            "(a + b)* ; a ; (a + b)",
        ] {
            roundtrip(pattern);
        }
    }

    #[test]
    fn dfa_to_regex_agrees() {
        let mut ab = Alphabet::new();
        let r = parse_regex("(a ; b)* + c", &mut ab).unwrap();
        let ab = Arc::new(ab);
        let dfa = Dfa::from_nfa(&Nfa::from_regex(&r, ab.clone())).minimize();
        let back = dfa.to_regex();
        let d2 = Dfa::from_nfa(&Nfa::from_regex(&back, ab));
        assert!(same_language(&dfa, &d2));
    }

    #[test]
    fn empty_language_converts() {
        let mut ab = Alphabet::new();
        ab.intern("a");
        let nfa = Nfa::from_regex(&Regex::Empty, Arc::new(ab));
        assert!(nfa.to_regex().is_empty_language());
    }
}
