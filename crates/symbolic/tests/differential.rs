//! The differential backend harness: both product claim-checking engines —
//! explicit joint search and symbolic BDD fixpoint — and the
//! NuSMV-encoding evaluator of `shelley-oracle` run on the same random
//! system/claim pairs and must agree.
//!
//! Verdicts must be identical everywhere; where two engines both produce
//! a counterexample it must be a genuine violating word of the model's
//! language, and (absent markers, which this suite does not generate)
//! the witness *lengths* must be equal — every engine searches
//! breadth-first, so all shortest violations have one length.
//!
//! The generator is a hand-rolled LCG so the suite is deterministic
//! across platforms and needs no dev-dependency beyond the crates under
//! test.

use shelley_ltlf::{check_claim as explicit_check, eval, parse_formula, ClaimOutcome, Formula};
use shelley_oracle::smv::check_claim as smv_check;
use shelley_regular::{parse_regex, Alphabet, Nfa};
use shelley_symbolic::check_claim as symbolic_check;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const SYMBOLS: [&str; 3] = ["a", "b", "c"];

/// A random regular expression in the `parse_regex` surface syntax.
fn random_regex(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        // Leaves are single symbols, with an occasional `void` to hit
        // empty-language corners (the parser constant-folds it away in
        // most positions, which is fine — some survive).
        return match rng.below(8) {
            0 => "void".to_owned(),
            i => SYMBOLS[(i % 3) as usize].to_owned(),
        };
    }
    let left = random_regex(rng, depth - 1);
    let right = random_regex(rng, depth - 1);
    match rng.below(4) {
        0 => format!("({left} ; {right})"),
        1 => format!("({left} + {right})"),
        2 => format!("({left})*"),
        _ => format!("(({left} + {right}))*"),
    }
}

/// A random LTLf claim in the `parse_formula` surface syntax.
fn random_formula(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return SYMBOLS[rng.below(3) as usize].to_owned();
    }
    let left = random_formula(rng, depth - 1);
    let right = random_formula(rng, depth - 1);
    match rng.below(9) {
        0 => format!("(! {left})"),
        1 => format!("(G {left})"),
        2 => format!("(F {left})"),
        3 => format!("(X {left})"),
        4 => format!("({left} & {right})"),
        5 => format!("({left} | {right})"),
        6 => format!("({left} U {right})"),
        7 => format!("({left} W {right})"),
        _ => format!("({left} -> {right})"),
    }
}

/// One random pair: a model NFA and a claim over a shared 3-symbol
/// alphabet.
fn random_pair(rng: &mut Lcg) -> (Nfa, Formula) {
    let mut ab = Alphabet::new();
    for name in SYMBOLS {
        ab.intern(name);
    }
    let formula_depth = 1 + (rng.below(3) as u32);
    let formula_text = random_formula(rng, formula_depth);
    let regex_depth = 1 + (rng.below(3) as u32);
    let regex_text = random_regex(rng, regex_depth);
    let claim = parse_formula(&formula_text, &mut ab).expect("generated formulas parse");
    let regex = parse_regex(&regex_text, &mut ab).expect("generated regexes parse");
    (Nfa::from_regex(&regex, Arc::new(ab)), claim)
}

#[test]
fn the_three_engines_agree_on_random_system_claim_pairs() {
    let markers = BTreeSet::new();
    let mut rng = Lcg(0x5eed_0001);
    let mut violations = 0usize;
    const PAIRS: usize = 1500;
    for case in 0..PAIRS {
        let (model, claim) = random_pair(&mut rng);
        let explicit = explicit_check(&model, &claim, &markers);
        let symbolic = symbolic_check(&model, &claim, &markers);
        let smv = smv_check(&model, &claim, &markers);

        match (&explicit, &symbolic, &smv) {
            (ClaimOutcome::Holds, ClaimOutcome::Holds, ClaimOutcome::Holds) => {}
            (
                ClaimOutcome::Violated { counterexample: e },
                ClaimOutcome::Violated { counterexample: s },
                ClaimOutcome::Violated { counterexample: v },
            ) => {
                violations += 1;
                // Shortest-witness lengths agree across all engines…
                assert_eq!(e.len(), s.len(), "case {case}: explicit vs symbolic length");
                assert_eq!(e.len(), v.len(), "case {case}: explicit vs smv length");
                // …and every witness is a genuine violation of a word the
                // model accepts.
                for (engine, word) in [("explicit", e), ("symbolic", s), ("smv", v)] {
                    assert!(
                        model.accepts(word),
                        "case {case}: {engine} witness rejected"
                    );
                    assert!(
                        !eval(&claim, word),
                        "case {case}: {engine} witness satisfies"
                    );
                }
            }
            _ => panic!(
                "case {case}: verdicts differ\n  explicit: {explicit:?}\n  \
                 symbolic: {symbolic:?}\n  smv: {smv:?}"
            ),
        }
    }
    // The generator must exercise both verdicts substantially, or the
    // agreement above is vacuous.
    assert!(
        violations > PAIRS / 10 && violations < PAIRS * 9 / 10,
        "unbalanced generator: {violations}/{PAIRS} violations"
    );
}

#[test]
fn the_engines_agree_with_markers_in_the_model() {
    // Marker agreement is explicit-vs-symbolic only (the SMV path has no
    // marker concept): markers cost one step like any event, so joint
    // witness lengths still match.
    let mut rng = Lcg(0x5eed_0002);
    for case in 0..300 {
        let (model, claim) = random_pair(&mut rng);
        // Promote one symbol to a marker: the claim never observes it.
        let marker = model
            .alphabet()
            .lookup(SYMBOLS[rng.below(3) as usize])
            .unwrap();
        let markers = BTreeSet::from([marker]);
        let explicit = explicit_check(&model, &claim, &markers);
        let symbolic = symbolic_check(&model, &claim, &markers);
        match (&explicit, &symbolic) {
            (ClaimOutcome::Holds, ClaimOutcome::Holds) => {}
            (
                ClaimOutcome::Violated { counterexample: e },
                ClaimOutcome::Violated { counterexample: s },
            ) => {
                assert_eq!(e.len(), s.len(), "case {case}: joint witness length");
                assert!(model.accepts(s), "case {case}: symbolic witness rejected");
            }
            _ => panic!("case {case}: {explicit:?} vs {symbolic:?}"),
        }
    }
}
