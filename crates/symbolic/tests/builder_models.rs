//! Differential properties on builder-made models.
//!
//! The differential harness draws its models from regular expressions, so
//! every model is a Thompson NFA. Integration automata are not: they are
//! assembled with `NfaBuilder`, with ε-edges that join again downstream
//! (ε-diamonds) and marker edges (operation names the claim and the spec
//! never observe) in parallel with them. On such a graph a node can be
//! reached first over a marker edge and only later over a cheaper ε-path,
//! which a breadth-first search that marks nodes at first discovery gets
//! wrong.
//!
//! Here random builder-made NFAs with ε-diamonds and marker edges are
//! checked by every pair of engines that answer one question:
//!
//! * claims: the explicit joint search and the symbolic BDD fixpoint give
//!   the same verdict and witnesses of equal length;
//! * usage: the classic joint search of `ops` and the antichain engine give
//!   the same verdict and witnesses of equal length.
//!
//! Every witness must also be a genuine violation. The generator is a
//! hand-rolled LCG, as in the differential harness, so the suite is
//! deterministic across platforms.

use shelley_ltlf::{check_claim as explicit_check, eval, parse_formula, ClaimOutcome, Formula};
use shelley_regular::lang::NfaView;
use shelley_regular::{antichain, ops, parse_regex, Alphabet, Label, Nfa, Symbol};
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

    fn state(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// Events the claims and specs observe.
const EVENTS: [&str; 3] = ["a", "b", "c"];
/// Operation markers: advance the model, invisible to claims and specs.
const MARKERS: [&str; 2] = ["m", "n"];

fn alphabet() -> Alphabet {
    Alphabet::from_names(EVENTS.into_iter().chain(MARKERS))
}

fn markers(ab: &Alphabet) -> BTreeSet<Symbol> {
    MARKERS.iter().map(|m| ab.lookup(m).unwrap()).collect()
}

/// A random builder-made NFA over `ab`: a sparse random graph whose edges
/// are ε, event or marker edges, plus one to three ε-diamonds
/// `s -ε-> w -ε-> x` beside `s -ε-> u -marker-> x`, where the marker path
/// is found first and the ε-path second.
fn random_model(rng: &mut Lcg, ab: &Arc<Alphabet>) -> Nfa {
    let mut builder = Nfa::builder(ab.clone());
    let n = 2 + rng.state(6);
    let mut states: Vec<usize> = (0..n).map(|_| builder.add_state()).collect();
    builder.set_start(states[0]);
    let label = |rng: &mut Lcg| match rng.below(6) {
        0 | 1 => Label::Eps,
        2 => Label::Sym(Symbol::from_index(EVENTS.len() + rng.state(MARKERS.len()))),
        _ => Label::Sym(Symbol::from_index(rng.state(EVENTS.len()))),
    };
    for _ in 0..n + rng.state(2 * n) {
        let (from, to) = (states[rng.state(n)], states[rng.state(n)]);
        let l = label(rng);
        builder.add_edge(from, l, to);
    }
    for _ in 0..1 + rng.below(3) {
        let s = states[rng.state(states.len())];
        let x = states[rng.state(states.len())];
        let (w, u) = (builder.add_state(), builder.add_state());
        let marker = Symbol::from_index(EVENTS.len() + rng.state(MARKERS.len()));
        builder.add_edge(s, Label::Eps, w);
        builder.add_edge(s, Label::Eps, u);
        builder.add_edge(u, Label::Sym(marker), x);
        builder.add_edge(w, Label::Eps, x);
        states.extend([w, u]);
    }
    for _ in 0..1 + rng.below(2) {
        builder.mark_accepting(states[rng.state(states.len())]);
    }
    builder.build()
}

/// A random LTLf claim over the events, in `parse_formula` syntax.
fn random_formula(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return EVENTS[rng.state(EVENTS.len())].to_owned();
    }
    let left = random_formula(rng, depth - 1);
    let right = random_formula(rng, depth - 1);
    match rng.below(8) {
        0 => format!("(! {left})"),
        1 => format!("(G {left})"),
        2 => format!("(F {left})"),
        3 => format!("(X {left})"),
        4 => format!("({left} & {right})"),
        5 => format!("({left} | {right})"),
        6 => format!("({left} U {right})"),
        _ => format!("({left} W {right})"),
    }
}

/// A random usage spec over the events, in `parse_regex` syntax.
fn random_spec(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 || rng.below(4) == 0 {
        return EVENTS[rng.state(EVENTS.len())].to_owned();
    }
    let left = random_spec(rng, depth - 1);
    let right = random_spec(rng, depth - 1);
    match rng.below(3) {
        0 => format!("({left} ; {right})"),
        1 => format!("({left} + {right})"),
        _ => format!("({left})*"),
    }
}

fn claim(rng: &mut Lcg, ab: &mut Alphabet) -> Formula {
    let depth = 1 + rng.below(3) as u32;
    let text = random_formula(rng, depth);
    parse_formula(&text, ab).expect("generated formulas parse")
}

#[test]
fn explicit_and_symbolic_claim_witnesses_have_equal_lengths() {
    let mut rng = Lcg(0x5eed_b001);
    let mut violations = 0usize;
    const MODELS: usize = 1000;
    for case in 0..MODELS {
        let mut ab = alphabet();
        let formula = claim(&mut rng, &mut ab);
        let ab = Arc::new(ab);
        let model = random_model(&mut rng, &ab);
        let markers = markers(&ab);
        let explicit = explicit_check(&model, &formula, &markers);
        let symbolic = symbolic_check(&model, &formula, &markers);
        match (&explicit, &symbolic) {
            (ClaimOutcome::Holds, ClaimOutcome::Holds) => {}
            (
                ClaimOutcome::Violated { counterexample: e },
                ClaimOutcome::Violated { counterexample: s },
            ) => {
                violations += 1;
                assert_eq!(e.len(), s.len(), "case {case}: witness lengths differ");
                for word in [e, s] {
                    assert!(model.accepts(word), "case {case}: witness rejected");
                    let observed = ops::strip_markers(word, &markers);
                    assert!(!eval(&formula, &observed), "case {case}: witness satisfies");
                }
            }
            _ => panic!("case {case}: verdicts differ: {explicit:?} vs {symbolic:?}"),
        }
    }
    assert!(
        violations > MODELS / 10 && violations < MODELS * 9 / 10,
        "unbalanced generator: {violations}/{MODELS} violations"
    );
}

#[test]
fn classic_and_antichain_usage_witnesses_have_equal_lengths() {
    let mut rng = Lcg(0x5eed_b002);
    let mut violations = 0usize;
    const MODELS: usize = 1000;
    for case in 0..MODELS {
        let mut ab = alphabet();
        let depth = 1 + rng.below(3) as u32;
        let text = random_spec(&mut rng, depth);
        let spec = parse_regex(&text, &mut ab).expect("generated regexes parse");
        let ab = Arc::new(ab);
        let spec = Nfa::from_regex(&spec, ab.clone());
        let model = random_model(&mut rng, &ab);
        let markers = markers(&ab);
        let classic = ops::projected_subset(&model, &NfaView::new(&spec), &markers);
        let (pruned, _) =
            antichain::projected_subset_counted(&model, &NfaView::new(&spec), &markers);
        match (&classic, &pruned) {
            (Ok(()), Ok(())) => {}
            (Err(c), Err(p)) => {
                violations += 1;
                assert_eq!(c.len(), p.len(), "case {case}: witness lengths differ");
                for word in [c, p] {
                    assert!(model.accepts(word), "case {case}: witness rejected");
                    let observed = ops::strip_markers(word, &markers);
                    assert!(!spec.accepts(&observed), "case {case}: witness conforms");
                }
            }
            _ => panic!("case {case}: verdicts differ: {classic:?} vs {pruned:?}"),
        }
    }
    assert!(
        violations > MODELS / 10 && violations < MODELS * 9 / 10,
        "unbalanced generator: {violations}/{MODELS} violations"
    );
}
