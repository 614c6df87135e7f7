//! An executable semantics for the emitted NuSMV encoding.
//!
//! [`nfa_to_smv`] produces an artifact that is normally
//! handed to NuSMV; offline, nothing interprets its `LTLSPEC` lines. This
//! module closes that gap: it parses the emitted spec strings back into an
//! LTL AST (inlining `DEFINE` bodies), and decides each spec **over the
//! padded traces of the language the model encodes** — the ω-words
//! `w · _stopᵂ` for `w` an accepted word of the transition table. That is
//! the intended reading of the regular → ω-regular encoding (the padding
//! self-loops exist only to extend finite words), and it makes claim specs
//! agree exactly with the finite-trace checker
//! [`shelley_ltlf::check_claim`]: a claim spec is violated iff some
//! *accepted* word violates the claim, and a shortest such word is
//! reported.
//!
//! Positions follow [`eval_padded`](shelley_smv::eval_padded)'s convention: word
//! position `i` carries the event `w[i]` and the state reached *after*
//! consuming `w[0..=i]` (the emitted `TRANS` pairs `next(ev)` with
//! `next(st)`, so this is SMV path position `i + 1`; the artificial
//! all-`_stop` initial position is dropped).
//!
//! The decision procedure is formula progression over a joint
//! breadth-first search of `(table state, residual formula)` pairs —
//! residuals are kept in an ACI-normalized form so the reachable residual
//! space is finite, exactly as in the LTLf monitor construction.
//!
//! [`check_claim`] routes a whole claim check through the encoding: emit,
//! evaluate, and map the witness back to alphabet symbols — a third
//! engine the differential suites hold the explicit and symbolic claim
//! checkers against.

use shelley_ltlf::{ClaimOutcome, Formula};
use shelley_regular::{Nfa, Symbol};
use shelley_smv::{nfa_to_smv, sanitize, SmvModel, STOP_EVENT};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The verdict of one spec, with a shortest violating accepted word (as
/// model-side sanitized event names) when it fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Whether every accepted padded trace satisfies the spec.
    pub holds: bool,
    /// A shortest accepted word whose padded trace violates the spec.
    pub counterexample: Option<Vec<String>>,
}

/// A spec string (or `DEFINE` body) that the evaluator cannot interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    message: String,
}

impl EvalError {
    fn new(message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smv eval: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Evaluates every `LTLSPEC` of `model`, in order.
pub fn eval_model(model: &SmvModel) -> Result<Vec<EvalOutcome>, EvalError> {
    model
        .ltlspecs
        .iter()
        .map(|spec| eval_spec(model, spec))
        .collect()
}

/// Evaluates one spec string against `model`'s accepted padded traces.
pub fn eval_spec(model: &SmvModel, spec: &str) -> Result<EvalOutcome, EvalError> {
    let formula = parse_spec(model, spec)?;
    let machine = Machine::build(model)?;
    Ok(machine.check(&formula))
}

/// Decides one claim through the NuSMV encoding: project `markers` out of
/// the model (the monitor never observes them, so the projected language
/// decides the same verdict), emit the SMV model with the claim as its
/// second `LTLSPEC`, and evaluate that spec.
///
/// The witness is a shortest *visible* violating word. The explicit and
/// symbolic engines instead minimize the joint trace (markers included)
/// and strip markers afterwards, so on marker-bearing models this engine
/// can report a different, equally valid counterexample. Verdicts always
/// agree.
pub fn check_claim(model: &Nfa, formula: &Formula, markers: &BTreeSet<Symbol>) -> ClaimOutcome {
    let visible = if markers.is_empty() {
        model.clone()
    } else {
        model.erase_symbols(markers)
    };
    let smv = nfa_to_smv(&visible, "claim check", std::slice::from_ref(formula));
    let outcome = eval_spec(&smv, &smv.ltlspecs[1])
        .expect("the evaluator accepts every spec the translator emits");
    if outcome.holds {
        return ClaimOutcome::Holds;
    }
    // The evaluator speaks sanitized SMV event names; map them back to
    // alphabet symbols (first symbol wins on a sanitization collision,
    // matching the translator's event-value order).
    let mut by_smv_name: BTreeMap<String, Symbol> = BTreeMap::new();
    for (symbol, name) in visible.alphabet().iter() {
        by_smv_name.entry(sanitize(name)).or_insert(symbol);
    }
    let counterexample = outcome
        .counterexample
        .unwrap_or_default()
        .iter()
        .map(|name| {
            *by_smv_name
                .get(name)
                .expect("every witness event is an alphabet symbol")
        })
        .collect();
    ClaimOutcome::Violated { counterexample }
}

// ---------------------------------------------------------------------------
// Normalized LTL residuals.
// ---------------------------------------------------------------------------

/// LTL over the model's propositions, in negation normal form with
/// ACI-normalized connectives (mirroring [`shelley_ltlf::Formula`]) so that
/// progression reaches only finitely many residuals.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Norm {
    True,
    False,
    /// `ev = name`.
    Ev(String),
    /// `ev != name`.
    NotEv(String),
    /// `alive` (≡ `ev != _stop`).
    Alive,
    /// `!alive`.
    NotAlive,
    /// `st = name`.
    St(String),
    /// `st != name`.
    NotSt(String),
    And(BTreeSet<Norm>),
    Or(BTreeSet<Norm>),
    Next(Box<Norm>),
    Until(Box<Norm>, Box<Norm>),
    Release(Box<Norm>, Box<Norm>),
}

impl Norm {
    fn and_all<I: IntoIterator<Item = Norm>>(items: I) -> Norm {
        let mut set = BTreeSet::new();
        for f in items {
            match f {
                Norm::True => {}
                Norm::False => return Norm::False,
                Norm::And(inner) => set.extend(inner),
                other => {
                    set.insert(other);
                }
            }
        }
        match set.len() {
            0 => Norm::True,
            1 => set.into_iter().next().expect("one element"),
            _ => Norm::And(set),
        }
    }

    fn or_all<I: IntoIterator<Item = Norm>>(items: I) -> Norm {
        let mut set = BTreeSet::new();
        for f in items {
            match f {
                Norm::False => {}
                Norm::True => return Norm::True,
                Norm::Or(inner) => set.extend(inner),
                other => {
                    set.insert(other);
                }
            }
        }
        match set.len() {
            0 => Norm::False,
            1 => set.into_iter().next().expect("one element"),
            _ => Norm::Or(set),
        }
    }

    fn and(a: Norm, b: Norm) -> Norm {
        Norm::and_all([a, b])
    }

    fn or(a: Norm, b: Norm) -> Norm {
        Norm::or_all([a, b])
    }

    /// `a U b` with the infinite-word constant folds.
    fn until(a: Norm, b: Norm) -> Norm {
        match (&a, &b) {
            (_, Norm::False) => Norm::False,
            (_, Norm::True) => Norm::True,
            (Norm::False, _) => b,
            _ => Norm::Until(Box::new(a), Box::new(b)),
        }
    }

    /// `a V b` (release) with the infinite-word constant folds.
    fn release(a: Norm, b: Norm) -> Norm {
        match (&a, &b) {
            (_, Norm::True) => Norm::True,
            (_, Norm::False) => Norm::False,
            (Norm::True, _) => b,
            _ => Norm::Release(Box::new(a), Box::new(b)),
        }
    }

    /// Negation pushed to NNF. On infinite words `X` is self-dual.
    fn negate(&self) -> Norm {
        match self {
            Norm::True => Norm::False,
            Norm::False => Norm::True,
            Norm::Ev(n) => Norm::NotEv(n.clone()),
            Norm::NotEv(n) => Norm::Ev(n.clone()),
            Norm::Alive => Norm::NotAlive,
            Norm::NotAlive => Norm::Alive,
            Norm::St(n) => Norm::NotSt(n.clone()),
            Norm::NotSt(n) => Norm::St(n.clone()),
            Norm::And(items) => Norm::or_all(items.iter().map(Norm::negate)),
            Norm::Or(items) => Norm::and_all(items.iter().map(Norm::negate)),
            Norm::Next(g) => Norm::Next(Box::new(g.negate())),
            Norm::Until(a, b) => Norm::release(a.negate(), b.negate()),
            Norm::Release(a, b) => Norm::until(a.negate(), b.negate()),
        }
    }

    /// One progression step at a word position carrying the (real, non-stop)
    /// event `event` and next-table-state `state`.
    fn progress(&self, event: &str, state: &str) -> Norm {
        match self {
            Norm::True => Norm::True,
            Norm::False => Norm::False,
            Norm::Ev(n) => bool_norm(n == event),
            Norm::NotEv(n) => bool_norm(n != event),
            Norm::Alive => Norm::True,
            Norm::NotAlive => Norm::False,
            Norm::St(n) => bool_norm(n == state),
            Norm::NotSt(n) => bool_norm(n != state),
            Norm::And(items) => Norm::and_all(items.iter().map(|g| g.progress(event, state))),
            Norm::Or(items) => Norm::or_all(items.iter().map(|g| g.progress(event, state))),
            Norm::Next(g) => (**g).clone(),
            Norm::Until(a, b) => Norm::or(
                b.progress(event, state),
                Norm::and(a.progress(event, state), self.clone()),
            ),
            Norm::Release(a, b) => Norm::and(
                b.progress(event, state),
                Norm::or(a.progress(event, state), self.clone()),
            ),
        }
    }

    /// Canonical minimal DNF: an antichain of cubes over the non-boolean
    /// leaves (atoms and temporal nodes), with absorption.
    ///
    /// ACI flattening alone does not bound progression: `progress(a U b)`
    /// re-embeds the `Until` under a fresh `And` inside a fresh `Or`, so
    /// the alternation depth of a naively-progressed residual grows by one
    /// per word position and the seen-set never fills. Every residual is,
    /// however, a *monotone* boolean combination of leaves drawn from the
    /// finite closure of the spec (progression rewrites leaves but never
    /// invents new ones), and a monotone function's minimal DNF is unique
    /// — so canonicalizing after each step makes the reachable residual
    /// space finite, exactly as the LTLf monitor construction requires.
    fn canonical(&self) -> Norm {
        let cubes = self.cubes();
        let minimal: Vec<&BTreeSet<Norm>> = cubes
            .iter()
            .filter(|c| !cubes.iter().any(|d| d != *c && d.is_subset(c)))
            .collect();
        Norm::or_all(
            minimal
                .into_iter()
                .map(|c| Norm::and_all(c.iter().cloned())),
        )
    }

    /// The DNF cube set: `self` is equivalent to the disjunction over
    /// cubes of the conjunction of each cube's leaves.
    fn cubes(&self) -> BTreeSet<BTreeSet<Norm>> {
        match self {
            Norm::True => BTreeSet::from([BTreeSet::new()]),
            Norm::False => BTreeSet::new(),
            Norm::Or(items) => {
                let mut out = BTreeSet::new();
                for g in items {
                    out.extend(g.cubes());
                }
                out
            }
            Norm::And(items) => {
                let mut out = BTreeSet::from([BTreeSet::new()]);
                for g in items {
                    let parts = g.cubes();
                    let mut next = BTreeSet::new();
                    for cube in &out {
                        for part in &parts {
                            let mut merged = cube.clone();
                            merged.extend(part.iter().cloned());
                            next.insert(merged);
                        }
                    }
                    out = next;
                }
                out
            }
            leaf => BTreeSet::from([BTreeSet::from([leaf.clone()])]),
        }
    }

    /// Truth on the constant suffix `(_stop, state)ᵂ` — every temporal
    /// operator collapses to its fixpoint exactly as in
    /// [`eval_padded`](shelley_smv::eval_padded).
    fn on_suffix(&self, state: &str) -> bool {
        match self {
            Norm::True => true,
            Norm::False => false,
            Norm::Ev(n) => n == STOP_EVENT,
            Norm::NotEv(n) => n != STOP_EVENT,
            Norm::Alive => false,
            Norm::NotAlive => true,
            Norm::St(n) => n == state,
            Norm::NotSt(n) => n != state,
            Norm::And(items) => items.iter().all(|g| g.on_suffix(state)),
            Norm::Or(items) => items.iter().any(|g| g.on_suffix(state)),
            Norm::Next(g) => g.on_suffix(state),
            Norm::Until(_, b) => b.on_suffix(state),
            Norm::Release(_, b) => b.on_suffix(state),
        }
    }
}

fn bool_norm(b: bool) -> Norm {
    if b {
        Norm::True
    } else {
        Norm::False
    }
}

// ---------------------------------------------------------------------------
// Parsing the emitted concrete syntax.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    LParen,
    RParen,
    Bang,
    Amp,
    Pipe,
    Arrow,
    Eq,
    Neq,
    Ident(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, EvalError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '&' => {
                tokens.push(Token::Amp);
                i += 1;
            }
            '|' => {
                tokens.push(Token::Pipe);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Neq);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::Arrow);
                    i += 2;
                } else {
                    return Err(EvalError::new(format!("stray '-' in `{input}`")));
                }
            }
            _ if c.is_ascii_alphanumeric() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_owned()));
            }
            _ => return Err(EvalError::new(format!("unexpected `{c}` in `{input}`"))),
        }
    }
    Ok(tokens)
}

/// Recursive-descent parser over the grammar `Ltl::Display` and the
/// `DEFINE` bodies emit: implication (right-assoc, lowest), `|`, `&`,
/// infix `U`/`V`, prefix `!`/`X`/`G`/`F`, atoms (`TRUE`, `FALSE`,
/// `ev = x`, `st != sN`, parenthesized, or a `DEFINE` name — inlined).
struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    model: &'a SmvModel,
    /// Guards against (hypothetical) cyclic DEFINEs while inlining.
    inlining: Vec<String>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), EvalError> {
        match self.next() {
            Some(found) if &found == t => Ok(()),
            other => Err(EvalError::new(format!("expected {t:?}, found {other:?}"))),
        }
    }

    fn implication(&mut self) -> Result<Norm, EvalError> {
        let lhs = self.disjunction()?;
        if self.peek() == Some(&Token::Arrow) {
            self.next();
            let rhs = self.implication()?;
            return Ok(Norm::or(lhs.negate(), rhs));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<Norm, EvalError> {
        let mut items = vec![self.conjunction()?];
        while self.peek() == Some(&Token::Pipe) {
            self.next();
            items.push(self.conjunction()?);
        }
        Ok(Norm::or_all(items))
    }

    fn conjunction(&mut self) -> Result<Norm, EvalError> {
        let mut items = vec![self.temporal()?];
        while self.peek() == Some(&Token::Amp) {
            self.next();
            items.push(self.temporal()?);
        }
        Ok(Norm::and_all(items))
    }

    fn temporal(&mut self) -> Result<Norm, EvalError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Ident(n)) if n == "U" || n == "V" => n.clone(),
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.unary()?;
            lhs = if op == "U" {
                Norm::until(lhs, rhs)
            } else {
                Norm::release(lhs, rhs)
            };
        }
    }

    fn unary(&mut self) -> Result<Norm, EvalError> {
        match self.peek() {
            Some(Token::Bang) => {
                self.next();
                Ok(self.unary()?.negate())
            }
            Some(Token::Ident(n)) if n == "X" => {
                self.next();
                Ok(Norm::Next(Box::new(self.unary()?)))
            }
            Some(Token::Ident(n)) if n == "F" => {
                self.next();
                Ok(Norm::until(Norm::True, self.unary()?))
            }
            Some(Token::Ident(n)) if n == "G" => {
                self.next();
                Ok(Norm::release(Norm::False, self.unary()?))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Norm, EvalError> {
        match self.next() {
            Some(Token::LParen) => {
                let inner = self.implication()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => self.ident_atom(name),
            other => Err(EvalError::new(format!("expected an atom, found {other:?}"))),
        }
    }

    fn ident_atom(&mut self, name: String) -> Result<Norm, EvalError> {
        if name == "TRUE" {
            return Ok(Norm::True);
        }
        if name == "FALSE" {
            return Ok(Norm::False);
        }
        // `var = value` / `var != value` comparisons on the two variables.
        if matches!(self.peek(), Some(Token::Eq) | Some(Token::Neq)) {
            let negated = self.next() == Some(Token::Neq);
            let value = match self.next() {
                Some(Token::Ident(v)) => v,
                other => {
                    return Err(EvalError::new(format!(
                        "expected a value after `{name} =`, found {other:?}"
                    )))
                }
            };
            let atom = if name == self.model.event_var.name {
                if value == STOP_EVENT {
                    Norm::NotAlive
                } else {
                    Norm::Ev(value)
                }
            } else if name == self.model.state_var.name {
                Norm::St(value)
            } else {
                return Err(EvalError::new(format!("unknown variable `{name}`")));
            };
            return Ok(if negated { atom.negate() } else { atom });
        }
        // A bare identifier must be a DEFINE; inline its body.
        let Some(body) = self.model.define(&name) else {
            return Err(EvalError::new(format!("unknown identifier `{name}`")));
        };
        if self.inlining.iter().any(|n| n == &name) {
            return Err(EvalError::new(format!("cyclic DEFINE `{name}`")));
        }
        self.inlining.push(name);
        let mut inner = Parser {
            tokens: tokenize(body)?,
            pos: 0,
            model: self.model,
            inlining: std::mem::take(&mut self.inlining),
        };
        let parsed = inner.implication()?;
        if inner.pos != inner.tokens.len() {
            return Err(EvalError::new(format!(
                "trailing tokens in DEFINE body `{body}`"
            )));
        }
        self.inlining = inner.inlining;
        self.inlining.pop();
        Ok(parsed)
    }
}

fn parse_spec(model: &SmvModel, spec: &str) -> Result<Norm, EvalError> {
    let mut parser = Parser {
        tokens: tokenize(spec)?,
        pos: 0,
        model,
        inlining: Vec::new(),
    };
    let parsed = parser.implication()?;
    if parser.pos != parser.tokens.len() {
        return Err(EvalError::new(format!("trailing tokens in `{spec}`")));
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// The joint breadth-first search.
// ---------------------------------------------------------------------------

/// The model's transition table in executable form.
struct Machine {
    /// `(state, event) → next states` (the emitted table is deterministic,
    /// but `TRANS` is a disjunction, so nondeterminism is honored).
    table: BTreeMap<(String, String), BTreeSet<String>>,
    /// Real events in declaration order (determines witness tie-breaking).
    events: Vec<String>,
    /// States satisfying the `accepted` define.
    accepting: BTreeSet<String>,
    init: String,
}

impl Machine {
    fn build(model: &SmvModel) -> Result<Machine, EvalError> {
        let mut table: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
        for c in &model.trans {
            table
                .entry((c.state.clone(), c.event.clone()))
                .or_default()
                .insert(c.next_state.clone());
        }
        let events: Vec<String> = model
            .event_var
            .values
            .iter()
            .filter(|e| e.as_str() != STOP_EVENT)
            .cloned()
            .collect();
        let accepted_body = model
            .define("accepted")
            .ok_or_else(|| EvalError::new("model has no `accepted` DEFINE"))?;
        let accepted = {
            let mut parser = Parser {
                tokens: tokenize(accepted_body)?,
                pos: 0,
                model,
                inlining: vec!["accepted".to_owned()],
            };
            parser.implication()?
        };
        let accepting = model
            .state_var
            .values
            .iter()
            .filter(|s| accepted.on_suffix(s))
            .cloned()
            .collect();
        Ok(Machine {
            table,
            events,
            accepting,
            init: model.state_var.init.clone(),
        })
    }

    /// Decides `∀ accepted words w: w·_stopᵂ ⊨ formula` by breadth-first
    /// search over `(state, residual)` pairs, returning a shortest
    /// violating accepted word on failure.
    fn check(&self, formula: &Norm) -> EvalOutcome {
        /// One search node: the table state, the residual obligation, and
        /// the `(parent index, consumed event)` backlink (`None` at the
        /// root) for witness reconstruction.
        type SearchNode = (String, Norm, Option<(usize, String)>);
        let mut nodes: Vec<SearchNode> = Vec::new();
        let mut seen: BTreeMap<(String, Norm), usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();

        let root = (self.init.clone(), formula.canonical());
        seen.insert(root.clone(), 0);
        nodes.push((root.0, root.1, None));
        queue.push_back(0);

        while let Some(id) = queue.pop_front() {
            let (state, residual) = (nodes[id].0.clone(), nodes[id].1.clone());
            // The word may end here iff the state is accepting; the padded
            // suffix then decides the residual.
            if self.accepting.contains(&state) && !residual.on_suffix(&state) {
                let mut word = Vec::new();
                let mut cursor = id;
                while let Some((parent, event)) = nodes[cursor].2.clone() {
                    word.push(event);
                    cursor = parent;
                }
                word.reverse();
                return EvalOutcome {
                    holds: false,
                    counterexample: Some(word),
                };
            }
            for event in &self.events {
                let Some(nexts) = self.table.get(&(state.clone(), event.clone())) else {
                    continue;
                };
                for next_state in nexts {
                    let next_residual = residual.progress(event, next_state).canonical();
                    let key = (next_state.clone(), next_residual);
                    if seen.contains_key(&key) {
                        continue;
                    }
                    let next_id = nodes.len();
                    seen.insert(key.clone(), next_id);
                    nodes.push((key.0, key.1, Some((id, event.clone()))));
                    queue.push_back(next_id);
                }
            }
        }
        EvalOutcome {
            holds: true,
            counterexample: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shelley_ltlf::parse_formula;
    use shelley_regular::{parse_regex, Alphabet, Nfa};
    use std::sync::Arc;

    fn emit(model_re: &str, claims: &[&str]) -> SmvModel {
        let mut ab = Alphabet::new();
        let claims: Vec<_> = claims
            .iter()
            .map(|c| parse_formula(c, &mut ab).unwrap())
            .collect();
        let r = parse_regex(model_re, &mut ab).unwrap();
        let nfa = Nfa::from_regex(&r, Arc::new(ab));
        nfa_to_smv(&nfa, "eval tests", &claims)
    }

    #[test]
    fn acceptance_spec_holds_on_every_emitted_model() {
        for re in ["a ; b", "(a + b)*", "a*; b", "void"] {
            let model = emit(re, &[]);
            let out = eval_spec(&model, &model.ltlspecs[0]).unwrap();
            assert!(out.holds, "acceptance spec failed on {re}");
        }
    }

    #[test]
    fn holding_claim_evaluates_to_true() {
        let model = emit("b.open ; a.open", &["(!a.open) W b.open"]);
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(out.holds);
        assert_eq!(out.counterexample, None);
    }

    #[test]
    fn violated_claim_reports_a_shortest_accepted_word() {
        let model = emit(
            "(b.open ; a.open) + (a.test ; a.open)",
            &["(!a.open) W b.open"],
        );
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(!out.holds);
        assert_eq!(
            out.counterexample,
            Some(vec!["a_test".to_owned(), "a_open".to_owned()])
        );
    }

    #[test]
    fn empty_word_counterexamples_are_possible() {
        // The model accepts ε, which violates F done.
        let model = emit("done*", &["F done"]);
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(!out.holds);
        assert_eq!(out.counterexample, Some(vec![]));
    }

    #[test]
    fn eval_model_covers_all_specs() {
        let model = emit("a ; b", &["F b", "G !b"]);
        let outs = eval_model(&model).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs[0].holds, "acceptance spec");
        assert!(outs[1].holds, "F b holds on {{ab}}");
        assert!(!outs[2].holds, "G !b is violated");
        assert_eq!(
            outs[2].counterexample,
            Some(vec!["a".to_owned(), "b".to_owned()])
        );
    }

    #[test]
    fn defines_are_inlined_transitively() {
        // `complete` references `accepted`; both must parse.
        let model = emit("a", &[]);
        let out = eval_spec(&model, "G complete").unwrap();
        assert!(out.holds);
    }

    #[test]
    fn unknown_identifiers_are_rejected() {
        let model = emit("a", &[]);
        assert!(eval_spec(&model, "G bogus").is_err());
        assert!(eval_spec(&model, "nope = 3").is_err());
    }

    #[test]
    fn weak_until_over_nested_temporal_operands_terminates() {
        // `(G a) W (F c)` desugars to Release/Until nesting whose naive
        // progression grows an `And(Or(And(…)))` spine one level per step;
        // only DNF canonicalization keeps the residual space finite. The
        // claim is violated by the accepted word `c a`? No: `c` satisfies
        // `F c` immediately, so it holds — the point is termination.
        let model = emit("c ; a", &["(G a) W (F c)"]);
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(out.holds);
        // And a violated variant still reports a shortest witness.
        let model = emit("a ; b", &["(G a) W (F c)"]);
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(!out.holds);
        assert_eq!(
            out.counterexample,
            Some(vec!["a".to_owned(), "b".to_owned()])
        );
    }

    #[test]
    fn padded_semantics_matches_eval_padded_on_claim_specs() {
        // For every accepted word of a small model, the spec string decided
        // here must agree with `eval_padded` of the same translation.
        use shelley_smv::{eval_padded, translate_formula};
        let mut ab = Alphabet::new();
        let claim = parse_formula("G (req -> X ack)", &mut ab).unwrap();
        let r = parse_regex("(req ; ack)*", &mut ab).unwrap();
        let nfa = Nfa::from_regex(&r, Arc::new(ab.clone()));
        let model = nfa_to_smv(&nfa, "t", std::slice::from_ref(&claim));
        let ltl = translate_formula(&claim, &ab);
        let dfa = shelley_regular::Dfa::from_nfa(&nfa);
        for word in dfa.enumerate_words(6, 100) {
            let names: Vec<String> = word.iter().map(|&s| sanitize(ab.name(s))).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            assert!(eval_padded(&ltl, &refs), "emitted language satisfies claim");
        }
        let out = eval_spec(&model, &model.ltlspecs[1]).unwrap();
        assert!(out.holds);
    }
}
