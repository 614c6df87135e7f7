//! # shelley-regular
//!
//! Regular-expression and finite-automata toolkit underlying the Shelley
//! model-inference pipeline from *Formalizing Model Inference of
//! MicroPython* (DSN-W 2023).
//!
//! The paper's central result (Corollary 1) is that the behavior of a
//! method body is a **regular language**: behavior inference produces a
//! regular expression (`r ::= ε | ∅ | f | r·r | r+r | r*`), and all
//! downstream verification — subsystem-usage checking and LTLf temporal
//! claims — reduces to automata-theoretic operations on that language. This
//! crate provides those foundations:
//!
//! * [`Symbol`] / [`Alphabet`] — interned event names (`a.open`, `test`).
//! * [`Regex`] — the paper's regular expressions with smart constructors,
//!   [Brzozowski derivatives](Regex::derivative) and
//!   [membership](Regex::matches).
//! * [`Nfa`] — ε-NFAs with Thompson compilation, a builder for
//!   specification graphs, projection by symbol erasure.
//! * [`StateSet`] / [`CompiledNfa`] — the bitset state engine: dense
//!   `u64`-block subsets plus once-per-NFA compiled ε-closures and CSR
//!   successor tables, powering allocation-free determinized stepping in
//!   every hot path below.
//! * [`Dfa`] — complete DFAs stored in and stepping one flat
//!   `states × symbols` transition table ([`Dfa::row`]), with
//!   [Hopcroft minimization](Dfa::minimize), shortlex
//!   [word enumeration](Dfa::enumerate_words) and DOT export.
//! * [`antichain`] — inclusion checking that prunes ⊆-subsumed spec
//!   macrostates (De Wulf–Doyen–Henzinger–Raskin), the product's one
//!   inclusion engine.
//! * [`lang`] — lazy language views, the crate's one language algebra: a
//!   [`lang::Lang`] trait with on-the-fly combinators (product,
//!   complement) and generic searches that explore only reachable states,
//!   with [`lang::materialize`] as the one determinization
//!   ([`Dfa::from_nfa`] and every export).
//! * [`ops`] — marker-aware product searches used to produce the paper's
//!   annotated counterexamples (`open_a, a.test, a.open`).
//! * DOT rendering for the behavior diagrams of Figures 1–3.
//!
//! # Example
//!
//! Check that every behavior of a client is a valid usage of a
//! specification:
//!
//! ```
//! use shelley_regular::antichain::projected_subset_counted;
//! use shelley_regular::lang::NfaView;
//! use shelley_regular::{parse_regex, Alphabet, Nfa};
//! use std::collections::BTreeSet;
//! use std::sync::Arc;
//!
//! let mut ab = Alphabet::new();
//! // Valve usage specification: test then (open·close | clean), repeatedly.
//! let spec = parse_regex("(test ; (open ; close + clean))*", &mut ab)?;
//! // A client that tests then opens then closes once.
//! let client = parse_regex("test ; open ; close", &mut ab)?;
//! // A client that opens without testing first.
//! let careless = parse_regex("open ; close", &mut ab)?;
//! let ab = Arc::new(ab);
//! let spec = Nfa::from_regex(&spec, ab.clone());
//! let no_markers = BTreeSet::new();
//! let check = |behavior| {
//!     let behavior = Nfa::from_regex(behavior, ab.clone());
//!     projected_subset_counted(&behavior, &NfaView::new(&spec), &no_markers).0
//! };
//! assert!(check(&client).is_ok());
//! let witness = check(&careless).unwrap_err();
//! assert_eq!(ab.render_word(&witness), "open, close");
//! # Ok::<(), shelley_regular::ParseRegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antichain;
mod compiled;
mod derivative;
mod dfa;
mod dot;
mod enumerate;
pub mod lang;
mod minimize;
mod nfa;
pub mod ops;
mod parser;
mod regex;
mod stateset;
mod symbol;
mod to_regex;

pub use compiled::CompiledNfa;
pub use dfa::Dfa;
pub use nfa::{Label, Nfa, NfaBuilder, StateId};
pub use parser::{parse_regex, ParseRegexError};
pub use regex::{DisplayRegex, Regex};
pub use stateset::StateSet;
pub use symbol::{Alphabet, Symbol, Word};
