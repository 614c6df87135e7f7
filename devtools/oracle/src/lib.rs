//! # shelley-oracle
//!
//! Reference engines for Shelley-rs: slow, obviously correct answers to
//! the questions the product answers fast. The differential property
//! suites, the `shelley-bench` Criterion benches and `langbench` hold the
//! product engines against these; `shelleyc` never links this crate (CI
//! checks its dependency graph), so the product keeps one engine per
//! question.
//!
//! * [`regular`] — the `BTreeSet` subset engine ([`regular::NfaViewRef`],
//!   [`regular::epsilon_closure`]), the classic unpruned inclusion search
//!   ([`regular::subset_of`], [`regular::equivalent`]), Moore
//!   minimization ([`regular::minimize_naive`]) and the eager DFA algebra
//!   ([`regular::product`], [`regular::complement`],
//!   [`regular::shortest_accepted`]);
//! * [`ltlf`] — the eager LTLf monitor DFA ([`ltlf::to_dfa`]);
//! * [`smv`] — an executable semantics for the emitted NuSMV `LTLSPEC`s
//!   ([`smv::eval_spec`], [`smv::eval_model`]) and a claim check routed
//!   through it ([`smv::check_claim`]);
//! * [`pipeline`] — the sequential, uncached single-module pipeline
//!   ([`pipeline::check_module_direct`]) the workspace must match byte
//!   for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ltlf;
pub mod pipeline;
pub mod regular;
pub mod smv;
