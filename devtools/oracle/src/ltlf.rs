//! Reference engines for `shelley-ltlf`.

use shelley_ltlf::{Formula, MonitorView};
use shelley_regular::{Alphabet, Dfa};
use std::sync::Arc;

/// Compiles `formula` into its complete monitor DFA over `alphabet`,
/// accepting exactly the satisfying traces.
///
/// This is the eager path the product's claim check avoids: it
/// materializes every reachable progression state up front (worst-case
/// exponential in the alphabet), where
/// [`check_claim`](shelley_ltlf::check_claim) drives the
/// [`MonitorView`] lazily along the model's traces.
///
/// # Examples
///
/// ```
/// use shelley_ltlf::parse_formula;
/// use shelley_oracle::ltlf::to_dfa;
/// use shelley_regular::Alphabet;
/// use std::sync::Arc;
///
/// let mut ab = Alphabet::new();
/// let f = parse_formula("(!a.open) W b.open", &mut ab)?;
/// let a_open = ab.lookup("a.open").unwrap();
/// let b_open = ab.lookup("b.open").unwrap();
/// let dfa = to_dfa(&f, Arc::new(ab));
/// assert!(dfa.accepts(&[]));
/// assert!(dfa.accepts(&[b_open, a_open]));
/// assert!(!dfa.accepts(&[a_open]));
/// # Ok::<(), shelley_ltlf::ParseFormulaError>(())
/// ```
pub fn to_dfa(formula: &Formula, alphabet: Arc<Alphabet>) -> Dfa {
    MonitorView::new(formula, alphabet).materialize()
}
