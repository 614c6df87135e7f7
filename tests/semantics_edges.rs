//! Edge cases of the extraction/verification semantics that the main
//! suites don't pin down directly.

use shelley::core::{build_integration, Checker};
use shelley::regular::Dfa;

/// A composite op that falls off the end (implicit `return []`) still
/// contributes its traces to the integration automaton, and the exit is
/// terminal (no further ops may follow).
#[test]
fn implicit_exits_are_terminal_in_the_integration() {
    let src = r#"
@sys
class Led:
    @op_initial_final
    def pulse(self):
        return ["pulse"]

@sys(["led"])
class Panel:
    def __init__(self):
        self.led = Led()

    @op_initial_final
    def show(self):
        if bright:
            self.led.pulse()
            return ["show"]
        # falling through = return []

    @op_final
    def off(self):
        self.led.pulse()
        return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    // W003 for the implicit return; no errors.
    assert!(!checked.report.diagnostics.has_errors());
    let panel = checked.systems.get("Panel").unwrap();
    let spec_show = panel.spec.operation("show").unwrap();
    assert_eq!(spec_show.exits.len(), 2);
    assert!(spec_show.exits[1].implicit);
    let integration = build_integration(panel);
    let ab = integration.nfa.alphabet();
    let s = |n: &str| ab.lookup(n).unwrap();
    // Explicit exit chains to show again.
    assert!(integration
        .nfa
        .accepts(&[s("show"), s("led.pulse"), s("show"), s("led.pulse")]));
    // Implicit exit: the trace may end after `show` with no pulse…
    assert!(integration.nfa.accepts(&[s("show")]));
    // …but nothing may follow the implicit exit (next = []).
    assert!(!integration.nfa.accepts(&[s("show"), s("show")]));
}

/// Claims on a mid-level composite see its subsystems' events; claims on
/// the top level see the mid-level's *interface* operations — hierarchy
/// hides internals, exactly like the paper's composition model.
#[test]
fn hierarchical_claims_see_the_right_alphabet() {
    let src = r#"
@sys
class Pump:
    @op_initial
    def prime(self):
        return ["run"]

    @op
    def run(self):
        return ["stop"]

    @op_final
    def stop(self):
        return ["prime"]

@claim("(!p.run) W p.prime")
@sys(["p"])
class Station:
    def __init__(self):
        self.p = Pump()

    @op_initial_final
    def cycle(self):
        self.p.prime()
        self.p.run()
        self.p.stop()
        return ["cycle"]

@claim("G (!s.cycle | F s.cycle)")
@sys(["s"])
class Plant:
    def __init__(self):
        self.s = Station()

    @op_initial_final
    def shift(self):
        self.s.cycle()
        self.s.cycle()
        return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));
    // The Plant integration speaks s.cycle, not p.run: internals are
    // hidden behind the Station interface.
    let plant = checked.systems.get("Plant").unwrap();
    let integration = build_integration(plant);
    assert!(integration.nfa.alphabet().lookup("s.cycle").is_some());
    assert!(integration.nfa.alphabet().lookup("p.run").is_none());
    assert!(integration.nfa.alphabet().lookup("s.p.run").is_none());
}

/// The integration automaton determinizes and minimizes without changing
/// its language (spot check on the paper example).
#[test]
fn integration_language_survives_minimization() {
    let src = r#"
@sys
class Valve:
    @op_initial
    def test(self):
        if ok:
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]

@sys(["a"])
class S:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def w(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return ["w"]
            case ["clean"]:
                self.a.clean()
                return ["w"]
"#;
    let checked = Checker::new().check_source(src).unwrap();
    let sys = checked.systems.get("S").unwrap();
    let integration = build_integration(sys);
    let dfa = Dfa::from_nfa(&integration.nfa);
    let min = dfa.minimize();
    assert!(shelley_oracle::regular::equivalent(&min, &dfa).is_ok());
    for w in min.enumerate_words(8, 200) {
        assert!(integration.nfa.accepts(&w));
    }
}

/// Two composites sharing the same base class keep independent instance
/// alphabets (no cross-talk between `x.op` of different composites).
#[test]
fn instance_alphabets_are_per_composite() {
    let src = r#"
@sys
class Led:
    @op_initial_final
    def blink(self):
        return ["blink"]

@sys(["l"])
class A:
    def __init__(self):
        self.l = Led()

    @op_initial_final
    def go(self):
        self.l.blink()
        return []

@sys(["lamp"])
class B:
    def __init__(self):
        self.lamp = Led()

    @op_initial_final
    def go(self):
        self.lamp.blink()
        return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));
    let a = checked.systems.get("A").unwrap().composite().unwrap();
    let b = checked.systems.get("B").unwrap().composite().unwrap();
    assert!(a.alphabet.lookup("l.blink").is_some());
    assert!(a.alphabet.lookup("lamp.blink").is_none());
    assert!(b.alphabet.lookup("lamp.blink").is_some());
    assert!(b.alphabet.lookup("l.blink").is_none());
}

/// A return listing the same next-op twice, and two exits with identical
/// next-sets, are both tolerated (set semantics in the automaton).
#[test]
fn duplicate_next_ops_are_idempotent() {
    let src = r#"
@sys
class V:
    @op_initial
    def a(self):
        if x:
            return ["b", "b"]
        else:
            return ["b"]

    @op_final
    def b(self):
        return []
"#;
    let checked = Checker::new().check_source(src).unwrap();
    assert!(!checked.report.diagnostics.has_errors());
    let v = checked.systems.get("V").unwrap();
    let mut ab = shelley::regular::Alphabet::new();
    shelley::core::spec::intern_spec_events(&v.spec, None, &mut ab);
    let auto = shelley::core::spec::spec_automaton(&v.spec, None, std::sync::Arc::new(ab.clone()));
    let s = |n: &str| ab.lookup(n).unwrap();
    assert!(auto.nfa().accepts(&[s("a"), s("b")]));
    assert!(!auto.nfa().accepts(&[s("a"), s("b"), s("b")]));
}
