//! The workspace engine's contract: incrementality you can observe in the
//! stats counters, fingerprint invalidation that follows the subsystem
//! graph, and byte-identical reports across cold/incremental/parallel
//! runs.

use proptest::prelude::*;
use shelley_core::annotations::OpKind;
use shelley_core::spec::{ClassSpec, ExitSpec, OperationSpec};
use shelley_core::{
    check_claims, Backend, Checked, Checker, Diagnostics, Integration, LintConfig, ProjectFile,
    INPUT_NAME,
};
use shelley_oracle::pipeline::check_module_direct;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const VALVE_PY: &str = r#"
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
"#;

const LED_PY: &str = r#"
@sys
class Led:
    @op_initial
    def on(self):
        return ["off"]

    @op_final
    def off(self):
        return ["on"]
"#;

const SECTOR_A_PY: &str = r#"
@sys(["a"])
class SectorA:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def water(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
"#;

const SECTOR_B_PY: &str = r#"
@sys(["l"])
class SectorB:
    def __init__(self):
        self.l = Led()

    @op_initial_final
    def blink(self):
        self.l.on()
        self.l.off()
        return []
"#;

/// Listings 2.1 + 2.2 of the paper: one base system plus a composite that
/// violates both the subsystem protocol and its temporal claim.
const PAPER_SOURCE: &str = r#"
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["clean"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def clean(self):
        return ["test"]

@claim("(!a.open) W b.open")
@sys(["a", "b"])
class BadSector:
    def __init__(self):
        self.a = Valve()
        self.b = Valve()

    @op_initial_final
    def open_a(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                return ["open_b"]
            case ["clean"]:
                self.a.clean()
                return []

    @op_final
    def open_b(self):
        match self.b.test():
            case ["open"]:
                self.b.open()
                self.a.close()
                self.b.close()
                return []
            case ["clean"]:
                self.b.clean()
                self.a.close()
                return []
"#;

/// Everything a report can say, rendered to one comparable string.
fn fingerprint_report(checked: &Checked) -> String {
    let mut out = checked.report.render(None);
    out.push_str(&checked.report.diagnostics.render_json(None));
    let names: Vec<&str> = checked.systems.iter().map(|s| s.name.as_str()).collect();
    let _ = writeln!(out, "systems: {names:?}");
    let integs: Vec<&str> = checked
        .integrations
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let _ = writeln!(out, "integrations: {integs:?}");
    out
}

#[test]
fn counters_prove_incrementality_after_one_class_edit() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    ws.set_file("sector_b.py", SECTOR_B_PY);

    // Cold round: everything is a miss.
    let cold = ws.check().unwrap();
    assert!(cold.report.passed(), "{}", cold.report.render(None));
    assert_eq!(ws.last_round().files_parsed, 4);
    assert_eq!(ws.last_round().extracted, 4);
    assert_eq!(ws.last_round().verified, 4);
    assert_eq!(ws.last_round().verify_cache_hits, 0);

    // Unchanged round: everything is a hit.
    ws.check().unwrap();
    assert_eq!(ws.last_round().files_parsed, 0);
    assert_eq!(ws.last_round().parse_cache_hits, 4);
    assert_eq!(ws.last_round().extracted, 0);
    assert_eq!(ws.last_round().extract_cache_hits, 4);
    assert_eq!(ws.last_round().verified, 0);
    assert_eq!(ws.last_round().verify_cache_hits, 4);

    // Cosmetic edit to Valve: its fingerprint changes, so Valve re-runs
    // every stage and SectorA (whose dependency fingerprint includes
    // Valve's) re-verifies — but Led and SectorB stay cached.
    ws.set_file("valve.py", VALVE_PY.replace("if ok:", "if ready:"));
    let warm = ws.check().unwrap();
    assert!(warm.report.passed());
    assert_eq!(ws.last_round().files_parsed, 1);
    assert_eq!(ws.last_round().parse_cache_hits, 3);
    assert_eq!(ws.last_round().extracted, 1);
    assert_eq!(ws.last_round().extract_cache_hits, 3);
    assert_eq!(ws.last_round().verified, 2, "Valve + SectorA re-verified");
    assert_eq!(ws.last_round().verify_cache_hits, 2, "Led + SectorB cached");

    // Lifetime totals accumulate across rounds.
    assert_eq!(ws.stats().rounds, 3);
    assert_eq!(ws.stats().verified, 6);
    assert_eq!(ws.stats().verify_cache_hits, 6);
}

#[test]
fn editing_a_subsystem_invalidates_composites_but_not_grandparents() {
    // a <- b <- c: editing `A` re-verifies A and B (B's dependency
    // fingerprint includes A's class fingerprint), but C depends only on
    // B's *spec*, which is a function of B's unchanged text — so C is a
    // cache hit.
    const A_PY: &str = r#"
@sys
class A:
    @op_initial_final
    def go(self):
        return []
"#;
    const B_PY: &str = r#"
@sys(["a"])
class B:
    def __init__(self):
        self.a = A()

    @op_initial_final
    def run(self):
        self.a.go()
        return []
"#;
    const C_PY: &str = r#"
@sys(["b"])
class C:
    def __init__(self):
        self.b = B()

    @op_initial_final
    def drive(self):
        self.b.run()
        return []
"#;
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("a.py", A_PY);
    ws.set_file("b.py", B_PY);
    ws.set_file("c.py", C_PY);
    let checked = ws.check().unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));

    // A whitespace-only edit would not change the printed AST (the
    // fingerprint ignores formatting), so add a harmless statement.
    ws.set_file(
        "a.py",
        A_PY.replace("        return []", "        x = 1\n        return []"),
    );
    ws.check().unwrap();
    assert_eq!(ws.last_round().extracted, 1, "only A re-extracted");
    assert_eq!(ws.last_round().verified, 2, "A and B re-verified");
    assert_eq!(ws.last_round().verify_cache_hits, 1, "C stays cached");
}

#[test]
fn parallel_and_incremental_match_the_direct_pipeline_on_the_paper_example() {
    let module = micropython_parser::parse_module(PAPER_SOURCE).unwrap();
    let reference = fingerprint_report(&check_module_direct(&module, &LintConfig::default()));

    // Sequential workspace, cold.
    let sequential = Checker::new().jobs(1).check_source(PAPER_SOURCE).unwrap();
    assert_eq!(fingerprint_report(&sequential), reference);

    // Parallel workspace, cold.
    let parallel = Checker::new().jobs(4).check_source(PAPER_SOURCE).unwrap();
    assert_eq!(fingerprint_report(&parallel), reference);

    // Incremental: detour through an edited file, then back.
    let mut ws = Checker::new().jobs(2).into_workspace();
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    ws.check().unwrap();
    ws.set_file(INPUT_NAME, PAPER_SOURCE.replace("W b.open", "W b.test"));
    ws.check().unwrap();
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    let incremental = ws.check().unwrap();
    assert_eq!(fingerprint_report(&incremental), reference);
}

#[test]
fn fast_path_counter_tracks_typestate_proven_subsystems() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    let checked = ws.check().unwrap();
    assert!(checked.report.passed(), "{}", checked.report.render(None));
    assert_eq!(
        ws.last_round().fast_path_proven,
        1,
        "SectorA's `a` is proven conforming by the typestate analysis"
    );
    assert!(ws.last_round().render().contains("(1 fast-path)"));

    // Cached rounds don't re-verify, so they report no fresh skips; the
    // lifetime total keeps the cold round's count.
    ws.check().unwrap();
    assert_eq!(ws.last_round().fast_path_proven, 0);
    assert_eq!(ws.stats().fast_path_proven, 1);

    // The paper's BadSector must never ride the fast path: its violation
    // still surfaces through the full check.
    ws.set_file(INPUT_NAME, PAPER_SOURCE);
    let checked = ws.check().unwrap();
    assert!(!checked.report.passed());
    assert_eq!(checked.report.usage_violations.len(), 1);
}

#[test]
fn disk_cache_round_trip_restores_verification_byte_identically() {
    let dir = std::env::temp_dir().join(format!("shelley-ws-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verify.ndjson");

    // Cold process: check a mixed project (passing composites plus the
    // paper's failing BadSector) and persist the verify cache.
    let mut cold_ws = Checker::new().jobs(2).into_workspace();
    cold_ws.set_file("valve.py", VALVE_PY);
    cold_ws.set_file("led.py", LED_PY);
    cold_ws.set_file("sector_a.py", SECTOR_A_PY);
    cold_ws.set_file("sector_b.py", SECTOR_B_PY);
    let paper = PAPER_SOURCE.replace("Valve", "PaperValve");
    cold_ws.set_file("paper.py", paper.clone());
    let cold = cold_ws.check().unwrap();
    assert!(!cold.report.passed(), "BadSector must fail");
    let written = cold_ws.save_disk_cache(&cache).unwrap();
    assert_eq!(written, 6, "one record per live class");

    // "Restarted" process: a fresh workspace with the same sources and
    // the saved cache skips the expensive analyses for every class but
    // still produces a byte-identical report and identical stats.
    let mut warm_ws = Checker::new().jobs(2).into_workspace();
    let outcome = warm_ws.load_disk_cache(&cache);
    assert!(outcome.rejected.is_none(), "{:?}", outcome.rejected);
    assert_eq!(outcome.entries.len(), 6);
    warm_ws.set_file("valve.py", VALVE_PY);
    warm_ws.set_file("led.py", LED_PY);
    warm_ws.set_file("sector_a.py", SECTOR_A_PY);
    warm_ws.set_file("sector_b.py", SECTOR_B_PY);
    warm_ws.set_file("paper.py", paper);
    let warm = warm_ws.check().unwrap();
    assert_eq!(fingerprint_report(&warm), fingerprint_report(&cold));
    assert_eq!(warm_ws.last_round().verify_disk_hits, 6);
    assert_eq!(
        warm_ws.last_round().verified,
        6,
        "disk hits count as verified"
    );
    assert_eq!(
        warm_ws.last_round().fast_path_proven,
        cold_ws.last_round().fast_path_proven,
        "replayed fast-path skips keep the stats line identical"
    );
    let strip_time = |s: String| s.rsplit_once(" in ").map(|(head, _)| head.to_owned());
    assert_eq!(
        strip_time(warm_ws.last_round().render()),
        strip_time(cold_ws.last_round().render()),
        "the watch-mode round marker (minus wall time) is stable across a restart"
    );

    // An edit after restore falls back to full verification for the
    // touched class only; the disk entries keep serving the rest.
    warm_ws.set_file("valve.py", VALVE_PY.replace("if ok:", "if ready:"));
    let edited = warm_ws.check().unwrap();
    assert!(!edited.report.passed());
    assert_eq!(
        warm_ws.last_round().verify_disk_hits,
        0,
        "Valve+SectorA recomputed"
    );
    assert_eq!(warm_ws.last_round().verified, 2);
    assert_eq!(warm_ws.last_round().verify_cache_hits, 4);
}

#[test]
fn check_source_errors_carry_the_synthetic_input_name() {
    let err = Checker::new().check_source("def broken(:\n").unwrap_err();
    assert_eq!(err.file, INPUT_NAME);
    assert!(err.to_string().starts_with("<input>: "));
}

#[test]
fn removing_a_file_drops_its_classes() {
    let mut ws = Checker::new().into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    assert_eq!(ws.check().unwrap().systems.len(), 2);
    assert!(ws.remove_file("led.py"));
    assert!(!ws.remove_file("led.py"));
    let checked = ws.check().unwrap();
    assert_eq!(checked.systems.len(), 1);
    assert!(checked.systems.get("Valve").is_some());
    assert_eq!(ws.source("led.py"), None);

    // Removing an earlier file leaves the later ones findable by name.
    ws.set_file("led.py", LED_PY);
    ws.set_file("valve.py", VALVE_PY);
    assert!(ws.remove_file("valve.py"));
    assert_eq!(ws.source("led.py"), Some(LED_PY));
    assert_eq!(ws.file_names().collect::<Vec<_>>(), ["led.py"]);
}

#[test]
fn class_stats_are_cached_per_fingerprint() {
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    assert!(ws.class_stats("Valve").is_none(), "no round has run yet");
    ws.check().unwrap();

    let first = ws.class_stats("SectorA").unwrap();
    assert!(first.composite);
    assert_eq!(ws.stats().stats_computed, 1);
    assert_eq!(ws.stats().stats_cache_hits, 0);

    // Repeat queries and an unchanged re-check hit the cache.
    let again = ws.class_stats("SectorA").unwrap();
    assert_eq!(*first, *again);
    ws.check().unwrap();
    ws.class_stats("SectorA").unwrap();
    assert_eq!(ws.stats().stats_computed, 1);
    assert_eq!(ws.stats().stats_cache_hits, 2);

    // Editing the subsystem changes SectorA's dependency fingerprint, so
    // its stats are recomputed; unknown names stay None.
    ws.set_file(
        "valve.py",
        VALVE_PY.replace("\"close\"", "\"close\", \"clean\""),
    );
    ws.check().unwrap();
    ws.class_stats("SectorA").unwrap();
    assert_eq!(ws.stats().stats_computed, 2);
    assert!(ws.class_stats("NoSuchClass").is_none());

    // The cached value matches a fresh computation.
    let direct = shelley_core::system_stats(ws.check().unwrap().systems.get("Valve").unwrap());
    assert_eq!(*ws.class_stats("Valve").unwrap(), direct);
}

#[test]
fn check_files_matches_per_file_workspace_rounds() {
    let files = [
        ProjectFile::new("valve.py", VALVE_PY),
        ProjectFile::new("sector_a.py", SECTOR_A_PY),
    ];
    let one_shot = Checker::new().jobs(1).check_files(&files).unwrap();
    let mut ws = Checker::new().jobs(3).into_workspace();
    for f in &files {
        ws.set_file(f.name.clone(), f.source.clone());
    }
    let incremental = ws.check().unwrap();
    assert_eq!(
        fingerprint_report(&incremental),
        fingerprint_report(&one_shot)
    );
}

/// Which classes of `a` have the very same system and integration
/// allocations in `b`. Both reports hold their allocations, so none of
/// `a`'s can have been freed and reused for `b`.
fn same_allocations(a: &Checked, b: &Checked) -> BTreeMap<String, bool> {
    let integration = |checked: &Checked, class: &str| -> Option<Arc<Integration>> {
        checked
            .integrations
            .iter()
            .find(|(name, _)| name == class)
            .map(|(_, i)| i.clone())
    };
    a.systems
        .iter()
        .map(|system| {
            let other = b.systems.get(&system.name).expect("same classes");
            let same_integration =
                match (integration(a, &system.name), integration(b, &system.name)) {
                    (Some(x), Some(y)) => Arc::ptr_eq(&x, &y),
                    (None, None) => true,
                    _ => false,
                };
            let same = std::ptr::eq(system, other) && same_integration;
            (system.name.clone(), same)
        })
        .collect()
}

#[test]
fn rounds_share_per_class_artifacts_and_an_edit_renews_only_its_dependents() {
    let mut ws = Checker::new().jobs(2).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("led.py", LED_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    ws.set_file("sector_b.py", SECTOR_B_PY);
    let cold = ws.check().unwrap();
    let first = ws.check().unwrap();
    let second = ws.check().unwrap();
    assert_eq!(cold.systems.len(), 4);
    assert_eq!(
        cold.integrations.len(),
        2,
        "both sectors carry an integration automaton"
    );
    for round in [&first, &second] {
        assert!(
            same_allocations(&cold, round).values().all(|&same| same),
            "a no-op round hands out the cached allocations"
        );
    }

    // Editing the Valve device renews Valve and its composite SectorA;
    // Led and SectorB keep their allocations.
    ws.set_file("valve.py", VALVE_PY.replace("if ok:", "if ready:"));
    let edited = ws.check().unwrap();
    let same = same_allocations(&second, &edited);
    assert_eq!(
        same.into_iter().collect::<Vec<_>>(),
        [
            ("Led".to_string(), true),
            ("SectorA".to_string(), false),
            ("SectorB".to_string(), true),
            ("Valve".to_string(), false),
        ]
    );
}

/// The `(class fingerprint, dependency fingerprint)` keys that
/// `save_disk_cache` writes for a two-file project, sorted.
fn saved_keys() -> Vec<(u64, u64)> {
    let dir = std::env::temp_dir().join(format!("shelley-ws-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("verify.ndjson");
    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("valve.py", VALVE_PY);
    ws.set_file("sector_a.py", SECTOR_A_PY);
    ws.check().unwrap();
    assert_eq!(ws.save_disk_cache(&cache).unwrap(), 2);
    let text = std::fs::read_to_string(&cache).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let field = |line: &str, name: &str| -> u64 {
        let at = line.find(name).unwrap() + name.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    let mut keys: Vec<(u64, u64)> = text
        .lines()
        .skip(1)
        .map(|line| (field(line, "\"class_fp\":"), field(line, "\"dep_fp\":")))
        .collect();
    keys.sort_unstable();
    keys
}

/// The verify-cache keys are the on-disk cache keys: a change to how they
/// are hashed loses no correctness, but silently turns every warm restart
/// of an existing cache file cold. These are the values the format has
/// always written.
#[test]
fn verify_cache_keys_are_pinned() {
    assert_eq!(
        saved_keys(),
        [
            (3234043265091796686, 7399491418975089699),
            (11921935239403436303, 13922123776871237117),
        ]
    );
}

/// A class whose claim the explicit and symbolic engines refute with
/// different shortest counterexamples: after `p`, both `q` and `r` end a
/// trace with the strong next of `X (p W r)` unmet.
const TWO_WITNESS_PY: &str = r#"
@claim("(G (X (p W r)))")
@sys
class Dev:
    @op_initial
    def p(self):
        return ["q", "r"]

    @op_final
    def q(self):
        return []

    @op_final
    def r(self):
        return ["p"]
"#;

/// The engines may pick different witnesses, which is why the product
/// never lets the user choose one: every claim goes to the engine
/// `Backend::Auto` picks from the claim, here the explicit one.
#[test]
fn the_engines_pick_different_witnesses_and_the_workspace_reports_autos() {
    let checked = Checker::new().jobs(1).check_source(TWO_WITNESS_PY).unwrap();
    let dev = checked.systems.get("Dev").unwrap();
    let witness = |backend| {
        let mut diagnostics = Diagnostics::new();
        let violations = check_claims(dev, None, backend, &mut diagnostics);
        assert!(diagnostics.is_empty(), "{backend:?}: {diagnostics:?}");
        assert_eq!(violations.len(), 1, "{backend:?}");
        violations[0].counterexample_text.clone()
    };
    assert_eq!(witness(Backend::Explicit), "p, q");
    assert_eq!(witness(Backend::Symbolic), "p, r");
    assert_eq!(witness(Backend::Auto), "p, q");

    let mut ws = Checker::new().jobs(1).into_workspace();
    ws.set_file("dev.py", TWO_WITNESS_PY);
    let round = ws.check().unwrap();
    let (class, violation) = &round.report.claim_violations[0];
    assert_eq!(class, "Dev");
    assert_eq!(violation.counterexample_text, "p, q");
}

/// A random, structurally sane spec: `n` operations, each with one exit
/// whose next-set references defined operations; op 0 is initial, the
/// last op is final.
fn arb_spec(class: &'static str) -> impl Strategy<Value = ClassSpec> {
    (2usize..6)
        .prop_flat_map(|n| {
            let exits = proptest::collection::vec(proptest::collection::vec(0..n, 0..3), n);
            (Just(n), exits)
        })
        .prop_map(move |(n, exit_targets)| {
            let operations = (0..n)
                .map(|i| {
                    let kind = if i == 0 && i == n - 1 {
                        OpKind::InitialFinal
                    } else if i == 0 {
                        OpKind::Initial
                    } else if i == n - 1 {
                        OpKind::Final
                    } else {
                        OpKind::Middle
                    };
                    let next: Vec<String> =
                        exit_targets[i].iter().map(|&t| format!("op{t}")).collect();
                    OperationSpec {
                        name: format!("op{i}"),
                        kind,
                        exits: vec![ExitSpec {
                            next,
                            span: None,
                            implicit: false,
                        }],
                        span: None,
                    }
                })
                .collect();
            ClassSpec {
                name: class.into(),
                operations,
            }
        })
}

/// Renders a [`ClassSpec`] back to annotated MicroPython source.
fn render_spec_class(spec: &ClassSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys");
    let _ = writeln!(out, "class {}:", spec.name);
    for op in &spec.operations {
        let dec = match (op.kind.is_initial(), op.kind.is_final()) {
            (true, true) => "@op_initial_final",
            (true, false) => "@op_initial",
            (false, true) => "@op_final",
            (false, false) => "@op",
        };
        let _ = writeln!(out, "    {dec}");
        let _ = writeln!(out, "    def {}(self):", op.name);
        for exit in &op.exits {
            let items: Vec<String> = exit.next.iter().map(|n| format!("\"{n}\"")).collect();
            let _ = writeln!(out, "        return [{}]", items.join(", "));
        }
        let _ = writeln!(out);
    }
    out
}

/// A composite exercising the first operation chain of `dep`.
fn render_user_class(dep: &ClassSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "@sys([\"x\"])");
    let _ = writeln!(out, "class User:");
    let _ = writeln!(out, "    def __init__(self):");
    let _ = writeln!(out, "        self.x = {}()", dep.name);
    let _ = writeln!(out);
    let _ = writeln!(out, "    @op_initial_final");
    let _ = writeln!(out, "    def run(self):");
    let _ = writeln!(out, "        self.x.{}()", dep.operations[0].name);
    let _ = writeln!(out, "        return []");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Editing one file of a two-file project and re-checking produces
    /// byte-identical output to checking the edited project from scratch —
    /// whatever the generated protocols are, and whether or not the edit
    /// introduces violations.
    #[test]
    fn incremental_recheck_equals_from_scratch(
        before in arb_spec("Gen"),
        after in arb_spec("Gen"),
    ) {
        let user = render_user_class(&before);
        let mut ws = Checker::new().jobs(1).into_workspace();
        ws.set_file("gen.py", render_spec_class(&before));
        ws.set_file("user.py", user.clone());
        ws.check().unwrap();

        // Edit the subsystem file, re-check incrementally.
        ws.set_file("gen.py", render_spec_class(&after));
        let incremental = ws.check().unwrap();

        // From scratch, same final file set.
        let scratch = Checker::new().jobs(1).check_files(&[
            ProjectFile::new("gen.py", render_spec_class(&after)),
            ProjectFile::new("user.py", user),
        ]).unwrap();

        prop_assert_eq!(
            fingerprint_report(&incremental),
            fingerprint_report(&scratch)
        );
    }

    /// Job-count never changes the output: a parallel check of a random
    /// single-module project is byte-identical to the sequential direct
    /// pipeline on the same source.
    #[test]
    fn parallel_check_equals_direct_pipeline(spec in arb_spec("Gen")) {
        let src = format!("{}\n{}", render_spec_class(&spec), render_user_class(&spec));
        let module = micropython_parser::parse_module(&src).unwrap();
        let reference = fingerprint_report(&check_module_direct(&module, &LintConfig::default()));
        let parallel = Checker::new().jobs(4).check_source(&src).unwrap();
        prop_assert_eq!(fingerprint_report(&parallel), reference);
    }
}

/// One class of the edit-sequence model: a two-operation device, or a
/// composite driving one device field.
#[derive(Debug, Clone)]
struct ModelClass {
    name: String,
    sys: bool,
    /// `None` for devices; the field's class for composites.
    field_class: Option<String>,
    /// Selects one of two device protocols.
    variant: bool,
}

impl ModelClass {
    fn template(name: &str) -> ModelClass {
        ModelClass {
            name: name.to_string(),
            sys: true,
            field_class: name.strip_prefix("App").map(|n| format!("Dev{n}")),
            variant: false,
        }
    }

    fn render(&self, out: &mut String) {
        match &self.field_class {
            None => {
                if self.sys {
                    let _ = writeln!(out, "@sys");
                }
                let back = if self.variant { "" } else { "\"on\"" };
                let _ = writeln!(out, "class {}:", self.name);
                let _ = writeln!(out, "    @op_initial\n    def on(self):");
                let _ = writeln!(out, "        return [\"off\"]\n");
                let _ = writeln!(out, "    @op_final\n    def off(self):");
                let _ = writeln!(out, "        return [{back}]\n");
            }
            Some(class) => {
                if self.sys {
                    let _ = writeln!(out, "@sys([\"d\"])");
                }
                let _ = writeln!(out, "class {}:", self.name);
                let _ = writeln!(out, "    def __init__(self):");
                let _ = writeln!(out, "        self.d = {class}()\n");
                let _ = writeln!(out, "    @op_initial_final\n    def run(self):");
                let _ = writeln!(out, "        self.d.on()\n        self.d.off()");
                let _ = writeln!(out, "        return []\n");
            }
        }
    }
}

/// A project in workspace order, as the workspace sees it.
#[derive(Debug, Clone)]
struct Model {
    files: Vec<(String, Vec<ModelClass>)>,
    next_file: usize,
}

const MODEL_CLASSES: [&str; 4] = ["Dev0", "Dev1", "App0", "App1"];

impl Model {
    fn new() -> Model {
        let t = ModelClass::template;
        Model {
            files: vec![
                ("a.py".to_string(), vec![t("Dev0"), t("App0")]),
                ("b.py".to_string(), vec![t("Dev1"), t("App1")]),
            ],
            next_file: 0,
        }
    }

    fn source(classes: &[ModelClass]) -> String {
        let mut out = String::new();
        for class in classes {
            class.render(&mut out);
        }
        out
    }

    fn project(&self) -> Vec<ProjectFile> {
        self.files
            .iter()
            .map(|(name, classes)| ProjectFile::new(name.clone(), Model::source(classes)))
            .collect()
    }

    fn first_named(&mut self, name: &str) -> Option<&mut ModelClass> {
        self.files
            .iter_mut()
            .flat_map(|(_, classes)| classes.iter_mut())
            .find(|class| class.name == name)
    }

    /// Applies edit `op` (picking by `a` and `b`) to the model and the
    /// workspace alike; an edit that does not apply leaves both alone.
    fn apply(&mut self, ws: &mut shelley_core::Workspace, op: u8, a: usize, b: usize) {
        let len = self.files.len();
        let touched: Vec<usize> = match op {
            // Add a file holding one class of the pool.
            0 => {
                let name = format!("new{}.py", self.next_file);
                self.next_file += 1;
                let class = ModelClass::template(MODEL_CLASSES[a % MODEL_CLASSES.len()]);
                self.files.push((name, vec![class]));
                vec![self.files.len() - 1]
            }
            // Remove a file.
            1 if len > 0 => {
                let (name, _) = self.files.remove(a % len);
                assert!(ws.remove_file(&name));
                Vec::new()
            }
            // Move a class to another file.
            2 if len > 1 && a % len != b % len && !self.files[a % len].1.is_empty() => {
                let class = self.files[a % len].1.pop().unwrap();
                self.files[b % len].1.push(class);
                vec![a % len, b % len]
            }
            // Define a class a second time, in another file or the same.
            3 if len > 0 && !self.files[a % len].1.is_empty() => {
                let class = self.files[a % len].1[0].clone();
                self.files[b % len].1.push(class);
                vec![b % len]
            }
            // Toggle `@sys` on a subsystem.
            4 => self.edit(&format!("Dev{}", a % 2), |c| c.sys = !c.sys),
            // Re-point a composite's field, possibly to a missing class.
            5 => {
                let target = ["Dev0", "Dev1", "Missing"][b % 3];
                self.edit(&format!("App{}", a % 2), |c| {
                    c.field_class = Some(target.to_string())
                })
            }
            // Change a device protocol.
            6 => self.edit(&format!("Dev{}", a % 2), |c| c.variant = !c.variant),
            _ => Vec::new(),
        };
        for i in touched {
            let (name, classes) = &self.files[i];
            ws.set_file(name.clone(), Model::source(classes));
        }
    }

    /// Edits the first class called `name`; returns the file it is in.
    fn edit(&mut self, name: &str, f: impl FnOnce(&mut ModelClass)) -> Vec<usize> {
        let Some(class) = self.first_named(name) else {
            return Vec::new();
        };
        f(class);
        self.files
            .iter()
            .position(|(_, classes)| classes.iter().any(|c| c.name == name))
            .into_iter()
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The state a workspace keeps across rounds — the spec index, cache
    /// eviction and the class-key index — never lets a round drift from a
    /// fresh check of the same files: after every edit of a random
    /// sequence, the report, every class's statistics and the records a
    /// cache save writes equal those of a workspace that never saw the
    /// earlier rounds.
    #[test]
    fn edit_sequences_match_a_fresh_workspace(
        edits in proptest::collection::vec((0u8..7, 0usize..8, 0usize..8), 1..12),
    ) {
        let dir = std::env::temp_dir().join(format!("shelley-ws-edits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("verify.ndjson");
        let mut model = Model::new();
        let mut ws = Checker::new().jobs(2).into_workspace();
        for file in model.project() {
            ws.set_file(file.name, file.source);
        }
        ws.check().unwrap();
        for (op, a, b) in edits {
            model.apply(&mut ws, op, a, b);
            let incremental = ws.check().unwrap();
            let project = model.project();
            let fresh = Checker::new().jobs(1).check_files(&project).unwrap();
            prop_assert_eq!(fingerprint_report(&incremental), fingerprint_report(&fresh));

            let mut fresh_ws = Checker::new().jobs(1).into_workspace();
            for file in project {
                fresh_ws.set_file(file.name, file.source);
            }
            fresh_ws.check().unwrap();
            for class in MODEL_CLASSES.iter().chain(&["Missing"]) {
                prop_assert_eq!(ws.class_stats(class), fresh_ws.class_stats(class));
            }
            prop_assert_eq!(
                ws.save_disk_cache(&cache).unwrap(),
                fresh_ws.save_disk_cache(&cache).unwrap(),
                "superseded verify-cache entries are evicted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
