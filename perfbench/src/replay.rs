//! The layer-by-layer replay of a cold `Workspace::check`.
//!
//! One worker runs the workspace's per-class stage order through each
//! layer's public function, with a span around every call:
//!
//! `parse_module` → `print_module` (the per-class content fingerprint) →
//! `extract_class` + `validate_spec` → `resolve_class` →
//! `run_lints` → `proven_fields` → `build_integration` →
//! `check_usage_counted` → `check_claims`.
//!
//! The replay's verdicts must equal the workspace's. Like the workspace, it
//! lints and verifies each class against its own module and the specs of
//! its direct subsystems; the generators write one class per file, so a
//! file's module is the class's single-class module.

use crate::trace::Recorder;
use micropython_parser::ast::{Module, Stmt};
use micropython_parser::parse_module;
use micropython_parser::printer::print_module;
use shelley_core::pipeline::proven_fields;
use shelley_core::verify::usage::check_usage_counted;
use shelley_core::{
    build_integration, check_claims, extract_class, resolve_class, run_lints, validate_spec,
    Backend, CheckReport, ClassSpec, Diagnostics, LintConfig, System, SystemKind, SystemSet,
};
use shelley_ltlf::parse_formula;
use shelley_regular::Alphabet;
use std::collections::BTreeMap;

/// Work counters of one replay (the times live in the recorder's spans).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub parse_bytes: u64,
    pub parse_files: u64,
    pub extract_classes: u64,
    pub lint_diagnostics: u64,
    pub typestate_fields: u64,
    pub typestate_proven: u64,
    pub integration_nfa_states: u64,
    pub usage_checks: u64,
    pub usage_frontier: u64,
    pub usage_pruned: u64,
    pub usage_violations: u64,
    pub claims_explicit: u64,
    pub claims_symbolic: u64,
    pub claims_violations: u64,
}

/// A verdict as both the replay and the workspace can state it:
/// `(class, E100 counterexample)` or `(class, E101 formula: counterexample)`.
pub type Verdicts = Vec<(String, String)>;

pub struct Replay {
    pub counts: Counts,
    pub verdicts: Verdicts,
}

/// The violations of a workspace report, in the replay's terms.
pub fn report_verdicts(report: &CheckReport) -> Verdicts {
    let mut out: Verdicts = report
        .usage_violations
        .iter()
        .map(|(class, v)| (class.clone(), format!("E100 {}", v.counterexample_text)))
        .chain(report.claim_violations.iter().map(|(class, v)| {
            (
                class.clone(),
                format!("E101 {}: {}", v.formula, v.counterexample_text),
            )
        }))
        .collect();
    out.sort();
    out
}

/// Replays a cold check of `files` (all `@sys` classes must parse).
pub fn replay(files: &[(String, String)], rec: &mut Recorder) -> Replay {
    let config = LintConfig::default();
    let mut counts = Counts::default();
    let mut verdicts = Verdicts::new();
    rec.span("replay", |rec| {
        let modules: Vec<Module> = files
            .iter()
            .map(|(name, text)| {
                counts.parse_files += 1;
                counts.parse_bytes += text.len() as u64;
                rec.span("parse", |_| parse_module(text))
                    .unwrap_or_else(|e| panic!("{name} must parse: {e}"))
            })
            .collect();

        let mut extractions = Vec::new();
        for module in &modules {
            rec.span("fingerprint", |_| {
                for class in module.classes() {
                    let solo = Module {
                        body: vec![Stmt::ClassDef(class.clone())],
                    };
                    std::hint::black_box(print_module(&solo));
                }
            });
            for class in module.classes() {
                let extraction = rec.span("extract", |_| {
                    let mut diags = Diagnostics::new();
                    let x = extract_class(class, &mut diags);
                    if let Some(x) = &x {
                        validate_spec(x.spec(), &mut diags);
                    }
                    x
                });
                if let Some(x) = extraction {
                    counts.extract_classes += 1;
                    extractions.push((module, x));
                }
            }
        }
        let spec_index: BTreeMap<String, ClassSpec> = rec.span("resolve", |_| {
            extractions
                .iter()
                .map(|(_, x)| (x.name().to_string(), x.spec().clone()))
                .collect()
        });

        for (module, extraction) in extractions {
            let (system, scope) = rec.span("resolve", |_| {
                let system = resolve_class(extraction, &spec_index, &mut Diagnostics::new());
                let scope = verify_scope(&system, &spec_index);
                (system, scope)
            });
            rec.span("lint", |_| {
                let mut diags = Diagnostics::new();
                run_lints(module, &scope, &config, &mut diags);
                counts.lint_diagnostics += diags.len() as u64;
            });
            let proven = rec.span("typestate", |_| {
                proven_fields(module.class(&system.name), &system, &scope)
            });
            let integration = system
                .is_composite()
                .then(|| rec.span("integration", |_| build_integration(&system)));
            if let (Some(info), Some(integ)) = (system.composite(), &integration) {
                counts.typestate_fields += info.subsystems.len() as u64;
                counts.typestate_proven += proven.len() as u64;
                counts.usage_checks += (info.subsystems.len() - proven.len()) as u64;
                counts.integration_nfa_states += integ.nfa.num_states() as u64;
                let (verdict, search) = rec.span("usage", |_| {
                    check_usage_counted(&system, &scope, integ, &proven)
                });
                counts.usage_frontier += search.frontier as u64;
                counts.usage_pruned += search.pruned as u64;
                if let Err(v) = verdict {
                    counts.usage_violations += 1;
                    verdicts.push((
                        system.name.clone(),
                        format!("E100 {}", v.counterexample_text),
                    ));
                }
            }
            for claim in &system.claims {
                // The engine `Auto` picks depends only on the negated
                // formula's temporal structure, not on the alphabet.
                if let Ok(f) = parse_formula(&claim.formula, &mut Alphabet::new()) {
                    match Backend::Auto.resolve(&f.negate()) {
                        Backend::Symbolic => counts.claims_symbolic += 1,
                        _ => counts.claims_explicit += 1,
                    }
                }
            }
            let violations = rec.span("claims", |_| {
                check_claims(
                    &system,
                    integration.as_ref(),
                    Backend::Auto,
                    &mut Diagnostics::new(),
                )
            });
            for v in violations {
                counts.claims_violations += 1;
                verdicts.push((
                    system.name.clone(),
                    format!("E101 {}: {}", v.formula, v.counterexample_text),
                ));
            }
        }
    });
    verdicts.sort();
    Replay { counts, verdicts }
}

/// The class plus spec-only stand-ins for its direct subsystems: what the
/// workspace's verify stage lints and verifies against.
fn verify_scope(system: &System, spec_index: &BTreeMap<String, ClassSpec>) -> SystemSet {
    let mut scope = vec![system.clone()];
    if let SystemKind::Composite(info) = &system.kind {
        for sub in &info.subsystems {
            if sub.class_name == system.name || scope.iter().any(|s| s.name == sub.class_name) {
                continue;
            }
            if let Some(spec) = spec_index.get(&sub.class_name) {
                scope.push(System {
                    name: sub.class_name.clone(),
                    kind: SystemKind::Base,
                    spec: spec.clone(),
                    claims: Vec::new(),
                });
            }
        }
    }
    scope.into_iter().collect()
}
