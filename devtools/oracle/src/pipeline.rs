//! The reference verification pipeline.

use micropython_parser::ast::Module;
use shelley_core::pipeline::proven_fields;
use shelley_core::{
    build_systems, codes, run_lints, verify_system, CheckReport, Checked, LintConfig, LintLevel,
};

/// Checks one module sequentially, from scratch, with no caching: one
/// [`build_systems`] pass, module-level lints, then [`verify_system`] per
/// class in declaration order.
///
/// [`Workspace`](shelley_core::Workspace) must produce byte-identical
/// reports to this function on any single-module input; the equivalence
/// suite holds the two against each other. Lint passes run after system
/// building, and `config` reshapes the final diagnostics (`Allow` drops,
/// `Warn` demotes — including the paper's `E100`/`E101`, whose violation
/// lists are then cleared so [`CheckReport::passed`] stays consistent with
/// the diagnostics).
pub fn check_module_direct(module: &Module, config: &LintConfig) -> Checked {
    let (systems, mut diagnostics) = build_systems(module);
    run_lints(module, &systems, config, &mut diagnostics);
    let mut usage_violations = Vec::new();
    let mut claim_violations = Vec::new();
    let mut integrations = Vec::new();

    for system in systems.iter() {
        let proven = proven_fields(module.class(&system.name), system, &systems);
        let verdict = verify_system(system, &systems, &proven);
        diagnostics.extend(verdict.diagnostics);
        for v in verdict.usage_violations {
            usage_violations.push((system.name.clone(), v));
        }
        for v in verdict.claim_violations {
            claim_violations.push((system.name.clone(), v));
        }
        if let Some(integ) = verdict.integration {
            integrations.push((system.name.clone(), integ));
        }
    }

    config.apply(&mut diagnostics);
    if config.level(codes::INVALID_SUBSYSTEM_USAGE) != LintLevel::Deny {
        usage_violations.clear();
    }
    if config.level(codes::FAIL_TO_MEET_REQUIREMENT) != LintLevel::Deny {
        claim_violations.clear();
    }

    Checked {
        systems,
        integrations,
        report: CheckReport {
            diagnostics,
            usage_violations,
            claim_violations,
        },
    }
}
