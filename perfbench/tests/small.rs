//! The benchmark's own tests, on the ~200-class small mode of each
//! workload: the answer-key oracle, span coverage of the one-worker wall,
//! and seed determinism of the generators.

use perfbench::bench::{run, tail, Config, Outcome, WORKLOADS};
use perfbench::gen::{mismatches, EditKind, Expect, Project, Rng};
use shelley_core::Checker;
use std::path::PathBuf;
use std::sync::Mutex;

/// The span-coverage bound the traced run must meet: layer self-times
/// over the wall of a one-worker `Workspace::check`.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.70..=1.15;

/// Workload runs time themselves; keep them off each other's cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: &str, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.5,
        trace,
        small: true,
        work_dir: PathBuf::from(".run/test"),
    };
    run(&cfg).expect("workload runs")
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.end_to_end
        .iter()
        .chain(&out.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_round_matches_the_answer_key() {
    for workload in WORKLOADS {
        let out = small(workload, false);
        assert!(out.attempted > 10, "{workload}: {} rounds", out.attempted);
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.problems);
        for name in [
            "setup_s",
            "cold_s",
            "warm_restart_s",
            "noop_ms.p50",
            "edit_ms.p50",
            "edit_ms.tail",
            "peak_rss_mb",
        ] {
            let value = metric(&out, name);
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload} {name} = {value}"
            );
        }
    }
}

#[test]
fn traced_run_covers_the_one_worker_wall() {
    for workload in WORKLOADS {
        let out = small(workload, true);
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.problems);
        let coverage = metric(&out, "trace.coverage");
        assert!(
            COVERAGE.contains(&coverage),
            "{workload}: spans cover {coverage:.3} of the wall"
        );
        assert!(metric(&out, "parse.files") > 0.0);
        assert!(metric(&out, "daemon.reply_bytes") > 0.0);
    }
}

#[test]
fn claims_deep_loads_both_engines_and_bypasses_the_fast_path() {
    let out = small("claims-deep", true);
    assert!(metric(&out, "claims.explicit") > 0.0);
    assert!(metric(&out, "claims.symbolic") > 0.0);
    assert!(metric(&out, "claims.violations") > 0.0);
    assert!(metric(&out, "usage.violations") > 0.0);
    assert_eq!(metric(&out, "typestate.proven"), 0.0);
}

#[test]
fn oracle_rejects_a_wrong_answer_key() {
    let project = Project::serve(200, 3);
    let mut ws = Checker::new().jobs(1).into_workspace();
    for (name, text) in &project.files {
        ws.set_file(name.clone(), text.clone());
    }
    let report = ws.check().expect("parses").report;
    let mut key = project.expected();
    assert!(mismatches(&key, &report).is_empty());
    let (class, _) = key.pop_first().expect("some class fails");
    assert_eq!(
        mismatches(&key, &report).len(),
        1,
        "{class} must be reported"
    );
    key.insert(
        "App0".to_string(),
        Expect::Claim {
            formula: "x".to_string(),
            counterexample: None,
        },
    );
    assert!(mismatches(&key, &report).len() >= 2);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    type Gen = fn(u64) -> Project;
    let gens: [Gen; 2] = [|s| Project::serve(200, s), |s| Project::deep(134, s)];
    for generate in gens {
        let edited = |seed| {
            let mut project = generate(seed);
            let mut rng = Rng::new(seed);
            for kind in [EditKind::Comment, EditKind::Body, EditKind::Device] {
                project.edit(kind, &mut rng);
            }
            project
        };
        assert_eq!(generate(1).files, generate(1).files);
        assert_eq!(edited(1).files, edited(1).files);
        assert_ne!(generate(1).files, generate(2).files);
        assert!((190..=210).contains(&generate(1).classes()));
    }
}

#[test]
fn tail_has_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let (value, pct) = tail(&samples);
    assert_eq!(value, 90.0);
    assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
    assert!((pct - 90.0).abs() < 1e-9);
    assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 3.0);
}
