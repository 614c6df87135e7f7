//! The three workloads and the rounds they time.
//!
//! Every round ends once the rendered report (in process) or the check
//! reply (over the socket) is in the caller's hands and the round's
//! `Checked` has been dropped, so every round kind is timed identically.

use crate::gen::{mismatches, EditKind, Expect, Project, Rng};
use crate::replay::{replay, report_verdicts, Counts};
use crate::trace::Recorder;
use serde::json;
use shelley_core::api::CheckSummary;
use shelley_core::{
    CheckReport, Checked, Checker, Method, Reply, ReplyBody, Request, Workspace, WorkspaceStats,
};
use shelley_daemon::{serve_socket, Client, Engine};
use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["edit-10k", "restart-10k", "claims-deep"];

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Run the traced probes and report per-layer metrics.
    pub trace: bool,
    /// The ~200-class inputs of the benchmark's own tests.
    pub small: bool,
    /// Where sockets, cache files and trace files go.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few mismatch descriptions, for the log.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced figures; reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Facts for the human-readable log.
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, what: &str, expected: &BTreeMap<String, Expect>, report: &CheckReport) {
        self.attempted += 1;
        let bad = mismatches(expected, report);
        if !bad.is_empty() {
            self.failed += 1;
            for line in bad.into_iter().take(3) {
                self.problem(format!("{what}: {line}"));
            }
        }
    }

    fn problem(&mut self, line: String) {
        if self.problems.len() < 10 {
            self.problems.push(line);
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile)`. Below eleven samples it is the maximum.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, 100.0);
    }
    let k = if n > 10 { n - 11 } else { n - 1 };
    (sorted[k], 100.0 * (k + 1) as f64 / n as f64)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Workspaces use one worker per core (`jobs = 0`).
fn checker() -> Checker {
    Checker::new().jobs(0)
}

fn fill(ws: &mut Workspace, project: &Project) {
    for (name, text) in &project.files {
        ws.set_file(name.clone(), text.clone());
    }
}

/// Compares a round's report with the answer key. It runs between a
/// round's timed parts, so it is never timed.
type Verify<'a> = &'a mut dyn FnMut(&CheckReport);

/// One in-process round: apply `change`, check, render the report, drop
/// the `Checked`. The report is dropped last, after `verify` has read it,
/// and that drop is timed too.
fn ws_round(ws: &mut Workspace, change: Option<&(String, String)>, verify: Verify) -> RoundResult {
    let t = Instant::now();
    if let Some((name, text)) = change {
        ws.set_file(name.clone(), text.clone());
    }
    let Checked {
        systems,
        integrations,
        report,
    } = ws.check().map_err(|e| io::Error::other(e.to_string()))?;
    std::hint::black_box(report.render(None));
    drop((systems, integrations));
    let wall = t.elapsed();
    verify(&report);
    let t = Instant::now();
    drop(report);
    Ok((wall + t.elapsed(), ws.last_round().clone()))
}

type SocketClient = Client<BufReader<UnixStream>, UnixStream>;

/// A daemon serving one engine on a Unix socket from a thread of this
/// process, plus the one client connection the workload drives.
struct Daemon {
    client: SocketClient,
    server: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start(engine: Engine, socket: &Path) -> io::Result<Daemon> {
        let path = socket.to_path_buf();
        let server = std::thread::spawn(move || serve_socket(engine, &path));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut client = loop {
            match Client::connect(socket) {
                Ok(client) => break client,
                Err(_) if Instant::now() < deadline && !server.is_finished() => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };
        client.hello()?;
        Ok(Daemon { client, server })
    }

    fn open_all(&mut self, project: &Project) -> io::Result<()> {
        for (name, text) in &project.files {
            self.client.open(name.clone(), text.clone())?;
        }
        Ok(())
    }

    /// One round over the socket: `change`, then `check`; the server drops
    /// its `Checked` before it replies.
    fn round(&mut self, change: Option<&(String, String)>, verify: Verify) -> RoundResult {
        let t = Instant::now();
        if let Some((path, text)) = change {
            let replies = self.client.call(Method::Change {
                path: path.clone(),
                text: text.clone(),
            })?;
            if !matches!(replies.last(), Some(ReplyBody::Ok)) {
                return Err(io::Error::other(format!("change refused: {replies:?}")));
            }
        }
        let summary = self.client.check()?;
        let wall = t.elapsed();
        verify(&summary.report());
        Ok((wall, summary.stats))
    }

    /// Shuts the daemon down (it persists its cache, if it has one) and
    /// waits for its thread.
    fn stop(mut self) -> io::Result<()> {
        self.client.shutdown()?;
        drop(self.client);
        self.server
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// The round mix of the edit loops: a fixed rotation, so every run
/// measures the same proportions. It is a chosen definition, not measured
/// editor traffic: every second round is a bare no-op check, and the
/// others cycle through a comment, a body and a device edit (the edited
/// file is seeded). Pooled, the edit median falls in the body-edit mode
/// and, where a device's fan-out costs more than one class, the tail in
/// the device-edit mode; the per-kind medians are reported beside them.
const ROTATION: [Option<EditKind>; 6] = [
    None,
    Some(EditKind::Comment),
    None,
    Some(EditKind::Body),
    None,
    Some(EditKind::Device),
];

fn next_edit(round: usize) -> Option<EditKind> {
    ROTATION[round % ROTATION.len()]
}

fn apply(project: &mut Project, kind: Option<EditKind>, rng: &mut Rng) -> Option<(String, String)> {
    kind.map(|kind| {
        let index = project.edit(kind, rng);
        project.files[index].clone()
    })
}

/// Unique file names under the work directory, so runs sharing it (the
/// tests run every workload in one process) never collide.
fn work_file(cfg: &Config, what: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    cfg.work_dir.join(format!(
        "{}-{}-{n}.{what}",
        cfg.workload,
        std::process::id()
    ))
}

fn generate(cfg: &Config) -> Project {
    match (cfg.workload.as_str(), cfg.small) {
        ("claims-deep", false) => Project::deep(300, cfg.seed),
        ("claims-deep", true) => Project::deep(134, cfg.seed),
        (_, false) => Project::serve(10_000, cfg.seed),
        (_, true) => Project::serve(200, cfg.seed),
    }
}

/// Times of the no-op and edit rounds of an edit loop (ms).
#[derive(Default)]
struct EditTimes {
    noop: Vec<f64>,
    edit: Vec<f64>,
    /// The edit rounds again, by kind (comment, body, device).
    by_kind: [Vec<f64>; 3],
}

/// A timed round: apply the change, if any, then check.
type RoundResult = io::Result<(Duration, WorkspaceStats)>;

impl EditTimes {
    /// Runs the next round of the rotation through `round`, records its
    /// time and checks its report against the answer key.
    fn step(
        &mut self,
        project: &mut Project,
        rng: &mut Rng,
        out: &mut Outcome,
        round: impl FnOnce(Option<&(String, String)>, Verify) -> RoundResult,
    ) -> io::Result<()> {
        let kind = next_edit(self.noop.len() + self.edit.len());
        let change = apply(project, kind, rng);
        let expected = project.expected();
        let (wall, _) = round(change.as_ref(), &mut |r| {
            out.check("edit round", &expected, r)
        })?;
        let ms = secs(wall) * 1e3;
        match kind {
            None => self.noop.push(ms),
            Some(kind) => {
                self.edit.push(ms);
                self.by_kind[kind as usize].push(ms);
            }
        }
        Ok(())
    }
}

/// Runs one workload end to end; with `cfg.trace`, also the traced probes.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(io::Error::other(format!(
            "unknown workload `{}` (expected one of {})",
            cfg.workload,
            WORKLOADS.join(", ")
        )));
    }
    std::fs::create_dir_all(&cfg.work_dir)?;
    let mut out = Outcome::default();
    let primary_stats = if cfg.workload == "edit-10k" {
        editor(cfg, &mut out)?;
        None
    } else {
        Some(batch(cfg, &mut out)?)
    };
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    if cfg.trace {
        traced(cfg, &mut out, primary_stats)?;
    }
    Ok(out)
}

fn edit_metrics(out: &mut Outcome, times: &EditTimes) {
    let (tail_ms, pct) = tail(&times.edit);
    out.e2e("noop_ms.p50", median(&times.noop), "ms");
    out.e2e("edit_ms.p50", median(&times.edit), "ms");
    out.e2e("edit_ms.tail", tail_ms, "ms");
    out.layer("edit_ms.tail_pct", pct, "%");
    out.layer("edit_ms.samples", times.edit.len() as f64, "count");
    out.layer("noop_ms.samples", times.noop.len() as f64, "count");
    let kinds = [
        "edit_ms.comment_p50",
        "edit_ms.body_p50",
        "edit_ms.device_p50",
    ];
    for (name, samples) in kinds.into_iter().zip(&times.by_kind) {
        out.layer(name, median(samples), "ms");
    }
    out.notes.push(format!(
        "edit_ms.tail is p{pct:.1} of {} edit rounds; noop_ms.p50 over {} rounds",
        times.edit.len(),
        times.noop.len()
    ));
}

/// `edit-10k`: the editor loop over the daemon's socket transport, in
/// cycles that spread every metric's samples over the whole run: a cold
/// start (the set-up: generate, start a daemon with an empty cache, open
/// every file, prime with a check), edit rounds, a restart onto the cache
/// the stopped daemon persisted, and more edit rounds.
fn editor(cfg: &Config, out: &mut Outcome) -> io::Result<()> {
    const MIN_CYCLES: usize = 3;
    // Edit-loop rounds after each start: one turn of the rotation, so
    // cycles are short and every run holds several cold starts.
    const ROUNDS: usize = ROTATION.len();
    let socket = work_file(cfg, "sock");
    let cache = work_file(cfg, "cache");
    let mut rng = Rng::new(cfg.seed ^ 0xed17);
    let mut times = EditTimes::default();
    let (mut setups, mut colds, mut warms) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline || setups.len() < MIN_CYCLES {
        let _ = std::fs::remove_file(&cache);
        let t = Instant::now();
        let mut project = generate(cfg);
        let (engine, _) = Engine::new(checker()).with_cache(&cache);
        let mut daemon = Daemon::start(engine, &socket)?;
        daemon.open_all(&project)?;
        let expected = project.expected();
        let (cold, _) = daemon.round(None, &mut |r| out.check("priming check", &expected, r))?;
        setups.push(secs(t.elapsed()));
        colds.push(secs(cold));
        for _ in 0..ROUNDS {
            times.step(&mut project, &mut rng, out, |change, verify| {
                daemon.round(change, verify)
            })?;
        }

        daemon.stop()?;
        let t = Instant::now();
        let (engine, loaded) = Engine::new(checker()).with_cache(&cache);
        let load = t.elapsed();
        daemon = Daemon::start(engine, &socket)?;
        daemon.open_all(&project)?;
        let expected = project.expected();
        let (check, stats) =
            daemon.round(None, &mut |r| out.check("warm restart", &expected, r))?;
        warms.push(secs(load + check));
        restored_all(out, &stats, loaded.entries.len());
        for _ in 0..ROUNDS {
            times.step(&mut project, &mut rng, out, |change, verify| {
                daemon.round(change, verify)
            })?;
        }
        daemon.stop()?;
    }
    let _ = std::fs::remove_file(&cache);

    out.e2e("setup_s", median(&setups), "s");
    out.e2e("cold_s", median(&colds), "s");
    out.e2e("warm_restart_s", median(&warms), "s");
    edit_metrics(out, &times);
    out.notes.push(format!(
        "{} cold starts and {} warm restarts measured",
        colds.len(),
        warms.len()
    ));
    Ok(())
}

/// A warm restart must restore every class from disk.
fn restored_all(out: &mut Outcome, stats: &WorkspaceStats, loaded: usize) {
    if stats.verify_disk_hits != stats.verified || stats.verified == 0 || loaded == 0 {
        out.failed += 1;
        out.problem(format!(
            "warm restart restored {} of {} classes ({loaded} records loaded)",
            stats.verify_disk_hits, stats.verified
        ));
    }
}

/// The workspace counters of the rounds a workload is built around.
type PrimaryStats = Vec<(Duration, WorkspaceStats)>;

/// `restart-10k` and `claims-deep`: repeated cold checks and warm
/// restarts in process, each restart followed by a few edit-loop rounds on
/// the restarted workspace (spread over the run, so a slow spell of the
/// machine cannot land on all of them).
fn batch(cfg: &Config, out: &mut Outcome) -> io::Result<PrimaryStats> {
    const SETUPS: usize = 3;
    // Edit-loop rounds after each warm restart: two turns of the rotation,
    // so a run gathers enough edit rounds for a tail.
    const EDIT_ROUNDS: usize = 2 * ROTATION.len();
    let cache = work_file(cfg, "cache");

    // Set-up: generate, then one warm-up check, so the process's first
    // (page-faulting) check is not among the measured ones.
    let mut setups = Vec::new();
    let mut project = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let generated = generate(cfg);
        let mut ws = checker().into_workspace();
        fill(&mut ws, &generated);
        let expected = generated.expected();
        ws_round(&mut ws, None, &mut |r| {
            out.check("warm-up check", &expected, r)
        })?;
        drop(ws);
        setups.push(secs(t.elapsed()));
        project = Some(generated);
    }
    let mut project = project.expect("SETUPS > 0");

    let (mut colds, mut warms) = (Vec::new(), Vec::new());
    let mut primary: PrimaryStats = Vec::new();
    let mut rng = Rng::new(cfg.seed ^ 0xed17);
    let mut times = EditTimes::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while Instant::now() < deadline || colds.len() < 3 {
        let mut ws = checker().into_workspace();
        fill(&mut ws, &project);
        let expected = project.expected();
        let (cold, cold_stats) = ws_round(&mut ws, None, &mut |r| {
            out.check("cold check", &expected, r)
        })?;
        colds.push(secs(cold));
        ws.save_disk_cache(&cache)?;
        drop(ws);

        let t = Instant::now();
        let mut ws = checker().into_workspace();
        let loaded = ws.load_disk_cache(&cache).entries.len();
        fill(&mut ws, &project);
        let (round, warm_stats) = ws_round(&mut ws, None, &mut |r| {
            out.check("warm restart", &expected, r)
        })?;
        warms.push(secs(t.elapsed()));
        restored_all(out, &warm_stats, loaded);
        primary.push(if cfg.workload == "restart-10k" {
            (round, warm_stats)
        } else {
            (cold, cold_stats)
        });

        for _ in 0..EDIT_ROUNDS {
            times.step(&mut project, &mut rng, out, |change, verify| {
                ws_round(&mut ws, change, verify)
            })?;
        }
    }
    let _ = std::fs::remove_file(&cache);

    out.e2e("setup_s", median(&setups), "s");
    out.e2e("cold_s", median(&colds), "s");
    out.e2e("warm_restart_s", median(&warms), "s");
    edit_metrics(out, &times);
    out.notes.push(format!(
        "{} cold checks and {} warm restarts measured",
        colds.len(),
        warms.len()
    ));
    Ok(primary)
}

/// Medians of the workspace's own phase timers and counters over `rounds`
/// (round wall, `last_round()`).
fn workspace_metrics(out: &mut Outcome, rounds: &[(Duration, WorkspaceStats)]) {
    type Pick = fn(&(Duration, WorkspaceStats)) -> f64;
    let metrics: [(&'static str, &'static str, Pick); 10] = [
        ("workspace.parse_s", "s", |r| secs(r.1.parse_time)),
        ("workspace.extract_s", "s", |r| secs(r.1.extract_time)),
        ("workspace.verify_s", "s", |r| secs(r.1.verify_time)),
        ("workspace.assemble_s", "s", |r| secs(r.1.assemble_time)),
        ("workspace.unattributed_s", "s", |(wall, s)| {
            secs(*wall) - secs(s.parse_time + s.extract_time + s.verify_time + s.assemble_time)
        }),
        ("workspace.files_parsed", "count", |r| {
            r.1.files_parsed as f64
        }),
        ("workspace.extracted", "count", |r| r.1.extracted as f64),
        ("workspace.verified", "count", |r| r.1.verified as f64),
        ("workspace.verify_cache_hits", "count", |r| {
            r.1.verify_cache_hits as f64
        }),
        ("workspace.verify_disk_hits", "count", |r| {
            r.1.verify_disk_hits as f64
        }),
    ];
    for (name, unit, pick) in metrics {
        let values: Vec<f64> = rounds.iter().map(pick).collect();
        out.layer(name, median(&values), unit);
    }
}

/// The replay's spans and the per-layer time metric each one feeds.
const LAYERS: [(&str, &str); 9] = [
    ("parse", "parse.s"),
    ("fingerprint", "fingerprint.s"),
    ("extract", "extract.s"),
    ("resolve", "resolve.s"),
    ("lint", "lint.s"),
    ("typestate", "typestate.s"),
    ("integration", "integration.s"),
    ("usage", "usage.s"),
    ("claims", "claims.s"),
];

/// The traced probes: the layer-by-layer replay, report assembly and
/// teardown, the daemon's handler and wire, and cache persistence.
fn traced(cfg: &Config, out: &mut Outcome, primary: Option<PrimaryStats>) -> io::Result<()> {
    let project = generate(cfg);

    // Rounds of a one-worker cold check, a traced replay and an untraced
    // replay, back to back (at least three, and at least a second's worth,
    // so small inputs get enough of them). Coverage is the median over
    // rounds of the traced replay's layer time over the check's wall in the
    // same round, so a slow spell of the machine hits both sides of a
    // ratio. The layer figures come from the fastest traced replay.
    let mut ratios = Vec::new();
    let (mut walls, mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<(f64, Recorder, Counts)> = None;
    let mut last = None;
    let started = Instant::now();
    while ratios.len() < 3 || started.elapsed() < MIN_PROBE_TIME {
        drop(last.take());
        let mut ws = Checker::new().jobs(1).into_workspace();
        fill(&mut ws, &project);
        let t = Instant::now();
        let checked = ws.check().map_err(|e| io::Error::other(e.to_string()))?;
        let wall = secs(t.elapsed());
        walls.push(wall);
        let expected = report_verdicts(&checked.report);
        drop(checked);
        for enabled in [true, false] {
            let mut rec = Recorder::new(enabled);
            let t = Instant::now();
            let result = replay(&project.files, &mut rec);
            let w = secs(t.elapsed());
            out.attempted += 1;
            if result.verdicts != expected {
                out.failed += 1;
                out.problem(format!(
                    "replay verdicts differ from Workspace::check: {} vs {}",
                    result.verdicts.len(),
                    expected.len()
                ));
            }
            if !enabled {
                plain_walls.push(w);
                continue;
            }
            traced_walls.push(w);
            ratios.push(covered(&rec) / wall);
            if kept.as_ref().is_none_or(|(best, _, _)| w < *best) {
                kept = Some((w, rec, result.counts));
            }
        }
        last = Some(ws);
    }
    let coverage = median(&ratios);
    let wall = median(&walls);

    // Report assembly and teardown, on no-op rounds of the last workspace.
    let mut ws = last.expect("at least three rounds");
    let (mut render, mut bytes, mut teardown) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let checked = ws.check().map_err(|e| io::Error::other(e.to_string()))?;
        let t = Instant::now();
        let text = checked.report.render(None);
        let summary = CheckSummary::new(&checked, ws.last_round().clone());
        let wire = json::to_string(&summary);
        render.push(secs(t.elapsed()));
        bytes.push((text.len() + wire.len()) as f64);
        let t = Instant::now();
        drop(checked);
        teardown.push(secs(t.elapsed()));
    }
    drop(ws);
    out.layer("report.render_s", median(&render), "s");
    out.layer("report.bytes", median(&bytes), "bytes");
    out.layer("report.drop_s", median(&teardown), "s");

    let (_, rec, counts) = kept.expect("one traced replay");
    let self_times = rec.self_times();
    let layer = |span: &str| self_times.get(span).copied().map_or(0.0, secs);
    for (span, metric) in LAYERS {
        out.layer(metric, layer(span), "s");
    }
    for (metric, value, unit) in [
        ("parse.bytes", counts.parse_bytes, "bytes"),
        ("parse.files", counts.parse_files, "count"),
        ("extract.classes", counts.extract_classes, "count"),
        ("lint.diagnostics", counts.lint_diagnostics, "count"),
        ("typestate.proven", counts.typestate_proven, "count"),
        (
            "integration.nfa_states",
            counts.integration_nfa_states,
            "count",
        ),
        ("usage.checks", counts.usage_checks, "count"),
        ("usage.antichain_frontier", counts.usage_frontier, "count"),
        ("usage.antichain_pruned", counts.usage_pruned, "count"),
        ("usage.violations", counts.usage_violations, "count"),
        ("claims.explicit", counts.claims_explicit, "count"),
        ("claims.symbolic", counts.claims_symbolic, "count"),
        ("claims.violations", counts.claims_violations, "count"),
    ] {
        out.layer(metric, value as f64, unit);
    }
    out.layer(
        "typestate.proven_frac",
        counts.typestate_proven as f64 / counts.typestate_fields.max(1) as f64,
        "ratio",
    );
    out.layer("trace.coverage", coverage, "ratio");
    out.layer(
        "trace.overhead",
        median(&traced_walls) - median(&plain_walls),
        "s",
    );
    out.notes.push(format!(
        "replay covers {:.1}% of a {wall:.3} s one-worker Workspace::check",
        100.0 * coverage
    ));
    // One file per workload, overwritten by the next traced run.
    let trace_file = cfg.work_dir.join(format!("{}.trace.json", cfg.workload));
    std::fs::write(&trace_file, rec.chrome_json())?;
    out.notes
        .push(format!("spans written to {}", trace_file.display()));

    // The daemon's handler in process, then the same requests over the
    // socket; the engine probe also persists and reloads its cache.
    let (handle_ms, edit_rounds) = engine_probe(cfg, out, &project)?;
    let rtt = socket_probe(cfg, out, &project)?;
    out.layer("daemon.wire_ms", median(&rtt) - handle_ms, "ms");
    workspace_metrics(out, primary.as_deref().unwrap_or(&edit_rounds));
    Ok(())
}

/// The layer time a traced replay recorded.
fn covered(rec: &Recorder) -> f64 {
    let self_times = rec.self_times();
    LAYERS
        .iter()
        .filter_map(|(span, _)| self_times.get(span))
        .map(|d| secs(*d))
        .sum()
}

/// The least time the coverage probes repeat for.
const MIN_PROBE_TIME: Duration = Duration::from_secs(1);

/// Rounds of the probes' fixed request sequence.
const PROBE_ROUNDS: usize = 16;

/// The request sequence of the daemon probes, the edit loop's seeded mix:
/// each round's change and the answer key after it.
type Sequence = Vec<(BTreeMap<String, Expect>, Option<(String, String)>)>;

fn probe_sequence(cfg: &Config, project: &Project) -> Sequence {
    let mut project = project.clone();
    let mut rng = Rng::new(cfg.seed ^ 0x9e0b);
    (0..PROBE_ROUNDS)
        .map(|round| {
            let kind = next_edit(round);
            let change = apply(&mut project, kind, &mut rng);
            (project.expected(), change)
        })
        .collect()
}

/// Times `Engine::handle` in process over the probe sequence, reporting
/// the handler time and reply size per round, then persists and reloads
/// the engine's cache. Returns the median handler time (ms) and the edit
/// rounds' check wall and workspace counters.
fn engine_probe(
    cfg: &Config,
    out: &mut Outcome,
    project: &Project,
) -> io::Result<(f64, PrimaryStats)> {
    let cache = work_file(cfg, "cache");
    let (mut engine, _) = Engine::new(checker()).with_cache(&cache);
    let mut id = 0;
    let mut call = |engine: &mut Engine, method: Method| -> Vec<Reply> {
        id += 1;
        let mut replies = Vec::new();
        engine.handle(Request { id, method }, &mut |r| replies.push(r));
        replies
    };
    for (path, text) in &project.files {
        call(
            &mut engine,
            Method::Open {
                path: path.clone(),
                text: text.clone(),
            },
        );
    }
    call(&mut engine, Method::Check);

    let (mut handle, mut rounds, mut reply_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (state, change) in probe_sequence(cfg, project) {
        let t = Instant::now();
        if let Some((path, text)) = &change {
            call(
                &mut engine,
                Method::Change {
                    path: path.clone(),
                    text: text.clone(),
                },
            );
        }
        let tc = Instant::now();
        let replies = call(&mut engine, Method::Check);
        let check = tc.elapsed();
        handle.push(secs(t.elapsed()) * 1e3);
        reply_bytes.push(
            replies
                .iter()
                .map(|r| json::to_string(r).len() + 1)
                .sum::<usize>() as f64,
        );
        match replies.last().map(|r| &r.body) {
            Some(ReplyBody::Check { summary }) => {
                out.check("engine probe", &state, &summary.report());
                if change.is_some() {
                    rounds.push((check, summary.stats.clone()));
                }
            }
            other => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("engine probe: unexpected reply {other:?}"));
            }
        }
    }

    let t = Instant::now();
    let records = engine.persist()?.unwrap_or(0);
    out.layer("persist.save_s", secs(t.elapsed()), "s");
    out.layer(
        "persist.bytes",
        std::fs::metadata(&cache).map_or(0, |m| m.len()) as f64,
        "bytes",
    );
    drop(engine);
    let t = Instant::now();
    let (engine, loaded) = Engine::new(checker()).with_cache(&cache);
    out.layer("persist.load_s", secs(t.elapsed()), "s");
    out.layer("persist.records", loaded.entries.len() as f64, "count");
    if loaded.entries.len() != records || loaded.rejected.is_some() {
        out.failed += 1;
        out.problem(format!(
            "cache reload kept {} of {records} records ({:?})",
            loaded.entries.len(),
            loaded.rejected
        ));
    }
    drop(engine);
    let _ = std::fs::remove_file(&cache);
    out.layer("daemon.handle_ms", median(&handle), "ms");
    out.layer("daemon.reply_bytes", median(&reply_bytes), "bytes");
    Ok((median(&handle), rounds))
}

/// The probe sequence over the socket: client round trips (ms).
fn socket_probe(cfg: &Config, out: &mut Outcome, project: &Project) -> io::Result<Vec<f64>> {
    let socket = work_file(cfg, "sock");
    let mut daemon = Daemon::start(Engine::new(checker()), &socket)?;
    daemon.open_all(project)?;
    daemon.round(None, &mut |_| {})?;
    let mut rtt = Vec::new();
    for (state, change) in probe_sequence(cfg, project) {
        let (wall, _) = daemon.round(change.as_ref(), &mut |r| {
            out.check("socket probe", &state, r)
        })?;
        rtt.push(secs(wall) * 1e3);
    }
    daemon.stop()?;
    Ok(rtt)
}
