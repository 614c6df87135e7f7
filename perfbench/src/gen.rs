//! Seeded project generators with a built-in known-answer oracle.
//!
//! Every generated class carries the verdict its construction fixes: pass,
//! an `E100` usage violation (with the offending subsystem field, and the
//! whole counterexample where the model has a single trace), or an `E101`
//! claim violation (with the failing formula, and the counterexample where
//! it is fixed). Edits update that record, so every round is compared
//! against the generator, never against another engine of the program.

use shelley_core::{codes, CheckReport, ClaimViolation, Severity, UsageViolation};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: a tiny, dependency-free, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5348_454c_4c45_5942)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `slots` device indices below `devices`, each used equally often
    /// (within one), in seeded order: every device gets the same number
    /// of dependents, so fan-out edits cost the same whichever device
    /// they hit.
    pub fn deal(&mut self, slots: usize, devices: usize) -> Vec<usize> {
        let mut deck: Vec<usize> = (0..slots).map(|i| i % devices).collect();
        self.shuffle(&mut deck);
        deck
    }
}

/// The failure a class is built to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `E100`: the projection onto `field` is not a complete usage.
    /// `definite` when the body is straight-line, so the typestate lint
    /// also reports the misuse as `E009`.
    Usage {
        field: String,
        counterexample: Option<String>,
        definite: bool,
    },
    /// `E101`: `formula` fails on some complete trace.
    Claim {
        formula: String,
        counterexample: Option<String>,
    },
}

/// Which edit a round applies before it checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A comment after the class: the file re-parses, nothing re-verifies.
    Comment,
    /// One composite's body toggles between conforming and a usage
    /// violation: that class re-verifies and its verdict flips.
    Body,
    /// A device protocol changes: every dependent composite re-verifies.
    Device,
}

/// A generated project: its files, the per-class answer key, and the
/// state the edit operations mutate.
#[derive(Debug, Clone)]
pub struct Project {
    pub files: Vec<(String, String)>,
    shape: Shape,
    devices: Vec<Device>,
    apps: Vec<App>,
    /// Index of the first composite file in `files`.
    first_app: usize,
    /// Composites eligible for body toggles (their claims hold either way).
    togglable: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `shelley_bench::serve_project`'s shape: three-operation devices,
    /// single-operation apps with one claim, every second app
    /// loop-imprecise.
    Serve,
    /// Claim- and inclusion-heavy composites over sixteen multi-operation
    /// devices each.
    Deep,
}

#[derive(Debug, Clone)]
struct Device {
    ops: usize,
    /// Serve: protocol B lets `boot` end the usage directly. Deep: the
    /// variant adds a self-loop on `o1`; no verdict depends on it.
    variant: bool,
    rev: u32,
}

#[derive(Debug, Clone)]
struct App {
    /// `(field, device index)`.
    fields: Vec<(String, usize)>,
    /// Take the `while`/`break` detour (Serve; Deep bodies always do).
    loopy: bool,
    /// Deep: the order in which `c` and `d` (fields 2 and 3) run after
    /// the branch.
    order: Vec<usize>,
    /// Field index of the optional loop round (Deep).
    loop_field: usize,
    claims: Vec<String>,
    /// The claim this app is built to violate, if any (index in `claims`).
    bad_claim: Option<usize>,
    /// The field whose mandatory round breaks its protocol (usage
    /// violation): Serve skips `work`, Deep repeats `o0`.
    broken: Option<usize>,
    rev: u32,
}

/// Ordering facts every complete trace of a deep composite satisfies,
/// as weak-until terms `(!later) W earlier` (each two temporal
/// connectives; all hold on the empty trace too): within a field, each
/// operation's first occurrence precedes the next one's; across fields,
/// `a` and `b` finish their rounds before `c` and `d` start, and the
/// first of `c`/`d` finishes before the second starts.
fn ordering_terms(rng: &mut Rng, app: &App, devices: &[Device]) -> Vec<String> {
    let ops = |f: usize| devices[app.fields[f].1].ops;
    let name = |f: usize| app.fields[f].0.as_str();
    let mut out = Vec::new();
    for f in 0..CLAIM_FIELDS.len() {
        for op in 0..ops(f) - 1 {
            out.push(format!("(!{}.o{}) W {}.o{op}", name(f), op + 1, name(f)));
        }
    }
    let pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (app.order[0], app.order[1])];
    for (before, after) in pairs {
        let p = rng.below(ops(before));
        let q = rng.below(ops(after));
        out.push(format!("(!{}.o{q}) W {}.o{p}", name(after), name(before)));
    }
    out
}

fn conjunction(rng: &mut Rng, pool: &[String], k: usize) -> String {
    let mut pool = pool.to_vec();
    rng.shuffle(&mut pool);
    let terms: Vec<String> = pool[..k].iter().map(|t| format!("({t})")).collect();
    terms.join(" & ")
}

/// The deep shape's fields its claims speak about.
const CLAIM_FIELDS: [&str; 4] = ["a", "b", "c", "d"];
/// Further fields of each deep composite, which no claim mentions: they
/// add inclusion checks (one per field, each over the whole integration
/// automaton) without adding claims.
const PLAIN_FIELDS: usize = 12;

/// The serve shape's standard claim, which every conforming and every
/// `boot, stop` body satisfies.
const SERVE_CLAIM: &str = "(!d.stop) W d.boot";
/// The serve shape's violated claim: `work` always precedes `stop`.
const SERVE_BAD_CLAIM: &str = "(!d.work) W d.stop";
/// The deep shape's ordering claim; the `else` branch runs `b` first.
const DEEP_BAD_CLAIM: &str = "(!b.o0) W a.o0";

impl Project {
    /// A `serve_project`-shaped project of `classes` classes: one device
    /// per twenty classes, the rest single-operation apps. About one app
    /// in a hundred starts with a usage violation and one in a hundred
    /// violates its claim.
    pub fn serve(classes: usize, seed: u64) -> Project {
        let mut rng = Rng::new(seed);
        let bases = (classes / 20).max(1);
        let napps = classes.saturating_sub(bases);
        let devices = (0..bases)
            .map(|_| Device {
                ops: 3,
                variant: false,
                rev: 0,
            })
            .collect();
        let deck = rng.deal(napps, bases);
        let mut apps = Vec::with_capacity(napps);
        let mut togglable = Vec::new();
        for (i, &dev) in deck.iter().enumerate() {
            let roll = rng.below(100);
            let bad_claim = roll == 0;
            let broken = roll == 1;
            if !bad_claim {
                togglable.push(i);
            }
            apps.push(App {
                fields: vec![("d".to_string(), dev)],
                loopy: rng.chance(1, 2),
                order: Vec::new(),
                loop_field: 0,
                claims: vec![if bad_claim {
                    SERVE_BAD_CLAIM
                } else {
                    SERVE_CLAIM
                }
                .to_string()],
                bad_claim: bad_claim.then_some(0),
                broken: broken.then_some(0),
                rev: 0,
            });
        }
        Project::assemble(Shape::Serve, devices, apps, togglable)
    }

    /// The verification-bound project: `composites` classes, each driving
    /// sixteen devices of three to five operations (every device serves
    /// about 32 composites). Fields `a` and `b` run in two branch orders,
    /// `c` and `d` follow, then the twelve plain fields `p0`..`p11` one
    /// round each, and a `while`/`break` detour repeats a round of one of
    /// `a`..`d` (so the typestate fast path bails and every field's
    /// inclusion check runs). Each composite carries two conjunctive
    /// claims of ordering terms over `a`..`d` that straddle the automatic
    /// symbolic-engine threshold of 2^12 estimated monitor states: five
    /// terms (10 temporal connectives, explicit engine) and six (12,
    /// symbolic engine). One composite in ten starts with a usage violation
    /// and one in ten carries a violated ordering claim.
    pub fn deep(composites: usize, seed: u64) -> Project {
        let mut rng = Rng::new(seed ^ 0xdee9);
        let width = CLAIM_FIELDS.len() + PLAIN_FIELDS;
        let ndev = (composites * width / 32).max(width);
        // Three, four and five operations, equally often in seeded order,
        // so every seed carries the same amount of protocol.
        let devices: Vec<Device> = rng
            .deal(ndev, 3)
            .into_iter()
            .map(|extra| Device {
                ops: 3 + extra,
                variant: false,
                rev: 0,
            })
            .collect();
        let deck = rng.deal(width * composites, ndev);
        let mut apps = Vec::with_capacity(composites);
        let mut togglable = Vec::new();
        for (i, devs) in deck.chunks(width).enumerate() {
            let names = CLAIM_FIELDS
                .iter()
                .map(|f| f.to_string())
                .chain((0..PLAIN_FIELDS).map(|k| format!("p{k}")));
            let fields: Vec<(String, usize)> = names.zip(devs.iter().copied()).collect();
            let order = if rng.chance(1, 2) {
                vec![2, 3]
            } else {
                vec![3, 2]
            };
            let mut app = App {
                fields,
                loopy: true,
                order,
                loop_field: rng.below(4),
                claims: Vec::new(),
                bad_claim: None,
                broken: None,
                rev: 0,
            };
            let pool = ordering_terms(&mut rng, &app, &devices);
            for terms in [5, 6] {
                app.claims.push(conjunction(&mut rng, &pool, terms));
            }
            match rng.below(10) {
                0 => app.broken = Some(rng.below(4)),
                1 => {
                    app.bad_claim = Some(app.claims.len());
                    app.claims.push(DEEP_BAD_CLAIM.to_string());
                }
                _ => {}
            }
            if app.bad_claim.is_none() {
                togglable.push(i);
            }
            apps.push(app);
        }
        Project::assemble(Shape::Deep, devices, apps, togglable)
    }

    fn assemble(shape: Shape, devices: Vec<Device>, apps: Vec<App>, togglable: Vec<usize>) -> Self {
        let mut project = Project {
            files: Vec::with_capacity(devices.len() + apps.len()),
            shape,
            first_app: devices.len(),
            devices,
            apps,
            togglable,
        };
        for k in 0..project.devices.len() {
            let file = (format!("dev{k}.py"), project.device_source(k));
            project.files.push(file);
        }
        for i in 0..project.apps.len() {
            let file = (project.app_file(i), project.app_source(i));
            project.files.push(file);
        }
        project
    }

    fn app_file(&self, i: usize) -> String {
        match self.shape {
            Shape::Serve => format!("app{i}.py"),
            Shape::Deep => format!("ctl{i}.py"),
        }
    }

    fn app_class(&self, i: usize) -> String {
        match self.shape {
            Shape::Serve => format!("App{i}"),
            Shape::Deep => format!("Ctl{i}"),
        }
    }

    /// Number of classes in the project.
    pub fn classes(&self) -> usize {
        self.files.len()
    }

    fn device_source(&self, k: usize) -> String {
        let dev = &self.devices[k];
        let mut out = String::new();
        let _ = writeln!(out, "@sys\nclass Dev{k}:");
        match self.shape {
            Shape::Serve => {
                let boot_next = if dev.variant {
                    "[\"work\", \"stop\"]"
                } else {
                    "[\"work\"]"
                };
                let _ = write!(
                    out,
                    "    @op_initial\n    def boot(self):\n        return {boot_next}\n\n    \
                     @op\n    def work(self):\n        return [\"stop\"]\n\n    \
                     @op_final\n    def stop(self):\n        return []\n"
                );
            }
            Shape::Deep => {
                for op in 0..dev.ops {
                    let decorator = match op {
                        0 => "@op_initial",
                        _ if op == dev.ops - 1 => "@op_final",
                        _ => "@op",
                    };
                    let next = if op == dev.ops - 1 {
                        "[\"o0\"]".to_string()
                    } else if op == 1 && dev.variant {
                        "[\"o2\", \"o1\"]".to_string()
                    } else {
                        format!("[\"o{}\"]", op + 1)
                    };
                    let _ = writeln!(
                        out,
                        "    {decorator}\n    def o{op}(self):\n        return {next}\n"
                    );
                }
            }
        }
        if dev.rev > 0 {
            let _ = writeln!(out, "# rev {}", dev.rev);
        }
        out
    }

    /// One device round of `field`: every operation in protocol order,
    /// with `o0` repeated when the round is `broken` (a usage violation
    /// that keeps every event, so no claim changes its verdict).
    fn round(&self, out: &mut String, indent: &str, app: &App, field: usize, broken: bool) {
        let (name, dev) = &app.fields[field];
        if broken {
            let _ = writeln!(out, "{indent}self.{name}.o0()");
        }
        for op in 0..self.devices[*dev].ops {
            let _ = writeln!(out, "{indent}self.{name}.o{op}()");
        }
    }

    fn app_source(&self, i: usize) -> String {
        let app = &self.apps[i];
        let mut out = String::new();
        for claim in &app.claims {
            let _ = writeln!(out, "@claim(\"{claim}\")");
        }
        let quoted: Vec<String> = app.fields.iter().map(|(f, _)| format!("\"{f}\"")).collect();
        let _ = writeln!(out, "@sys([{}])", quoted.join(", "));
        let _ = writeln!(out, "class {}:", self.app_class(i));
        let _ = writeln!(out, "    def __init__(self):");
        for (field, dev) in &app.fields {
            let _ = writeln!(out, "        self.{field} = Dev{dev}()");
        }
        let _ = writeln!(out, "\n    @op_initial_final\n    def run(self):");
        match self.shape {
            Shape::Serve => {
                out.push_str("        self.d.boot()\n");
                if app.broken.is_none() {
                    out.push_str("        self.d.work()\n");
                }
                if app.loopy {
                    out.push_str("        while retry:\n            break\n");
                }
                out.push_str("        self.d.stop()\n        return []\n");
            }
            Shape::Deep => {
                // `a` and `b` swap order between the branches; `c` and `d`
                // follow in the seeded order.
                let broken = |f: usize| app.broken == Some(f);
                out.push_str("        if sel:\n");
                self.round(&mut out, "            ", app, 0, broken(0));
                self.round(&mut out, "            ", app, 1, broken(1));
                out.push_str("        else:\n");
                self.round(&mut out, "            ", app, 1, broken(1));
                self.round(&mut out, "            ", app, 0, broken(0));
                for &f in &app.order {
                    self.round(&mut out, "        ", app, f, broken(f));
                }
                for f in CLAIM_FIELDS.len()..app.fields.len() {
                    self.round(&mut out, "        ", app, f, broken(f));
                }
                out.push_str("        while retry:\n");
                self.round(&mut out, "            ", app, app.loop_field, false);
                out.push_str("            break\n        return []\n");
            }
        }
        if app.rev > 0 {
            let _ = writeln!(out, "# rev {}", app.rev);
        }
        out
    }

    /// The answer key: every class expected to fail, with its failure.
    /// Classes not listed must pass.
    pub fn expected(&self) -> BTreeMap<String, Expect> {
        let mut out = BTreeMap::new();
        for (i, app) in self.apps.iter().enumerate() {
            if let Some(expect) = self.expect_app(app) {
                out.insert(self.app_class(i), expect);
            }
        }
        out
    }

    fn expect_app(&self, app: &App) -> Option<Expect> {
        if let Some(f) = app.broken {
            let blocked = match self.shape {
                // Protocol B lets `boot` end the usage, so `boot, stop`
                // conforms.
                Shape::Serve => !self.devices[app.fields[0].1].variant,
                Shape::Deep => true,
            };
            if blocked {
                // Serve's model has one trace. Deep's two branches tie on
                // length, so its witness is the engine's tie-break.
                let (counterexample, definite) = match self.shape {
                    Shape::Serve => (Some("run, d.boot, d.stop".to_string()), !app.loopy),
                    Shape::Deep => (None, false),
                };
                return Some(Expect::Usage {
                    field: app.fields[f].0.clone(),
                    counterexample,
                    definite,
                });
            }
        }
        let bad = app.bad_claim?;
        // The shortest violating trace: Serve's only trace; Deep's `else`
        // branch (`b` before `a`) without the optional loop round.
        let counterexample = match self.shape {
            Shape::Serve => "d.boot, d.work, d.stop".to_string(),
            Shape::Deep => {
                let mut order = vec![1, 0];
                order.extend(&app.order);
                order.extend(CLAIM_FIELDS.len()..app.fields.len());
                let mut events = Vec::new();
                for f in order {
                    let (name, dev) = &app.fields[f];
                    for op in 0..self.devices[*dev].ops {
                        events.push(format!("{name}.o{op}"));
                    }
                }
                events.join(", ")
            }
        };
        Some(Expect::Claim {
            formula: app.claims[bad].clone(),
            counterexample: Some(counterexample),
        })
    }

    /// Applies one seeded edit of `kind` and returns the changed file's
    /// index. The answer key follows the edit.
    pub fn edit(&mut self, kind: EditKind, rng: &mut Rng) -> usize {
        match kind {
            EditKind::Comment => {
                let i = rng.below(self.apps.len());
                self.apps[i].rev += 1;
                self.refresh_app(i)
            }
            EditKind::Body => {
                let i = self.togglable[rng.below(self.togglable.len())];
                let app = &mut self.apps[i];
                app.broken = match app.broken {
                    Some(_) => None,
                    None => Some(rng.below(app.fields.len())),
                };
                self.refresh_app(i)
            }
            EditKind::Device => {
                let k = rng.below(self.devices.len());
                self.devices[k].variant = !self.devices[k].variant;
                self.devices[k].rev += 1;
                self.files[k].1 = self.device_source(k);
                k
            }
        }
    }

    fn refresh_app(&mut self, i: usize) -> usize {
        let index = self.first_app + i;
        self.files[index].1 = self.app_source(i);
        index
    }
}

/// Compares a report with the answer key: each class's usage and claim
/// violations with its expected verdict, and the other error diagnostics
/// with the `E009` findings the key implies (the typestate lint reports a
/// definite misuse once per straight-line violating body). Returns one line
/// per mismatch (empty when the report is exactly what the generator built).
pub fn mismatches(expected: &BTreeMap<String, Expect>, report: &CheckReport) -> Vec<String> {
    let mut found: BTreeMap<&str, (Vec<&UsageViolation>, Vec<&ClaimViolation>)> = BTreeMap::new();
    for (class, v) in &report.usage_violations {
        found.entry(class).or_default().0.push(v);
    }
    for (class, v) in &report.claim_violations {
        found.entry(class).or_default().1.push(v);
    }
    let mut out = Vec::new();
    for (class, expect) in expected {
        let (usage, claims) = found.remove(class.as_str()).unwrap_or_default();
        let ok = match (expect, usage.as_slice(), claims.as_slice()) {
            (
                Expect::Usage {
                    field,
                    counterexample,
                    ..
                },
                [v],
                [],
            ) => {
                v.subsystem_errors.len() == 1
                    && &v.subsystem_errors[0].field == field
                    && counterexample
                        .as_ref()
                        .is_none_or(|c| *c == v.counterexample_text)
            }
            (
                Expect::Claim {
                    formula,
                    counterexample,
                },
                [],
                [v],
            ) => {
                *formula == v.formula
                    && !v.counterexample_text.is_empty()
                    && counterexample
                        .as_ref()
                        .is_none_or(|c| *c == v.counterexample_text)
            }
            _ => false,
        };
        if !ok {
            out.push(format!(
                "{class}: expected {expect:?}, found {usage:?} {claims:?}"
            ));
        }
    }
    for (class, (usage, claims)) in found {
        out.push(format!(
            "{class}: expected pass, found {usage:?} {claims:?}"
        ));
    }

    let definite = expected
        .values()
        .filter(|e| matches!(e, Expect::Usage { definite: true, .. }))
        .count();
    let mut e009 = 0;
    for d in report.diagnostics.iter() {
        match (d.severity, d.code) {
            (Severity::Error, codes::DEFINITE_PROTOCOL_VIOLATION) => e009 += 1,
            (Severity::Error, codes::INVALID_SUBSYSTEM_USAGE | codes::FAIL_TO_MEET_REQUIREMENT) => {
            }
            (Severity::Error, code) => out.push(format!("unexpected error {code}: {}", d.message)),
            _ => {}
        }
    }
    if e009 != definite {
        out.push(format!(
            "expected {definite} E009 definite protocol violations, found {e009}"
        ));
    }
    out
}
