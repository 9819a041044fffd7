//! The batch commands of one pass: `pfd discover` (cold, writes the
//! rules), the warm `pfd discover --snapshot`, `pfd check --json` and
//! `pfd repair --out --json` on every table, each run through
//! `pfd::cli::run` into an in-memory sink and timed alone. [`traced`]
//! replays the same commands as the library calls the CLI makes, inside
//! spans.

use crate::trace::Tracer;
use crate::workload::{Table, Workload};
use pfd::core::{
    check_report_json, detect_errors, display_with_schema, load_from_bytes_with, parse_rules,
    repair_outcome_json, to_rules_string, DeltaEngine, Pfd, RepairEngine, RepairOptions,
    SnapshotStore,
};
use pfd::datagen::{evaluate_dependencies, GroundTruthDep};
use pfd::discovery::{discover, discover_persistent, DiscoveryConfig, DiscoveryResult};
use pfd::relation::{read_csv, write_csv_string, Relation, StdIo};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one pass's batch commands produced.
#[derive(Default)]
pub struct BatchOut {
    /// Per command (discover, rediscover, check, repair), one sample per
    /// round: its time summed over the tables, seconds.
    pub rounds: [Vec<f64>; 4],
    /// Per table: dependency lines, check report, repair report and the
    /// cleaned CSV — compared across passes and against the replay.
    pub outputs: Vec<String>,
    /// Warm re-runs that adopted the persisted index.
    pub warm_hits: usize,
    pub attempted: usize,
    pub failed: usize,
    /// `.pfds` + `.pfdi` bytes.
    pub stored_bytes: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
}

/// A pass repeats its rounds (every command is idempotent) until they
/// took this long, at most `MAX_ROUNDS` times. Per-command wall times on
/// a shared 2-vCPU host drift by ±20% over a few seconds; interleaving
/// the commands and taking many rounds spreads each command's samples
/// over that drift instead of sampling one moment of it.
const ROUNDS_FLOOR_S: f64 = 1.5;
const MAX_ROUNDS: usize = 8;

impl BatchOut {
    /// This pass's median round time of command `k` (discover,
    /// rediscover, check, repair).
    pub fn step_s(&self, k: usize) -> f64 {
        crate::stats::median(&self.rounds[k])
    }
}

fn arg(dir: &Path, file: &str) -> String {
    dir.join(file).to_string_lossy().into_owned()
}

/// The lines `pfd discover` prints for the dependencies themselves (the
/// timing and path lines around them vary from run to run).
fn dependency_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Arguments of one batch command on one table.
type Step = fn(&Table, &Path) -> Vec<String>;

fn discover_args(t: &Table, dir: &Path) -> Vec<String> {
    let csv = arg(dir, &format!("{}.csv", t.stem));
    let rules = arg(dir, &format!("{}.pfd", t.stem));
    vec!["discover".into(), csv, "--rules".into(), rules]
}

fn rediscover_args(t: &Table, dir: &Path) -> Vec<String> {
    let csv = arg(dir, &format!("{}.csv", t.stem));
    let snapshot = arg(dir, &format!("{}.pfds", t.stem));
    vec!["discover".into(), csv, "--snapshot".into(), snapshot]
}

fn check_args(t: &Table, dir: &Path) -> Vec<String> {
    let csv = arg(dir, &format!("{}.csv", t.stem));
    let rules = arg(dir, &format!("{}.pfd", t.stem));
    vec![
        "check".into(),
        csv,
        "--rules".into(),
        rules,
        "--json".into(),
    ]
}

fn repair_args(t: &Table, dir: &Path) -> Vec<String> {
    let csv = arg(dir, &format!("{}.csv", t.stem));
    let rules = arg(dir, &format!("{}.pfd", t.stem));
    let out = arg(dir, &format!("{}.clean.csv", t.stem));
    vec![
        "repair".into(),
        csv,
        "--rules".into(),
        rules,
        "--out".into(),
        out,
        "--json".into(),
    ]
}

/// Run every batch command of one pass in `dir` (a fresh copy of the
/// set-up inputs), in rounds: each round runs the four commands on every
/// table, table by table, so `check` and `repair` read the rules that
/// round's `discover` wrote.
pub fn run(w: &Workload, dir: &Path) -> BatchOut {
    let mut out = BatchOut::default();
    let steps: [Step; 4] = [discover_args, rediscover_args, check_args, repair_args];
    // stdout[table][step] of the last round.
    let mut stdout: Vec<[Option<String>; 4]> = vec![Default::default(); w.tables.len()];
    let mut elapsed = 0.0;
    loop {
        let mut round = [0.0f64; 4];
        let mut failed = false;
        for (i, t) in w.tables.iter().enumerate() {
            crate::sys::probe();
            for (k, step) in steps.iter().enumerate() {
                let args = step(t, dir);
                let mut sink = Vec::with_capacity(1 << 16);
                out.attempted += 1;
                let start = Instant::now();
                let result = pfd::cli::run(&args, &mut sink);
                round[k] += start.elapsed().as_secs_f64();
                let failure = match result {
                    // `check` exits 1 on dirty data, like grep.
                    Ok(0 | 1) => None,
                    Ok(code) => Some(format!("{args:?} exited {code}")),
                    Err(e) => Some(format!("{args:?}: {e}")),
                };
                stdout[i][k] = match failure {
                    None => Some(String::from_utf8_lossy(&sink).into_owned()),
                    Some(failure) => {
                        out.failed += 1;
                        out.errors.push(failure);
                        failed = true;
                        None
                    }
                };
            }
        }
        for (samples, s) in out.rounds.iter_mut().zip(round) {
            samples.push(s);
        }
        elapsed += round.iter().sum::<f64>();
        if failed || elapsed >= ROUNDS_FLOOR_S || out.rounds[0].len() >= MAX_ROUNDS {
            break;
        }
    }

    for (t, stdout) in w.tables.iter().zip(stdout) {
        let [Some(cold), Some(warm), Some(check), Some(repair)] = stdout else {
            continue;
        };
        let deps = dependency_lines(&cold);
        if dependency_lines(&warm) != deps {
            out.errors.push(format!(
                "{}: warm discover --snapshot printed different dependencies than the cold run",
                t.stem
            ));
        }
        if warm.contains("index: warm start") {
            out.warm_hits += 1;
        }
        let cleaned = std::fs::read_to_string(dir.join(format!("{}.clean.csv", t.stem)))
            .unwrap_or_else(|e| {
                out.errors
                    .push(format!("{}: cleaned CSV unreadable: {e}", t.stem));
                String::new()
            });
        out.outputs.push(format!("{deps}{check}{repair}{cleaned}"));
        for ext in ["pfds", "pfdi"] {
            out.stored_bytes +=
                std::fs::metadata(dir.join(format!("{}.{ext}", t.stem))).map_or(0, |m| m.len());
        }
    }
    out
}

/// Output quality of a finished pass, computed outside any timing.
pub struct Quality {
    /// Summed discovery true positives / discovered / ground truth over
    /// the twin tables with a ground truth.
    pub dep_tp: usize,
    pub dep_found: usize,
    pub dep_truth: usize,
    /// Cells where the dirty input differs from the clean twin.
    pub injected_errors: usize,
    /// Cells where the repaired table still differs from the clean twin.
    pub residual_errors: usize,
}

fn differing_cells(a: &Relation, b: &Relation) -> usize {
    let rows = a.num_rows().min(b.num_rows());
    let arity = a.schema().arity().min(b.schema().arity());
    let mut n = a.num_rows().abs_diff(b.num_rows()) * arity;
    for r in 0..rows {
        for c in 0..arity {
            let attr = pfd::relation::AttrId(c);
            if a.cell(r, attr) != b.cell(r, attr) {
                n += 1;
            }
        }
    }
    n
}

pub fn quality(w: &Workload, dir: &Path) -> Result<Quality, String> {
    let mut q = Quality {
        dep_tp: 0,
        dep_found: 0,
        dep_truth: 0,
        injected_errors: 0,
        residual_errors: 0,
    };
    for t in &w.tables {
        let read =
            |file: String| std::fs::read_to_string(dir.join(file)).map_err(|e| e.to_string());
        if let Some(i) = t.dataset {
            let rules = parse_rules(&read(format!("{}.pfd", t.stem))?, t.dirty.schema())
                .map_err(|e| e.to_string())?;
            let name =
                |a: &pfd::relation::AttrId| t.dirty.schema().name_of(*a).unwrap_or("?").to_string();
            let found: Vec<GroundTruthDep> = rules
                .iter()
                .flat_map(|p| {
                    let lhs: Vec<String> = p.lhs().iter().map(name).collect();
                    p.rhs()
                        .iter()
                        .map(|b| {
                            let lhs: Vec<&str> = lhs.iter().map(String::as_str).collect();
                            GroundTruthDep::new(&lhs, &name(b))
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let eval = evaluate_dependencies(&w.suite[i], &found);
            q.dep_tp += eval.true_positives;
            q.dep_found += eval.discovered;
            q.dep_truth += eval.ground_truth;
        }
        let cleaned = read_csv(&t.stem, read(format!("{}.clean.csv", t.stem))?.as_bytes())
            .map_err(|e| e.to_string())?;
        q.injected_errors += differing_cells(&t.dirty, &t.clean);
        q.residual_errors += differing_cells(&cleaned, &t.clean);
    }
    Ok(q)
}

/// Counts and phase totals of one traced pass.
#[derive(Default)]
pub struct BatchTrace {
    pub outputs: Vec<String>,
    pub index_entries: usize,
    pub candidates_checked: usize,
    pub entries_tested: usize,
    pub rhs_decisions: usize,
    pub rhs_cache_hits: usize,
    pub warm_runs: usize,
    pub warm_hits: usize,
    /// Σ over check rules of tableau rows × relation rows.
    pub tableau_row_scans: usize,
    pub detect_flags: usize,
    pub repair_passes: usize,
    pub repair_fixes: usize,
    pub errors: Vec<String>,
}

fn load_relation(path: &Path) -> Relation {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table");
    let file = std::fs::File::open(path).expect("benchmark input exists");
    read_csv(stem, std::io::BufReader::new(file)).expect("benchmark input parses")
}

fn load_rules(path: &Path, rel: &Relation) -> Vec<Pfd> {
    let text = std::fs::read_to_string(path).expect("rule file exists");
    parse_rules(&text, rel.schema()).expect("rule file parses")
}

/// Attach the phases `discover` timed itself as children of the open span,
/// laid end to end from `at` (a warm start loads its index first).
fn discovery_phases(tr: &mut Tracer, at: Instant, r: &DiscoveryResult) {
    let s = &r.stats;
    let mut t = at;
    for (name, len) in [
        ("discovery.warm_load", s.index_load_time),
        ("discovery.profile", s.profile_time),
        ("discovery.index", s.index_time),
        ("discovery.check", s.check_time),
    ] {
        if len > Duration::ZERO {
            tr.phase(name, t, len);
            t += len;
        }
    }
}

/// What `pfd discover` prints and writes after discovery.
fn discover_output(
    tr: &mut Tracer,
    rel: &Relation,
    r: &DiscoveryResult,
    rules: Option<&Path>,
) -> String {
    tr.span("cli.output", 0, |_| {
        let mut text = String::new();
        for dep in &r.dependencies {
            text.push_str(&format!(
                "  {}\n",
                display_with_schema(&dep.pfd, rel.schema())
            ));
        }
        if let Some(path) = rules {
            let pfds: Vec<Pfd> = r.dependencies.iter().map(|d| d.pfd.clone()).collect();
            std::fs::write(path, to_rules_string(&pfds, rel.schema())).expect("write rules");
        }
        text
    })
}

/// Replay one pass's batch commands as library calls inside spans. Every
/// command is a root span `cmd.*`; its children are the layer calls.
pub fn traced(w: &Workload, dir: &Path, tr: &mut Tracer) -> BatchTrace {
    let mut out = BatchTrace::default();
    let config = DiscoveryConfig::default();
    for t in &w.tables {
        let csv = dir.join(format!("{}.csv", t.stem));
        let deps = tr.span("cmd.discover", 0, |tr| {
            let rel = tr.span("relation.csv_read", 0, |_| load_relation(&csv));
            let r = tr.span("discovery.discover", 0, |tr| {
                let at = Instant::now();
                let r = discover(&rel, &config);
                discovery_phases(tr, at, &r);
                r
            });
            out.index_entries += r.stats.index_entries;
            out.candidates_checked += r.stats.candidates_checked;
            out.entries_tested += r.stats.entries_tested;
            out.rhs_decisions += r.stats.rhs_decisions;
            out.rhs_cache_hits += r.stats.rhs_cache_hits;
            discover_output(tr, &rel, &r, Some(&dir.join(format!("{}.pfd", t.stem))))
        });
        let warm_deps = tr.span("cmd.rediscover", 0, |tr| {
            let snapshot = dir.join(format!("{}.pfds", t.stem));
            let (rel, meta) = tr.span("core.snapshot_load", 0, |_| {
                let bytes = std::fs::read(&snapshot).expect("snapshot exists");
                let (engine, meta) = load_from_bytes_with(&bytes).expect("snapshot loads");
                (engine.into_relation(), meta)
            });
            let index = SnapshotStore::new(&StdIo, &snapshot).index_path();
            let r = tr.span("discovery.discover", 0, |tr| {
                let at = Instant::now();
                let warm = discover_persistent(
                    &StdIo,
                    &index,
                    &rel,
                    &config,
                    meta.generation,
                    meta.last_seq,
                );
                discovery_phases(tr, at, &warm.result);
                warm.result
            });
            out.warm_runs += 1;
            out.warm_hits += usize::from(r.stats.index_loaded);
            discover_output(tr, &rel, &r, None)
        });
        if deps != warm_deps {
            out.errors.push(format!(
                "{}: traced warm and cold dependencies differ",
                t.stem
            ));
        }
        let rules_path = dir.join(format!("{}.pfd", t.stem));
        let check = tr.span("cmd.check", 0, |tr| {
            let rel = tr.span("relation.csv_read", 0, |_| load_relation(&csv));
            let pfds = tr.span("core.rules_parse", 0, |_| load_rules(&rules_path, &rel));
            out.tableau_row_scans += pfds
                .iter()
                .map(|p| p.tableau().len() * rel.num_rows())
                .sum::<usize>();
            let engine = tr.span("core.engine_build", 0, |_| DeltaEngine::new(rel, pfds));
            let report = tr.span("core.detect", 0, |_| {
                detect_errors(engine.relation(), engine.pfds())
            });
            out.detect_flags += report.flags.len();
            tr.span("core.report_json", 0, |_| {
                format!("{}\n", check_report_json(&report, engine.relation()))
            })
        });
        let (repair, cleaned) = tr.span("cmd.repair", 0, |tr| {
            let rel = tr.span("relation.csv_read", 0, |_| load_relation(&csv));
            let pfds = tr.span("core.rules_parse", 0, |_| load_rules(&rules_path, &rel));
            let mut engine = tr.span("core.repair_build", 0, |_| {
                RepairEngine::new(
                    rel,
                    pfds,
                    RepairOptions {
                        max_passes: 10,
                        ..RepairOptions::default()
                    },
                )
            });
            let (outcome, passes) = tr.span("core.repair_chase", 0, |_| engine.run());
            out.repair_passes += passes;
            out.repair_fixes += outcome.fixes.len();
            let report = tr.span("core.report_json", 0, |_| {
                format!("{}\n", repair_outcome_json(&outcome, passes))
            });
            let cleaned = tr.span("relation.csv_write", 0, |_| {
                let csv = write_csv_string(&outcome.relation);
                std::fs::write(dir.join(format!("{}.clean.csv", t.stem)), &csv)
                    .expect("write cleaned CSV");
                csv
            });
            (report, cleaned)
        });
        out.outputs.push(format!("{deps}{check}{repair}{cleaned}"));
    }
    out
}
