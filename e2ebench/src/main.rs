//! End-to-end benchmark of the `pfd` commands a user runs: `discover`,
//! the warm `discover --snapshot`, `check`, `repair`, and commands
//! acknowledged durably by the multi-tenant server.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload suite_discover --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every run generates its inputs from `--seed` (set-up, repeated and
//! timed as `setup_s`), makes one untimed warm-up pass, then repeats
//! passes on fresh copies of the inputs for `--seconds` and reports
//! per-command medians. `--trace 1` alternates each untimed-code pass with
//! a traced replay of the same commands through the library's public
//! calls and reports the per-layer metrics instead. Outputs are checked
//! before anything is printed; the last stdout line is the JSON result,
//! and the exit code is non-zero when a check failed. See `LAYERS.md`.

mod batch;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use stats::{describe, median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Median probe time, seconds, of the nominal machine every time metric
/// is scaled to (about this host's median in a quiet stretch), so scaled
/// values stay close to the wall times measured.
const PROBE_NOMINAL_S: f64 = 0.014;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Traced layer time, summed over the run's traced passes, must account
/// for the untraced command wall time summed over its passes within this
/// share. Adjacent passes on a shared 2-vCPU host already differ by up to
/// ±25%, so a tighter tolerance would fail on noise; the replay's outputs
/// are separately checked to equal the CLI's.
const TRACE_TOLERANCE: f64 = 0.3;

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload suite_discover|geo_clean \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".e2ebench_tmp");
    let base = tmp.join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &base);
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir(&tmp);
    match result {
        Ok((json, correct)) => {
            println!("{json}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one untraced pass measured.
struct Pass {
    batch: batch::BatchOut,
    serve: serve::ServeOut,
}

fn fresh_copy(setup_dir: &Path, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    sys::copy_tree(setup_dir, dir).map_err(|e| format!("copy inputs: {e}"))
}

fn untraced_pass(
    w: &Workload,
    setup_dir: &Path,
    dir: &Path,
    expected: &[String],
    recover_trace: bool,
) -> Result<Pass, String> {
    fresh_copy(setup_dir, dir)?;
    let batch = batch::run(w, dir);
    let serve = serve::run(w, &dir.join("serve"), expected, recover_trace);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Pass { batch, serve })
}

struct Traced {
    tracer: trace::Tracer,
    batch: batch::BatchTrace,
}

fn traced_pass(w: &Workload, setup_dir: &Path, dir: &Path) -> Result<Traced, String> {
    fresh_copy(setup_dir, dir)?;
    let mut tracer = trace::Tracer::new();
    let batch = batch::traced(w, dir, &mut tracer);
    serve::traced(w, &dir.join("trace_wal"), &mut tracer);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Traced { tracer, batch })
}

/// Result-line JSON: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn run(args: &Args, base: &Path) -> Result<(String, bool), String> {
    let steal0 = sys::steal_ms();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for i in 0..SETUPS {
        let dir = base.join(format!("setup{i}"));
        sys::probe();
        let start = Instant::now();
        let w = workload::setup(args.kind, args.seed, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i == 0 {
            workload = Some(w);
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let w = workload.expect("at least one set-up");
    let setup_dir = base.join("setup0");
    let expected = serve::solo_replay(&w);

    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut tally = |p: &Pass, errors: &mut Vec<String>| {
        attempted += p.batch.attempted + p.serve.attempted;
        failed += p.batch.failed + p.serve.failed;
        errors.extend(p.batch.errors.iter().cloned());
        errors.extend(p.serve.errors.iter().cloned());
    };

    // Warm-up: untimed, but its outputs are the reference every later
    // pass must reproduce.
    let warm_dir = base.join("warmup");
    fresh_copy(&setup_dir, &warm_dir)?;
    let warm_batch = batch::run(&w, &warm_dir);
    let quality = batch::quality(&w, &warm_dir)?;
    let warm_serve = serve::run(&w, &warm_dir.join("serve"), &expected, false);
    let _ = std::fs::remove_dir_all(&warm_dir);
    let warm = Pass {
        batch: warm_batch,
        serve: warm_serve,
    };
    tally(&warm, &mut errors);
    let reference = warm.batch.outputs.clone();

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // Stop at the pass boundary nearest to `--seconds`.
    let start = Instant::now();
    let mut last_pass = 0.0;
    while passes.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() + last_pass / 2.0 < args.seconds
    {
        let pass_start = Instant::now();
        let n = passes.len() + 1;
        let p = untraced_pass(
            &w,
            &setup_dir,
            &base.join(format!("pass{n}")),
            &expected,
            args.trace,
        )?;
        if p.batch.outputs != reference {
            errors.push(format!(
                "pass {n}: batch outputs differ from the warm-up pass"
            ));
        }
        tally(&p, &mut errors);
        passes.push(p);
        if args.trace {
            let t = traced_pass(&w, &setup_dir, &base.join(format!("traced{n}")))?;
            if t.batch.outputs != reference {
                errors.push(format!(
                    "traced pass {n}: replayed outputs differ from the CLI's"
                ));
            }
            errors.extend(t.batch.errors.iter().cloned());
            traced.push(t);
        }
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    let steal = sys::steal_ms() - steal0;

    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"merge_kernel\": \"{}\", \"rustc\": \"{}\", \"setups\": {}, \
         \"passes\": {}, \"batch_tables\": {}, \"batch_rows\": {}, \"tenants\": {}, \
         \"tenant_rows\": {}, \"serve_rate_per_s\": {}, \"open_loop_cmds\": {}, \
         \"saturated_cmds\": {}, \"machine_steal_ms\": {steal}, \"warm_hits\": {}, \
         \"dep_true_positives\": {}, \"dep_discovered\": {}, \"dep_ground_truth\": {}, \
         \"dep_precision\": {:.4}, \"dep_recall\": {:.4}, \"injected_errors\": {}, \
         \"residual_errors\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        pfd::relation::kernels::merge_kernel_name(),
        env!("E2E_RUSTC_VERSION"),
        SETUPS,
        passes.len(),
        w.tables.len(),
        w.batch_rows(),
        w.tenants.len(),
        w.tenant_rows(),
        w.rate,
        w.open_loop.len(),
        w.saturated.len(),
        warm.batch.warm_hits,
        quality.dep_tp,
        quality.dep_found,
        quality.dep_truth,
        if quality.dep_found > 0 {
            quality.dep_tp as f64 / quality.dep_found as f64
        } else {
            0.0
        },
        if quality.dep_truth > 0 {
            quality.dep_tp as f64 / quality.dep_truth as f64
        } else {
            0.0
        },
        quality.injected_errors,
        quality.residual_errors,
    );
    println!("{meta}");

    // Batch times pool every round of every pass.
    let rounds = |k: usize| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.batch.rounds[k].iter().copied())
            .collect()
    };
    // Serve samples pool every pass's bursts, reopens and acks.
    let pooled = |f: &dyn Fn(&Pass) -> &[f64]| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let latencies = pooled(&|p| &p.serve.latencies_us);
    let burst_rates = pooled(&|p| &p.serve.burst_rates);
    let reopens = pooled(&|p| &p.serve.reopens_s);
    let last = passes.last().expect("at least one pass");
    let mut correct = errors.is_empty() && failed == 0;

    let metrics: Vec<(String, f64, &str)> = if !args.trace {
        // Machine speed over the run against the nominal machine: below 1
        // in a slow stretch. Every time metric is multiplied by it.
        let probes = sys::probes();
        let speed = PROBE_NOMINAL_S / median(&probes);
        println!("{} speed={speed:.4}", describe("probe_s", "s", &probes));
        let series: Vec<(&str, &str, Vec<f64>)> = vec![
            ("setup_s", "s", setup_s.clone()),
            ("discover_s", "s", rounds(0)),
            ("rediscover_s", "s", rounds(1)),
            ("check_s", "s", rounds(2)),
            ("repair_s", "s", rounds(3)),
            ("reopen_cpu_s", "s", pooled(&|p| &p.serve.reopens_cpu_s)),
        ];
        // Serve wall times: printed, but not end-to-end metrics (see
        // LAYERS.md, "Noise and bounds").
        let unbounded: Vec<(&str, &str, Vec<f64>)> = vec![
            ("edits_per_s", "1/s", burst_rates),
            ("reopen_s", "s", reopens),
            ("ack_latency_us", "us", latencies),
        ];
        // Summary lines give the wall (or CPU) times as measured.
        for (name, unit, values) in series.iter().chain(&unbounded) {
            println!("{}", describe(name, unit, values));
        }
        let stored = (last.batch.stored_bytes + last.serve.stored_bytes) as f64
            / (w.batch_rows() + last.serve.stored_rows) as f64;
        let mut m: Vec<(String, f64, &str)> = series
            .into_iter()
            .map(|(name, unit, values)| (name.to_string(), median(&values) * speed, unit))
            .collect();
        m.push(("stored_bytes_per_row".into(), stored, "B/row"));
        m.push(("peak_rss_mb".into(), sys::peak_rss_mb(), "MB"));
        m
    } else {
        let (m, ok) = layer_metrics(&w, &passes, &traced, &latencies, steal);
        correct &= ok;
        write_spans(args, &traced);
        m
    };
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    // A metric without samples is a benchmark bug; JSON has no NaN.
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            eprintln!("check failed: metric {name} has no finite value");
            correct = false;
        }
    }
    Ok((result_json(correct, attempted, failed, &metrics), correct))
}

/// Write the last traced pass's spans as JSONL under `.e2ebench_trace/`.
fn write_spans(args: &Args, traced: &[Traced]) {
    let Some(t) = traced.last() else { return };
    let dir = Path::new(".e2ebench_trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.tracer.to_jsonl()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The per-layer metrics of a traced run, printed as a table with sample
/// counts, plus whether the layer times accounted for the untraced wall.
fn layer_metrics(
    w: &Workload,
    passes: &[Pass],
    traced: &[Traced],
    latencies: &[f64],
    steal_ms: f64,
) -> (Vec<(String, f64, &'static str)>, bool) {
    let self_times: Vec<BTreeMap<&str, (Duration, usize)>> =
        traced.iter().map(|t| t.tracer.self_times()).collect();
    let layer_s = |name: &str| -> Vec<f64> {
        self_times
            .iter()
            .map(|st| st.get(name).map_or(0.0, |(d, _)| secs(*d)))
            .collect()
    };
    let per_cmd_us = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|t| t.tracer.durations(name))
            .map(|s| s * 1e6)
            .collect()
    };
    let tcount = |f: &dyn Fn(&batch::BatchTrace) -> f64| -> Vec<f64> {
        traced.iter().map(|t| f(&t.batch)).collect()
    };
    let pcol = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let pooled = |f: &dyn Fn(&Pass) -> &[f64]| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };

    // Untraced batch wall vs the traced replay, pass by pass.
    let untraced_wall = pcol(&|p| (0..4).map(|k| p.batch.step_s(k)).sum());
    let traced_wall: Vec<f64> = traced
        .iter()
        .map(|t| secs(t.tracer.root_time("cmd.")))
        .collect();
    let glue: Vec<f64> = self_times
        .iter()
        .map(|st| {
            st.iter()
                .filter(|(name, _)| name.starts_with("cmd."))
                .map(|(_, (d, _))| secs(*d))
                .sum()
        })
        .collect();
    // Pass by pass for the printout; summed over the run for the check,
    // so that no single pair of adjacent passes decides it.
    let share: Vec<f64> = (0..traced.len())
        .map(|i| (traced_wall[i] - glue[i]) / untraced_wall[i])
        .collect();
    let sum = |v: &[f64]| -> f64 { v.iter().sum() };
    let run_share = (sum(&traced_wall) - sum(&glue)) / sum(&untraced_wall[..traced.len()]);
    let overhead: Vec<f64> = (0..traced.len())
        .map(|i| traced_wall[i] - untraced_wall[i])
        .collect();
    for (name, untraced) in [
        ("cmd.discover", pcol(&|p| p.batch.step_s(0))),
        ("cmd.rediscover", pcol(&|p| p.batch.step_s(1))),
        ("cmd.check", pcol(&|p| p.batch.step_s(2))),
        ("cmd.repair", pcol(&|p| p.batch.step_s(3))),
    ] {
        let traced_s: Vec<f64> = traced
            .iter()
            .map(|t| secs(t.tracer.root_time(name)))
            .collect();
        println!(
            "{name:<16} untraced median={:.6} s, traced replay median={:.6} s",
            median(&untraced),
            median(&traced_s)
        );
    }
    println!(
        "{}",
        describe("trace.layer_share per pass", "ratio", &share)
    );
    let ok = (run_share - 1.0).abs() <= TRACE_TOLERANCE;
    if !ok {
        eprintln!(
            "check failed: traced layer time is {run_share:.3} of the untraced wall \
             (tolerance ±{TRACE_TOLERANCE})"
        );
    }

    let solo_us = per_cmd_us("serve.cmd");
    let ack_p50 = percentile(latencies, 0.5);
    let queue: Vec<f64> = vec![ack_p50 - median(&solo_us)];
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let series: Vec<(&str, &'static str, Vec<f64>)> = vec![
        ("relation.csv_read_s", "s", layer_s("relation.csv_read")),
        ("relation.csv_write_s", "s", layer_s("relation.csv_write")),
        ("discovery.profile_s", "s", layer_s("discovery.profile")),
        ("discovery.index_s", "s", layer_s("discovery.index")),
        (
            "discovery.index_entries",
            "count",
            tcount(&|b| b.index_entries as f64),
        ),
        ("discovery.check_s", "s", layer_s("discovery.check")),
        (
            "discovery.candidates_checked",
            "count",
            tcount(&|b| b.candidates_checked as f64),
        ),
        (
            "discovery.entries_tested",
            "count",
            tcount(&|b| b.entries_tested as f64),
        ),
        (
            "discovery.rhs_cache_hit_ratio",
            "ratio",
            tcount(&|b| ratio(b.rhs_cache_hits, b.rhs_decisions)),
        ),
        ("discovery.warm_load_s", "s", layer_s("discovery.warm_load")),
        (
            "discovery.warm_hit_ratio",
            "ratio",
            tcount(&|b| ratio(b.warm_hits, b.warm_runs)),
        ),
        ("discovery.other_s", "s", layer_s("discovery.discover")),
        ("core.snapshot_load_s", "s", layer_s("core.snapshot_load")),
        ("core.rules_parse_s", "s", layer_s("core.rules_parse")),
        ("core.engine_build_s", "s", layer_s("core.engine_build")),
        ("core.detect_s", "s", layer_s("core.detect")),
        (
            "core.tableau_row_scans",
            "count",
            tcount(&|b| b.tableau_row_scans as f64),
        ),
        (
            "core.detect_flags",
            "count",
            tcount(&|b| b.detect_flags as f64),
        ),
        ("core.repair_build_s", "s", layer_s("core.repair_build")),
        ("core.repair_chase_s", "s", layer_s("core.repair_chase")),
        (
            "core.repair_passes",
            "count",
            tcount(&|b| b.repair_passes as f64),
        ),
        (
            "core.repair_fixes",
            "count",
            tcount(&|b| b.repair_fixes as f64),
        ),
        ("core.report_json_s", "s", layer_s("core.report_json")),
        ("cli.output_s", "s", layer_s("cli.output")),
        (
            "core.session_parse_us",
            "us",
            per_cmd_us("core.session_parse"),
        ),
        ("core.apply_us", "us", per_cmd_us("core.apply")),
        (
            "relation.wal_append_us",
            "us",
            per_cmd_us("relation.wal_append"),
        ),
        (
            "core.session_serialize_us",
            "us",
            per_cmd_us("core.session_serialize"),
        ),
        (
            "relation.fsyncs_per_ack",
            "ratio",
            pcol(&|p| ratio(p.serve.syncs as usize, p.serve.acked)),
        ),
        (
            "relation.bytes_written_per_edit",
            "B",
            pcol(&|p| ratio(p.serve.bytes_written as usize, p.serve.edits)),
        ),
        ("core.snapshot_recover_s", "s", pcol(&|p| p.serve.recover_s)),
        (
            "core.snapshot_bytes",
            "B",
            pcol(&|p| p.serve.snapshot_bytes as f64),
        ),
        (
            "serve.edits_per_s",
            "1/s",
            pooled(&|p| &p.serve.burst_rates),
        ),
        ("serve.reopen_s", "s", pooled(&|p| &p.serve.reopens_s)),
        ("serve.ack_p50_us", "us", vec![ack_p50]),
        ("serve.ack_p99_us", "us", vec![percentile(latencies, 0.99)]),
        ("core.server_queue_us", "us", queue),
        (
            "core.server_backlog_max",
            "count",
            pcol(&|p| p.serve.backlog_max as f64),
        ),
        (
            "runtime.executor_steals",
            "count",
            pcol(&|p| p.serve.steals as f64),
        ),
        ("bench.gen_late_ms", "ms", pcol(&|p| p.serve.gen_late_ms)),
        ("machine.steal_ms", "ms", vec![steal_ms]),
        (
            "machine.probe_ms",
            "ms",
            sys::probes().iter().map(|s| s * 1e3).collect(),
        ),
        ("trace.layer_share", "ratio", vec![run_share]),
        ("trace.overhead_s", "s", overhead),
    ];
    println!(
        "per-layer table ({} traced passes, {} tenant-0 commands replayed per pass, {} tables):",
        traced.len(),
        solo_us.len() / traced.len().max(1),
        w.tables.len()
    );
    for (name, unit, values) in &series {
        println!("  {}", describe(name, unit, values));
    }
    let metrics = series
        .into_iter()
        .map(|(name, unit, values)| (name.to_string(), median(&values), unit))
        .collect();
    (metrics, ok)
}
