//! The durable-serve phase of one pass: `pfd_core::Server::durable` over a
//! `StdIo` root (every acknowledged command fsynced), one feeder thread and
//! one executor worker. Three phases: an open-loop stream at the
//! workload's fixed rate, a saturated backlog, then shutdown and a reopen
//! of every tenant from its snapshot family. [`traced`] replays one
//! tenant's stream solo through the layer calls inside spans.

use crate::sys::CountingIo;
use crate::trace::Tracer;
use crate::workload::{Cmd, Workload};
use pfd::core::server::NoProtocolOpens;
use pfd::core::session::{delta_json, ready_json};
use pfd::core::{
    parse_command, DeltaEngine, EventSink, RecoveryPolicy, RepairEngine, RepairOptions, Server,
    ServerOptions, SessionCommand, SnapshotStore,
};
use pfd::relation::wal::{SyncPolicy, WalWriter};
use pfd::relation::{write_csv_string, StdIo};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reopens per pass; `reopen_cpu_s` and `serve.reopen_s` are medians over
/// every reopen of a run.
const REOPENS: usize = 6;
/// Bursts the saturated phase is split into.
const SAT_BURSTS: usize = 8;
/// The open-loop feeder sleeps until this long before a command is due,
/// then spins: sleeping all the way overshoots by the timer slack (tens of
/// microseconds, varying with host load), which would count as latency.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);

/// Timestamps every event line as it is emitted (on the worker thread).
struct AckSink {
    events: Mutex<Vec<(Instant, String)>>,
    count: AtomicUsize,
}

impl AckSink {
    fn new(capacity: usize) -> Self {
        AckSink {
            events: Mutex::new(Vec::with_capacity(capacity)),
            count: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> Vec<(Instant, String)> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }
}

impl EventSink for AckSink {
    fn emit(&self, line: &str) {
        let at = Instant::now();
        self.events
            .lock()
            .expect("sink poisoned")
            .push((at, line.to_string()));
        self.count.fetch_add(1, Ordering::Release);
    }
}

/// `(tenant, seq, event)` of a tagged event line
/// `{"tenant":"t0","seq":7,"event":"delta",...}`; `None` for untagged
/// (global error) lines.
fn tag(line: &str) -> Option<(&str, u64, &str)> {
    let rest = line.strip_prefix("{\"tenant\":\"")?;
    let (tenant, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"seq\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let seq = rest[..digits].parse().ok()?;
    let after = rest.find("\"event\":\"")? + "\"event\":\"".len();
    let event = rest[after..].split('"').next()?;
    Some((tenant, seq, event))
}

fn options() -> ServerOptions {
    ServerOptions {
        workers: 1,
        ..ServerOptions::default()
    }
}

/// What one pass's serve phase produced.
#[derive(Default)]
pub struct ServeOut {
    /// Open-loop ack latencies from each command's scheduled send time, µs.
    pub latencies_us: Vec<f64>,
    /// Saturated-phase acknowledged commands per second, one per burst.
    pub burst_rates: Vec<f64>,
    /// Seconds of each reopen of every tenant after shutdown, wall and
    /// process CPU.
    pub reopens_s: Vec<f64>,
    pub reopens_cpu_s: Vec<f64>,
    /// Snapshot families + WAL bytes just before shutdown.
    pub stored_bytes: u64,
    pub stored_rows: usize,
    /// How far behind schedule the feeder sent, worst case, ms.
    pub gen_late_ms: f64,
    /// Max submitted − acknowledged during the open loop.
    pub backlog_max: usize,
    pub steals: usize,
    pub syncs: u64,
    pub bytes_written: u64,
    pub acked: usize,
    pub edits: usize,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Traced runs only: `SnapshotStore::recover` over every tenant after
    /// shutdown, and the bytes of the snapshots it read.
    pub recover_s: f64,
    pub snapshot_bytes: u64,
}

fn open_line(name: &str) -> String {
    format!("{{\"op\":\"open\",\"tenant\":\"{name}\"}}")
}

/// Open every tenant over the protocol. With `NoProtocolOpens` the only
/// way an open succeeds is recovery from the snapshot family on disk.
fn open_all(w: &Workload, server: &Server, sink: &AckSink, out: &mut ServeOut) {
    for t in &w.tenants {
        server.submit(&open_line(&t.name));
    }
    server.drain();
    let events = sink.take();
    let ready = events
        .iter()
        .filter(|(_, l)| matches!(tag(l), Some((_, _, "ready"))))
        .count();
    if ready != w.tenants.len() || events.len() != ready {
        out.failed += w.tenants.len().saturating_sub(ready).max(1);
        out.errors.push(format!(
            "open: {ready} of {} tenants ready; events {:?}",
            w.tenants.len(),
            events.iter().map(|(_, l)| l).collect::<Vec<_>>()
        ));
    }
}

/// Expected final relation of each tenant: its commands replayed solo
/// through `DeltaEngine::apply`, as CSV.
pub fn solo_replay(w: &Workload) -> Vec<String> {
    w.tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut engine = t.engine.clone();
            let schema = engine.relation().schema().clone();
            for cmd in w.open_loop.iter().chain(&w.saturated) {
                if cmd.tenant != i {
                    continue;
                }
                match parse_command(&cmd.line, &schema) {
                    Ok(SessionCommand::Single(edit)) => {
                        let _ = engine.apply(edit);
                    }
                    Ok(SessionCommand::Batch(edits)) => {
                        let _ = engine.apply_batch(&edits);
                    }
                    _ => {}
                }
            }
            write_csv_string(engine.relation())
        })
        .collect()
}

/// Match events to commands: per tenant, the k-th event answers the k-th
/// command submitted to it. Returns each command's ack instant.
fn match_acks(
    w: &Workload,
    cmds: &[Cmd],
    events: &[(Instant, String)],
    out: &mut ServeOut,
) -> Vec<Option<Instant>> {
    let mut per_tenant: Vec<Vec<(Instant, u64, &str)>> = vec![Vec::new(); w.tenants.len()];
    for (at, line) in events {
        let Some((tenant, seq, event)) = tag(line) else {
            out.failed += 1;
            out.errors.push(format!("untagged event: {line}"));
            continue;
        };
        match w.tenants.iter().position(|t| t.name == tenant) {
            Some(i) => per_tenant[i].push((*at, seq, event)),
            None => out.errors.push(format!("event for unknown tenant: {line}")),
        }
    }
    let mut next = vec![0usize; w.tenants.len()];
    let mut acks = Vec::with_capacity(cmds.len());
    for cmd in cmds {
        let k = next[cmd.tenant];
        next[cmd.tenant] += 1;
        let Some(&(at, seq, event)) = per_tenant[cmd.tenant].get(k) else {
            out.failed += 1;
            acks.push(None);
            continue;
        };
        if k > 0 && seq != per_tenant[cmd.tenant][k - 1].1 + 1 {
            out.errors.push(format!(
                "tenant {}: event seq {seq} out of order",
                w.tenants[cmd.tenant].name
            ));
        }
        let expected = if cmd.read { "state" } else { "delta" };
        if event != expected {
            out.failed += 1;
            if event != "error" {
                out.errors
                    .push(format!("{}: answered by {event:?}", cmd.line));
            }
        }
        acks.push(Some(at));
    }
    for (i, events) in per_tenant.iter().enumerate() {
        if events.len() != next[i] {
            out.errors.push(format!(
                "tenant {}: {} events for {} commands",
                w.tenants[i].name,
                events.len(),
                next[i]
            ));
        }
    }
    acks
}

/// Run the serve phase of one pass. `root` is a fresh copy of the set-up
/// snapshot families; `expected` is [`solo_replay`]'s output.
pub fn run(w: &Workload, root: &Path, expected: &[String], recover_trace: bool) -> ServeOut {
    let mut out = ServeOut::default();
    let io = Arc::new(CountingIo::default());
    let total = w.open_loop.len() + w.saturated.len();
    let sink = Arc::new(AckSink::new(total + w.tenants.len()));
    let server = Server::durable(
        io.clone(),
        root,
        options(),
        Arc::new(NoProtocolOpens),
        sink.clone(),
    );
    open_all(w, &server, &sink, &mut out);
    let (syncs0, bytes0) = io.counts();

    // Phase 1: open loop at the workload's fixed rate.
    let period = 1.0 / w.rate;
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut due = Vec::with_capacity(w.open_loop.len());
    let mut late = Duration::ZERO;
    let acked0 = sink.count.load(Ordering::Acquire);
    for (i, cmd) in w.open_loop.iter().enumerate() {
        let at = t0 + Duration::from_secs_f64(i as f64 * period);
        let now = Instant::now();
        if now + SPIN_BEFORE_DUE < at {
            std::thread::sleep(at - SPIN_BEFORE_DUE - now);
        }
        while Instant::now() < at {
            std::hint::spin_loop();
        }
        late = late.max(Instant::now().saturating_duration_since(at));
        server.submit(&cmd.line);
        due.push(at);
        let acked = sink.count.load(Ordering::Acquire) - acked0;
        out.backlog_max = out.backlog_max.max(i + 1 - acked.min(i + 1));
    }
    server.drain();
    let open_events = sink.take();

    // Phase 2: the saturated stream in bursts, each submitted back to
    // back and drained; one throughput sample per burst.
    let mut sat_events = Vec::with_capacity(w.saturated.len());
    for burst in w.saturated.chunks(w.saturated.len().div_ceil(SAT_BURSTS)) {
        crate::sys::probe();
        let start = Instant::now();
        for cmd in burst {
            server.submit(&cmd.line);
        }
        server.drain();
        let events = sink.take();
        let last = events.iter().map(|(at, _)| *at).max().unwrap_or(start);
        out.burst_rates
            .push(burst.len() as f64 / last.duration_since(start).as_secs_f64());
        sat_events.extend(events);
    }
    let (syncs1, bytes1) = io.counts();
    out.steals = server.executor_steals();

    let open_acks = match_acks(w, &w.open_loop, &open_events, &mut out);
    for (ack, at) in open_acks.iter().zip(&due) {
        if let Some(ack) = ack {
            out.latencies_us
                .push(ack.saturating_duration_since(*at).as_secs_f64() * 1e6);
        }
    }
    // The saturated phase continues each tenant's event numbering.
    let sat_acks = match_acks(w, &w.saturated, &sat_events, &mut out);
    out.gen_late_ms = late.as_secs_f64() * 1e3;
    out.attempted = total;
    out.acked = open_acks.iter().chain(&sat_acks).flatten().count();
    out.edits = w
        .open_loop
        .iter()
        .chain(&w.saturated)
        .filter(|c| !c.read)
        .count();
    out.syncs = syncs1 - syncs0;
    out.bytes_written = bytes1 - bytes0;
    out.stored_bytes = crate::sys::tree_bytes(root);

    // Phase 3: shutdown (final checkpoints), then reopen every tenant.
    let exits = server.shutdown();
    out.stored_rows = exits
        .iter()
        .filter_map(|e| e.relation.as_ref().map(|r| r.num_rows()))
        .sum();
    if exits.iter().any(|e| e.failed) {
        out.errors.push("a tenant failed at shutdown".to_string());
    }
    for r in 0..REOPENS {
        let sink = Arc::new(AckSink::new(w.tenants.len()));
        crate::sys::probe();
        let start = Instant::now();
        let cpu = crate::sys::process_cpu_s();
        let server = Server::durable(
            Arc::new(StdIo),
            root,
            options(),
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        open_all(w, &server, &sink, &mut out);
        out.reopens_s.push(start.elapsed().as_secs_f64());
        out.reopens_cpu_s.push(crate::sys::process_cpu_s() - cpu);
        if r == 0 {
            for (t, want) in w.tenants.iter().zip(expected) {
                let got = server
                    .relation_of(&t.name)
                    .map(|rel| write_csv_string(&rel));
                if got.as_deref() != Some(want.as_str()) {
                    out.errors.push(format!(
                        "tenant {}: reopened relation differs from the solo replay of its commands",
                        t.name
                    ));
                }
            }
        }
    }

    if recover_trace {
        for t in &w.tenants {
            let path = root.join(&t.name).join("state.pfds");
            out.snapshot_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            let store = SnapshotStore::new(&StdIo, path);
            let start = Instant::now();
            let recovered = store.recover(RecoveryPolicy::Strict, || {
                Err::<DeltaEngine, String>("no cold build".to_string())
            });
            out.recover_s += start.elapsed().as_secs_f64();
            if recovered.is_err() {
                out.errors
                    .push(format!("tenant {}: recover failed", t.name));
            }
        }
    }
    out
}

/// Replay tenant 0's commands solo: `parse_command` → `DeltaEngine::apply`
/// → `WalWriter::append` (fsync always, `StdIo` under `dir`) →
/// `delta_json` (or `ready_json`-shaped state for a read). One `serve.cmd`
/// root span per command, tagged with its command id.
pub fn traced(w: &Workload, dir: &Path, tr: &mut Tracer) {
    let tenant = &w.tenants[0];
    let schema = tenant.engine.relation().schema().clone();
    let mut repairer = RepairEngine::from_engine(tenant.engine.clone(), RepairOptions::default());
    std::fs::create_dir_all(dir).expect("trace WAL dir");
    let (mut wal, _) = WalWriter::open(&StdIo, &dir.join("t0.log"), 0, SyncPolicy::Always)
        .expect("open trace WAL");
    for (id, cmd) in w.open_loop.iter().chain(&w.saturated).enumerate() {
        if cmd.tenant != 0 {
            continue;
        }
        tr.span("serve.cmd", id as u64, |tr| {
            let parsed = tr.span("core.session_parse", id as u64, |_| {
                parse_command(&cmd.line, &schema)
            });
            match parsed {
                Ok(SessionCommand::Single(edit)) => {
                    let applied = tr.span("core.apply", id as u64, |_| {
                        repairer.engine_mut().apply(edit)
                    });
                    if let Ok(delta) = applied {
                        tr.span("relation.wal_append", id as u64, |_| {
                            wal.append(cmd.line.trim().as_bytes()).expect("WAL append")
                        });
                        tr.span("core.session_serialize", id as u64, |_| {
                            let v = repairer.engine().violation_count();
                            std::hint::black_box(delta_json(&delta, v, &schema))
                        });
                    }
                }
                Ok(SessionCommand::Check) => {
                    tr.span("core.session_serialize", id as u64, |_| {
                        std::hint::black_box(ready_json(&repairer))
                    });
                }
                _ => {}
            }
        });
    }
}
