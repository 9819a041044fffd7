//! Workload definitions and set-up: everything the program later sees is
//! generated here from the seed and written as CSV, rule, snapshot and
//! JSONL-command inputs.

use crate::sys::Rng;
use pfd::core::session::json;
use pfd::core::{load_from_bytes, DeltaEngine, SnapshotMeta, SnapshotStore};
use pfd::datagen::{
    dirty_clean_pair, geo_cascade_table, standard_suite, Dataset, ErrorProfile, Scale,
};
use pfd::relation::{write_csv_string, AttrId, Relation, StdIo};
use std::path::Path;

/// The two workloads. Every pass of every workload runs the same user
/// commands — `discover`, warm re-`discover`, `check`, `repair`, then a
/// durable `serve` stream — so every end-to-end metric exists on every
/// workload; the inputs decide which layer dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 15 synthetic twin tables: discovery-dominated.
    Suite,
    /// Four geo-cascade tables whose discovered rules carry hundreds of
    /// constant tableau rows: check/repair-dominated.
    Geo,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "suite_discover" => Some(Kind::Suite),
            "geo_clean" => Some(Kind::Geo),
            _ => None,
        }
    }

    /// Serve-phase shape: (open-loop rate in commands/s, open-loop
    /// commands, saturated-phase commands). The rate is a constant, a
    /// quarter to a third of the saturated throughput measured on a 2-vCPU
    /// host (suite ~2.7k/s, geo ~2.3k/s). Slower rates
    /// measured worse, not better: with longer gaps the idle worker's vCPU
    /// halts, and waking it costs hundreds of microseconds on a busy host
    /// (p50 rose from ~0.2 ms to ~0.6 ms at a sixth of saturation).
    fn serve_shape(self) -> (f64, usize, usize) {
        match self {
            Kind::Suite => (600.0, 300, 2_000),
            Kind::Geo => (800.0, 400, 1_600),
        }
    }
}

/// `geo_clean` tables and their rows. Check cost grows roughly
/// quadratically with rows (3-4 s at 10k, 10-12 s at 20k on a 2-vCPU
/// host) and a run must repeat its pass several times, so the workload is
/// four 2k-row tables — the same tableau-scan work as one 4k table, with
/// less of the cost riding on one seed's discovered rules.
pub const GEO_TABLES: usize = 4;
pub const GEO_ROWS: usize = 2_000;
/// Rate of correlated errors injected into city/county/state/region.
const GEO_ERROR_RATE: f64 = 0.005;

/// One table the batch commands run on.
pub struct Table {
    /// File stem of its CSV, rule and snapshot files.
    pub stem: String,
    /// The dirty input, as written to `<stem>.csv`.
    pub dirty: Relation,
    /// The clean twin (for residual errors).
    pub clean: Relation,
    /// Index into [`Workload::suite`] for ground-truth dependencies.
    pub dataset: Option<usize>,
}

/// One durable-server tenant, in its set-up state.
pub struct Tenant {
    pub name: String,
    pub engine: DeltaEngine,
}

/// One serve command.
pub struct Cmd {
    pub tenant: usize,
    pub line: String,
    /// A read-only `check`: answered by a `state` event, never logged.
    pub read: bool,
}

pub struct Workload {
    pub suite: Vec<Dataset>,
    pub tables: Vec<Table>,
    pub tenants: Vec<Tenant>,
    pub open_loop: Vec<Cmd>,
    pub saturated: Vec<Cmd>,
    pub rate: f64,
}

impl Workload {
    pub fn batch_rows(&self) -> usize {
        self.tables.iter().map(|t| t.dirty.num_rows()).sum()
    }

    pub fn tenant_rows(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.engine.relation().num_rows())
            .sum()
    }
}

fn geo_pair(rows: usize, seed: u64) -> (Relation, Relation) {
    let clean = geo_cascade_table(rows, seed);
    let schema = clean.schema();
    let attrs: Vec<AttrId> = ["city", "county", "state", "region"]
        .iter()
        .map(|a| schema.attr(a).expect("geo_cascade column"))
        .collect();
    let profile = ErrorProfile::correlated(&attrs, GEO_ERROR_RATE);
    let (dirty, _) = dirty_clean_pair(&clean, &profile, seed.wrapping_add(13));
    (dirty, clean)
}

fn cli(args: &[String]) -> Result<(), String> {
    let mut out = Vec::new();
    match pfd::cli::run(args, &mut out) {
        // `check` exits 1 on dirty data.
        Ok(0 | 1) => Ok(()),
        Ok(code) => Err(format!("{args:?} exited {code}")),
        Err(e) => Err(format!("{args:?}: {e}")),
    }
}

fn path_arg(dir: &Path, file: &str) -> String {
    dir.join(file).to_string_lossy().into_owned()
}

/// Generate the workload for `seed` and write its inputs under `dir`:
/// `<stem>.csv` per table, `<stem>.pfds` + `<stem>.pfdi` from one cold
/// `pfd discover --snapshot`, and one snapshot family per tenant under
/// `dir/serve/<tenant>/`.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Workload, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut suite = Vec::new();
    let mut tables = Vec::new();
    match kind {
        Kind::Suite => {
            suite = standard_suite(Scale::Small, 0.01, seed);
            for (i, ds) in suite.iter().enumerate() {
                tables.push(Table {
                    stem: format!("t{:02}", i + 1),
                    dirty: ds.dirty.clone(),
                    clean: ds.clean.clone(),
                    dataset: Some(i),
                });
            }
        }
        Kind::Geo => {
            for i in 0..GEO_TABLES {
                let (dirty, clean) = geo_pair(
                    GEO_ROWS,
                    seed.wrapping_mul(GEO_TABLES as u64).wrapping_add(i as u64),
                );
                tables.push(Table {
                    stem: format!("geo{i}"),
                    dirty,
                    clean,
                    dataset: None,
                });
            }
        }
    }

    for t in &tables {
        let write = |file: String, text: &str| {
            std::fs::write(dir.join(file), text).map_err(|e| e.to_string())
        };
        let csv = path_arg(dir, &format!("{}.csv", t.stem));
        let snapshot = path_arg(dir, &format!("{}.pfds", t.stem));
        write(format!("{}.csv", t.stem), &write_csv_string(&t.dirty))?;
        // The snapshot holds the engine under the discovered rules, which
        // `discover --snapshot` writes beside the .pfdi index.
        cli(&[
            "discover".to_string(),
            csv,
            "--snapshot".to_string(),
            snapshot,
            "--rules".to_string(),
            path_arg(dir, &format!("{}.pfd", t.stem)),
        ])?;
    }

    // Tenants start from the engines the snapshots hold.
    let tenants: Vec<Tenant> = tables
        .iter()
        .map(|t| {
            let bytes =
                std::fs::read(dir.join(format!("{}.pfds", t.stem))).map_err(|e| e.to_string())?;
            Ok(Tenant {
                name: t.stem.clone(),
                engine: load_from_bytes(&bytes).map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<_, String>>()?;
    for t in &tenants {
        let family = dir.join("serve").join(&t.name);
        std::fs::create_dir_all(&family).map_err(|e| e.to_string())?;
        SnapshotStore::new(&StdIo, family.join("state.pfds"))
            .checkpoint(
                &t.engine,
                SnapshotMeta {
                    generation: 1,
                    last_seq: 0,
                },
            )
            .map_err(|e| e.to_string())?;
    }

    let (rate, n_open, n_saturated) = kind.serve_shape();
    let mut rng = Rng::new(seed);
    let mut dirty = vec![Vec::new(); tenants.len()];
    let open_loop = stream(kind, &tenants, &mut rng, &mut dirty, n_open, 0);
    let saturated = stream(kind, &tenants, &mut rng, &mut dirty, n_saturated, n_open);
    Ok(Workload {
        suite,
        tables,
        tenants,
        open_loop,
        saturated,
        rate,
    })
}

/// A serve command stream: 10% `check` reads, 10% `insert`s copying an
/// existing row, 80% `set`s. A set either writes a value new to its
/// column (an incoming error) or, half the time when the tenant has one,
/// restores a cell an earlier set dirtied (a steward's fix) — so the
/// violation set, which every `check` read serializes, stays near its
/// initial size instead of growing through the run. Geo tenants edit
/// `city` (new city values feed the zip-prefix key); suite tenants edit
/// any column.
///
/// `dirty` holds, per tenant, the cells dirtied so far and not yet
/// restored, with their set-up values.
fn stream(
    kind: Kind,
    tenants: &[Tenant],
    rng: &mut Rng,
    dirty: &mut [Vec<(usize, AttrId, String)>],
    n: usize,
    first_id: usize,
) -> Vec<Cmd> {
    (first_id..first_id + n)
        .map(|id| {
            let tenant = rng.below(tenants.len());
            let t = &tenants[tenant];
            let rel = t.engine.relation();
            let rows = rel.num_rows();
            let name = json::escaped(&t.name);
            let roll = rng.below(100);
            if roll < 10 {
                return Cmd {
                    tenant,
                    line: format!("{{\"tenant\":{name},\"op\":\"check\"}}"),
                    read: true,
                };
            }
            let line = if roll < 20 {
                let src = rng.below(rows);
                let cells: Vec<String> = rel.row(src).iter().map(json::escaped).collect();
                format!(
                    "{{\"tenant\":{name},\"op\":\"insert\",\"cells\":[{}]}}",
                    cells.join(",")
                )
            } else {
                let (row, attr, value) = match dirty[tenant].len() {
                    n if n > 0 && rng.below(2) == 0 => dirty[tenant].swap_remove(rng.below(n)),
                    _ => {
                        let row = rng.below(rows);
                        let attr = match kind {
                            Kind::Suite => AttrId(rng.below(rel.schema().arity())),
                            Kind::Geo => rel.schema().attr("city").expect("geo column"),
                        };
                        let original = rel.cell(row, attr).to_string();
                        if !dirty[tenant]
                            .iter()
                            .any(|(r, a, _)| (*r, *a) == (row, attr))
                        {
                            dirty[tenant].push((row, attr, original.clone()));
                        }
                        (row, attr, format!("{original} {id}"))
                    }
                };
                format!(
                    "{{\"tenant\":{name},\"op\":\"set\",\"row\":{row},\"attr\":{},\"value\":{}}}",
                    attr.0,
                    json::escaped(&value)
                )
            };
            Cmd {
                tenant,
                line,
                read: false,
            }
        })
        .collect()
}
