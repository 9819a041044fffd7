//! Property tests pinning the key-memo tableau evaluation to a naive,
//! string-keyed oracle: every grouping question (violations, satisfaction,
//! audit, support, coverage, the delta engine's cached state) must answer
//! exactly as a per-row pattern match with `BTreeMap<Vec<String>, _>`
//! grouping does — same violations in the same order, same group
//! statistics, same majority tie-break.
//!
//! Each case is generated from one `u64` seed with a local SplitMix64, so a
//! failure report's `input` line is the seed that reproduces it. Relations
//! are small with colliding values (majority ties, multi-row groups),
//! PFDs mix multi-attribute LHS and RHS with wildcard, constant and
//! variable cells, the relation carries dead vocabulary left by overwrites,
//! and edit scripts write values the relation has never seen.

use pfd_core::{load_from_bytes, save_to_bytes, DeltaEngine, Edit, Pfd, TableauRow};
use pfd_core::{ViolationDelta, ViolationKind};
use pfd_relation::{AttrId, Relation, RowId, Schema};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: the generator behind every case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const ARITY: usize = 4;

/// Values the relation starts with: shared prefixes and suffixes so
/// variable cells collide, plus a multi-byte value and the empty string.
const VALUES: &[&str] = &["x1", "x2", "x12", "y1", "y2", "xy", "1", "", "é1"];

/// Values edits may write, including ones absent from [`VALUES`] (new
/// vocabulary the memo must extend to).
const NEW_VALUES: &[&str] = &["x1", "y2", "x9", "y12", "z", "x", "é2", "21"];

/// Tableau cells: the wildcard, constants, variable prefixes and suffixes,
/// and constant constrained parts with non-empty pre/post segments.
const CELLS: &[&str] = &[
    "_",
    "x1",
    "y2",
    r"[x]\A*",
    r"[y]\A*",
    r"[\LL]\A*",
    r"\LL*[\D]",
    r"\A*[1]",
    r"[\A]\A*",
    r"\LL[1]\D*",
    r"[x]\D",
    r"[\A\A]",
];

fn relation(rng: &mut Rng) -> Relation {
    let mut rel = Relation::empty(Schema::new("R", ["a", "b", "c", "d"]).unwrap());
    for _ in 0..rng.below(14) {
        let row = (0..ARITY).map(|_| rng.pick(VALUES).to_string()).collect();
        rel.push_row(row).unwrap();
    }
    // Overwrites strand vocabulary entries no live cell references.
    for _ in 0..rng.below(5) {
        if rel.num_rows() > 0 {
            let row = rng.below(rel.num_rows());
            let attr = AttrId(rng.below(ARITY));
            rel.set_cell(row, attr, rng.pick(NEW_VALUES).to_string())
                .unwrap();
        }
    }
    rel
}

fn pfd(rng: &mut Rng) -> Pfd {
    let mut attrs: Vec<usize> = (0..ARITY).collect();
    for i in (1..ARITY).rev() {
        attrs.swap(i, rng.below(i + 1));
    }
    let nl = 1 + usize::from(rng.below(5) < 2);
    let nr = 1 + usize::from(rng.below(4) == 0);
    let lhs: Vec<AttrId> = attrs[..nl].iter().map(|&a| AttrId(a)).collect();
    let rhs: Vec<AttrId> = attrs[nl..nl + nr].iter().map(|&a| AttrId(a)).collect();
    let rows = (0..1 + rng.below(3))
        .map(|_| {
            let l: Vec<&str> = (0..nl).map(|_| rng.pick(CELLS)).collect();
            let r: Vec<&str> = (0..nr).map(|_| rng.pick(CELLS)).collect();
            TableauRow::parse(&l, &r).unwrap()
        })
        .collect();
    Pfd::new("R", lhs, rhs, rows).unwrap()
}

fn pfds(rng: &mut Rng) -> Vec<Pfd> {
    (0..1 + rng.below(3)).map(|_| pfd(rng)).collect()
}

/// One random edit valid against `num_rows`.
fn edit(rng: &mut Rng, num_rows: usize) -> Edit {
    match rng.below(6) {
        0 => Edit::Insert {
            cells: (0..ARITY)
                .map(|_| rng.pick(NEW_VALUES).to_string())
                .collect(),
        },
        1 if num_rows > 0 => Edit::Delete {
            row: rng.below(num_rows),
        },
        _ if num_rows > 0 => Edit::Set {
            row: rng.below(num_rows),
            attr: AttrId(rng.below(ARITY)),
            value: rng.pick(NEW_VALUES).to_string(),
        },
        _ => Edit::Insert {
            cells: (0..ARITY).map(|_| rng.pick(VALUES).to_string()).collect(),
        },
    }
}

fn rows_after(edit: &Edit, num_rows: usize) -> usize {
    match edit {
        Edit::Insert { .. } => num_rows + 1,
        Edit::Delete { .. } => num_rows - 1,
        Edit::Set { .. } => num_rows,
    }
}

// ---------------------------------------------------------------------------
// String-keyed oracle: per-row pattern matching, `Vec<String>` keys,
// `BTreeMap` grouping.
// ---------------------------------------------------------------------------

/// A violation as plain data: (tableau row, kind, attr, rows, cells, group
/// size, majority size).
type Flat = (
    usize,
    u8,
    AttrId,
    Vec<RowId>,
    Vec<(RowId, AttrId)>,
    usize,
    usize,
);

fn flat(v: &pfd_core::Violation) -> Flat {
    let kind = match v.kind {
        ViolationKind::SingleTuple => 0,
        ViolationKind::TuplePair => 1,
    };
    (
        v.tableau_row,
        kind,
        v.attr,
        v.rows().to_vec(),
        v.cells().to_vec(),
        v.group_size(),
        v.majority_size(),
    )
}

fn lhs_key(pfd: &Pfd, rel: &Relation, rid: RowId, row: &TableauRow) -> Option<Vec<String>> {
    pfd.lhs()
        .iter()
        .zip(&row.lhs)
        .map(|(a, cell)| cell.key(rel.cell(rid, *a)).map(str::to_string))
        .collect()
}

fn groups(pfd: &Pfd, rel: &Relation, row: &TableauRow) -> BTreeMap<Vec<String>, Vec<RowId>> {
    let mut groups: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
    for rid in 0..rel.num_rows() {
        if let Some(key) = lhs_key(pfd, rel, rid, row) {
            groups.entry(key).or_default().push(rid);
        }
    }
    groups
}

/// RHS decision of one group: single-tuple failures (with the first
/// failing attribute), the matching-row count, and the RHS partitions with
/// the majority key when there are two or more.
type Split = (
    Vec<(RowId, AttrId)>,
    usize,
    Option<(BTreeMap<Vec<String>, Vec<RowId>>, Vec<String>)>,
);

fn split(pfd: &Pfd, rel: &Relation, row: &TableauRow, rows: &[RowId]) -> Split {
    let mut failures = Vec::new();
    let mut ok = Vec::new();
    for &rid in rows {
        let failed = pfd
            .rhs()
            .iter()
            .zip(&row.rhs)
            .find(|(b, cell)| !cell.matches(rel.cell(rid, **b)));
        match failed {
            Some((b, _)) => failures.push((rid, *b)),
            None => ok.push(rid),
        }
    }
    let mut partitions: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
    for &rid in &ok {
        let key: Vec<String> = pfd
            .rhs()
            .iter()
            .zip(&row.rhs)
            .map(|(b, cell)| cell.key(rel.cell(rid, *b)).unwrap().to_string())
            .collect();
        partitions.entry(key).or_default().push(rid);
    }
    let parts = (partitions.len() > 1).then(|| {
        let majority = partitions
            .iter()
            .max_by_key(|(key, rows)| (rows.len(), std::cmp::Reverse((*key).clone())))
            .map(|(key, _)| key.clone())
            .unwrap();
        (partitions, majority)
    });
    (failures, ok.len(), parts)
}

fn oracle_violations(pfd: &Pfd, rel: &Relation) -> Vec<Flat> {
    let mut out = Vec::new();
    for (ti, row) in pfd.tableau().iter().enumerate() {
        for rows in groups(pfd, rel, row).values() {
            let (failures, ok, parts) = split(pfd, rel, row, rows);
            for (rid, b) in failures {
                let mut cells: Vec<(RowId, AttrId)> = pfd.lhs().iter().map(|a| (rid, *a)).collect();
                cells.push((rid, b));
                out.push((ti, 0, b, vec![rid], cells, rows.len(), ok));
            }
            let Some((partitions, majority)) = parts else {
                continue;
            };
            let rep = partitions[&majority][0];
            let majority_size = partitions[&majority].len();
            for (key, members) in &partitions {
                if *key == majority {
                    continue;
                }
                for &rid in members {
                    let attr = pfd
                        .rhs()
                        .iter()
                        .zip(&row.rhs)
                        .find(|(b, cell)| {
                            cell.key(rel.cell(rep, **b)) != cell.key(rel.cell(rid, **b))
                        })
                        .map(|(b, _)| *b)
                        .unwrap();
                    let mut cells = Vec::new();
                    for r in [rep, rid] {
                        cells.extend(pfd.lhs().iter().map(|a| (r, *a)));
                        cells.push((r, attr));
                    }
                    out.push((
                        ti,
                        1,
                        attr,
                        vec![rep, rid],
                        cells,
                        rows.len(),
                        majority_size,
                    ));
                }
            }
        }
    }
    out
}

/// (coverage, paired rows, suspect rows).
fn oracle_audit(pfd: &Pfd, rel: &Relation) -> (usize, usize, BTreeSet<RowId>) {
    let mut covered = BTreeSet::new();
    let mut paired = BTreeSet::new();
    let mut suspects = BTreeSet::new();
    for row in pfd.tableau() {
        for rows in groups(pfd, rel, row).values() {
            covered.extend(rows.iter().copied());
            if rows.len() >= 2 {
                paired.extend(rows.iter().copied());
            }
            let (failures, _, parts) = split(pfd, rel, row, rows);
            suspects.extend(failures.iter().map(|&(rid, _)| rid));
            if let Some((partitions, majority)) = parts {
                for (key, members) in partitions {
                    if key != majority {
                        suspects.extend(members);
                    }
                }
            }
        }
    }
    (covered.len(), paired.len(), suspects)
}

fn oracle_support(pfd: &Pfd, rel: &Relation, ti: usize) -> usize {
    let row = &pfd.tableau()[ti];
    (0..rel.num_rows())
        .filter(|&rid| {
            pfd.lhs()
                .iter()
                .zip(&row.lhs)
                .all(|(a, cell)| cell.matches(rel.cell(rid, *a)))
        })
        .count()
}

/// The oracle's violations over a PFD set, sorted as plain data (the delta
/// engine's order is canonical, not the per-PFD detection order).
fn oracle_state(pfds: &[Pfd], rel: &Relation) -> Vec<(usize, Flat)> {
    let mut out: Vec<(usize, Flat)> = pfds
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| oracle_violations(p, rel).into_iter().map(move |v| (pi, v)))
        .collect();
    out.sort();
    out
}

fn engine_state(engine: &DeltaEngine) -> Vec<(usize, Flat)> {
    let mut out: Vec<(usize, Flat)> = engine
        .sorted_violations()
        .iter()
        .map(|e| (e.pfd_index, flat(&e.violation)))
        .collect();
    out.sort();
    out
}

/// Every grouping question of one PFD against the oracle.
fn check_pfd(pfd: &Pfd, rel: &Relation) -> Result<(), TestCaseError> {
    let expected = oracle_violations(pfd, rel);
    let got: Vec<Flat> = pfd.violations(rel).iter().map(flat).collect();
    prop_assert_eq!(&got, &expected, "violations of {} on\n{}", pfd, rel);
    prop_assert_eq!(pfd.satisfies(rel), expected.is_empty(), "satisfies {}", pfd);
    let audit = pfd.audit(rel);
    let (coverage, paired, suspects) = oracle_audit(pfd, rel);
    prop_assert_eq!(audit.coverage, coverage, "audit coverage of {}", pfd);
    prop_assert_eq!(audit.paired_rows, paired, "audit pairing of {}", pfd);
    prop_assert_eq!(&audit.suspect_rows, &suspects, "audit suspects of {}", pfd);
    prop_assert_eq!(pfd.coverage(rel), coverage, "coverage of {}", pfd);
    for ti in 0..pfd.tableau().len() {
        prop_assert_eq!(pfd.support(rel, ti), oracle_support(pfd, rel, ti));
    }
    Ok(())
}

proptest! {
    #[test]
    fn grouping_questions_match_string_keyed_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        for pfd in pfds(&mut rng) {
            check_pfd(&pfd, &rel)?;
        }
    }

    #[test]
    fn delta_engine_tracks_oracle_through_edit_scripts(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        let pfds = pfds(&mut rng);
        let mut engine = DeltaEngine::new(rel, pfds.clone());
        prop_assert_eq!(engine_state(&engine), oracle_state(&pfds, engine.relation()));
        for _ in 0..rng.below(14) {
            // Mostly single edits, sometimes a coalesced batch.
            let mut n = engine.relation().num_rows();
            let batch: Vec<Edit> = (0..1 + usize::from(rng.below(3) == 0) * 2)
                .map(|_| {
                    let e = edit(&mut rng, n);
                    n = rows_after(&e, n);
                    e
                })
                .collect();
            engine.apply_batch(&batch).unwrap();
            prop_assert_eq!(
                engine_state(&engine),
                oracle_state(&pfds, engine.relation()),
                "after {:?}", batch
            );
            for pfd in &pfds {
                check_pfd(pfd, engine.relation())?;
            }
        }
    }

    #[test]
    fn snapshot_round_trip_edits_match_a_fresh_engine(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        let pfds = pfds(&mut rng);
        let mut engine = DeltaEngine::new(rel, pfds);
        // Edits before the save leave moved groups and dead vocabulary.
        for _ in 0..rng.below(5) {
            let e = edit(&mut rng, engine.relation().num_rows());
            engine.apply(e).unwrap();
        }
        let mut loaded = load_from_bytes(&save_to_bytes(&engine)).unwrap();
        let pfds = loaded.pfds().to_vec();
        let mut fresh = DeltaEngine::new(loaded.relation().clone(), pfds.clone());
        prop_assert_eq!(engine_state(&loaded), engine_state(&fresh));
        for _ in 0..rng.below(12) {
            let e = edit(&mut rng, loaded.relation().num_rows());
            let a: ViolationDelta = loaded.apply(e.clone()).unwrap();
            let b: ViolationDelta = fresh.apply(e.clone()).unwrap();
            prop_assert_eq!(&a.introduced, &b.introduced, "introduced after {:?}", e);
            prop_assert_eq!(&a.resolved, &b.resolved, "resolved after {:?}", e);
            prop_assert_eq!(engine_state(&loaded), oracle_state(&pfds, loaded.relation()));
        }
    }
}
