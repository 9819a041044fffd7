//! Vocabulary-level tableau evaluation: the key memo.
//!
//! Detection (§2.2) groups the rows matching a tableau row's LHS by their
//! equivalence keys `s(Q)`, then partitions each group by its RHS keys.
//! [`Relation`] is column-interned — every cell is a `u32` symbol into its
//! column's vocabulary — so a cell's key depends only on its symbol. The
//! memo evaluates [`TableauCell::key`] once per (tableau cell, symbol) pair
//! and hands out an interned **key id** per distinct key string, or
//! [`NO_MATCH`] when the value does not match the cell. Grouping is then a
//! counting sort over key ids instead of a pattern match and a string
//! allocation per relation row.
//!
//! - **Lazy fill.** A symbol is evaluated the first time a lookup asks for
//!   it; symbols interned by later edits extend the memo on demand.
//! - **Append-only key table.** Key ids are never reused or renumbered, so
//!   ids held by a long-lived index stay valid across edits, and ids can be
//!   interned from stored key strings without evaluating any pattern (the
//!   snapshot load path).
//! - **String order on demand.** Ids are assigned in first-seen order;
//!   callers that must visit groups in key-string order (violation output,
//!   the majority tie-break) sort the groups, never the rows, by
//!   [`SideMemo::cmp_keys`].

use crate::tableau::{TableauCell, TableauRow};
use pfd_relation::{AttrId, Relation, RowId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// The key id of a value that does not match its cell.
pub(crate) const NO_MATCH: u32 = u32::MAX;

/// Memo slot of a symbol that has not been evaluated yet.
const UNSEEN: u32 = u32::MAX - 1;

/// The memo of one tableau cell over one column.
#[derive(Debug, Clone, Default)]
struct CellMemo {
    /// Column symbol → key id, [`NO_MATCH`], or [`UNSEEN`].
    ids: Vec<u32>,
    /// Key id → key string; append-only.
    keys: Vec<Box<str>>,
    /// Key string → key id, for interning.
    lookup: HashMap<Box<str>, u32>,
}

impl CellMemo {
    /// The key id of symbol `sym` of a column with vocabulary `vocab`.
    #[inline]
    fn id(&mut self, cell: &TableauCell, vocab: &[String], sym: u32) -> u32 {
        match self.ids.get(sym as usize) {
            Some(&id) if id != UNSEEN => id,
            _ => self.fill(cell, vocab, sym),
        }
    }

    /// Evaluate `cell` on a symbol seen for the first time.
    #[cold]
    fn fill(&mut self, cell: &TableauCell, vocab: &[String], sym: u32) -> u32 {
        let s = sym as usize;
        if s >= self.ids.len() {
            self.ids.resize(vocab.len().max(s + 1), UNSEEN);
        }
        let id = cell.key(&vocab[s]).map_or(NO_MATCH, |key| self.intern(key));
        self.ids[s] = id;
        id
    }

    fn intern(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.lookup.get(key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("key table fits u32 ids");
        self.keys.push(key.into());
        self.lookup.insert(key.into(), id);
        id
    }
}

/// The memo of one side (LHS or RHS) of a tableau row: one [`CellMemo`]
/// per cell, aligned with the side's attributes.
#[derive(Debug, Clone)]
pub(crate) struct SideMemo {
    cells: Vec<CellMemo>,
}

impl SideMemo {
    fn new(width: usize) -> SideMemo {
        SideMemo {
            cells: vec![CellMemo::default(); width],
        }
    }

    /// Append the key-id tuple of row `rid` under `cells` (aligned with
    /// `attrs`) to `out`. `Err(j)` names the first cell the row does not
    /// match; `out` is then left as it was. `replaced` reads symbol `sym`
    /// for attribute `attr` instead of the row's current cell — the key a
    /// row had before `attr` was overwritten (vocabularies are append-only,
    /// so the old symbol is still valid).
    pub(crate) fn key(
        &mut self,
        attrs: &[AttrId],
        cells: &[TableauCell],
        rel: &Relation,
        rid: RowId,
        replaced: Option<(AttrId, u32)>,
        out: &mut Vec<u32>,
    ) -> Result<(), usize> {
        let symbols = attrs.iter().map(|&attr| {
            let (vocab, syms) = rel.column_parts(attr);
            match replaced {
                Some((a, sym)) if a == attr => (vocab, sym),
                _ => (vocab, syms[rid]),
            }
        });
        self.ids(cells, symbols, out)
    }

    /// Append the key ids of one symbol per cell (with its column's
    /// vocabulary) to `out`; `Err(j)` at the first non-matching cell `j`,
    /// leaving `out` as it was.
    fn ids<'v>(
        &mut self,
        cells: &[TableauCell],
        symbols: impl Iterator<Item = (&'v [String], u32)>,
        out: &mut Vec<u32>,
    ) -> Result<(), usize> {
        let start = out.len();
        for (j, ((memo, cell), (vocab, sym))) in
            self.cells.iter_mut().zip(cells).zip(symbols).enumerate()
        {
            let id = memo.id(cell, vocab, sym);
            if id == NO_MATCH {
                out.truncate(start);
                return Err(j);
            }
            out.push(id);
        }
        Ok(())
    }

    /// Group `rows` (ascending) by key-id tuple; rows not matching every
    /// cell are left out.
    pub(crate) fn group(
        &mut self,
        attrs: &[AttrId],
        cells: &[TableauCell],
        rel: &Relation,
        rows: impl IntoIterator<Item = RowId>,
    ) -> Buckets {
        let columns: Vec<(&[String], &[u32])> =
            attrs.iter().map(|&a| rel.column_parts(a)).collect();
        let mut matched = Vec::new();
        let mut keys = Vec::new();
        for rid in rows {
            let symbols = columns.iter().map(|&(vocab, syms)| (vocab, syms[rid]));
            if self.ids(cells, symbols, &mut keys).is_ok() {
                matched.push(rid);
            }
        }
        self.bucket(matched, &keys)
    }

    /// Bucket `rows` by their key-id tuples (`keys`, row-major, one tuple
    /// per row): a stable least-significant-cell-first counting sort, so
    /// each bucket keeps the input order of its rows. A cell whose key
    /// table is larger than the input sorts by comparison instead, keeping
    /// small partitions of wide key spaces linear in the partition.
    pub(crate) fn bucket(&self, rows: Vec<RowId>, keys: &[u32]) -> Buckets {
        let w = self.cells.len();
        let n = rows.len();
        debug_assert_eq!(keys.len(), n * w);
        let tuple = |i: usize| &keys[i * w..(i + 1) * w];
        if n == 0 {
            return Buckets {
                width: w,
                rows,
                bounds: vec![0],
                keys: Vec::new(),
            };
        }
        if (1..n).all(|i| tuple(i) == tuple(0)) {
            return Buckets {
                width: w,
                rows,
                bounds: vec![0, n],
                keys: tuple(0).to_vec(),
            };
        }
        let n32 = u32::try_from(n).expect("row ids fit u32, as posting-list ids do");
        let mut order: Vec<u32> = (0..n32).collect();
        let mut next = vec![0u32; n];
        for j in (0..w).rev() {
            let id = |i: u32| keys[i as usize * w + j] as usize;
            let k = self.cells[j].keys.len();
            if k > n {
                order.sort_by_key(|&i| id(i));
                continue;
            }
            let mut starts = vec![0usize; k + 1];
            for &i in &order {
                starts[id(i) + 1] += 1;
            }
            for c in 1..=k {
                starts[c] += starts[c - 1];
            }
            for &i in &order {
                let slot = &mut starts[id(i)];
                next[*slot] = i;
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut next);
        }
        let mut out = Buckets {
            width: w,
            rows: Vec::with_capacity(n),
            bounds: Vec::new(),
            keys: Vec::new(),
        };
        for (pos, &i) in order.iter().enumerate() {
            let key = tuple(i as usize);
            if pos == 0 || key != &out.keys[out.keys.len() - w..] {
                out.bounds.push(pos);
                out.keys.extend_from_slice(key);
            }
            out.rows.push(rows[i as usize]);
        }
        out.bounds.push(n);
        out
    }

    /// Compare two key-id tuples by their key strings, exactly as the
    /// tuples' `Vec<String>` keys would compare. Within one cell equal ids
    /// are equal strings and distinct ids distinct strings.
    fn cmp_keys(&self, a: &[u32], b: &[u32]) -> Ordering {
        for (memo, (&x, &y)) in self.cells.iter().zip(a.iter().zip(b)) {
            if x != y {
                return memo.keys[x as usize].cmp(&memo.keys[y as usize]);
            }
        }
        Ordering::Equal
    }

    /// Bucket indexes of `buckets` in ascending order of key strings.
    pub(crate) fn string_order(&self, buckets: &Buckets) -> Vec<usize> {
        let mut order: Vec<usize> = (0..buckets.len()).collect();
        order.sort_by(|&a, &b| self.cmp_keys(buckets.key(a), buckets.key(b)));
        order
    }

    /// The key strings of a key-id tuple.
    pub(crate) fn strings(&self, ids: &[u32]) -> Vec<String> {
        self.cells
            .iter()
            .zip(ids)
            .map(|(memo, &id)| memo.keys[id as usize].to_string())
            .collect()
    }

    /// Intern stored key strings (one per cell) without evaluating any
    /// pattern, appending their ids to `out`.
    pub(crate) fn intern(&mut self, key: &[String], out: &mut Vec<u32>) {
        out.extend(
            self.cells
                .iter_mut()
                .zip(key)
                .map(|(memo, k)| memo.intern(k)),
        );
    }
}

/// The key memo of one tableau row: its LHS and RHS cells.
#[derive(Debug, Clone)]
pub(crate) struct KeyMemo {
    /// Memo of the LHS cells (grouping).
    pub(crate) lhs: SideMemo,
    /// Memo of the RHS cells (single-tuple checks and partitions).
    pub(crate) rhs: SideMemo,
}

impl KeyMemo {
    /// An empty memo for `row`; it fills as lookups evaluate symbols.
    pub(crate) fn new(row: &TableauRow) -> KeyMemo {
        KeyMemo {
            lhs: SideMemo::new(row.lhs.len()),
            rhs: SideMemo::new(row.rhs.len()),
        }
    }
}

/// Rows bucketed by key-id tuple. Bucket `b` holds `rows(b)` (in input
/// order) sharing the tuple `key(b)`; buckets are in key-id order.
#[derive(Debug, Clone)]
pub(crate) struct Buckets {
    width: usize,
    rows: Vec<RowId>,
    /// Bucket `b` is `rows[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<usize>,
    /// Row-major key-id tuples, one per bucket.
    keys: Vec<u32>,
}

impl Buckets {
    /// Number of buckets.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Member rows of bucket `b`.
    pub(crate) fn rows(&self, b: usize) -> &[RowId] {
        &self.rows[self.bounds[b]..self.bounds[b + 1]]
    }

    /// Key-id tuple of bucket `b`.
    pub(crate) fn key(&self, b: usize) -> &[u32] {
        &self.keys[b * self.width..(b + 1) * self.width]
    }

    /// Every bucketed row, bucket by bucket.
    pub(crate) fn all_rows(&self) -> &[RowId] {
        &self.rows
    }
}
