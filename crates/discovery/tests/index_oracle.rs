//! Property suite pinning `build_index` to the row-level reference build.
//!
//! `build_index` works on the column vocabulary: it extracts each live
//! value once, prunes on the value lists of `(fragment, pos)` slots and
//! fills row sets for the survivors only. The reference below is the
//! straightforward row-level construction it replaced: extract and intern
//! every cell, collect every slot's row list, sort every entry, then run
//! §4.4 substring pruning over groups of entries with equal row sets. Both
//! must yield the same entries in the same order (strings, positions,
//! cached char counts, row sets) and the same extraction counters, with
//! pruning on and off, for both extraction modes.
//!
//! Each case is generated from one `u64` seed with a local SplitMix64, so
//! a failure report's `input` line is the seed that reproduces it (the
//! vendored proptest does not shrink). Columns mix duplicate values, values
//! longer than `FULL_NGRAM_LEN` with repeated interior fragments (the
//! suffix-automaton path), non-ASCII text, empty cells, and vocabularies
//! with dead or out-of-row-order entries, both from `set_cell` overwrites
//! and from `Relation::from_columns`.

use pfd_discovery::extract::{tokens_for_each, FULL_NGRAM_LEN};
use pfd_discovery::{
    build_index, ExtractOptions, ExtractStats, FragmentDict, FragmentExtractor, IndexOptions,
    PostingList, Symbol,
};
use pfd_relation::{AttrId, Extraction, Relation, Schema};
use proptest::prelude::*;
use std::collections::HashMap;

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
}

/// Characters values are drawn from: a small alphabet so fragments and
/// row sets collide, separators so tokenization has runs, and multi-byte
/// characters so char and byte positions differ.
const ALPHABET: &[char] = &['a', 'b', 'c', '1', '2', '9', ' ', '-', 'é', '語'];

fn short_value(rng: &mut Rng) -> String {
    let len = rng.below(FULL_NGRAM_LEN + 1);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

/// A value over the full-enumeration cutoff, built from a few chunks so
/// interior fragments repeat within the cell and across cells.
fn long_value(rng: &mut Rng, chunks: &[String]) -> String {
    let mut v = String::new();
    while v.chars().count() <= FULL_NGRAM_LEN + rng.below(16) {
        if rng.below(3) == 0 {
            v.push(ALPHABET[rng.below(ALPHABET.len())]);
        } else {
            v.push_str(&chunks[rng.below(chunks.len())]);
        }
    }
    v
}

/// A pool of distinct-ish values; rows draw from it with repetition.
fn value_pool(rng: &mut Rng) -> Vec<String> {
    let chunks: Vec<String> = (0..3)
        .map(|_| {
            (0..3 + rng.below(3))
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect()
        })
        .collect();
    let mut pool = vec![String::new(), "900".to_string(), "9001".to_string()];
    for _ in 0..2 + rng.below(8) {
        let v = if rng.below(3) == 0 {
            long_value(rng, &chunks)
        } else {
            short_value(rng)
        };
        pool.push(v);
    }
    pool
}

/// A two-column relation whose vocabularies carry dead and out-of-order
/// entries: built row by row and then overwritten, or assembled directly
/// from an unsorted vocabulary through `from_columns`.
fn relation(rng: &mut Rng) -> Relation {
    let pool = value_pool(rng);
    let rows = rng.below(24);
    let pick = |rng: &mut Rng| pool[rng.below(pool.len())].clone();
    if rng.below(2) == 0 {
        let mut rel = Relation::empty(Schema::new("R", ["a", "b"]).unwrap());
        for _ in 0..rows {
            let row = vec![pick(rng), pick(rng)];
            rel.push_row(row).unwrap();
        }
        for _ in 0..rng.below(6) {
            if rel.num_rows() > 0 {
                let row = rng.below(rel.num_rows());
                let attr = AttrId(rng.below(2));
                let value = if rng.below(2) == 0 {
                    pick(rng)
                } else {
                    short_value(rng)
                };
                rel.set_cell(row, attr, value).unwrap();
            }
        }
        rel
    } else {
        let columns = (0..2)
            .map(|_| {
                // Shuffled, deduplicated pool: vocabulary order differs
                // from first-row order, and unreferenced entries are dead.
                let mut vocab = pool.clone();
                vocab.sort();
                vocab.dedup();
                for i in (1..vocab.len()).rev() {
                    vocab.swap(i, rng.below(i + 1));
                }
                let cells = (0..rows)
                    .map(|_| rng.below(vocab.len().div_ceil(2) + 1).min(vocab.len() - 1) as u32)
                    .collect();
                (vocab, cells)
            })
            .collect();
        Relation::from_columns(Schema::new("R", ["a", "b"]).unwrap(), columns, 0).unwrap()
    }
}

/// One index entry, flattened for comparison.
type Flat = (String, u32, u32, Vec<u32>);

/// The row-level reference build: per-row extraction and interning, a row
/// list per `(fragment, pos)` slot, a full entry sort, then §4.4 pruning
/// over groups of entries with equal row sets.
fn reference_index(
    rel: &Relation,
    attr: AttrId,
    extraction: Extraction,
    options: &IndexOptions,
) -> (Vec<Flat>, ExtractStats) {
    let num_rows = rel.num_rows();
    let mut dict = FragmentDict::default();
    let mut extractor = FragmentExtractor::new(options.extract);
    let mut per_sym: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
    for (rid, _) in rel.iter_rows() {
        let value = rel.cell(rid, attr);
        let rid = rid as u32;
        let mut add = |frag: &str, pos: u32| {
            let sym = dict.intern(frag);
            if sym.index() == per_sym.len() {
                per_sym.push(Vec::new());
            }
            let slots = &mut per_sym[sym.index()];
            match slots.iter_mut().find(|(p, _)| *p == pos) {
                Some((_, rows)) => {
                    if rows.last() != Some(&rid) {
                        rows.push(rid);
                    }
                }
                None => slots.push((pos, vec![rid])),
            }
        };
        match extraction {
            Extraction::Tokenize => tokens_for_each(value, &mut add),
            Extraction::NGrams => extractor.for_each(value, &mut add),
        }
    }
    let stats = extractor.take_stats();

    let mut entries: Vec<(Symbol, u32, PostingList)> = per_sym
        .into_iter()
        .enumerate()
        .flat_map(|(sym, slots)| {
            slots.into_iter().map(move |(pos, rows)| {
                (
                    Symbol::from_index(sym),
                    pos,
                    PostingList::from_sorted(rows, num_rows),
                )
            })
        })
        .collect();
    entries.sort_by(|a, b| {
        b.2.len()
            .cmp(&a.2.len())
            .then_with(|| dict.resolve(a.0).cmp(dict.resolve(b.0)))
            .then_with(|| a.1.cmp(&b.1))
    });

    let mut keep = vec![true; entries.len()];
    if options.substring_pruning {
        let mut groups: HashMap<&PostingList, Vec<usize>> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            groups.entry(&e.2).or_default().push(i);
        }
        for group in groups.values() {
            let mut by_len = group.clone();
            by_len.sort_by_key(|&i| std::cmp::Reverse(dict.byte_len(entries[i].0)));
            for (a_rank, &a) in by_len.iter().enumerate() {
                if !keep[a] {
                    continue;
                }
                let a_str = dict.resolve(entries[a].0);
                for &b in &by_len[a_rank + 1..] {
                    let b_str = dict.resolve(entries[b].0);
                    if keep[b] && b_str.len() < a_str.len() && a_str.contains(b_str) {
                        keep[b] = false;
                    }
                }
            }
        }
    }
    let flat = entries
        .iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|((sym, pos, rows), _)| {
            let s = dict.resolve(*sym).to_string();
            let chars = s.chars().count() as u32;
            (s, *pos, chars, rows.to_vec())
        })
        .collect();
    (flat, stats)
}

fn stats_tuple(s: &ExtractStats) -> (usize, usize, usize) {
    (s.cells_full_enum, s.cells_automaton, s.repeat_fragments)
}

/// Extraction settings under test: the defaults, and a low cutoff that
/// sends most values through the suffix-automaton path with short repeats.
fn extract_options() -> [ExtractOptions; 2] {
    [
        ExtractOptions::default(),
        ExtractOptions {
            full_enum_max_chars: 4,
            repeat_min_len: 2,
            ..ExtractOptions::default()
        },
    ]
}

fn check_relation(rel: &Relation) -> Result<(), TestCaseError> {
    for attr in [AttrId(0), AttrId(1)] {
        for extraction in [Extraction::NGrams, Extraction::Tokenize] {
            for extract in extract_options() {
                for substring_pruning in [true, false] {
                    let options = IndexOptions {
                        substring_pruning,
                        extract,
                    };
                    let (expect, expect_stats) = reference_index(rel, attr, extraction, &options);
                    let idx = build_index(rel, attr, extraction, &options);
                    let got: Vec<Flat> = idx
                        .entries
                        .iter()
                        .map(|e| {
                            let s = idx.pattern_str(e).to_string();
                            (s, e.pos, e.chars, e.rows.to_vec())
                        })
                        .collect();
                    let ctx = format!("{attr:?} {extraction:?} {options:?}");
                    prop_assert_eq!(got, expect, "{}", ctx);
                    prop_assert_eq!(
                        stats_tuple(&idx.extract_stats),
                        stats_tuple(&expect_stats),
                        "{}",
                        ctx
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vocabulary_build_matches_row_level_reference(seed in any::<u64>()) {
        check_relation(&relation(&mut Rng(seed)))?;
    }
}

#[test]
fn fixed_columns_match_row_level_reference() {
    // Hand-picked shapes the generator may hit rarely: a long value with a
    // repeated interior block appearing in several rows, all-empty and
    // all-identical columns, and a vocabulary whose only live entry is
    // not its first.
    let long = "aqzXK72mmpbvXK72qrw";
    let rows = vec![
        vec![long, ""],
        vec!["90001", ""],
        vec![long, ""],
        vec!["ééé語ßabcde語ßxyzé", ""],
        vec!["90001", ""],
    ];
    let rel = Relation::from_rows("R", &["a", "b"], rows).unwrap();
    check_relation(&rel).unwrap();

    let same = Relation::from_columns(
        Schema::new("R", ["a", "b"]).unwrap(),
        vec![
            (vec!["dead".into(), "Egypt".into()], vec![1, 1, 1]),
            (vec!["x y".into()], vec![0, 0, 0]),
        ],
        0,
    )
    .unwrap();
    check_relation(&same).unwrap();
}
