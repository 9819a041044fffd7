//! Column profiling.
//!
//! The first step of the discovery algorithm (Fig. 4, line 1–3) profiles the
//! table to (a) prune attributes on which PFDs cannot be found and (b) decide
//! per attribute whether partial patterns are extracted by **tokenization**
//! or by **n-grams**.
//!
//! Following §2.1's Remark and §5.4: quantitative columns (measurements,
//! counts) are dropped — functional dependencies make no sense on them — but
//! integer columns that represent *codes* (zip codes, phone numbers, IDs) are
//! kept: "the number of different lengths of the numerical values in
//! attributes that represent code is significantly small and in most cases
//! values have the same length".

use crate::relation::Relation;
use crate::schema::AttrId;
use std::collections::BTreeSet;

/// What kind of data a column holds, for discovery purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Numeric measurements/counts — pruned from PFD discovery.
    Quantitative,
    /// Digit strings with few distinct lengths: zip codes, phones, IDs.
    Code,
    /// Few distinct values relative to rows (gender, state, …).
    Categorical,
    /// General qualitative text.
    Text,
}

/// How partial patterns are extracted from the column's values (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extraction {
    /// Split on separator symbols, keeping token positions (restriction i).
    Tokenize,
    /// Enumerate n-grams up to the length of the longest value.
    NGrams,
}

/// Per-column statistics plus the derived decisions.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// The profiled attribute.
    pub attr: AttrId,
    /// Attribute name.
    pub name: String,
    /// Total rows in the relation.
    pub rows: usize,
    /// Rows with a non-empty value.
    pub non_empty: usize,
    /// Distinct non-empty values.
    pub distinct: usize,
    /// Average value length in characters.
    pub avg_len: f64,
    /// Longest value length in characters.
    pub max_len: usize,
    /// Fraction of non-empty values that parse as numbers (int or decimal).
    pub numeric_fraction: f64,
    /// Fraction of non-empty values that are pure digit strings.
    pub digit_fraction: f64,
    /// Number of distinct lengths among pure digit values.
    pub digit_length_variety: usize,
    /// Fraction of non-empty values containing a separator symbol.
    pub separator_fraction: f64,
    /// The derived column classification.
    pub kind: ColumnKind,
    /// The derived pattern-extraction mode.
    pub extraction: Extraction,
}

impl ColumnProfile {
    /// Should this column participate in PFD discovery?
    pub fn is_candidate(&self) -> bool {
        self.kind != ColumnKind::Quantitative && self.non_empty > 0
    }
}

fn is_pure_digits(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_digit())
}

fn is_numeric(s: &str) -> bool {
    // Integer or decimal with optional sign; this is the "quantitative"
    // shape we want to prune (heights, amounts, ratios).
    let t = s.strip_prefix(['-', '+']).unwrap_or(s);
    if t.is_empty() {
        return false;
    }
    let mut dots = 0;
    for c in t.chars() {
        match c {
            '0'..='9' => {}
            '.' => dots += 1,
            _ => return false,
        }
    }
    dots <= 1 && t.chars().any(|c| c.is_ascii_digit())
}

fn has_separator(s: &str) -> bool {
    s.chars()
        .any(|c| !c.is_alphanumeric() && !matches!(c, '\'' | '’'))
}

/// Maximum distinct digit lengths for a digit column to count as a code
/// (e.g. zips are 5 or 9 digits; phones are 10).
const CODE_LENGTH_VARIETY: usize = 3;

/// Fraction of values that must contain separators to prefer tokenization.
const TOKENIZE_THRESHOLD: f64 = 0.5;

/// Distinct/rows ratio below which a column counts as categorical.
const CATEGORICAL_RATIO: f64 = 0.05;

/// Profile one column.
pub fn profile_column(rel: &Relation, attr: AttrId) -> ColumnProfile {
    let name = rel
        .schema()
        .name_of(attr)
        .unwrap_or("<invalid>")
        .to_string();
    let rows = rel.num_rows();

    // Per-value work runs once per live vocabulary entry, weighted by the
    // number of rows holding it; dead entries (count 0) are skipped.
    let (vocab, cells) = rel.column_parts(attr);
    let mut counts = vec![0usize; vocab.len()];
    for &c in cells {
        counts[c as usize] += 1;
    }

    let mut non_empty = 0usize;
    let mut total_len = 0usize;
    let mut max_len = 0usize;
    let mut numeric = 0usize;
    let mut digits = 0usize;
    let mut with_sep = 0usize;
    let mut digit_lengths: BTreeSet<usize> = BTreeSet::new();
    // Interning keeps vocabulary entries distinct, so each live non-empty
    // entry is one distinct value.
    let mut distinct_count = 0usize;

    for (v, &n) in vocab.iter().zip(&counts) {
        if n == 0 || v.is_empty() {
            continue;
        }
        non_empty += n;
        distinct_count += 1;
        let len = v.chars().count();
        total_len += len * n;
        max_len = max_len.max(len);
        if is_numeric(v) {
            numeric += n;
        }
        if is_pure_digits(v) {
            digits += n;
            digit_lengths.insert(len);
        }
        if has_separator(v) {
            with_sep += n;
        }
    }

    let frac = |n: usize| {
        if non_empty == 0 {
            0.0
        } else {
            n as f64 / non_empty as f64
        }
    };
    let numeric_fraction = frac(numeric);
    let digit_fraction = frac(digits);
    let separator_fraction = frac(with_sep);

    let kind = if non_empty == 0 {
        ColumnKind::Text
    } else if digit_fraction > 0.95 && digit_lengths.len() <= CODE_LENGTH_VARIETY {
        ColumnKind::Code
    } else if numeric_fraction > 0.95 {
        ColumnKind::Quantitative
    } else if (distinct_count as f64) < CATEGORICAL_RATIO * rows as f64 || distinct_count <= 2 {
        ColumnKind::Categorical
    } else {
        ColumnKind::Text
    };

    let extraction = if separator_fraction >= TOKENIZE_THRESHOLD && kind != ColumnKind::Code {
        Extraction::Tokenize
    } else {
        Extraction::NGrams
    };

    ColumnProfile {
        attr,
        name,
        rows,
        non_empty,
        distinct: distinct_count,
        avg_len: if non_empty == 0 {
            0.0
        } else {
            total_len as f64 / non_empty as f64
        },
        max_len,
        numeric_fraction,
        digit_fraction,
        digit_length_variety: digit_lengths.len(),
        separator_fraction,
        kind,
        extraction,
    }
}

/// Profile every column of a relation.
pub fn profile_relation(rel: &Relation) -> Vec<ColumnProfile> {
    rel.schema()
        .attr_ids()
        .map(|a| profile_column(rel, a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel(cols: &[(&str, Vec<&str>)]) -> Relation {
        let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        let nrows = cols[0].1.len();
        let rows: Vec<Vec<&str>> = (0..nrows)
            .map(|i| cols.iter().map(|(_, vs)| vs[i]).collect())
            .collect();
        Relation::from_rows("T", &names, rows).unwrap()
    }

    #[test]
    fn zip_column_is_code() {
        let r = rel(&[("zip", vec!["90001", "90002", "60601", "606036263"])]);
        let p = profile_column(&r, AttrId(0));
        assert_eq!(p.kind, ColumnKind::Code);
        assert!(p.is_candidate());
        assert_eq!(p.extraction, Extraction::NGrams);
        assert_eq!(p.digit_length_variety, 2);
    }

    #[test]
    fn measurement_column_is_quantitative() {
        let r = rel(&[(
            "height",
            vec![
                "1.82", "1.75", "1.9", "2.01", "1.68", "1.77", "1.64", "1.81",
            ],
        )]);
        let p = profile_column(&r, AttrId(0));
        assert_eq!(p.kind, ColumnKind::Quantitative);
        assert!(!p.is_candidate());
    }

    #[test]
    fn integers_with_many_lengths_are_quantitative() {
        // Counts: 3, 17, 245, 8, 19384, 1, 52, 999923 — six distinct lengths.
        let r = rel(&[(
            "shares",
            vec!["3", "17", "245", "8", "19384", "1", "52", "999923"],
        )]);
        let p = profile_column(&r, AttrId(0));
        assert_eq!(p.kind, ColumnKind::Quantitative);
    }

    #[test]
    fn name_column_tokenizes() {
        let r = rel(&[(
            "name",
            vec!["John Charles", "John Bosco", "Susan Orlean", "Susan Boyle"],
        )]);
        let p = profile_column(&r, AttrId(0));
        assert_eq!(p.extraction, Extraction::Tokenize);
        assert!(p.is_candidate());
    }

    #[test]
    fn gender_column_is_categorical_ngrams() {
        let values: Vec<&str> = std::iter::repeat_n(["M", "F"], 50).flatten().collect();
        let r = rel(&[("gender", values)]);
        let p = profile_column(&r, AttrId(0));
        assert_eq!(p.kind, ColumnKind::Categorical);
        assert_eq!(p.extraction, Extraction::NGrams);
    }

    #[test]
    fn empty_column_not_candidate() {
        let r = rel(&[("x", vec!["", "", ""])]);
        let p = profile_column(&r, AttrId(0));
        assert!(!p.is_candidate());
        assert_eq!(p.non_empty, 0);
    }

    #[test]
    fn profile_relation_covers_all_columns() {
        let r = rel(&[
            ("zip", vec!["90001", "90002"]),
            ("city", vec!["Los Angeles", "Los Angeles"]),
        ]);
        let ps = profile_relation(&r);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].name, "zip");
        assert_eq!(ps[1].name, "city");
    }

    /// The per-row computation `profile_column` replaced: every cell pays
    /// for its own char count, shape tests and distinct-set insert.
    fn per_row_profile(rel: &Relation, attr: AttrId) -> ColumnProfile {
        let (mut non_empty, mut total_len, mut max_len) = (0usize, 0usize, 0usize);
        let (mut numeric, mut digits, mut with_sep) = (0usize, 0usize, 0usize);
        let mut digit_lengths: BTreeSet<usize> = BTreeSet::new();
        let mut distinct: BTreeSet<&str> = BTreeSet::new();
        for v in rel.column(attr) {
            if v.is_empty() {
                continue;
            }
            non_empty += 1;
            let len = v.chars().count();
            total_len += len;
            max_len = max_len.max(len);
            numeric += usize::from(is_numeric(v));
            if is_pure_digits(v) {
                digits += 1;
                digit_lengths.insert(len);
            }
            with_sep += usize::from(has_separator(v));
            distinct.insert(v);
        }
        let frac = |n: usize| {
            if non_empty == 0 {
                0.0
            } else {
                n as f64 / non_empty as f64
            }
        };
        // The derived decisions come from the same rules; only the counts
        // are recomputed here.
        let fast = profile_column(rel, attr);
        ColumnProfile {
            non_empty,
            distinct: distinct.len(),
            avg_len: if non_empty == 0 {
                0.0
            } else {
                total_len as f64 / non_empty as f64
            },
            max_len,
            numeric_fraction: frac(numeric),
            digit_fraction: frac(digits),
            digit_length_variety: digit_lengths.len(),
            separator_fraction: frac(with_sep),
            ..fast
        }
    }

    #[test]
    fn vocabulary_profile_matches_per_row_profile() {
        let values = [
            "90001",
            "90001",
            "",
            "606036263",
            "-3.5",
            "Los Angeles",
            "O'Brien",
            "é語-1",
            "",
            "42",
            "90001",
            "x",
        ];
        let rows: Vec<Vec<&str>> = values.iter().map(|v| vec![*v, *v]).collect();
        let mut r = Relation::from_rows("T", &["a", "b"], rows).unwrap();
        // Overwrites strand dead vocabulary entries ("x", "-3.5") and add
        // a value first seen late.
        r.set_cell(11, AttrId(0), "90001".into()).unwrap();
        r.set_cell(4, AttrId(0), "".into()).unwrap();
        r.set_cell(0, AttrId(1), "new value".into()).unwrap();
        // An unsorted vocabulary with a dead entry, referenced out of
        // vocabulary order.
        let built = Relation::from_columns(
            Schema::new("U", ["c"]).unwrap(),
            vec![(
                vec![
                    "zz".into(),
                    "".into(),
                    "12".into(),
                    "unused".into(),
                    "a b".into(),
                ],
                vec![4, 2, 2, 1, 0, 2, 4],
            )],
            0,
        )
        .unwrap();
        for (rel, attr) in [(&r, AttrId(0)), (&r, AttrId(1)), (&built, AttrId(0))] {
            assert_eq!(
                format!("{:?}", profile_column(rel, attr)),
                format!("{:?}", per_row_profile(rel, attr))
            );
        }
    }

    #[test]
    fn negative_and_decimal_are_numeric() {
        assert!(is_numeric("-3.5"));
        assert!(is_numeric("+7"));
        assert!(!is_numeric("1.2.3"));
        assert!(!is_numeric("12a"));
        assert!(!is_numeric("-"));
        assert!(!is_numeric(""));
    }

    #[test]
    fn apostrophes_do_not_count_as_separators() {
        assert!(!has_separator("O'Brien"));
        assert!(has_separator("O Brien"));
        assert!(has_separator("a-b"));
    }
}
