//! Constrained patterns (§2.1).
//!
//! A constrained pattern is a pattern `P = pre · Q · post` with a marked
//! sub-pattern `Q` (the paper writes `Q̄` with an overline; we bracket it as
//! `pre[Q]post`). Two strings `s, s'` are **equivalent w.r.t. Q**, written
//! `s ≡_Q s'`, when the portions of `s` and `s'` matching `Q` are exactly
//! the same string.
//!
//! Following the paper, we limit constrained patterns to a single constrained
//! part ("more than one constrained part is not common in practice", §2.1).

use crate::ast::Pattern;
use crate::contains::subset_of;
use crate::nfa::Nfa;
use crate::parse::{parse_constrained, ParseError};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A pattern with one marked (constrained) segment: `pre [Q] post`.
///
/// The compiled NFAs are cached lazily behind an `Arc`, so matching a value
/// against the same tableau cell many times — the hot path of both
/// violation detection and discovery — compiles each segment once, and
/// clones (tableau rows are cloned freely during discovery, rule merging
/// and repair) *share* the cache instead of recompiling per copy.
#[derive(Default, Clone)]
pub struct ConstrainedPattern {
    pre: Pattern,
    q: Pattern,
    post: Pattern,
    compiled: Arc<OnceLock<CompiledSegments>>,
}

struct CompiledSegments {
    pre: Nfa,
    q: Nfa,
    post: Nfa,
    full: Nfa,
    /// When the whole pattern is one constant string, matching is equality
    /// and extraction is a fixed slice: `(value, pre byte len, q byte len)`.
    /// Constant cells dominate real tableaux (ψ1/ψ3 and every discovered
    /// constant row), so this skips the NFA entirely on the hottest path.
    full_const: Option<(String, usize, usize)>,
    /// `pre = ε`: the only valid decomposition point is offset 0.
    pre_empty: bool,
    /// `post = ε`: the only valid decomposition end is the value's end.
    post_empty: bool,
    /// Char length of `Q` when its language is fixed-length (`\D{3}`, a
    /// constant, …): the decomposition split is then forced.
    q_fixed: Option<usize>,
    /// Char length of `post` when fixed-length.
    post_fixed: Option<usize>,
    /// The constant `Q` of a cell that is not constant as a whole (e.g.
    /// `[900]\D{2}`, `\LU\LL+\ [011]`): every matching value contains it.
    q_literal: Option<String>,
}

impl PartialEq for ConstrainedPattern {
    fn eq(&self, other: &Self) -> bool {
        self.pre == other.pre && self.q == other.q && self.post == other.post
    }
}

impl Eq for ConstrainedPattern {}

impl std::hash::Hash for ConstrainedPattern {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pre.hash(state);
        self.q.hash(state);
        self.post.hash(state);
    }
}

impl fmt::Debug for ConstrainedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConstrainedPattern({self})")
    }
}

impl ConstrainedPattern {
    /// Build from the three segments.
    pub fn new(pre: Pattern, q: Pattern, post: Pattern) -> Self {
        ConstrainedPattern {
            pre,
            q,
            post,
            compiled: Arc::new(OnceLock::new()),
        }
    }

    /// A pattern whose *entire* extent is constrained (`pre = post = ε`).
    /// This is how constants such as `M` or `Los Angeles` appear in tableaux.
    pub fn fully_constrained(q: Pattern) -> Self {
        ConstrainedPattern::new(Pattern::empty(), q, Pattern::empty())
    }

    /// A constant constrained pattern matching exactly `s`.
    pub fn constant(s: &str) -> Self {
        ConstrainedPattern::fully_constrained(Pattern::constant(s))
    }

    /// Parse from the concrete syntax, e.g. `[Susan\ ]\A*`.
    pub fn parse(src: &str) -> Result<Self, ParseError> {
        parse_constrained(src)
    }

    /// The unconstrained prefix segment `pre`.
    pub fn prefix(&self) -> &Pattern {
        &self.pre
    }

    /// The constrained segment `Q`.
    pub fn constrained(&self) -> &Pattern {
        &self.q
    }

    /// The unconstrained suffix segment `post`.
    pub fn suffix(&self) -> &Pattern {
        &self.post
    }

    /// The full (embedded) pattern `pre · Q · post`.
    pub fn full_pattern(&self) -> Pattern {
        self.pre.concat(&self.q).concat(&self.post)
    }

    fn compiled(&self) -> &CompiledSegments {
        self.compiled.get_or_init(|| {
            let full_const = match (
                self.pre.as_constant(),
                self.q.as_constant(),
                self.post.as_constant(),
            ) {
                (Some(p), Some(q), Some(s)) => Some((format!("{p}{q}{s}"), p.len(), q.len())),
                _ => None,
            };
            let fixed_len = |p: &Pattern| -> Option<usize> {
                let min = p.min_len();
                (p.max_len() == Some(min)).then_some(min)
            };
            CompiledSegments {
                pre: Nfa::compile(&self.pre),
                q: Nfa::compile(&self.q),
                post: Nfa::compile(&self.post),
                full: Nfa::compile(&self.full_pattern()),
                pre_empty: self.pre.is_empty(),
                post_empty: self.post.is_empty(),
                q_fixed: fixed_len(&self.q),
                post_fixed: fixed_len(&self.post),
                q_literal: full_const.is_none().then(|| self.q.as_constant()).flatten(),
                full_const,
            }
        })
    }

    /// Has the NFA cache been populated (by this value or a clone sharing
    /// its cache)? Observability hook for the caching guarantee.
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }

    /// Does `s` match the full pattern? This is the paper's `s ↦ P`.
    pub fn matches(&self, s: &str) -> bool {
        let segs = self.compiled();
        match &segs.full_const {
            Some((value, _, _)) => crate::simd::eq_bytes(s.as_bytes(), value.as_bytes()),
            None => segs.full.matches(s),
        }
    }

    /// Is the constrained part a constant string? Constant cells make a PFD
    /// applicable to single tuples (§2.2).
    pub fn is_constant(&self) -> bool {
        self.q.is_constant()
    }

    /// The constant constrained part, if it is one.
    pub fn constant_value(&self) -> Option<String> {
        self.q.as_constant()
    }

    /// Total description length (for the small-model bounds of §7).
    pub fn description_len(&self) -> usize {
        self.pre.description_len() + self.q.description_len() + self.post.description_len()
    }

    /// Extract `s(Q)` — the portion of `s` that matches the constrained
    /// segment under the decomposition `s = s_pre · s(Q) · s_post` with
    /// `s_pre ∈ L(pre)`, `s(Q) ∈ L(Q)`, `s_post ∈ L(post)`.
    ///
    /// Decompositions can be ambiguous (e.g. `\A*[\D+]\A*`); we resolve them
    /// deterministically with a *lazy prefix, greedy constrained part* rule:
    /// the shortest valid `s_pre`, and for it the longest valid `s(Q)`. This
    /// matches the paper's usage, where `pre` is almost always empty and `Q`
    /// is a token prefix such as a first name or a zip-code prefix.
    pub fn extract<'s>(&self, s: &'s str) -> Option<&'s str> {
        let segs = self.compiled();
        // All-constant cells: equality plus a fixed slice.
        if let Some((value, pre_len, q_len)) = &segs.full_const {
            return crate::simd::eq_bytes(s.as_bytes(), value.as_bytes())
                .then(|| &s[*pre_len..*pre_len + *q_len]);
        }
        // A constant Q occurs literally in every match: at the start when
        // pre = ε, at the end when post = ε. Checking that first rejects
        // most values of a constant tableau row without running an NFA.
        if let Some(q) = &segs.q_literal {
            let found = if segs.pre_empty {
                s.starts_with(q.as_str())
            } else if segs.post_empty {
                s.ends_with(q.as_str())
            } else {
                s.contains(q.as_str())
            };
            if !found {
                return None;
            }
        }
        // Fixed-length Q and post with an empty pre (the dominant discovered
        // shape, e.g. `[\D{3}]\D{2}`): the decomposition is forced, so run
        // two small NFA checks instead of the full acceptance tables.
        if segs.pre_empty {
            if let (Some(ql), Some(pl)) = (segs.q_fixed, segs.post_fixed) {
                let mut chars = 0usize;
                let mut split = None;
                for (i, (b, _)) in s.char_indices().enumerate() {
                    if i == ql {
                        split = Some(b);
                    }
                    chars = i + 1;
                }
                if chars != ql + pl {
                    return None;
                }
                let split = split.unwrap_or(s.len());
                return (segs.q.matches(&s[..split]) && segs.post.matches(&s[split..]))
                    .then(|| &s[..split]);
            }
        }
        // Byte offsets of char boundaries, aligned with prefix_acceptance.
        let boundaries: Vec<usize> = s
            .char_indices()
            .map(|(i, _)| i)
            .chain(std::iter::once(s.len()))
            .collect();
        // post_ok[j] = post matches s[boundaries[j]..]; an empty post only
        // accepts the empty suffix, so skip the per-boundary NFA runs.
        let n = boundaries.len();
        let mut post_ok = vec![false; n];
        if segs.post_empty {
            post_ok[n - 1] = true;
        } else {
            for j in 0..n {
                post_ok[j] = segs.post.matches(&s[boundaries[j]..]);
            }
        }
        let try_from = |i: usize| -> Option<&'s str> {
            let rest = &s[boundaries[i]..];
            let q_acc = segs.q.prefix_acceptance(rest);
            // Greedy: longest q match first.
            for j in (i..n).rev() {
                if q_acc[j - i] && post_ok[j] {
                    return Some(&s[boundaries[i]..boundaries[j]]);
                }
            }
            None
        };
        // An empty pre pins the decomposition to offset 0 — the common case
        // for discovered cells (zip prefixes, first tokens, constants).
        if segs.pre_empty {
            return try_from(0);
        }
        let pre_ok = segs.pre.prefix_acceptance(s);
        for (i, &pre_hit) in pre_ok.iter().enumerate() {
            if !pre_hit {
                continue;
            }
            if let Some(found) = try_from(i) {
                return Some(found);
            }
        }
        None
    }

    /// The paper's `s ≡_Q s'`: both strings match and the portions matching
    /// the constrained part are string-equal.
    pub fn equivalent(&self, s1: &str, s2: &str) -> bool {
        match (self.extract(s1), self.extract(s2)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Restriction check `self ⊆ other` (§2.1): `self` is a *restricted*
    /// pattern of `other` when `s ≡_self s'` implies `s ≡_other s'` for all
    /// strings.
    ///
    /// The general problem is semantic; we decide a sound, efficiently
    /// checkable sufficient condition that covers the paper's use cases
    /// (Examples 3 & 4, the closure algorithm of Fig. 7): segment-wise
    /// language containment `pre ⊆ pre'`, `Q ⊆ Q'`, `post ⊆ post'`. Under
    /// the lazy-prefix/greedy-Q decomposition this forces the extractions to
    /// coincide on the strings where both match.
    pub fn is_restriction_of(&self, other: &ConstrainedPattern) -> bool {
        if self == other {
            return true;
        }
        // A wildcard-like `other` with Q = \A* and empty pre/post contains
        // everything trivially at the full-pattern level; require the segment
        // conditions to keep the check sound for extraction equality.
        subset_of(&self.pre, &other.pre)
            && subset_of(&self.q, &other.q)
            && subset_of(&self.post, &other.post)
    }

    /// Generalization is the converse of restriction.
    pub fn is_generalization_of(&self, other: &ConstrainedPattern) -> bool {
        other.is_restriction_of(self)
    }
}

impl fmt::Display for ConstrainedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pre.is_empty() && self.post.is_empty() {
            write!(f, "{}", self.q)
        } else {
            write!(f, "{}[{}]{}", self.pre, self.q, self.post)
        }
    }
}

impl std::str::FromStr for ConstrainedPattern {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ConstrainedPattern::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(src: &str) -> ConstrainedPattern {
        ConstrainedPattern::parse(src).unwrap()
    }

    #[test]
    fn example3_first_name_equivalence() {
        // Q = \LU\LL*\ \A* with the first-name part constrained.
        let q = cp(r"[\LU\LL*\ ]\A*");
        assert!(q.matches("John Charles"));
        assert!(q.matches("John Bosco"));
        assert_eq!(q.extract("John Charles"), Some("John "));
        assert_eq!(q.extract("John Bosco"), Some("John "));
        assert!(q.equivalent("John Charles", "John Bosco"));
        assert!(!q.equivalent("John Charles", "Susan Orlean"));
    }

    #[test]
    fn zip_prefix_extraction() {
        // λ5: [\D{3}]\D{2}
        let q = cp(r"[\D{3}]\D{2}");
        assert_eq!(q.extract("90001"), Some("900"));
        assert_eq!(q.extract("90210"), Some("902"));
        assert!(q.equivalent("90001", "90002"));
        assert!(!q.equivalent("90001", "90210"));
        assert_eq!(q.extract("9000"), None, "needs exactly five digits");
    }

    #[test]
    fn constant_constrained_part() {
        // λ2: [Susan\ ]\A*
        let q = cp(r"[Susan\ ]\A*");
        assert!(q.is_constant());
        assert_eq!(q.constant_value().as_deref(), Some("Susan "));
        assert!(q.matches("Susan Boyle"));
        assert!(!q.matches("John Charles"));
        assert!(q.equivalent("Susan Boyle", "Susan Orlean"));
    }

    #[test]
    fn fully_constrained_constant() {
        let q = ConstrainedPattern::constant("M");
        assert!(q.matches("M"));
        assert!(!q.matches("F"));
        assert_eq!(q.extract("M"), Some("M"));
        assert!(q.equivalent("M", "M"));
    }

    #[test]
    fn greedy_q_lazy_pre() {
        // \A*[\D+]: the constrained digits are matched greedily from the
        // first decomposition point, i.e. the whole digit tail.
        let q = cp(r"[\D+]\A*");
        assert_eq!(q.extract("123abc"), Some("123"));
        // With a lazy prefix, the first valid split point wins.
        let q2 = cp(r"\A*[x\D+]");
        assert_eq!(q2.extract("ax12"), Some("x12"));
    }

    #[test]
    fn no_match_no_extraction() {
        let q = cp(r"[900]\D{2}");
        assert_eq!(q.extract("91001"), None);
        assert!(!q.equivalent("91001", "91002"));
    }

    #[test]
    fn restriction_examples_from_paper() {
        // Example 4: \D{5} ⊆ \D* (both fully constrained).
        let five = cp(r"\D{5}");
        let any_digits = cp(r"\D*");
        assert!(five.is_restriction_of(&any_digits));
        assert!(!any_digits.is_restriction_of(&five));
        assert!(any_digits.is_generalization_of(&five));
    }

    #[test]
    fn restriction_with_segments() {
        // [John\ ]\A* is a restriction of [\LU\LL*\ ]\A*.
        let john = cp(r"[John\ ]\A*");
        let first_name = cp(r"[\LU\LL*\ ]\A*");
        assert!(john.is_restriction_of(&first_name));
        assert!(!first_name.is_restriction_of(&john));
    }

    #[test]
    fn restriction_is_reflexive() {
        for src in [r"[900]\D{2}", r"[\LU\LL*\ ]\A*", "M"] {
            let q = cp(src);
            assert!(q.is_restriction_of(&q));
        }
    }

    #[test]
    fn restriction_semantic_property_on_samples() {
        // If a ⊆ b then equivalence under a implies equivalence under b,
        // for all sample string pairs that a relates.
        let a = cp(r"[900]\D{2}");
        let b = cp(r"[\D{3}]\D{2}");
        assert!(a.is_restriction_of(&b));
        let samples = ["90001", "90002", "90099"];
        for s1 in samples {
            for s2 in samples {
                if a.equivalent(s1, s2) {
                    assert!(b.equivalent(s1, s2), "({s1},{s2})");
                }
            }
        }
    }

    #[test]
    fn display_roundtrip() {
        for src in [r"[Susan\ ]\A*", r"[\D{3}]\D{2}", "M", r"[\LU\LL*\ ]\A*"] {
            let q = cp(src);
            let reparsed = cp(&q.to_string());
            assert_eq!(q, reparsed, "{src} → {q} must re-parse identically");
        }
    }

    #[test]
    fn extraction_on_empty_string() {
        let q = cp(r"\A*");
        assert_eq!(q.extract(""), Some(""));
        let c = ConstrainedPattern::constant("x");
        assert_eq!(c.extract(""), None);
    }

    #[test]
    fn clones_share_the_compiled_nfa_cache() {
        let q = cp(r"[\D{3}]\D{2}");
        assert!(!q.is_compiled());
        assert!(q.matches("90001"));
        assert!(q.is_compiled());
        // A clone made *after* first use arrives with the cache warm, and a
        // clone made before first use warms the original when it compiles.
        let warm = q.clone();
        assert!(warm.is_compiled());
        let fresh = ConstrainedPattern::parse(r"[606]\D{2}").unwrap();
        let sibling = fresh.clone();
        assert!(!sibling.is_compiled());
        assert!(sibling.matches("60601"));
        assert!(fresh.is_compiled(), "cache is shared both ways");
    }

    #[test]
    fn unicode_extraction() {
        let q = cp(r"[\LU\LL*\ ]\A*");
        assert_eq!(q.extract("Éric Blanc"), Some("Éric "));
        assert!(q.equivalent("Éric Blanc", "Éric Noir"));
    }
}
