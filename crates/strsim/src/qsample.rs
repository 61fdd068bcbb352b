//! Q-samples: probing a subset of the query's q-grams.
//!
//! The paper (§4, after Schallehn et al. \[11\]) observes that probing *all*
//! overlapping q-grams of the search string is expensive in a DHT — each
//! distinct gram is one `Retrieve` — and that a *q-sample* of only `d + 1`
//! **non-overlapping** grams suffices for completeness:
//!
//! > "For q-sampling we process the search string from left to right and
//! > construct d+1 non-overlapping q-grams, starting from each qth position,
//! > if s is long enough."
//!
//! **Completeness argument (pigeonhole).** Take `d + 1` pairwise disjoint
//! q-grams of the query `s`. Any string `t` with `edit(s, t) <= d` is reached
//! from `s` by at most `d` edit operations, and each operation can destroy
//! grams overlapping a single character position — in particular it can
//! invalidate at most one of the *disjoint* sample grams. Hence at least one
//! sample gram survives verbatim in `t` (shifted by at most `d` positions),
//! so probing the index for the sample grams with a position tolerance of `d`
//! finds every true match. The price is weaker pruning: a single gram match
//! already makes a candidate (no count filter), so more candidates reach the
//! final edit-distance verification — exactly the trade-off the paper
//! evaluates in Figure 1.

use crate::qgram::PositionalQGram;

/// A string must have at least `(d + 1) * q` characters for a complete
/// q-sample of `d + 1` disjoint grams to exist. Shorter query strings fall
/// back to a different strategy (see `sqo-core::similar`).
pub const MIN_SAMPLABLE_FACTOR: usize = 1;

/// Returns `d + 1` non-overlapping positional q-grams of `s`, taken left to
/// right from every q-th position, or fewer if `s` is too short (down to a
/// single gram for `q <= |s| < 2q`; empty if `|s| < q`).
///
/// When fewer than `d + 1` disjoint grams fit, the sample is **not**
/// complete for distance `d`; callers must detect this via
/// [`is_complete_sample`] and fall back (the paper's "if s is long enough"
/// clause).
///
/// ```
/// use sqo_strsim::qsamples;
/// let s = qsamples("abcdefghij", 3, 2); // need 3 disjoint 3-grams
/// let texts: Vec<_> = s.iter().map(|g| (g.gram.as_str(), g.pos)).collect();
/// assert_eq!(texts, vec![("abc", 0), ("def", 3), ("ghi", 6)]);
/// ```
pub fn qsamples(s: &str, q: usize, d: usize) -> Vec<PositionalQGram> {
    assert!(q >= 1, "q must be at least 1");
    let chars: Vec<char> = s.chars().collect();
    let wanted = d.saturating_add(1);
    let mut out = Vec::with_capacity(wanted.min(chars.len() / q));
    let mut start = 0usize;
    while out.len() < wanted && start + q <= chars.len() {
        out.push(PositionalQGram {
            gram: chars[start..start + q].iter().collect(),
            pos: start as u32,
        });
        start += q;
    }
    out
}

/// `true` iff a query of `len` characters admits `d + 1` disjoint q-grams,
/// i.e. the q-sample produced by [`qsamples`] is complete for distance `d`.
#[inline]
pub fn is_complete_sample(len: usize, q: usize, d: usize) -> bool {
    len >= d.saturating_add(1).saturating_mul(q).saturating_mul(MIN_SAMPLABLE_FACTOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::levenshtein_bounded;
    use crate::qgram::qgrams;

    #[test]
    fn takes_d_plus_one_disjoint_grams() {
        let s = qsamples("abcdefghijkl", 3, 3);
        assert_eq!(s.len(), 4);
        let positions: Vec<u32> = s.iter().map(|g| g.pos).collect();
        assert_eq!(positions, vec![0, 3, 6, 9]);
    }

    #[test]
    fn short_string_yields_partial_sample() {
        // 7 chars, q=3: only 2 disjoint grams fit even though d+1 = 4.
        let s = qsamples("abcdefg", 3, 3);
        assert_eq!(s.len(), 2);
        assert!(!is_complete_sample(7, 3, 3));
        assert!(is_complete_sample(12, 3, 3));
    }

    #[test]
    fn below_q_yields_empty() {
        assert!(qsamples("ab", 3, 2).is_empty());
    }

    #[test]
    fn samples_are_subset_of_qgrams() {
        let s = "overlaynetworksimilarity";
        let all: std::collections::HashSet<_> =
            qgrams(s, 3).into_iter().map(|g| (g.gram, g.pos)).collect();
        for g in qsamples(s, 3, 4) {
            assert!(all.contains(&(g.gram.clone(), g.pos)), "{g:?} not a q-gram of {s}");
        }
    }

    /// The pigeonhole completeness property: for strings within distance d,
    /// at least one sample gram of the query occurs in the data string
    /// (anywhere — position tolerance is checked separately with slack d).
    #[test]
    fn pigeonhole_completeness_on_mutations() {
        let base = "similarityqueriesonstructureddata";
        let q = 3;
        // Apply up to d hand-picked edits and check a sample gram survives.
        let mutations = [
            (1, "simiXarityqueriesonstructureddata".to_string()), // substitution
            (2, "imilarityquerieonstructureddata".to_string()),   // 2 deletions
            (3, "ximilarityqueriesonxstructureddataxx".to_string()), // mixed
        ];
        for (d, mutated) in mutations {
            assert!(levenshtein_bounded(base, &mutated, d + 2).is_some(), "sanity");
            let sample = qsamples(base, q, d);
            assert!(is_complete_sample(base.chars().count(), q, d));
            let found = sample.iter().any(|g| mutated.contains(&g.gram));
            assert!(found, "no sample gram of {base:?} survives in {mutated:?} (d={d})");
        }
    }
}
