//! Levenshtein edit distance.
//!
//! Three entry points are provided:
//!
//! * [`levenshtein`] — the exact distance, two-row dynamic program,
//!   `O(|a|·|b|)` time and `O(min(|a|,|b|))` space.
//! * [`Verifier`] — the search string compiled once for bounded checks
//!   against many candidates: bit-parallel for patterns of up to 64
//!   characters, a banded dynamic program above that; both give up early
//!   once the distance provably exceeds `d`. This is the verifier used in
//!   the final step of the `Similar` operator (Algorithm 2, line 23 of the
//!   paper), where `d` is small (the paper's workload uses `d ≤ 5`).
//! * [`levenshtein_bounded`] — a one-shot [`Verifier`] behind a length
//!   filter.
//!
//! Distances are computed over Unicode scalar values, not bytes, so that a
//! multi-byte character counts as a single edit.

/// Exact Levenshtein distance between `a` and `b`.
///
/// ```
/// use sqo_strsim::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension to minimize row size.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Banded Levenshtein: returns `Some(dist)` if `dist(a, b) <= d`, else `None`.
///
/// Compiles the shorter string into a [`Verifier`] and runs it once; callers
/// that check one query against many strings should build the [`Verifier`]
/// themselves and reuse it.
///
/// ```
/// use sqo_strsim::levenshtein_bounded;
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
/// assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
/// ```
pub fn levenshtein_bounded(a: &str, b: &str, d: usize) -> Option<usize> {
    // Length filter before compiling anything: the distance is at least the
    // character-count difference. This is the hot path of the naive
    // baseline, which compares the query against *every* stored value.
    let alen = a.chars().count();
    let blen = b.chars().count();
    if alen.abs_diff(blen) > d {
        return None;
    }
    let (pattern, text) = if alen <= blen { (a, b) } else { (b, a) };
    Verifier::new(pattern, d).distance(text)
}

/// Patterns up to this many characters run bit-parallel, one machine word
/// per text character; longer ones use the banded dynamic program.
const WORD_BITS: usize = u64::BITS as usize;

/// A search string compiled once for bounded edit-distance checks against
/// many candidates: `Verifier::new(s, d).distance(t)` equals
/// [`levenshtein_bounded`]`(s, t, d)`.
///
/// Patterns of at most 64 characters are compiled into per-character match
/// masks and verified with the bit-parallel global edit distance of Myers
/// (J. ACM 46(3), 1999) in Hyyrö's formulation: one column of the dynamic
/// program per text character, in a handful of word operations. Longer
/// patterns fall back to the banded dynamic program over the `2d + 1`
/// diagonals.
///
/// ```
/// use sqo_strsim::edit::Verifier;
/// let v = Verifier::new("kitten", 3);
/// assert_eq!(v.distance("sitting"), Some(3));
/// assert_eq!(v.distance("kitchen"), Some(2));
/// assert_eq!(v.distance("mitten"), Some(1));
/// assert_eq!(Verifier::new("kitten", 2).distance("sitting"), None);
/// ```
#[derive(Debug)]
pub struct Verifier {
    d: usize,
    /// Pattern length in characters.
    len: usize,
    kernel: Kernel,
}

#[derive(Debug)]
enum Kernel {
    /// Bit `i` of a mask is set iff pattern character `i` equals the
    /// looked-up character.
    BitParallel {
        ascii: Box<[u64; 128]>,
        /// Masks of the non-ASCII pattern characters, sorted by character.
        other: Vec<(char, u64)>,
    },
    Banded(Vec<char>),
}

impl Verifier {
    /// Compile `pattern` for checks with distance bound `d`.
    pub fn new(pattern: &str, d: usize) -> Self {
        let len = pattern.chars().count();
        if len > WORD_BITS {
            return Self { d, len, kernel: Kernel::Banded(pattern.chars().collect()) };
        }
        let mut ascii = Box::new([0u64; 128]);
        let mut other: Vec<(char, u64)> = Vec::new();
        for (i, c) in pattern.chars().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                ascii[c as usize] |= bit;
            } else {
                match other.binary_search_by_key(&c, |&(oc, _)| oc) {
                    Ok(at) => other[at].1 |= bit,
                    Err(at) => other.insert(at, (c, bit)),
                }
            }
        }
        Self { d, len, kernel: Kernel::BitParallel { ascii, other } }
    }

    /// `Some(dist(pattern, text))` if it is at most the bound, else `None`.
    pub fn distance(&self, text: &str) -> Option<usize> {
        let n = text.chars().count();
        if n.abs_diff(self.len) > self.d {
            return None;
        }
        match &self.kernel {
            Kernel::BitParallel { ascii, other } => {
                if self.len == 0 {
                    return Some(n); // within the bound by the length filter
                }
                let mask = |c: char| {
                    if c.is_ascii() {
                        ascii[c as usize]
                    } else {
                        other.binary_search_by_key(&c, |&(oc, _)| oc).map_or(0, |at| other[at].1)
                    }
                };
                myers(self.len, n, self.d, text.chars().map(mask))
            }
            Kernel::Banded(pattern) => {
                let text: Vec<char> = text.chars().collect();
                let (short, long) = if pattern.len() <= text.len() {
                    (&pattern[..], &text[..])
                } else {
                    (&text[..], &pattern[..])
                };
                banded(short, long, self.d)
            }
        }
    }

    /// `true` iff `dist(pattern, text)` is at most the bound.
    pub fn matches(&self, text: &str) -> bool {
        self.distance(text).is_some()
    }
}

/// Bit-parallel global edit distance between an `m`-character pattern
/// (`1 <= m <= 64`) and an `n`-character text given as the pattern's match
/// mask of each text character. Bit `i` of `pv`/`mv` is the +1/−1 vertical
/// delta between rows `i` and `i + 1` of the current column; `score` tracks
/// the last row, `D[m][j]`. Gives up once the score cannot come back down
/// to `d` in the columns left (it falls by at most one per column).
fn myers(m: usize, n: usize, d: usize, masks: impl Iterator<Item = u64>) -> Option<usize> {
    let last = 1u64 << (m - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut score = m;
    for (j, eq) in masks.enumerate() {
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        // Row 0 of a global alignment is `D[0][j] = j`: a +1 horizontal
        // delta enters at the top of every column.
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        if score > d.saturating_add(n - j - 1) {
            return None;
        }
    }
    (score <= d).then_some(score)
}

/// Banded dynamic program over the `2d + 1` diagonals, `O(d · |short|)`:
/// any cell `(i, j)` with `|i - j| > d` cannot lie on a path of cost `≤ d`.
/// Requires `|long| - |short| <= d`.
fn banded(short: &[char], long: &[char], d: usize) -> Option<usize> {
    if short.is_empty() {
        return Some(long.len());
    }
    if d == 0 {
        return (short == long).then_some(0);
    }

    const INF: usize = usize::MAX / 2;
    let n = short.len();
    let mut row = vec![INF; n + 1];
    for (j, slot) in row.iter_mut().enumerate().take(d.min(n) + 1) {
        *slot = j;
    }
    for (i, &lc) in long.iter().enumerate() {
        let i1 = i + 1;
        // Band for this row: columns j with |i1 - j| <= d.
        let lo = i1.saturating_sub(d);
        let hi = i1.saturating_add(d).min(n);
        let mut prev_diag = if lo == 0 { i } else { row[lo - 1] };
        let mut row_min = INF;
        // Cell left of the band start is outside the band: unreachable.
        let mut left = if lo == 0 { i1 } else { INF };
        if lo == 0 {
            row[0] = i1;
            row_min = i1;
        }
        for j in lo.max(1)..=hi {
            let sc = short[j - 1];
            let cost = usize::from(lc != sc);
            let up = row[j];
            let next = (prev_diag + cost).min(left + 1).min(up + 1);
            prev_diag = up;
            row[j] = next;
            left = next;
            row_min = row_min.min(next);
        }
        // Invalidate the cell just right of the band so the next row does not
        // read a stale value from two rows ago.
        if hi < n {
            row[hi + 1] = INF;
        }
        if row_min > d {
            return None;
        }
    }
    let dist = row[n];
    (dist <= d).then_some(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_pairs() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("book", "back"), 2);
    }

    #[test]
    fn empty_and_identity() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn symmetric() {
        assert_eq!(levenshtein("paris", "alice"), levenshtein("alice", "paris"));
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        // 'é' is two UTF-8 bytes but one edit.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_agrees_with_exact_within_bound() {
        let pairs = [
            ("kitten", "sitting"),
            ("abcdef", "abcdef"),
            ("", "xy"),
            ("similar", "dissimilar"),
            ("dlrid", "dealerid"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein(a, b);
            for d in 0..=8 {
                let got = levenshtein_bounded(a, b, d);
                if exact <= d {
                    assert_eq!(got, Some(exact), "{a:?} vs {b:?} d={d}");
                } else {
                    assert_eq!(got, None, "{a:?} vs {b:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn bounded_zero_distance() {
        assert_eq!(levenshtein_bounded("x", "x", 0), Some(0));
        assert_eq!(levenshtein_bounded("x", "y", 0), None);
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
    }

    #[test]
    fn length_gap_short_circuits() {
        assert_eq!(levenshtein_bounded("a", "abcdefgh", 3), None);
    }

    #[test]
    fn verifier_agrees_with_exact_across_the_word_size() {
        let long = "portrait of a young woman with a pearl necklace in blue and gold";
        let longer = "portrait of a young women with pearl necklaces in blue and golden light";
        assert!(long.chars().count() <= WORD_BITS && longer.chars().count() > WORD_BITS);
        let strings =
            ["", "a", "café", "cafe", "日本語", "日本", "kitten", "sitting", long, longer];
        for a in strings {
            for b in strings {
                let exact = levenshtein(a, b);
                for d in 0..=8 {
                    let want = (exact <= d).then_some(exact);
                    assert_eq!(Verifier::new(a, d).distance(b), want, "{a:?} vs {b:?} d={d}");
                    assert_eq!(levenshtein_bounded(a, b, d), want, "{a:?} vs {b:?} d={d}");
                }
            }
        }
    }

    #[test]
    fn verifier_matches_boundary() {
        assert!(Verifier::new("bmw", 1).matches("bmv"));
        assert!(!Verifier::new("bmw", 2).matches("audi"));
        assert!(Verifier::new("bmw", 4).matches("audi"));
    }
}
