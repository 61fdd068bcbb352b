//! Answer checks, run outside the timed window.
//!
//! Soundness: every returned object holds the returned string, and the
//! string is within the query distance of the search string by
//! `sqo_strsim::edit::levenshtein`. Completeness: on a fixed sample of
//! queries, the answer equals a brute-force scan of the data, wherever the
//! strategy guarantees it — always for the naive strategy, and for the gram
//! strategies when the search string has at least `q·(d+1)` characters.

use sqo_strsim::edit::levenshtein;
use std::collections::{BTreeSet, HashMap};

/// One returned object: its id, the string it matched, and the distance
/// the program reported.
#[derive(Clone, Debug)]
pub struct Hit {
    pub oid: String,
    pub value: String,
    pub dist: usize,
}

/// The data the workload published: base rows `<base_prefix>:<i>`, and
/// rows written during the run `<extra_prefix>:<i>`.
pub struct Corpus {
    base_prefix: &'static str,
    pub base: Vec<String>,
    extra_prefix: &'static str,
    pub extra: Vec<String>,
}

impl Corpus {
    pub fn new(base_prefix: &'static str, base: Vec<String>) -> Self {
        Self { base_prefix, base, extra_prefix: "", extra: Vec::new() }
    }

    pub fn with_extra(mut self, prefix: &'static str, extra: Vec<String>) -> Self {
        self.extra_prefix = prefix;
        self.extra = extra;
        self
    }

    pub fn base_oid(&self, i: usize) -> String {
        format!("{}:{i}", self.base_prefix)
    }

    pub fn extra_oid(&self, i: usize) -> String {
        format!("{}:{i}", self.extra_prefix)
    }

    /// The string stored under `oid`, if the workload published it.
    pub fn value(&self, oid: &str) -> Option<&str> {
        let (prefix, idx) = oid.split_once(':')?;
        let idx: usize = idx.parse().ok()?;
        let list = if prefix == self.base_prefix {
            &self.base
        } else if prefix == self.extra_prefix {
            &self.extra
        } else {
            return None;
        };
        list.get(idx).map(String::as_str)
    }

    /// Brute force: every object within `d` of `s` among the base rows and
    /// the first `extra_visible` written rows, in top-N order (distance,
    /// then string, then oid).
    pub fn scan(&self, s: &str, d: usize, extra_visible: usize) -> Vec<Hit> {
        let len = s.chars().count();
        let mut out = Vec::new();
        let mut visit = |oid: String, v: &str| {
            if v.chars().count().abs_diff(len) <= d {
                let dist = levenshtein(s, v);
                if dist <= d {
                    out.push(Hit { oid, value: v.to_string(), dist });
                }
            }
        };
        for (i, v) in self.base.iter().enumerate() {
            visit(self.base_oid(i), v);
        }
        for (i, v) in self.extra.iter().take(extra_visible).enumerate() {
            visit(self.extra_oid(i), v);
        }
        out.sort_by(|a, b| a.dist.cmp(&b.dist).then(a.value.cmp(&b.value)).then(a.oid.cmp(&b.oid)));
        out
    }
}

/// Brute-force scans of a corpus that does not change, memoised by search
/// string up to a fixed distance cap.
pub struct Oracle<'c> {
    corpus: &'c Corpus,
    cap: usize,
    memo: HashMap<String, Vec<Hit>>,
}

impl<'c> Oracle<'c> {
    pub fn new(corpus: &'c Corpus, cap: usize) -> Self {
        Self { corpus, cap, memo: HashMap::new() }
    }

    pub fn within(&mut self, s: &str, d: usize) -> Vec<Hit> {
        assert!(d <= self.cap, "oracle distance cap {} below {d}", self.cap);
        let (corpus, cap) = (self.corpus, self.cap);
        let all = self.memo.entry(s.to_string()).or_insert_with(|| corpus.scan(s, cap, 0));
        all.iter().filter(|h| h.dist <= d).cloned().collect()
    }
}

/// Whether `strategy_naive` or the string length guarantees a complete
/// answer at distance `d` with q-grams of length `q`.
pub fn guaranteed(s: &str, d: usize, q: usize, naive: bool) -> bool {
    naive || s.chars().count() >= q * (d + 1)
}

/// Soundness of one returned object against the search string `s`.
pub fn sound(corpus: &Corpus, s: &str, d: usize, hit: &Hit) -> Result<(), String> {
    match corpus.value(&hit.oid) {
        Some(v) if v == hit.value => {}
        Some(v) => return Err(format!("{} holds {v:?}, answer says {:?}", hit.oid, hit.value)),
        None => return Err(format!("unknown object {}", hit.oid)),
    }
    let dist = levenshtein(s, &hit.value);
    if dist != hit.dist || dist > d {
        return Err(format!(
            "{:?} vs {:?}: distance {dist}, reported {} (bound {d})",
            s, hit.value, hit.dist
        ));
    }
    Ok(())
}

/// Every hit of a `Similar` answer is sound.
pub fn similar_sound(corpus: &Corpus, s: &str, d: usize, hits: &[Hit]) -> Result<(), String> {
    hits.iter().try_for_each(|h| sound(corpus, s, d, h))
}

/// The answer's objects are exactly the expected ones.
pub fn same_objects(got: &[Hit], want: &[Hit]) -> Result<(), String> {
    let got: BTreeSet<&str> = got.iter().map(|h| h.oid.as_str()).collect();
    let want: BTreeSet<&str> = want.iter().map(|h| h.oid.as_str()).collect();
    if got == want {
        return Ok(());
    }
    let missing = want.difference(&got).count();
    let extra = got.difference(&want).count();
    Err(format!("{missing} expected objects missing, {extra} unexpected"))
}

/// A top-N answer: sound, at most `n` items, no object twice.
pub fn topn_sound(
    corpus: &Corpus,
    s: &str,
    n: usize,
    d_max: usize,
    items: &[Hit],
) -> Result<(), String> {
    if items.len() > n {
        return Err(format!("{} items for top-{n}", items.len()));
    }
    let distinct: BTreeSet<&str> = items.iter().map(|h| h.oid.as_str()).collect();
    if distinct.len() != items.len() {
        return Err("an object appears twice".into());
    }
    similar_sound(corpus, s, d_max, items)
}

/// The shell (1, 3, 5, …, capped at `d_max`) at which the expanding top-N
/// search stops on a complete index, given the true hits within `d_max`.
pub fn topn_final_shell(truth: &[Hit], n: usize, d_max: usize) -> usize {
    let mut d = 1usize.min(d_max);
    loop {
        if truth.iter().filter(|h| h.dist <= d).count() >= n || d >= d_max {
            return d;
        }
        d = (d + 2).min(d_max);
    }
}

/// A top-N answer equals the first `n` true hits within the final shell,
/// in order.
pub fn topn_complete(items: &[Hit], truth: &[Hit], n: usize, shell: usize) -> Result<(), String> {
    let want: Vec<&str> =
        truth.iter().filter(|h| h.dist <= shell).take(n).map(|h| h.oid.as_str()).collect();
    let got: Vec<&str> = items.iter().map(|h| h.oid.as_str()).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("top-{n} returned {got:?}, expected {want:?}"))
    }
}

/// One joined pair: the left object and value, and the matched right hit.
pub struct Pair {
    pub left_oid: String,
    pub left_value: String,
    pub right: Hit,
}

/// Every pair is sound; returns the distinct left `(oid, value)`s.
pub fn join_sound(
    corpus: &Corpus,
    d: usize,
    pairs: &[Pair],
) -> Result<Vec<(String, String)>, String> {
    let mut lefts = BTreeSet::new();
    for p in pairs {
        if corpus.value(&p.left_oid) != Some(p.left_value.as_str()) {
            return Err(format!("left {} does not hold {:?}", p.left_oid, p.left_value));
        }
        sound(corpus, &p.left_value, d, &p.right)?;
        lefts.insert((p.left_oid.clone(), p.left_value.clone()));
    }
    Ok(lefts.into_iter().collect())
}

/// For every left value whose answer is guaranteed, the right objects
/// equal the brute-force answer.
pub fn join_complete(
    oracle: &mut Oracle,
    d: usize,
    q: usize,
    naive: bool,
    lefts: &[(String, String)],
    pairs: &[Pair],
) -> Result<(), String> {
    for (oid, value) in lefts {
        if !guaranteed(value, d, q, naive) {
            continue;
        }
        let got: Vec<Hit> =
            pairs.iter().filter(|p| &p.left_oid == oid).map(|p| p.right.clone()).collect();
        same_objects(&got, &oracle.within(value, d)).map_err(|e| format!("left {value:?}: {e}"))?;
    }
    Ok(())
}
