//! The index vocabulary and its suffix array.
//!
//! The IoU sketch never stores the words it hashed, so exact-term lookups
//! are all it can answer. A [`Vocabulary`] closes that gap: the sorted,
//! deduplicated term list is serialized alongside the header (an
//! Index-class v2 section, so the tiered cache pins it), plus a suffix
//! array over the `\0`-joined term text. Three lookups come out of it:
//!
//! * **prefix** — binary search over the sorted terms, `O(m log V)`;
//! * **infix** — binary search over the suffix array, `O(m log N)` with
//!   `N` the total vocabulary bytes (the short-substring fallback);
//! * **fuzzy** — a Levenshtein-automaton walk over the sorted terms that
//!   shares DP rows between terms with a common prefix and prunes dead
//!   subtrees.
//!
//! Construction is deterministic and seed-independent: sorting and
//! prefix-doubling only, no hashing.

use crate::encoding::{put_varint, Cursor};
use crate::error::SketchError;
use crate::levenshtein::LevenshteinAutomaton;
use crate::Result;
use bytes::BytesMut;

/// Separator byte between terms in the concatenated suffix-array text.
const SEP: u8 = 0;

/// The sorted vocabulary of one segment plus its suffix array.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    /// Sorted, strictly-deduplicated terms.
    terms: Vec<String>,
    /// Terms joined with `\0` (no trailing separator).
    text: Vec<u8>,
    /// Byte offset in `text` where each term starts.
    starts: Vec<u32>,
    /// Suffix array over `text`: byte positions sorted by suffix.
    sa: Vec<u32>,
}

impl Vocabulary {
    /// Build a vocabulary from sorted, strictly-ascending terms.
    pub fn build(terms: Vec<String>) -> Result<Self> {
        if terms.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SketchError::InvalidConfig {
                reason: "vocabulary terms must be sorted and distinct".into(),
            });
        }
        let (text, starts) = join_terms(&terms);
        let sa = build_suffix_array(&text);
        Ok(Vocabulary {
            terms,
            text,
            starts,
            sa,
        })
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vocabulary holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The sorted terms.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Whether `term` is one of the indexed terms: a binary search over the
    /// contiguous `text`/`starts` arrays (byte order is `str` order), so a
    /// probe chases no per-term heap pointer. This is the planner's
    /// per-segment pruning test — a segment whose vocabulary lacks a term
    /// holds no document containing it.
    pub fn contains(&self, term: &str) -> bool {
        let term = term.as_bytes();
        let (mut lo, mut hi) = (0, self.starts.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term_bytes(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// The bytes of term `i` inside `text` (up to the next term's
    /// separator, or the end of the text for the last term).
    fn term_bytes(&self, i: usize) -> &[u8] {
        let start = self.starts[i] as usize;
        let end = match self.starts.get(i + 1) {
            Some(&next) => next as usize - 1,
            None => self.text.len(),
        };
        &self.text[start..end]
    }

    /// All terms starting with `prefix` — the contiguous run of the sorted
    /// term list found by binary search, `O(m log V)`.
    pub fn prefix_matches(&self, prefix: &str) -> &[String] {
        let lo = self.terms.partition_point(|t| t.as_str() < prefix);
        let hi = lo + self.terms[lo..].partition_point(|t| t.starts_with(prefix));
        &self.terms[lo..hi]
    }

    /// All terms containing `pattern` as a substring, in sorted order.
    /// Candidate positions come from one suffix-array range query,
    /// `O(m log N)`; each candidate is verified against its term so
    /// matches spanning a term separator never leak through.
    pub fn containing(&self, pattern: &str) -> Vec<&str> {
        if pattern.is_empty() {
            return self.terms.iter().map(String::as_str).collect();
        }
        let pat = pattern.as_bytes();
        let lo = self.sa.partition_point(|&p| &self.text[p as usize..] < pat);
        let hi = lo + self.sa[lo..].partition_point(|&p| self.text[p as usize..].starts_with(pat));
        let mut idxs: Vec<usize> = self.sa[lo..hi]
            .iter()
            .map(|&p| self.term_of_position(p as usize))
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        idxs.into_iter()
            .map(|i| self.terms[i].as_str())
            .filter(|t| t.contains(pattern))
            .collect()
    }

    /// All terms within `max_edits` Levenshtein distance of `target`, in
    /// sorted order: an automaton walk over the sorted terms sharing DP
    /// rows across common prefixes.
    pub fn fuzzy_matches(&self, target: &str, max_edits: u32) -> Vec<&str> {
        let aut = LevenshteinAutomaton::new(target, max_edits);
        let mut out = Vec::new();
        let mut rows = vec![aut.start()];
        let mut prev: Vec<char> = Vec::new();
        for term in &self.terms {
            let chars: Vec<char> = term.chars().collect();
            let shared = prev.iter().zip(&chars).take_while(|(a, b)| a == b).count();
            rows.truncate(shared + 1);
            prev = chars;
            // Fewer live rows than the shared prefix means the shared part
            // already exhausted the budget — every extension is dead too.
            let live = rows.len() - 1;
            if live < shared {
                continue;
            }
            let mut dead = false;
            for &c in &prev[live..] {
                let next = aut.step(rows.last().expect("rows nonempty"), c);
                if !aut.can_match(&next) {
                    dead = true;
                    break;
                }
                rows.push(next);
            }
            if !dead && rows.len() == prev.len() + 1 && aut.is_match(rows.last().expect("rows")) {
                out.push(term.as_str());
            }
        }
        out
    }

    /// Rough resident size in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.len() + 24).sum::<usize>()
            + self.text.len()
            + 4 * (self.starts.len() + self.sa.len())
    }

    /// Serialize: term list then the suffix array, all varints.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        put_varint(buf, self.terms.len() as u64);
        for t in &self.terms {
            put_varint(buf, t.len() as u64);
            buf.extend_from_slice(t.as_bytes());
        }
        put_varint(buf, self.sa.len() as u64);
        for &p in &self.sa {
            put_varint(buf, p as u64);
        }
    }

    /// Deserialize and validate. The term list must be sorted and
    /// distinct; the suffix array must be a permutation of the rebuilt
    /// text's positions. Any violation is a typed [`SketchError::Corrupt`]
    /// — lookups on a decoded vocabulary are bounds-safe by construction.
    pub fn decode_from(cur: &mut Cursor<'_>) -> Result<Self> {
        let corrupt = |detail: String| SketchError::Corrupt { detail };
        let n_terms = cur.varint()? as usize;
        if n_terms > cur.remaining() {
            return Err(corrupt(format!(
                "vocab term count {n_terms} exceeds remaining bytes"
            )));
        }
        let mut terms = Vec::with_capacity(n_terms);
        for _ in 0..n_terms {
            let len = cur.varint()? as usize;
            let bytes = cur.bytes(len)?;
            let term = std::str::from_utf8(bytes)
                .map_err(|_| corrupt("vocab term is not valid UTF-8".into()))?
                .to_owned();
            if let Some(last) = terms.last() {
                if *last >= term {
                    return Err(corrupt("vocab terms not sorted/distinct".into()));
                }
            }
            terms.push(term);
        }
        let (text, starts) = join_terms(&terms);
        let sa_len = cur.varint()? as usize;
        if sa_len != text.len() {
            return Err(corrupt(format!(
                "suffix array has {sa_len} entries for {} text bytes",
                text.len()
            )));
        }
        let mut seen = vec![false; text.len()];
        let mut sa = Vec::with_capacity(sa_len);
        for _ in 0..sa_len {
            let p = cur.varint()? as usize;
            if p >= text.len() || seen[p] {
                return Err(corrupt("suffix array is not a permutation".into()));
            }
            seen[p] = true;
            sa.push(p as u32);
        }
        Ok(Vocabulary {
            terms,
            text,
            starts,
            sa,
        })
    }

    /// Index of the term whose bytes contain text position `pos`.
    fn term_of_position(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= pos) - 1
    }
}

/// Join terms with the separator; return the text and per-term starts.
fn join_terms(terms: &[String]) -> (Vec<u8>, Vec<u32>) {
    let total: usize = terms.iter().map(|t| t.len() + 1).sum();
    let mut text = Vec::with_capacity(total.saturating_sub(1));
    let mut starts = Vec::with_capacity(terms.len());
    for (i, t) in terms.iter().enumerate() {
        if i > 0 {
            text.push(SEP);
        }
        starts.push(text.len() as u32);
        text.extend_from_slice(t.as_bytes());
    }
    (text, starts)
}

/// Deterministic suffix array by prefix doubling, `O(N log^2 N)`.
fn build_suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    if n <= 1 {
        return sa;
    }
    let mut rank: Vec<i64> = text.iter().map(|&b| b as i64).collect();
    let mut tmp = vec![0i64; n];
    let mut k = 1usize;
    loop {
        let key = |i: u32| -> (i64, i64) {
            let i = i as usize;
            (rank[i], if i + k < n { rank[i + k] } else { -1 })
        };
        sa.sort_unstable_by_key(|&i| key(i));
        tmp[sa[0] as usize] = 0;
        for w in 1..n {
            let bump = i64::from(key(sa[w]) != key(sa[w - 1]));
            tmp[sa[w] as usize] = tmp[sa[w - 1] as usize] + bump;
        }
        rank.copy_from_slice(&tmp);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            return sa;
        }
        k *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab(words: &[&str]) -> Vocabulary {
        let mut terms: Vec<String> = words.iter().map(|w| (*w).to_owned()).collect();
        terms.sort();
        terms.dedup();
        Vocabulary::build(terms).unwrap()
    }

    #[test]
    fn build_rejects_unsorted_and_duplicates() {
        assert!(Vocabulary::build(vec!["b".into(), "a".into()]).is_err());
        assert!(Vocabulary::build(vec!["a".into(), "a".into()]).is_err());
        assert!(Vocabulary::build(vec![]).unwrap().is_empty());
    }

    #[test]
    fn suffix_array_is_sorted_suffix_order() {
        let v = vocab(&["banana", "band", "can"]);
        for w in v.sa.windows(2) {
            assert!(v.text[w[0] as usize..] < v.text[w[1] as usize..]);
        }
        assert_eq!(v.sa.len(), v.text.len());
    }

    #[test]
    fn prefix_matches_are_the_sorted_run() {
        let v = vocab(&["type", "typo", "typeahead", "tyre", "ulcer"]);
        let m: Vec<&str> = v.prefix_matches("typ").iter().map(String::as_str).collect();
        assert_eq!(m, vec!["type", "typeahead", "typo"]);
        assert!(v.prefix_matches("zz").is_empty());
        assert_eq!(
            v.prefix_matches("").len(),
            5,
            "empty prefix matches everything"
        );
    }

    #[test]
    fn contains_agrees_with_the_term_list() {
        let v = vocab(&["", "a", "ab", "abc", "b", "zé", "zz"]);
        for t in v.terms() {
            assert!(v.contains(t), "{t:?}");
        }
        // Absent neighbours on both sides of present terms, and a probe
        // that only exists across the separator between two terms.
        for t in ["aa", "abd", "c", "z", "zzz", "a\0ab"] {
            assert!(!v.contains(t), "{t:?}");
        }
        assert!(!vocab(&[]).contains("a"));
        assert!(!vocab(&["a"]).contains(""));
    }

    #[test]
    fn containing_finds_infixes_and_never_spans_terms() {
        let v = vocab(&["abxy", "xyab", "zab"]);
        assert_eq!(v.containing("ab"), vec!["abxy", "xyab", "zab"]);
        assert_eq!(v.containing("xy"), vec!["abxy", "xyab"]);
        // "yz" occurs only across the \0 joint between terms.
        assert!(v.containing("yz").is_empty());
        assert!(v.containing("nope").is_empty());
        assert_eq!(v.containing("").len(), 3);
    }

    #[test]
    fn containing_agrees_with_linear_scan() {
        let words: Vec<String> = (0..60).map(|i| format!("w{}x{}", i % 7, i)).collect();
        let mut sorted = words.clone();
        sorted.sort();
        sorted.dedup();
        let v = Vocabulary::build(sorted.clone()).unwrap();
        for pat in ["w1", "x3", "1x", "w", "x59", "zz"] {
            let expect: Vec<&str> = sorted
                .iter()
                .filter(|t| t.contains(pat))
                .map(String::as_str)
                .collect();
            assert_eq!(v.containing(pat), expect, "pattern {pat:?}");
        }
    }

    #[test]
    fn fuzzy_matches_agree_with_pairwise_distance() {
        use crate::levenshtein::levenshtein_within;
        let words = [
            "disk", "disc", "dusk", "desk", "risk", "daisy", "disks", "network",
        ];
        let v = vocab(&words);
        for target in ["disk", "dis", "network", "nope", ""] {
            for k in 0..3u32 {
                let expect: Vec<&str> = v
                    .terms()
                    .iter()
                    .filter(|t| levenshtein_within(target, t, k))
                    .map(String::as_str)
                    .collect();
                assert_eq!(v.fuzzy_matches(target, k), expect, "{target:?} k={k}");
            }
        }
    }

    #[test]
    fn roundtrip_through_bytes() {
        let v = vocab(&["alpha", "beta", "gamma", "delta"]);
        let mut buf = BytesMut::new();
        v.encode_into(&mut buf);
        let mut cur = Cursor::new(&buf);
        let back = Vocabulary::decode_from(&mut cur).unwrap();
        assert!(cur.is_exhausted());
        assert_eq!(back, v);
    }

    #[test]
    fn decode_rejects_corruption() {
        let v = vocab(&["aa", "bb", "cc"]);
        let mut buf = BytesMut::new();
        v.encode_into(&mut buf);
        let blob = buf.freeze();
        // Every truncation is a typed error.
        for cut in 0..blob.len() {
            let mut cur = Cursor::new(&blob[..cut]);
            let r = Vocabulary::decode_from(&mut cur).and_then(|_| {
                if cur.is_exhausted() {
                    Ok(())
                } else {
                    Err(SketchError::Corrupt {
                        detail: "trailing".into(),
                    })
                }
            });
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
        // Unsorted terms are rejected.
        let mut bad = BytesMut::new();
        put_varint(&mut bad, 2);
        put_varint(&mut bad, 1);
        bad.extend_from_slice(b"b");
        put_varint(&mut bad, 1);
        bad.extend_from_slice(b"a");
        put_varint(&mut bad, 3);
        for p in [0u64, 1, 2] {
            put_varint(&mut bad, p);
        }
        assert!(Vocabulary::decode_from(&mut Cursor::new(&bad)).is_err());
    }

    #[test]
    fn empty_vocab_roundtrips_and_answers() {
        let v = Vocabulary::build(vec![]).unwrap();
        assert!(v.prefix_matches("x").is_empty());
        assert!(v.containing("x").is_empty());
        assert!(v.fuzzy_matches("x", 2).is_empty());
        let mut buf = BytesMut::new();
        v.encode_into(&mut buf);
        let back = Vocabulary::decode_from(&mut Cursor::new(&buf)).unwrap();
        assert!(back.is_empty());
    }
}
