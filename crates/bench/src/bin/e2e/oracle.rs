//! The benchmark's own answer key.
//!
//! Built by one whitespace-tokenising linear scan over the generated
//! corpus text — never by asking the engine, its tokenizer, or
//! `Query::matches_tokens`. Every returned hit must be a real document
//! that truly matches (precision 1, `len <= top_k`); a sample of queries is
//! re-run without `top_k` and compared for set equality.

use crate::gen::{CorpusText, Spec};
use airphant::SearchHit;
use std::collections::HashMap;

/// Whether `a` and `b` are within one insert, delete or substitution.
pub fn within_one_edit(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > 1 {
        return false;
    }
    let common = short.iter().zip(long).take_while(|(x, y)| x == y).count();
    if short.len() == long.len() {
        short[common..]
            .iter()
            .zip(&long[common..])
            .filter(|(x, y)| x != y)
            .count()
            <= 1
    } else {
        short[common..] == long[common + 1..]
    }
}

/// Whether a document with these tokens satisfies `spec`.
pub fn matches(spec: &Spec, tokens: &[&str]) -> bool {
    let has = |w: &String| tokens.contains(&w.as_str());
    match spec {
        Spec::Term(w) => has(w),
        Spec::And(ws) | Spec::Phrase(ws) => !ws.is_empty() && ws.iter().all(has),
        Spec::Or(ws) => ws.iter().any(has),
        Spec::Prefix(p) => tokens.iter().any(|t| t.starts_with(p.as_str())),
        Spec::Fuzzy(w) => tokens.iter().any(|t| within_one_edit(t, w)),
    }
}

/// Inverted view of one generated corpus.
pub struct Oracle<'a> {
    corpus: &'a CorpusText,
    blob_index: HashMap<&'a str, u32>,
    postings: HashMap<&'a str, Vec<u32>>,
    vocab: Vec<&'a str>,
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn union(lists: impl Iterator<Item = Vec<u32>>) -> Vec<u32> {
    let mut out: Vec<u32> = lists.flatten().collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl<'a> Oracle<'a> {
    /// Scan `corpus` once.
    pub fn new(corpus: &'a CorpusText) -> Self {
        let mut postings: HashMap<&str, Vec<u32>> = HashMap::new();
        for doc in 0..corpus.docs.len() {
            for token in corpus.text(doc).split_ascii_whitespace() {
                let list = postings.entry(token).or_default();
                if list.last() != Some(&(doc as u32)) {
                    list.push(doc as u32);
                }
            }
        }
        let mut vocab: Vec<&str> = postings.keys().copied().collect();
        vocab.sort_unstable();
        let blob_index = corpus
            .blobs
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i as u32))
            .collect();
        Oracle {
            corpus,
            blob_index,
            postings,
            vocab,
        }
    }

    fn docs_of(&self, word: &str) -> Vec<u32> {
        self.postings.get(word).cloned().unwrap_or_default()
    }

    /// Every document that matches `spec`, ascending.
    pub fn truth(&self, spec: &Spec) -> Vec<u32> {
        match spec {
            Spec::Term(w) => self.docs_of(w),
            Spec::And(ws) | Spec::Phrase(ws) => {
                let mut lists = ws.iter().map(|w| self.docs_of(w));
                let first = lists.next().unwrap_or_default();
                lists.fold(first, |acc, l| intersect(&acc, &l))
            }
            Spec::Or(ws) => union(ws.iter().map(|w| self.docs_of(w))),
            Spec::Prefix(p) => {
                let start = self.vocab.partition_point(|w| *w < p.as_str());
                union(
                    self.vocab[start..]
                        .iter()
                        .take_while(|w| w.starts_with(p.as_str()))
                        .map(|w| self.docs_of(w)),
                )
            }
            Spec::Fuzzy(t) => union(
                self.vocab
                    .iter()
                    .filter(|w| within_one_edit(w, t))
                    .map(|w| self.docs_of(w)),
            ),
        }
    }

    /// The corpus document a hit claims to be, if it is one, byte for byte.
    fn doc_of_hit(&self, hit: &SearchHit) -> Option<u32> {
        let blob = *self.blob_index.get(hit.blob.as_str())?;
        let doc = self
            .corpus
            .docs
            .binary_search_by_key(&(blob, hit.offset), |d| (d.blob, d.offset as u64))
            .ok()?;
        let loc = self.corpus.docs[doc];
        (loc.len == hit.len && self.corpus.text(doc) == hit.text).then_some(doc as u32)
    }

    /// Check one answer. `top_k = None` additionally demands the exact
    /// match set.
    pub fn check(
        &self,
        spec: &Spec,
        hits: &[SearchHit],
        top_k: Option<usize>,
    ) -> Result<(), String> {
        if let Some(k) = top_k {
            if hits.len() > k {
                return Err(format!("{spec:?}: {} hits exceed top_k {k}", hits.len()));
            }
        }
        let mut ids = Vec::with_capacity(hits.len());
        for hit in hits {
            let doc = self.doc_of_hit(hit).ok_or_else(|| {
                format!(
                    "{spec:?}: hit {}@{} is not a corpus document",
                    hit.blob, hit.offset
                )
            })?;
            let tokens: Vec<&str> = hit.text.split_ascii_whitespace().collect();
            if !matches(spec, &tokens) {
                return Err(format!("{spec:?}: hit {:?} does not match", hit.text));
            }
            ids.push(doc);
        }
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("{spec:?}: a document was returned twice"));
        }
        match top_k {
            Some(_) if hits.is_empty() && !self.truth(spec).is_empty() => {
                Err(format!("{spec:?}: no hits although documents match"))
            }
            None if ids != self.truth(spec) => Err(format!(
                "{spec:?}: returned {} documents, {} match",
                ids.len(),
                self.truth(spec).len()
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_edit_distance() {
        assert!(within_one_edit("kitten", "kitten"));
        assert!(within_one_edit("kitten", "sitten"));
        assert!(within_one_edit("kitten", "kittens"));
        assert!(within_one_edit("itten", "kitten"));
        assert!(!within_one_edit("kitten", "sittin"));
        assert!(!within_one_edit("ab", "abcd"));
    }

    #[test]
    fn truth_agrees_with_a_per_document_scan() {
        let corpus = crate::gen::corpus(5, 1500, 1000, "c", false);
        let oracle = Oracle::new(&corpus);
        let specs = crate::gen::QueryGen::new(&corpus, 5, 2).paper_mix(120);
        for spec in &specs {
            let scanned: Vec<u32> = (0..corpus.docs.len())
                .filter(|&d| {
                    let tokens: Vec<&str> = corpus.text(d).split_ascii_whitespace().collect();
                    matches(spec, &tokens)
                })
                .map(|d| d as u32)
                .collect();
            assert_eq!(oracle.truth(spec), scanned, "{spec:?}");
            assert!(!scanned.is_empty(), "{spec:?} was generated to match");
        }
    }
}
