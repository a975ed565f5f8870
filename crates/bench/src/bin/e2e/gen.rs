//! The benchmark's own seeded inputs: a Zipf corpus and the query lists.
//!
//! Corpus shape is the paper's `zipf(5,5,1)`: Zipf(1.07) over a 100k-word
//! vocabulary, 10 tokens per document, 50k documents per blob. Nothing here
//! comes from `airphant_corpus`' generators — a later PR may delete those,
//! and the benchmark must keep producing the same inputs for a seed.

use std::collections::HashMap;

/// Vocabulary size the Zipf ranks are drawn over.
pub const VOCAB: usize = 100_000;
/// Zipf exponent.
pub const ALPHA: f64 = 1.07;
/// Tokens per document.
pub const TOKENS_PER_DOC: usize = 10;
/// Documents per corpus blob (the paper packs 50k into one).
pub const DOCS_PER_BLOB: usize = 50_000;
/// Compound, phrase, prefix and fuzzy queries are built so that no more
/// than this many documents can match: a compound query fetches *every*
/// candidate, and one 70k-document query would own the p99 and the byte
/// count of a whole run.
pub const MAX_COMPOUND_MATCHES: u32 = 200;
/// "Uniform" single terms are drawn from the words that occur in at most
/// this many documents — 99.8 % of the vocabulary, the paper's rare-term
/// prior. A 70k-document word is one uniform draw in 600 yet fifty times
/// the mean bytes of a query; left in, `bytes_per_query` would mostly count
/// how many of them a seed happened to draw.
pub const UNIFORM_MAX_DF: u32 = 1_000;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Derive an independent stream seed from `seed` and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_INIT`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Inverse-CDF Zipf sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `alpha` over `n` ranks.
    pub fn new(n: usize, alpha: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank (0 is the most frequent).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The word at Zipf rank `rank`: 5 to 9 lowercase letters scrambled from
/// the rank and the seed, so prefixes and one-edit neighbours are shared
/// between words the way they are in a real vocabulary. The length depends
/// on the rank alone: the ten hottest words are a third of all tokens, and
/// drawing their lengths per seed would move the corpus size — and every
/// ratio over it — by several percent between seeds.
pub fn word(rank: usize, seed: u64) -> String {
    let mut bits = derive(seed ^ 0x776f_7264, rank as u64);
    let len = 5 + rank % 5;
    (0..len)
        .map(|_| {
            let c = b'a' + (bits % 26) as u8;
            bits /= 26;
            c as char
        })
        .collect()
}

/// Where one document lives.
#[derive(Debug, Clone, Copy)]
pub struct DocLoc {
    /// Index into [`CorpusText::blobs`].
    pub blob: u32,
    /// Byte offset in the blob.
    pub offset: u32,
    /// Length in bytes.
    pub len: u32,
}

/// A generated corpus: newline-separated documents packed into blobs.
pub struct CorpusText {
    /// `(blob name, blob text)`.
    pub blobs: Vec<(String, String)>,
    /// Every document in corpus order.
    pub docs: Vec<DocLoc>,
    /// Document bytes, separators excluded (the `space_amp` and
    /// `write_amp` denominator).
    pub doc_bytes: u64,
    /// `words[r]` is the word of rank `r`.
    pub words: Vec<String>,
    /// `df[r]`: documents containing rank `r`'s word.
    pub df: Vec<u32>,
    /// FNV-1a digest of every blob name and text.
    pub digest: u64,
}

impl CorpusText {
    /// Text of document `doc`.
    pub fn text(&self, doc: usize) -> &str {
        let d = self.docs[doc];
        &self.blobs[d.blob as usize].1[d.offset as usize..(d.offset + d.len) as usize]
    }

    /// Ranks that occur in at least one document.
    pub fn present_ranks(&self) -> Vec<usize> {
        (0..self.df.len()).filter(|&r| self.df[r] > 0).collect()
    }
}

/// Generate `n_docs` documents under `prefix`, `docs_per_blob` to a blob
/// (at least 1). With `unique_ids` the last
/// token of document `i` is an id no other document has (`ingest-live`
/// probes for it).
pub fn corpus(
    seed: u64,
    n_docs: usize,
    docs_per_blob: usize,
    prefix: &str,
    unique_ids: bool,
) -> CorpusText {
    let zipf = Zipf::new(VOCAB, ALPHA);
    let mut rng = Rng::new(derive(seed, 1));
    let words: Vec<String> = (0..VOCAB).map(|r| word(r, seed)).collect();
    let mut df = vec![0u32; VOCAB];
    let mut blobs: Vec<(String, String)> = Vec::new();
    let mut docs = Vec::with_capacity(n_docs);
    let mut doc_bytes = 0u64;
    let mut ranks = [0usize; TOKENS_PER_DOC];
    for i in 0..n_docs {
        if i % docs_per_blob == 0 {
            blobs.push((format!("{prefix}/blob-{:04}", blobs.len()), String::new()));
        }
        let blob_idx = blobs.len() - 1;
        let text = &mut blobs[blob_idx].1;
        if !text.is_empty() {
            text.push('\n');
        }
        let offset = text.len();
        let zipf_tokens = TOKENS_PER_DOC - usize::from(unique_ids);
        for (t, slot) in ranks.iter_mut().enumerate().take(zipf_tokens) {
            *slot = zipf.sample(&mut rng);
            if t > 0 {
                text.push(' ');
            }
            text.push_str(&words[*slot]);
        }
        if unique_ids {
            text.push_str(&unique_token(seed, i));
        }
        let seen = &mut ranks[..zipf_tokens];
        seen.sort_unstable();
        for (t, &r) in seen.iter().enumerate() {
            if t == 0 || seen[t - 1] != r {
                df[r] += 1;
            }
        }
        let len = text.len() - offset;
        doc_bytes += len as u64;
        docs.push(DocLoc {
            blob: blob_idx as u32,
            offset: offset as u32,
            len: len as u32,
        });
    }
    let digest = blobs.iter().fold(FNV_INIT, |h, (name, text)| {
        fnv1a(fnv1a(h, name.as_bytes()), text.as_bytes())
    });
    CorpusText {
        blobs,
        docs,
        doc_bytes,
        words,
        df,
        digest,
    }
}

/// The id token only document `i` of an `unique_ids` corpus carries
/// (leading space included when used inside a line).
pub fn unique_token(seed: u64, i: usize) -> String {
    format!(" id{:x}n{i}", seed & 0xffff)
}

/// One generated query, in the benchmark's own terms (the oracle evaluates
/// these; [`crate::oracle`] never asks the engine what a query means).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// One keyword.
    Term(String),
    /// Every word occurs.
    And(Vec<String>),
    /// Any word occurs.
    Or(Vec<String>),
    /// Every word occurs (the index stores no positions).
    Phrase(Vec<String>),
    /// Some token starts with this.
    Prefix(String),
    /// Some token is within one edit of this.
    Fuzzy(String),
}

impl Spec {
    /// The engine's query for this spec.
    pub fn to_query(&self) -> airphant::Query {
        use airphant::Query;
        match self {
            Spec::Term(w) => Query::term(w.clone()),
            Spec::And(ws) => Query::all(ws.iter().map(|w| Query::term(w.clone()))),
            Spec::Or(ws) => Query::any(ws.iter().map(|w| Query::term(w.clone()))),
            Spec::Phrase(ws) => Query::phrase(ws.iter().cloned()),
            Spec::Prefix(p) => Query::prefix(p.clone()),
            Spec::Fuzzy(w) => Query::fuzzy(w.clone(), 1),
        }
    }
}

/// FNV-1a digest of a query list (printed next to the corpus digest so two
/// runs can prove they measured identical inputs).
pub fn digest_specs(specs: &[Spec]) -> u64 {
    specs
        .iter()
        .fold(FNV_INIT, |h, s| fnv1a(h, format!("{s:?};").as_bytes()))
}

/// Query-list generator over one corpus.
pub struct QueryGen<'a> {
    corpus: &'a CorpusText,
    present: Vec<usize>,
    rare: Vec<usize>,
    by_word: HashMap<&'a str, usize>,
    sorted_present: Vec<&'a str>,
    df_cdf: Vec<u64>,
    rng: Rng,
}

impl<'a> QueryGen<'a> {
    /// A generator seeded from `seed` (stream `tag`).
    pub fn new(corpus: &'a CorpusText, seed: u64, tag: u64) -> Self {
        let present = corpus.present_ranks();
        assert!(!present.is_empty(), "corpus has no words");
        let rare: Vec<usize> = present
            .iter()
            .copied()
            .filter(|&r| corpus.df[r] <= UNIFORM_MAX_DF)
            .collect();
        assert!(!rare.is_empty(), "corpus has no rare words");
        let by_word = present
            .iter()
            .map(|&r| (corpus.words[r].as_str(), r))
            .collect();
        let mut sorted_present: Vec<&str> =
            present.iter().map(|&r| corpus.words[r].as_str()).collect();
        sorted_present.sort_unstable();
        sorted_present.dedup();
        let mut acc = 0u64;
        let df_cdf = present
            .iter()
            .map(|&r| {
                acc += corpus.df[r] as u64;
                acc
            })
            .collect();
        QueryGen {
            corpus,
            present,
            rare,
            by_word,
            sorted_present,
            df_cdf,
            rng: Rng::new(derive(seed, tag)),
        }
    }

    fn df_of(&self, w: &str) -> u32 {
        self.by_word.get(w).map_or(0, |&r| self.corpus.df[r])
    }

    /// A word drawn uniformly from the words that occur in at most
    /// [`UNIFORM_MAX_DF`] documents (the paper's prior: rare terms, short
    /// superposts).
    pub fn uniform_word(&mut self) -> String {
        let r = self.rare[self.rng.below(self.rare.len())];
        self.corpus.words[r].clone()
    }

    /// A word drawn in proportion to its document frequency (the hot set:
    /// long superposts).
    pub fn word_by_df(&mut self) -> String {
        let total = *self.df_cdf.last().expect("non-empty");
        let u = ((self.rng.next_u64() as u128 * total as u128) >> 64) as u64;
        let i = self.df_cdf.partition_point(|&c| c <= u);
        self.corpus.words[self.present[i]].clone()
    }

    /// Distinct words of one random document, each rare enough that a
    /// conjunction over them stays small. Resamples until it finds
    /// `min..=max` of them.
    fn rare_cooccurring(&mut self, min: usize, max: usize, consecutive: bool) -> Vec<String> {
        loop {
            let doc = self.rng.below(self.corpus.docs.len());
            let tokens: Vec<&str> = self.corpus.text(doc).split_ascii_whitespace().collect();
            let want = min + self.rng.below(max - min + 1);
            let picked: Vec<String> = if consecutive {
                if tokens.len() < want {
                    continue;
                }
                let start = self.rng.below(tokens.len() - want + 1);
                let window = &tokens[start..start + want];
                let dfs = || window.iter().map(|w| self.df_of(w));
                if dfs().all(|df| df > MAX_COMPOUND_MATCHES) || dfs().any(|df| df > UNIFORM_MAX_DF)
                {
                    continue;
                }
                window.iter().map(|w| (*w).to_owned()).collect()
            } else {
                let mut rare: Vec<&str> = tokens
                    .into_iter()
                    .filter(|w| (1..=MAX_COMPOUND_MATCHES).contains(&self.df_of(w)))
                    .collect();
                rare.sort_unstable();
                rare.dedup();
                if rare.len() < want {
                    continue;
                }
                rare.truncate(want);
                rare.into_iter().map(str::to_owned).collect()
            };
            return picked;
        }
    }

    /// `And` of 2–4 rare words that share a document (never empty).
    pub fn and_query(&mut self) -> Spec {
        Spec::And(self.rare_cooccurring(2, 4, false))
    }

    /// `Or` of 2–4 uniformly drawn rare words (together they match at most
    /// [`MAX_COMPOUND_MATCHES`] documents).
    pub fn or_query(&mut self) -> Spec {
        let n = 2 + self.rng.below(3);
        let mut ws = Vec::with_capacity(n);
        while ws.len() < n {
            let w = self.uniform_word();
            if self.df_of(&w) <= MAX_COMPOUND_MATCHES / 4 && !ws.contains(&w) {
                ws.push(w);
            }
        }
        Spec::Or(ws)
    }

    /// 2–3 consecutive words of one document, at least one of them rare
    /// and none of them among the hottest.
    pub fn phrase_query(&mut self) -> Spec {
        Spec::Phrase(self.rare_cooccurring(2, 3, true))
    }

    fn prefix_matches(&self, prefix: &str) -> u64 {
        let start = self.sorted_present.partition_point(|w| *w < prefix);
        self.sorted_present[start..]
            .iter()
            .take_while(|w| w.starts_with(prefix))
            .map(|w| self.df_of(w) as u64)
            .sum()
    }

    /// A prefix (all but the last two letters of a present word) whose
    /// expansion matches few documents.
    pub fn prefix_query(&mut self) -> Spec {
        loop {
            let w = self.uniform_word();
            let p = &w[..w.len() - 2];
            if self.prefix_matches(p) <= MAX_COMPOUND_MATCHES as u64 {
                return Spec::Prefix(p.to_owned());
            }
        }
    }

    /// Documents containing any present word within one edit of `target`.
    fn fuzzy_matches(&self, target: &str) -> u64 {
        let t = target.as_bytes();
        let mut seen: Vec<&str> = Vec::new();
        let consider = |cand: &[u8], seen: &mut Vec<&'a str>| {
            if let Ok(s) = std::str::from_utf8(cand) {
                if let Some((&k, _)) = self.by_word.get_key_value(s) {
                    if !seen.contains(&k) {
                        seen.push(k);
                    }
                }
            }
        };
        consider(t, &mut seen);
        for i in 0..=t.len() {
            for c in b'a'..=b'z' {
                let mut ins = t.to_vec();
                ins.insert(i, c);
                consider(&ins, &mut seen);
                if i < t.len() {
                    let mut sub = t.to_vec();
                    sub[i] = c;
                    consider(&sub, &mut seen);
                }
            }
            if i < t.len() {
                let mut del = t.to_vec();
                del.remove(i);
                consider(&del, &mut seen);
            }
        }
        seen.iter().map(|w| self.df_of(w) as u64).sum()
    }

    /// A present word with one letter substituted, whose one-edit
    /// neighbourhood matches few documents (and at least the original).
    pub fn fuzzy_query(&mut self) -> Spec {
        loop {
            let w = self.uniform_word();
            let mut b = w.into_bytes();
            let i = self.rng.below(b.len());
            b[i] = b'a' + ((b[i] - b'a' + 1 + self.rng.below(25) as u8) % 26);
            let target = String::from_utf8(b).expect("ascii");
            let n = self.fuzzy_matches(&target);
            if (1..=MAX_COMPOUND_MATCHES as u64).contains(&n) {
                return Spec::Fuzzy(target);
            }
        }
    }

    /// `lookup-cold`'s mix: 70 % uniform single terms, 20 % `And`/`Or`,
    /// 5 % phrase, 5 % prefix/fuzzy. The shares are exact in every block of
    /// 100 queries — only the order inside a block is drawn — so host time
    /// per query does not depend on how many expensive queries a seed
    /// happened to draw. Of the five prefix/fuzzy slots, one in every tenth
    /// block is a fuzzy query and the rest are prefixes: one fuzzy expansion
    /// walks the whole vocabulary and costs as much host time as five
    /// hundred term lookups, so even at 1 % it was 85 % of this workload's
    /// CPU; at 0.1 % it is about a third, and `sketch.expand_us` says so.
    pub fn paper_mix(&mut self, n: usize) -> Vec<Spec> {
        let mut out = Vec::with_capacity(n + 100);
        let mut block = 0usize;
        while out.len() < n {
            let mut kinds: Vec<u8> = (0..100u8).collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, self.rng.below(i + 1));
            }
            for k in kinds {
                out.push(match k {
                    0..=69 => Spec::Term(self.uniform_word()),
                    70..=79 => self.and_query(),
                    80..=89 => self.or_query(),
                    90..=94 => self.phrase_query(),
                    99 if block.is_multiple_of(10) => self.fuzzy_query(),
                    _ => self.prefix_query(),
                });
            }
            block += 1;
        }
        out.truncate(n);
        out
    }

    /// `serve-zipf`'s list: single terms drawn by document frequency.
    pub fn hot_terms(&mut self, n: usize) -> Vec<Spec> {
        (0..n).map(|_| Spec::Term(self.word_by_df())).collect()
    }

    /// `scatter-segments`' list: compound boolean queries on uniform terms.
    pub fn compound_mix(&mut self, n: usize) -> Vec<Spec> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    self.and_query()
                } else {
                    self.or_query()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, ALPHA);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same ranks");
        assert_ne!(a, draw(8), "another seed, other ranks");
        let top = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 500).count();
        assert!(top > 20 * tail.max(1), "rank 0 dominates: {top} vs {tail}");
        assert!(a.iter().all(|&r| r < 1000));
    }

    #[test]
    fn corpus_and_queries_repeat_under_a_seed() {
        let a = corpus(3, 2000, 500, "c", false);
        let b = corpus(3, 2000, 500, "c", false);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, corpus(4, 2000, 500, "c", false).digest);
        assert_eq!(a.docs.len(), 2000);
        assert_eq!(a.text(5).split_ascii_whitespace().count(), TOKENS_PER_DOC);
        let qa = QueryGen::new(&a, 3, 9).paper_mix(300);
        let qb = QueryGen::new(&b, 3, 9).paper_mix(300);
        assert_eq!(digest_specs(&qa), digest_specs(&qb));
        assert!(qa.iter().any(|q| matches!(q, Spec::Term(_))));
        assert!(qa.iter().any(|q| matches!(q, Spec::And(_) | Spec::Or(_))));
    }

    #[test]
    fn unique_ids_are_unique() {
        let c = corpus(1, 500, 500, "c", true);
        for i in [0usize, 17, 499] {
            let id = unique_token(1, i);
            let hits = (0..500)
                .filter(|&d| c.text(d).split_ascii_whitespace().any(|t| t == id.trim()))
                .count();
            assert_eq!(hits, 1);
        }
    }
}
