//! The Airphant Searcher (§III-C0c): initialization and querying.
//!
//! * **Initialization** (once per corpus): download the header block,
//!   reconstruct the hash functions and the MHT in memory. The footprint is
//!   `O(B)` — about 2 MB at the paper's `B = 10^5`.
//! * **Querying**: hash the query word to collect `L` superpost pointers,
//!   fetch all `L` superposts in a *single batch of concurrent requests*,
//!   intersect them, fetch the candidate documents, and filter out false
//!   positives by examining document content (restoring perfect precision).

use crate::builder::header_blob;
use crate::error::AirphantError;
use crate::result::SearchResult;
use crate::retrieval::{contains_word, fetch_and_filter};
use crate::Result;
use airphant_corpus::{Tokenizer, WhitespaceTokenizer};
use airphant_storage::{ObjectStore, PhaseKind, QueryTrace, RangeRequest, SimDuration};
use iou_sketch::encoding::decode_superpost;
use iou_sketch::mht::WordLookup;
use iou_sketch::{
    intersect_views, sample_size_for_top_k, HeaderBlock, Mht, PostingsList, SegmentFormat,
    SuperpostView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A lightweight query server over a cloud-persisted Airphant index.
pub struct Searcher {
    store: Arc<dyn ObjectStore>,
    prefix: String,
    mht: Mht,
    tokenizer: Arc<dyn Tokenizer>,
    init_trace: QueryTrace,
    accuracy_f0: f64,
    /// Modeled expected false positives of the built structure — drives
    /// the top-K sample size (Equation 6).
    expected_fp: f64,
    topk_delta: f64,
    optimal_layers: usize,
    /// What was on the wire when the header was decoded (version, and the
    /// layer directory for v2).
    format: SegmentFormat,
}

impl Searcher {
    /// Initialize from the index under `prefix`: fetches the header block
    /// and reconstructs the MHT. Uses the whitespace tokenizer (the
    /// experiments' analyzer); see [`Searcher::open_with_tokenizer`].
    pub fn open(store: Arc<dyn ObjectStore>, prefix: &str) -> Result<Self> {
        Self::open_with_tokenizer(store, prefix, Arc::new(WhitespaceTokenizer))
    }

    /// Initialize with a custom document-word parser (must match the one
    /// the corpus was indexed with).
    pub fn open_with_tokenizer(
        store: Arc<dyn ObjectStore>,
        prefix: &str,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<Self> {
        let header_name = header_blob(prefix);
        if !store.exists(&header_name) {
            return Err(AirphantError::IndexNotFound {
                prefix: prefix.to_owned(),
            });
        }
        let mut init_trace = QueryTrace::new();
        // The header is Index-class by definition: fetch it as a ranged
        // read carrying the tier hint so a tiered cache pins it against
        // Data traffic (reopen-heavy serverless workloads reuse it).
        let header_len = store.size_of(&header_name)?;
        let batch = store.get_ranges(&[RangeRequest::index(&header_name, 0, header_len)])?;
        init_trace.record_batch(PhaseKind::Init, &batch);
        let (header, format) = HeaderBlock::decode_any_bytes(&batch.parts[0].bytes)?;
        let mht = Mht::from_header(header);
        let accuracy_f0 = mht
            .meta_value("f0")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let expected_fp = mht
            .meta_value("expected_fp")
            .and_then(|v| v.parse().ok())
            .unwrap_or(accuracy_f0);
        let topk_delta = mht
            .meta_value("topk_delta")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1e-6);
        let optimal_layers = mht
            .meta_value("optimal_layers")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| mht.layers());
        Ok(Searcher {
            store,
            prefix: prefix.to_owned(),
            mht,
            tokenizer,
            init_trace,
            accuracy_f0,
            expected_fp,
            topk_delta,
            optimal_layers,
            format,
        })
    }

    /// The in-memory MHT.
    pub fn mht(&self) -> &Mht {
        &self.mht
    }

    /// The index prefix this Searcher was opened on.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The index-time vocabulary, when the segment carries one (format v2
    /// built with prefix/fuzzy support). Backs [`Query::Prefix`],
    /// [`Query::Fuzzy`], and the short-substring fallback; `None` means
    /// those atoms surface a typed
    /// [`AirphantError::UnsupportedQuery`](crate::AirphantError::UnsupportedQuery).
    ///
    /// [`Query::Prefix`]: crate::Query::Prefix
    /// [`Query::Fuzzy`]: crate::Query::Fuzzy
    pub fn vocab(&self) -> Option<&Arc<iou_sketch::Vocabulary>> {
        self.mht.vocab()
    }

    /// The on-wire format the index header was decoded from (version, and
    /// the layer directory for v2).
    pub fn format(&self) -> &SegmentFormat {
        &self.format
    }

    /// Simulated cost of initialization (header download).
    pub fn init_trace(&self) -> &QueryTrace {
        &self.init_trace
    }

    /// The accuracy constraint the index was built with.
    pub fn accuracy_f0(&self) -> f64 {
        self.accuracy_f0
    }

    /// The optimized layer count `L*` (≤ built layers when overprovisioned).
    pub fn optimal_layers(&self) -> usize {
        self.optimal_layers
    }

    /// Approximate Searcher memory footprint (the MHT dominates).
    pub fn memory_bytes(&self) -> usize {
        self.mht.approx_memory_bytes()
    }

    pub(crate) fn resolve_block(&self, block: u32) -> String {
        crate::builder::block_blob(&self.prefix, block)
    }

    /// Modeled expected false positives per query (drives Equation 6).
    pub(crate) fn expected_fp(&self) -> f64 {
        self.expected_fp
    }

    /// The index's top-K failure probability δ.
    pub(crate) fn topk_delta(&self) -> f64 {
        self.topk_delta
    }

    /// Crate-internal access to the underlying store (boolean queries,
    /// engine adapters).
    pub(crate) fn store_dyn(&self) -> &dyn ObjectStore {
        self.store.as_ref()
    }

    /// Total bytes of index structures persisted under this index's prefix
    /// (header + superpost blocks).
    pub fn index_usage_bytes(&self) -> u64 {
        self.store.usage(&format!("{}/", self.prefix)).unwrap_or(0)
    }

    /// Term-index lookup (§II-A workflow steps 1–2): resolve the word to
    /// superpost pointers, fetch them in one concurrent batch, decode, and
    /// intersect. Returns the final postings list and the lookup trace —
    /// the quantity Figure 14 and Figure 10c measure.
    pub fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.lookup_waiting_for(word, self.mht.layers())
    }

    /// Straggler-resilient lookup (§IV-G): issue all `L+` superpost
    /// requests but continue once the fastest `wait_for` have arrived,
    /// discarding the stragglers. Accuracy degrades gracefully (the result
    /// is the intersection of the `wait_for` fastest superposts — a
    /// superset of the full intersection, still with no false negatives).
    pub fn lookup_waiting_for(
        &self,
        word: &str,
        wait_for: usize,
    ) -> Result<(PostingsList, QueryTrace)> {
        let mut trace = QueryTrace::new();
        match self.mht.lookup(word) {
            WordLookup::Common(ptr) => {
                let req = [RangeRequest::superpost(
                    self.resolve_block(ptr.block),
                    ptr.offset,
                    ptr.len as u64,
                )];
                let batch = self.store.get_ranges(&req)?;
                trace.record_batch(PhaseKind::Postings, &batch);
                let list = decode_superpost(&batch.parts[0].bytes)?;
                Ok((list, trace))
            }
            WordLookup::Sketched(ptrs) => {
                let requests: Vec<RangeRequest> = ptrs
                    .iter()
                    .map(|p| {
                        RangeRequest::superpost(self.resolve_block(p.block), p.offset, p.len as u64)
                    })
                    .collect();
                let batch = self.store.get_ranges(&requests)?;
                let wait_for = wait_for.clamp(1, batch.parts.len().max(1));
                if wait_for == batch.parts.len() {
                    trace.record_batch(PhaseKind::Postings, &batch);
                    let compute_start = std::time::Instant::now();
                    let views: Vec<SuperpostView> = batch
                        .parts
                        .iter()
                        .map(|p| SuperpostView::parse(p.bytes.clone()))
                        .collect::<iou_sketch::Result<_>>()?;
                    let refs: Vec<&SuperpostView> = views.iter().collect();
                    let out = intersect_views(&refs);
                    trace.record_compute(SimDuration::from_secs_f64(
                        compute_start.elapsed().as_secs_f64(),
                    ));
                    Ok((out, trace))
                } else {
                    // Keep only the `wait_for` fastest streams: the batch's
                    // effective wait is the wait_for-th smallest
                    // time-to-first-byte, and only the chosen parts' bytes
                    // are downloaded (the rest are aborted).
                    let mut order: Vec<usize> = (0..batch.parts.len()).collect();
                    order.sort_by_key(|&i| batch.parts[i].latency.first_byte);
                    let chosen = &order[..wait_for];
                    let wait = batch.parts[chosen[wait_for - 1]].latency.first_byte;
                    let download: SimDuration = chosen
                        .iter()
                        .map(|&i| batch.parts[i].latency.transfer)
                        .sum();
                    let bytes: u64 = chosen
                        .iter()
                        .map(|&i| batch.parts[i].bytes.len() as u64)
                        .sum();
                    // One concurrent batch was issued; only the fastest
                    // streams were kept. Still a single round trip.
                    trace.record_concurrent(
                        PhaseKind::Postings,
                        wait_for as u64,
                        bytes,
                        wait,
                        download,
                    );
                    let compute_start = std::time::Instant::now();
                    let views: Vec<SuperpostView> = chosen
                        .iter()
                        .map(|&i| SuperpostView::parse(batch.parts[i].bytes.clone()))
                        .collect::<iou_sketch::Result<_>>()?;
                    let refs: Vec<&SuperpostView> = views.iter().collect();
                    let out = intersect_views(&refs);
                    trace.record_compute(SimDuration::from_secs_f64(
                        compute_start.elapsed().as_secs_f64(),
                    ));
                    Ok((out, trace))
                }
            }
        }
    }

    /// Timeout-based straggler mitigation — "the simplest mitigation is
    /// then to set a timeout before aborting the trailing request"
    /// (§IV-G). Superposts whose time-to-first-byte exceeds `timeout` are
    /// discarded (unless *none* arrive in time, in which case the fastest
    /// one is kept so the query still answers). The result intersects only
    /// the surviving layers: still no false negatives, possibly more false
    /// positives.
    pub fn lookup_with_timeout(
        &self,
        word: &str,
        timeout: SimDuration,
    ) -> Result<(PostingsList, QueryTrace)> {
        let mut trace = QueryTrace::new();
        match self.mht.lookup(word) {
            WordLookup::Common(ptr) => {
                let req = [RangeRequest::superpost(
                    self.resolve_block(ptr.block),
                    ptr.offset,
                    ptr.len as u64,
                )];
                let batch = self.store.get_ranges(&req)?;
                trace.record_batch(PhaseKind::Postings, &batch);
                Ok((decode_superpost(&batch.parts[0].bytes)?, trace))
            }
            WordLookup::Sketched(ptrs) => {
                let requests: Vec<RangeRequest> = ptrs
                    .iter()
                    .map(|p| {
                        RangeRequest::superpost(self.resolve_block(p.block), p.offset, p.len as u64)
                    })
                    .collect();
                let batch = self.store.get_ranges(&requests)?;
                let mut chosen: Vec<usize> = (0..batch.parts.len())
                    .filter(|&i| batch.parts[i].latency.first_byte <= timeout)
                    .collect();
                if chosen.is_empty() {
                    // Keep the single fastest stream: degrade, don't fail.
                    let fastest = (0..batch.parts.len())
                        .min_by_key(|&i| batch.parts[i].latency.first_byte)
                        .expect("non-empty batch");
                    chosen.push(fastest);
                }
                let wait = chosen
                    .iter()
                    .map(|&i| batch.parts[i].latency.first_byte)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                let download: SimDuration = chosen
                    .iter()
                    .map(|&i| batch.parts[i].latency.transfer)
                    .sum();
                let bytes: u64 = chosen
                    .iter()
                    .map(|&i| batch.parts[i].bytes.len() as u64)
                    .sum();
                // One concurrent batch; stragglers beyond the timeout were
                // aborted, not re-requested. Still a single round trip.
                trace.record_concurrent(
                    PhaseKind::Postings,
                    chosen.len() as u64,
                    bytes,
                    wait,
                    download,
                );
                let compute_start = std::time::Instant::now();
                let views: Vec<SuperpostView> = chosen
                    .iter()
                    .map(|&i| SuperpostView::parse(batch.parts[i].bytes.clone()))
                    .collect::<iou_sketch::Result<_>>()?;
                let refs: Vec<&SuperpostView> = views.iter().collect();
                let out = intersect_views(&refs);
                trace.record_compute(SimDuration::from_secs_f64(
                    compute_start.elapsed().as_secs_f64(),
                ));
                Ok((out, trace))
            }
        }
    }

    /// Execute a [`Query`](crate::Query) through the single-batch planner
    /// (§III-C generalized): every term's and gram's superposts are
    /// fetched in **one** concurrent batch, the boolean algebra runs over
    /// the decoded postings, and one fetch-and-filter pass restores exact
    /// results.
    pub fn execute(
        &self,
        query: &crate::Query,
        opts: &crate::QueryOptions,
    ) -> Result<SearchResult> {
        crate::plan::execute_over(&[self], query, opts, false)
    }

    /// Index-lookup phase of [`Searcher::execute`] only: resolve the whole
    /// query's candidate postings in at most one storage round trip
    /// (`trace.round_trips() == 1`, or `0` when the vocabulary proves the
    /// query empty). This is the compound-query counterpart of
    /// [`Searcher::lookup`].
    pub fn execute_lookup(&self, query: &crate::Query) -> Result<(PostingsList, QueryTrace)> {
        crate::plan::lookup_over(&[self], query)
    }

    /// Full keyword search (§II-A workflow): lookup, then fetch candidate
    /// documents and filter false positives by content. `top_k = Some(k)`
    /// enables the sampled fetch of §IV-D (Equation 6).
    ///
    /// Thin shim over [`Searcher::execute`] with a single
    /// [`Query::Term`](crate::Query::Term); kept for convenience and
    /// backward compatibility.
    pub fn search(&self, word: &str, top_k: Option<usize>) -> Result<SearchResult> {
        self.execute(
            &crate::Query::term(word),
            &crate::QueryOptions::new().with_top_k(top_k),
        )
    }

    /// Search waiting for only the fastest `wait_for` superposts (§IV-G).
    pub fn search_waiting_for(
        &self,
        word: &str,
        wait_for: usize,
        top_k: Option<usize>,
    ) -> Result<SearchResult> {
        let (final_postings, mut trace) = self.lookup_waiting_for(word, wait_for)?;
        let candidates = final_postings.len();

        // Top-K sampling: fetch only R_K of the R candidates (Equation 6).
        // Uses the modeled expected FP of the built structure: for a
        // well-optimized sketch this is ≤ F0; for a degenerate structure
        // (e.g. the L=1 HashTable baseline) it is large, forcing a full
        // fetch as the paper's HashTable behaviour shows.
        let is_common = self.mht.lookup(word).is_common();
        let f0 = if is_common { 0.0 } else { self.expected_fp };
        let to_fetch: Vec<iou_sketch::Posting> = match top_k {
            Some(k) => {
                let rk = sample_size_for_top_k(k, candidates, f0, self.topk_delta);
                sample_postings(&final_postings, rk, seed_for(word))
            }
            None => final_postings.iter().copied().collect(),
        };

        let predicate = contains_word(self.tokenizer.as_ref(), word);
        let (mut hits, dropped) = fetch_and_filter(
            self.store.as_ref(),
            self.mht.string_table(),
            &to_fetch,
            &predicate,
            &mut trace,
        )?;
        if let Some(k) = top_k {
            hits.truncate(k);
        }
        Ok(SearchResult {
            hits,
            trace,
            candidates,
            false_positives_removed: dropped,
        })
    }

    /// Tokenizer used for false-positive filtering.
    pub fn tokenizer(&self) -> &Arc<dyn Tokenizer> {
        &self.tokenizer
    }
}

/// Deterministic per-word sampling seed.
pub(crate) fn seed_for(word: &str) -> u64 {
    iou_sketch::hash::fnv1a64(word.as_bytes())
}

/// Uniformly sample `k` postings without replacement (partial
/// Fisher–Yates), deterministic under `seed`.
pub(crate) fn sample_postings(
    list: &PostingsList,
    k: usize,
    seed: u64,
) -> Vec<iou_sketch::Posting> {
    let mut all: Vec<iou_sketch::Posting> = list.iter().copied().collect();
    let k = k.min(all.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

trait WordLookupExt {
    fn is_common(&self) -> bool;
}

impl WordLookupExt for WordLookup {
    fn is_common(&self) -> bool {
        matches!(self, WordLookup::Common(_))
    }
}

// The whole read path is shared across query threads through a single
// `Arc<Searcher>`: per-query state (trace, candidates, samples) lives on
// the calling thread's stack, and the only shared mutability sits behind
// the store's own synchronization (cache LRU, RNG, counters).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Searcher>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::AirphantConfig;
    use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
    use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};
    use bytes::Bytes;

    fn build_corpus(store: Arc<dyn ObjectStore>, lines: &[&str]) -> Corpus {
        let blob = lines.join("\n");
        store.put("c/blob-0", Bytes::from(blob)).unwrap();
        Corpus::new(
            store,
            vec!["c/blob-0".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        )
    }

    fn build_index(store: Arc<dyn ObjectStore>, lines: &[&str], config: AirphantConfig) {
        let corpus = build_corpus(store, lines);
        Builder::new(config).build(&corpus, "idx").unwrap();
    }

    #[test]
    fn open_missing_index_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        match Searcher::open(store, "nope") {
            Err(AirphantError::IndexNotFound { prefix }) => assert_eq!(prefix, "nope"),
            other => panic!("expected IndexNotFound, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn search_returns_exact_matches_only() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &[
                "error disk failure",
                "info all good",
                "error network partition",
                "warn error imminent",
            ],
            AirphantConfig::default().with_total_bins(64),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let result = searcher.search("error", None).unwrap();
        assert_eq!(result.hits.len(), 3);
        assert!(result.hits.iter().all(|h| h.text.contains("error")));
        // Perfect precision after filtering: no non-matching docs.
        let none = searcher.search("absent-word", None).unwrap();
        assert!(none.hits.is_empty());
    }

    #[test]
    fn search_has_no_false_negatives_under_tiny_sketch() {
        // A deliberately undersized sketch forces superpost collisions;
        // recall must still be perfect for every word.
        let lines: Vec<String> = (0..100)
            .map(|i| format!("word{} shared{} tail{}", i, i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &refs,
            AirphantConfig::default()
                .with_total_bins(32)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        for i in [0usize, 13, 57, 99] {
            let r = searcher.search(&format!("word{i}"), None).unwrap();
            assert_eq!(r.hits.len(), 1, "word{i} must be found");
        }
        let shared = searcher.search("shared0", None).unwrap();
        assert_eq!(shared.hits.len(), 100usize.div_ceil(7));
    }

    #[test]
    fn lookup_issues_single_concurrent_batch() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            42,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            build_index(
                s,
                &["alpha beta", "beta gamma", "gamma delta"],
                AirphantConfig::default()
                    .with_total_bins(64)
                    .with_manual_layers(3)
                    .with_common_fraction(0.0),
            );
        }
        store.reset_stats();
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        store.reset_stats(); // drop init traffic
        let (_, trace) = searcher.lookup("beta").unwrap();
        let stats = store.stats();
        assert_eq!(stats.batches, 1, "exactly one concurrent batch");
        assert_eq!(stats.read_requests, 3, "one request per layer");
        // Wait is ~one round-trip, not three.
        assert!(trace.wait().as_millis_f64() < 3.0 * 45.0);
        assert!(trace.wait().as_millis_f64() > 5.0);
    }

    #[test]
    fn common_word_lookup_is_exact_single_request() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        // "the" appears in every document → most common.
        build_index(
            store.clone(),
            &["the alpha", "the beta", "the gamma", "delta epsilon"],
            AirphantConfig::default()
                .with_total_bins(100)
                .with_manual_layers(2)
                .with_common_fraction(0.05),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let (postings, trace) = searcher.lookup("the").unwrap();
        assert_eq!(postings.len(), 3);
        assert_eq!(trace.requests(), 1, "common word needs one pointer");
        let r = searcher.search("the", None).unwrap();
        assert_eq!(r.hits.len(), 3);
        assert_eq!(r.false_positives_removed, 0, "exact list has no FPs");
    }

    #[test]
    fn top_k_fetches_fewer_documents() {
        let lines: Vec<String> = (0..200).map(|i| format!("needle filler{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &refs,
            AirphantConfig::default()
                .with_total_bins(512)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let full = searcher.search("needle", None).unwrap();
        assert_eq!(full.hits.len(), 200);
        let topk = searcher.search("needle", Some(10)).unwrap();
        assert_eq!(topk.hits.len(), 10);
        // Equation 6: ~23 fetches for top-10 at delta=1e-6 — far below 200.
        assert!(
            topk.trace.requests() < full.trace.requests() / 3,
            "top-k should fetch far fewer docs: {} vs {}",
            topk.trace.requests(),
            full.trace.requests()
        );
    }

    #[test]
    fn waiting_for_fewer_layers_reduces_wait() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::builder().long_tail(0.3, 1.1).build(),
            7,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let lines: Vec<String> = (0..50).map(|i| format!("common word{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            build_index(
                s,
                &refs,
                AirphantConfig::default()
                    .with_total_bins(256)
                    .with_manual_layers(2)
                    .with_overprovision(4) // build 6 layers, need 2
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        assert_eq!(searcher.mht().layers(), 6);
        // Average over queries: waiting for 2-of-6 beats waiting for all 6
        // under a heavy-tailed latency model.
        let mut full_wait = 0.0;
        let mut fast_wait = 0.0;
        for i in 0..30 {
            let w = format!("word{i}");
            let (_, t_full) = searcher.lookup_waiting_for(&w, 6).unwrap();
            let (_, t_fast) = searcher.lookup_waiting_for(&w, 2).unwrap();
            full_wait += t_full.wait().as_millis_f64();
            fast_wait += t_fast.wait().as_millis_f64();
        }
        assert!(
            fast_wait < full_wait,
            "2-of-6 wait {fast_wait} should beat 6-of-6 {full_wait}"
        );
        // Recall is still perfect with the degraded intersection.
        let r = searcher.search_waiting_for("word7", 2, None).unwrap();
        assert_eq!(r.hits.len(), 1);
    }

    #[test]
    fn timeout_lookup_drops_stragglers_but_still_answers() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::builder().long_tail(0.5, 1.0).build(),
            13,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let lines: Vec<String> = (0..60).map(|i| format!("tok{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            build_index(
                s,
                &refs,
                AirphantConfig::default()
                    .with_total_bins(128)
                    .with_manual_layers(4)
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store, "idx").unwrap();
        let timeout = SimDuration::from_millis(120);
        let mut any_dropped = false;
        for i in 0..30 {
            let w = format!("tok{i}");
            let (postings, trace) = searcher.lookup_with_timeout(&w, timeout).unwrap();
            // Recall is preserved regardless of how many layers survived.
            assert!(
                postings.contains(&iou_sketch::Posting::new(0, 0, 1)) || !postings.is_empty(),
                "word {w} must resolve"
            );
            if trace.requests() < 4 {
                any_dropped = true;
                // Wait never exceeds the timeout when layers were dropped
                // (unless the all-slow fallback kicked in with 1 request).
                if trace.requests() > 1 {
                    assert!(trace.wait() <= timeout, "wait {} > timeout", trace.wait());
                }
            }
        }
        assert!(any_dropped, "heavy tail should trip the timeout sometimes");
    }

    #[test]
    fn timeout_lookup_on_calm_network_keeps_all_layers() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            3,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            build_index(
                s,
                &["alpha beta", "beta gamma"],
                AirphantConfig::default()
                    .with_total_bins(64)
                    .with_manual_layers(3)
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store, "idx").unwrap();
        let (_, trace) = searcher
            .lookup_with_timeout("beta", SimDuration::from_millis(10_000))
            .unwrap();
        assert_eq!(trace.requests(), 3, "generous timeout keeps all layers");
    }

    #[test]
    fn searcher_memory_is_small() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &["a b c", "d e f"],
            AirphantConfig::default().with_total_bins(1_000),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        assert!(searcher.memory_bytes() < 64 * 1024);
        assert!(searcher.init_trace().bytes() > 0);
    }

    #[test]
    fn sample_postings_is_deterministic_and_unique() {
        let list = PostingsList::from_doc_ids(&(0..100).collect::<Vec<u64>>());
        let a = sample_postings(&list, 10, 42);
        let b = sample_postings(&list, 10, 42);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 10, "sampling is without replacement");
        let all = sample_postings(&list, 1_000, 42);
        assert_eq!(all.len(), 100, "k > n clamps to n");
    }
}
