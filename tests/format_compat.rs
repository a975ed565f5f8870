//! Cross-format compatibility properties: a corpus indexed as a v1
//! segment and as a v2 segment must be indistinguishable to every reader.
//!
//! * Both formats decode through the same versioned-magic reader, so a v1
//!   segment under the v2-aware `Searcher` and a v2 segment under the
//!   staged planner (sync *and* async drivers) return canonical hits
//!   identical to each other and to a linear-scan oracle.
//! * The decoded header state (MHT layers, pointers, meta) is equal
//!   field-for-field; v2 also carries the vocabulary, so its plan is the
//!   v1 plan minus the lookups the vocabulary proves empty.

use airphant::{
    AirphantConfig, AsyncQueryServer, AsyncServerConfig, Builder, FormatVersion, Query,
    QueryOptions, Searcher, StagedEngine,
};
use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
use airphant_storage::{InMemoryStore, ObjectStore};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

/// A small random corpus: docs of up to 8 words from a 24-word vocab.
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..24, 1..8), 1..30)
}

fn doc_text(words: &[u8]) -> String {
    words
        .iter()
        .map(|w| format!("w{w}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Build `docs` under `prefix` in the requested on-wire format and open a
/// searcher over it.
fn build_as(
    store: &Arc<dyn ObjectStore>,
    docs: &[Vec<u8>],
    prefix: &str,
    format: FormatVersion,
    seed: u64,
) -> Searcher {
    let blob = format!("c/{prefix}");
    let text = docs
        .iter()
        .map(|d| doc_text(d))
        .collect::<Vec<_>>()
        .join("\n");
    store.put(&blob, Bytes::from(text)).unwrap();
    let corpus = Corpus::new(
        store.clone(),
        vec![blob],
        Arc::new(LineSplitter),
        Arc::new(WhitespaceTokenizer),
    );
    let config = AirphantConfig::default()
        .with_total_bins(48)
        .with_manual_layers(2)
        .with_common_fraction(0.0)
        .with_seed(seed)
        .with_format(format);
    let report = Builder::new(config).build(&corpus, prefix).unwrap();
    assert_eq!(report.format, format);
    Searcher::open(store.clone(), prefix).unwrap()
}

/// Canonical form of a result: sorted (offset, len, text) triples. Blob
/// names differ between the two indexes (different corpus blobs), so the
/// comparison is over document identity within the corpus.
fn canonical(hits: &[airphant::SearchHit]) -> Vec<(u64, u32, String)> {
    let mut v: Vec<(u64, u32, String)> = hits
        .iter()
        .map(|h| (h.offset, h.len, h.text.clone()))
        .collect();
    v.sort();
    v
}

/// Linear-scan oracle: the docs whose word set satisfies the query.
fn oracle(docs: &[Vec<u8>], query: &Query) -> Vec<(u64, u32, String)> {
    let mut out = Vec::new();
    let mut offset = 0u64;
    for d in docs {
        let text = doc_text(d);
        let len = text.len() as u32;
        let tokens: Vec<String> = text.split_whitespace().map(str::to_owned).collect();
        let has = |w: &str| tokens.iter().any(|t| t == w);
        if query.matches_doc(&has, &text) {
            out.push((offset, len, text.clone()));
        }
        offset += len as u64 + 1; // newline
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// v1 and v2 segments of the same corpus (same structure, same seed)
    /// answer every term query with byte-identical canonical hits, both
    /// equal to the linear-scan oracle.
    #[test]
    fn v1_and_v2_term_queries_agree_with_oracle(
        docs in corpus_strategy(),
        seed in 0u64..500,
    ) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let v1 = build_as(&store, &docs, "idx-v1", FormatVersion::V1, seed);
        let v2 = build_as(&store, &docs, "idx-v2", FormatVersion::V2, seed);
        prop_assert_eq!(v1.format().version, 1);
        prop_assert_eq!(v2.format().version, 2);
        prop_assert!(v2.format().directory.is_some());

        for w in 0u8..26 {
            let query = Query::term(format!("w{w}"));
            let r1 = v1.execute(&query, &QueryOptions::new()).unwrap();
            let r2 = v2.execute(&query, &QueryOptions::new()).unwrap();
            let expected = oracle(&docs, &query);
            prop_assert_eq!(canonical(&r1.hits), expected.clone(), "v1 vs oracle, w{}", w);
            prop_assert_eq!(canonical(&r2.hits), expected, "v2 vs oracle, w{}", w);
            prop_assert!(r2.candidates <= r1.candidates,
                "v2 prunes by vocabulary: never more candidates than v1 ({} vs {})",
                r2.candidates, r1.candidates);
        }
    }

    /// Compound queries (AND/OR) through the staged planner agree across
    /// formats and with the oracle.
    #[test]
    fn v1_and_v2_compound_queries_agree(
        docs in corpus_strategy(),
        a in 0u8..24,
        b in 0u8..24,
        seed in 0u64..500,
    ) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let v1 = build_as(&store, &docs, "idx-v1", FormatVersion::V1, seed);
        let v2 = build_as(&store, &docs, "idx-v2", FormatVersion::V2, seed);
        let queries = [
            Query::all([Query::term(format!("w{a}")), Query::term(format!("w{b}"))]),
            Query::any([Query::term(format!("w{a}")), Query::term(format!("w{b}"))]),
        ];
        for query in &queries {
            let r1 = v1.execute(query, &QueryOptions::new()).unwrap();
            let r2 = v2.execute(query, &QueryOptions::new()).unwrap();
            let expected = oracle(&docs, query);
            prop_assert_eq!(canonical(&r1.hits), expected.clone());
            prop_assert_eq!(canonical(&r2.hits), expected);
        }
    }
}

/// The async serving core drives the same staged planner halves, so the
/// format equivalence must extend to queries served through
/// [`AsyncQueryServer`] — v1 and v2 tickets resolve to identical
/// canonical hits, equal to the oracle.
#[test]
fn async_server_agrees_across_formats() {
    let docs: Vec<Vec<u8>> = (0..20u8)
        .map(|i| vec![i % 24, (i * 7) % 24, (i * 3 + 1) % 24])
        .collect();
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let v1 = Arc::new(build_as(&store, &docs, "idx-v1", FormatVersion::V1, 7));
    let v2 = Arc::new(build_as(&store, &docs, "idx-v2", FormatVersion::V2, 7));

    for (label, searcher) in [("v1", v1.clone()), ("v2", v2.clone())] {
        let server = AsyncQueryServer::start(
            searcher as Arc<dyn StagedEngine>,
            AsyncServerConfig::new().with_executor_threads(2),
        );
        let tickets: Vec<_> = (0u8..24)
            .map(|w| {
                server
                    .try_submit(
                        Query::term(format!("w{w}")),
                        QueryOptions::new(),
                        Default::default(),
                    )
                    .unwrap()
            })
            .collect();
        for (w, t) in tickets.into_iter().enumerate() {
            let response = t.wait();
            let result = response.result.expect("query served");
            let query = Query::term(format!("w{w}"));
            assert_eq!(
                canonical(&result.hits),
                oracle(&docs, &query),
                "{label} async w{w}"
            );
        }
        server.shutdown();
    }
}
