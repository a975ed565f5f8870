//! Online-resharding equivalence: splitting a sharded index (N -> 2N)
//! and merging it back (2N -> N) must leave every query's result set
//! byte-for-byte unchanged — for random query ASTs over a zipf corpus,
//! sequentially and from 8 concurrent threads — while searchers opened
//! *before* the reshard keep serving the superseded generation until
//! it is garbage-collected — directly and, byte for byte, through the
//! async core with hedging on.

use airphant::{
    AirphantConfig, AsyncQueryServer, AsyncServerConfig, HedgeConfig, Query, QueryOptions,
    SearchHit, ShardRouter, ShardedSearcher, SubmitSpec,
};
use airphant_corpus::{synth::word_token, zipf, LineSplitter, SyntheticSpec, WhitespaceTokenizer};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, SimulatedCloudStore};
use proptest::prelude::*;
use std::sync::Arc;

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(96)
        .with_manual_layers(2)
        .with_common_fraction(0.0)
        .with_seed(seed)
}

/// Byte-for-byte canonical form of a result set: every field of every
/// hit, in stable doc-id order.
fn canonical(hits: &[SearchHit]) -> Vec<(String, u64, u32, String)> {
    let mut v: Vec<_> = hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
        .collect();
    v.sort();
    v
}

/// Random AST over the zipf vocabulary from an opcode tape (the
/// stack-machine idiom of `query_properties.rs`): 0 pushes a term,
/// 1 folds AND, 2 folds OR. Word ranks run past the vocabulary so
/// absent words appear too.
fn ast_from_tape(tape: &[(u8, u16)]) -> Query {
    let mut stack: Vec<Query> = Vec::new();
    for &(op, w) in tape {
        match op {
            1 if stack.len() >= 2 => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(Query::all([a, b]));
            }
            2 if stack.len() >= 2 => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(Query::any([a, b]));
            }
            _ => stack.push(Query::term(word_token(w as u64))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

/// A zipf corpus sharded `n` ways under `idx` in a fresh store, behind a
/// simulated cloud link so served batches have latencies to hedge on.
fn build_sharded(
    n: usize,
    n_docs: u64,
    corpus_seed: u64,
    build_seed: u64,
) -> (Arc<dyn ObjectStore>, ShardRouter) {
    let store: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::gcs_like(),
        corpus_seed,
    ));
    let spec = SyntheticSpec {
        n_docs,
        n_vocab: 60,
        words_per_doc: 5,
    };
    let corpus = zipf(spec, store.clone(), "corpora/zipf", corpus_seed);
    let router = ShardRouter::create(store.clone(), "idx", n).unwrap();
    router.append(&corpus, &config(build_seed)).unwrap();
    (store, router)
}

/// Every `(query, options)` pair through a caller-pumped async core over
/// `searcher`, hedging on: the served hits, in submission order.
fn serve(
    searcher: &Arc<ShardedSearcher>,
    replica: &Arc<dyn ObjectStore>,
    work: &[(Query, QueryOptions)],
) -> Vec<Vec<SearchHit>> {
    let hedge = HedgeConfig {
        percentile: 0.5,
        min_samples: 2,
        budget_fraction: 1.0,
    };
    let server = AsyncQueryServer::start(
        searcher.clone(),
        AsyncServerConfig::new()
            .with_executor_threads(0)
            .with_hedge(hedge),
    )
    .with_hedge_backend(replica.clone());
    let tickets: Vec<_> = work
        .iter()
        .map(|(q, o)| server.submit_at(q.clone(), o.clone(), SubmitSpec::new()))
        .collect();
    server.drain();
    tickets
        .into_iter()
        .map(|t| t.wait().result.expect("served").hits)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any AST, N ∈ {2, 4}: split then merge, byte-for-byte identical
    /// results at every generation, with the pre-split searcher still
    /// serving the old layout after the cutover.
    #[test]
    fn split_and_merge_preserve_results_for_any_ast(
        n_idx in 0usize..2,
        n_docs in 40u64..120,
        corpus_seed in 0u64..1_000,
        build_seed in 0u64..1_000,
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u16..70), 1..10),
            1..5,
        ),
        k in 1usize..8,
    ) {
        let n = [2usize, 4][n_idx];
        let (store, router) = build_sharded(n, n_docs, corpus_seed, build_seed);
        let queries: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t)).collect();
        let pre_split = Arc::new(router.open_searcher().unwrap());
        let expected: Vec<_> = queries
            .iter()
            .map(|q| canonical(&pre_split.execute(q, &QueryOptions::new()).unwrap().hits))
            .collect();

        let (split_router, old) = router
            .split(
                &config(build_seed),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        prop_assert_eq!(split_router.shards(), 2 * n);
        prop_assert_eq!(split_router.generation(), old.generation + 1);
        let after_split = split_router.open_searcher().unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            let got = canonical(&after_split.execute(q, &QueryOptions::new()).unwrap().hits);
            prop_assert_eq!(&got, want, "split {} -> {}: {:?}", n, 2 * n, q);
            // The pre-split snapshot keeps serving the old generation.
            let stale = canonical(&pre_split.execute(q, &QueryOptions::new()).unwrap().hits);
            prop_assert_eq!(&stale, want, "old generation after split: {:?}", q);
        }
        prop_assert_eq!(pre_split.layout_generation(), old.generation);
        // Mid-reshard, the old-generation snapshot also serves through
        // the async core: same hits, same order, same `top_k` cut.
        let work: Vec<(Query, QueryOptions)> = queries
            .iter()
            .flat_map(|q| {
                [(q.clone(), QueryOptions::new()), (q.clone(), QueryOptions::new().top_k(k))]
            })
            .collect();
        for ((q, opts), got) in work.iter().zip(serve(&pre_split, &store, &work)) {
            let direct = pre_split.execute(q, opts).unwrap().hits;
            prop_assert_eq!(got, direct, "old generation served: {:?} {:?}", q, opts.top_k);
        }

        let (merged_router, split_layout) = split_router
            .merge(
                &config(build_seed),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        prop_assert_eq!(merged_router.shards(), n);
        prop_assert_eq!(merged_router.generation(), split_layout.generation + 1);
        let after_merge = merged_router.open_searcher().unwrap();
        for (q, want) in queries.iter().zip(&expected) {
            let got = canonical(&after_merge.execute(q, &QueryOptions::new()).unwrap().hits);
            prop_assert_eq!(&got, want, "merge {} -> {}: {:?}", 2 * n, n, q);
        }

        // Reopening from the store adopts the published (merged) layout.
        let reopened = ShardRouter::open(store, "idx").unwrap();
        prop_assert_eq!(reopened.generation(), merged_router.generation());
        prop_assert_eq!(reopened.shards(), n);
    }

    /// Queries fired from 8 concurrent threads against the post-split
    /// searcher — interleaved with threads still reading the pre-split
    /// snapshot — all return exactly the sequential answers.
    #[test]
    fn concurrent_queries_across_generations_match_sequential(
        corpus_seed in 0u64..1_000,
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u16..70), 1..8),
            4..9,
        ),
    ) {
        let (_store, router) = build_sharded(2, 96, corpus_seed, 17);
        let queries: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t)).collect();
        let pre_split = router.open_searcher().unwrap();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| canonical(&pre_split.execute(q, &QueryOptions::new()).unwrap().hits))
            .collect();
        let (split_router, _old) = router
            .split(
                &config(17),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        let after_split = split_router.open_searcher().unwrap();

        let threads = 8;
        let results: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let queries = &queries;
                    // Even threads read the new generation, odd threads
                    // the superseded one — both must agree everywhere.
                    let searcher = if t % 2 == 0 { &after_split } else { &pre_split };
                    s.spawn(move || {
                        (0..queries.len())
                            .map(|i| {
                                let q = &queries[(t + i) % queries.len()];
                                canonical(
                                    &searcher.execute(q, &QueryOptions::new()).unwrap().hits,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, per_thread) in results.iter().enumerate() {
            for (i, got) in per_thread.iter().enumerate() {
                let want = &expected[(t + i) % queries.len()];
                prop_assert_eq!(got, want, "thread {}, query {}", t, i);
            }
        }
    }
}

/// Non-property regression: the generation lifecycle on a fixed corpus —
/// split, merge, then GC of a superseded generation, with the live one
/// refusing to self-destruct.
#[test]
fn generation_lifecycle_and_gc() {
    let (_store, router) = build_sharded(2, 80, 3, 3);
    let query = Query::term(word_token(1));
    let baseline = canonical(
        &router
            .open_searcher()
            .unwrap()
            .execute(&query, &QueryOptions::new())
            .unwrap()
            .hits,
    );
    assert!(!baseline.is_empty(), "rank-1 zipf word must occur");

    let (split_router, gen1) = router
        .split(
            &config(3),
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        )
        .unwrap();
    let (merged_router, gen2) = split_router
        .merge(
            &config(3),
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        )
        .unwrap();
    assert_eq!((gen1.generation, gen2.generation), (1, 2));
    assert_eq!(merged_router.generation(), 3);

    // Reclaim both superseded generations; the live one still serves.
    assert!(merged_router.gc_generation(&gen1).unwrap() > 0);
    assert!(merged_router.gc_generation(&gen2).unwrap() > 0);
    let live = canonical(
        &merged_router
            .open_searcher()
            .unwrap()
            .execute(&query, &QueryOptions::new())
            .unwrap()
            .hits,
    );
    assert_eq!(live, baseline);
    // GC of the live generation is a typed refusal, not data loss.
    assert!(merged_router.gc_generation(merged_router.layout()).is_err());
    assert_eq!(
        canonical(
            &merged_router
                .open_searcher()
                .unwrap()
                .execute(&query, &QueryOptions::new())
                .unwrap()
                .hits,
        ),
        baseline
    );
}
