//! Concurrent serving: N threads over one shared `Arc<Searcher>` and one
//! shared byte-budgeted cache must agree byte-for-byte with sequential
//! execution; randomly composed Query ASTs executed concurrently must
//! match the linear-scan oracle; the PR-1 single-batch invariant
//! (`round_trips_of(Postings) == 1`) must survive the worker pool; and
//! seeded transient failures under parallel load must all be retried to
//! success with exact counters.

use airphant::{
    AirphantConfig, Builder, Query, QueryOptions, QueryServer, SearchResult, Searcher, ServerConfig,
};
use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
use airphant_storage::{
    CachedStore, FlakyStore, InMemoryStore, LatencyModel, ObjectStore, PhaseKind, QueryTrace,
    RetryingStore, SimDuration, SimulatedCloudStore,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

fn corpus_lines(n: usize) -> Vec<String> {
    // Zipf-flavoured synthetic: low word indices appear in many documents.
    (0..n)
        .map(|i| format!("w{} w{} w{} tail{}", i % 7, i % 13, (i * 31) % 30, i))
        .collect()
}

fn build_index(store: Arc<dyn ObjectStore>, lines: &[String], prefix: &str) {
    store
        .put("c/blob-0", bytes::Bytes::from(lines.join("\n")))
        .unwrap();
    let corpus = Corpus::new(
        store.clone(),
        vec!["c/blob-0".into()],
        Arc::new(LineSplitter),
        Arc::new(WhitespaceTokenizer),
    );
    Builder::new(
        AirphantConfig::default()
            .with_total_bins(96)
            .with_manual_layers(2)
            .with_common_fraction(0.0)
            .with_seed(11),
    )
    .build(&corpus, prefix)
    .unwrap();
}

/// Stable byte-level identity of a result: every field a caller can see.
fn fingerprint(r: &SearchResult) -> Vec<(String, u64, u32, String)> {
    r.hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
        .collect()
}

#[test]
fn parallel_threads_agree_byte_for_byte_with_sequential() {
    let sim = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::gcs_like(),
        77,
    ));
    let lines = corpus_lines(120);
    build_index(sim.clone() as Arc<dyn ObjectStore>, &lines, "idx");
    let cache = Arc::new(CachedStore::new(sim as Arc<dyn ObjectStore>, 256 << 10));
    let searcher = Arc::new(Searcher::open(cache.clone() as Arc<dyn ObjectStore>, "idx").unwrap());

    let queries: Vec<Query> = (0..40)
        .map(|i| match i % 3 {
            0 => Query::term(format!("w{}", i % 13)),
            1 => Query::all([
                Query::term(format!("w{}", i % 7)),
                Query::term(format!("w{}", i % 13)),
            ]),
            _ => Query::any([
                Query::term(format!("tail{i}")),
                Query::term(format!("w{}", i % 30)),
            ]),
        })
        .collect();

    // Sequential reference on the same shared stack (cache warm-up
    // included: hits change latency, never bytes).
    let reference: Vec<_> = queries
        .iter()
        .map(|q| fingerprint(&searcher.execute(q, &QueryOptions::new()).unwrap()))
        .collect();

    // 8 threads × the full workload, all through the same Arc<Searcher>.
    std::thread::scope(|s| {
        for _ in 0..8 {
            let searcher = searcher.clone();
            let queries = &queries;
            let reference = &reference;
            s.spawn(move || {
                for (q, expected) in queries.iter().zip(reference) {
                    let got = fingerprint(&searcher.execute(q, &QueryOptions::new()).unwrap());
                    assert_eq!(&got, expected, "diverged on {q:?}");
                }
            });
        }
    });
    // The shared cache saw all threads; accounting never desyncs.
    let (h, m) = cache.hit_stats();
    assert!(h > 0 && m > 0);
}

#[test]
fn retried_transient_failures_under_parallel_search_are_exact() {
    // Full engine path over a flaky backend: every parallel search must
    // succeed (retries absorb the injected faults) and the fault/retry
    // counters must agree event-for-event.
    let plain = Arc::new(InMemoryStore::new());
    let lines = corpus_lines(80);
    build_index(plain.clone() as Arc<dyn ObjectStore>, &lines, "idx");
    let flaky = FlakyStore::new(plain as Arc<dyn ObjectStore>, 0.2, 4242);
    let store = Arc::new(RetryingStore::new(flaky, 32, SimDuration::from_millis(5)));
    let searcher = Arc::new(Searcher::open(store.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
    std::thread::scope(|s| {
        for t in 0..6 {
            let searcher = searcher.clone();
            s.spawn(move || {
                for i in 0..40 {
                    let word = format!("w{}", (t * 40 + i) % 13);
                    let r = searcher.search(&word, None).unwrap();
                    assert!(!r.hits.is_empty(), "{word} must resolve despite faults");
                }
            });
        }
    });
    assert!(store.retries() > 0, "faults were actually injected");
    assert_eq!(
        store.retries(),
        store.inner().injected_failures(),
        "every injected failure was retried exactly once (no lost updates)"
    );
}

#[test]
fn query_server_preserves_single_batch_round_trips() {
    // PR-1 invariant through the pool: every query served by a
    // QueryServer still pays exactly one dependent superpost batch.
    let sim = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::gcs_like(),
        3,
    ));
    let lines = corpus_lines(100);
    build_index(sim.clone() as Arc<dyn ObjectStore>, &lines, "idx");
    let cache = Arc::new(CachedStore::new(sim as Arc<dyn ObjectStore>, 512 << 10));
    let searcher = Arc::new(Searcher::open(cache.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
    let server = QueryServer::start(
        searcher,
        ServerConfig::new().with_workers(6).with_queue_capacity(24),
    );
    let queries: Vec<Query> = (0..60)
        .map(|i| match i % 3 {
            0 => Query::term(format!("w{}", i % 13)),
            1 => Query::all([
                Query::term(format!("w{}", i % 7)),
                Query::term(format!("w{}", i % 13)),
                Query::term(format!("w{}", (i * 31) % 30)),
            ]),
            _ => Query::any([
                Query::term(format!("w{}", i % 13)),
                Query::term(format!("w{}", (i + 1) % 13)),
            ]),
        })
        .collect();
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.clone(), QueryOptions::new()).unwrap())
        .collect();
    for (q, t) in queries.iter().zip(tickets) {
        let r = t.wait().unwrap();
        assert_eq!(
            r.trace.round_trips_of(PhaseKind::Postings),
            1,
            "pooled execution broke the single-batch lookup for {q:?}"
        );
        assert!(
            r.trace.round_trips() <= 2,
            "lookup batch + document batch at most"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 60);
    assert_eq!(stats.failed + stats.timed_out + stats.rejected, 0);
}

#[test]
fn simulated_qps_scales_with_worker_count() {
    // Same workload, 1 vs 4 workers: the closed-loop simulated QPS must
    // improve with the pool (the read path has no serial bottleneck).
    let run = |workers: usize| {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            9,
        ));
        let lines = corpus_lines(100);
        build_index(sim.clone() as Arc<dyn ObjectStore>, &lines, "idx");
        let searcher = Arc::new(Searcher::open(sim as Arc<dyn ObjectStore>, "idx").unwrap());
        let server = QueryServer::start(
            searcher,
            ServerConfig::new()
                .with_workers(workers)
                .with_queue_capacity(32),
        );
        let tickets: Vec<_> = (0..80)
            .map(|i| {
                server
                    .submit(Query::term(format!("w{}", i % 13)), QueryOptions::new())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        server.shutdown().qps_sim
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four > 2.0 * one,
        "4 workers ({four:.1} qps) must scale past 1 worker ({one:.1} qps)"
    );
}

// ---------------------------------------------------------------------
// Property test: random ASTs, executed concurrently through one shared
// searcher + cache, against the linear-scan oracle.

struct SharedIndex {
    searcher: Arc<Searcher>,
    docs: Vec<String>,
}

fn shared_index() -> &'static SharedIndex {
    static SHARED: OnceLock<SharedIndex> = OnceLock::new();
    SHARED.get_or_init(|| {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::instantaneous(),
            1,
        ));
        let docs: Vec<String> = (0..90)
            .map(|i| {
                format!(
                    "w{} w{} w{}",
                    i % 30,
                    (i * 7) % 30,
                    (i * 13 + 5) % 34 // some indices past the vocab: absent words
                )
            })
            .collect();
        build_index(sim.clone() as Arc<dyn ObjectStore>, &docs, "pidx");
        let cache = Arc::new(CachedStore::new(sim as Arc<dyn ObjectStore>, 1 << 20));
        let searcher = Arc::new(Searcher::open(cache as Arc<dyn ObjectStore>, "pidx").unwrap());
        SharedIndex { searcher, docs }
    })
}

/// Random AST from an opcode tape, stack-machine style (same scheme as
/// `query_properties.rs`): 0 pushes a term, 1 folds AND, 2 folds OR.
fn ast_from_tape(tape: &[(u8, u8)]) -> Query {
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
            _ => stack.push(Query::term(format!("w{w}"))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

fn oracle(docs: &[String], query: &Query) -> BTreeSet<String> {
    docs.iter()
        .filter(|text| {
            let has = |w: &str| text.split_ascii_whitespace().any(|t| t == w);
            query.matches_doc(&has, text)
        })
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn concurrent_random_asts_match_linear_scan(
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..36), 1..10),
            2..5,
        ),
    ) {
        let shared = shared_index();
        let queries: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t)).collect();
        // Run all of this case's queries concurrently over the shared
        // searcher; each thread checks its own result against the oracle.
        let results: Vec<(Query, BTreeSet<String>, QueryTrace)> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .into_iter()
                .map(|q| {
                    let searcher = shared.searcher.clone();
                    s.spawn(move || {
                        let r = searcher.execute(&q, &QueryOptions::new()).unwrap();
                        let got: BTreeSet<String> =
                            r.hits.into_iter().map(|h| h.text).collect();
                        (q, got, r.trace)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (q, got, trace) in results {
            let expected = oracle(&shared.docs, &q);
            prop_assert_eq!(&got, &expected, "query {:?} diverged from oracle", &q);
            let atoms = q.atoms().unwrap();
            if !atoms.is_empty() {
                // At most one batch; none only when the vocabulary proved
                // the query empty, and then the answer is empty.
                let batches = trace.round_trips_of(PhaseKind::Postings);
                prop_assert!(
                    batches == 1 || (batches == 0 && got.is_empty()),
                    "lookup must stay one batch under concurrency, got {}",
                    batches
                );
            }
        }
    }
}
