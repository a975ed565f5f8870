//! Vocabulary-proved segment pruning: the planner skips, per segment, the
//! atoms that segment's vocabulary proves empty — and nothing else.
//!
//! * Any random AST over Term/Phrase/And/Or/Substring/Prefix/Fuzzy returns
//!   byte-for-byte the linear scan's documents on flat and sharded layouts
//!   of N ∈ {1, 2, 4, 8}, on a mixed v1+v2 segment set and on a
//!   `LiveIndex` with an unflushed tail — identically through direct
//!   calls, the sync worker pool and the caller-pumped async core.
//! * The reads the store sees are exactly the ones the vocabularies
//!   leave: `k × L` for a term present in `k` of `N` segments, nothing at
//!   all for an absent term, nothing from a segment where a conjunct is
//!   missing, and every atom from a v1 segment (no vocabulary, no proof).

use airphant::{
    AirphantConfig, AsyncQueryServer, AsyncServerConfig, FormatVersion, LiveIndex, Query,
    QueryOptions, QueryServer, SearchEngine, SearchHit, SegmentManager, SegmentedSearcher,
    ServerConfig, ShardRouter, StagedEngine, SubmitSpec,
};
use airphant_corpus::{Corpus, LineSplitter, NgramTokenizer, Tokenizer, WhitespaceTokenizer};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, PhaseKind, SimulatedCloudStore};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeSet;
use std::sync::Arc;

const COUNTS: [usize; 4] = [1, 2, 4, 8];
const LAYERS: usize = 2;

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(64)
        .with_manual_layers(LAYERS)
        .with_common_fraction(0.0)
        .with_seed(seed)
}

fn corpus_of(
    store: &Arc<dyn ObjectStore>,
    blob: &str,
    lines: &[String],
    tokenizer: Arc<dyn Tokenizer>,
) -> Corpus {
    store
        .put(blob, bytes::Bytes::from(lines.join("\n")))
        .unwrap();
    Corpus::new(
        store.clone(),
        vec![blob.to_owned()],
        Arc::new(LineSplitter),
        tokenizer,
    )
}

// ---------------------------------------------------------------------
// Equivalence: random ASTs over a 3-gram index, every layout, every path.
// ---------------------------------------------------------------------

fn grams() -> Arc<dyn Tokenizer> {
    Arc::new(NgramTokenizer::new(3))
}

/// Documents are words `w0..w19` plus a unique id, so texts are distinct
/// and every gram of `wA wB` for A, B < 20 may or may not occur.
fn doc_text(id: usize, words: &[u8]) -> String {
    let mut parts: Vec<String> = words.iter().map(|w| format!("w{w}")).collect();
    parts.push(format!("d{id}"));
    parts.join(" ")
}

/// The `i`-th 3-gram of `wA wB`; `a`, `b` run to 29, past the corpus.
fn gram_of(a: u8, b: u8) -> String {
    let s = format!("w{a} w{b}");
    let chars: Vec<char> = s.chars().collect();
    let i = (a as usize + b as usize) % (chars.len() - 2);
    chars[i..i + 3].iter().collect()
}

/// Random AST from an opcode tape (the stack-machine idiom of
/// `query_properties.rs`): 1 folds AND, 2 folds OR, 3 pushes a phrase of
/// two grams, 4 a substring, 5 a prefix, 6 a fuzzy gram, anything else a
/// gram term. Without `vocab_atoms` (a segment set that includes v1) the
/// atoms that need a vocabulary become plain terms and substrings stay at
/// least a gram long.
fn ast_from_tape(tape: &[(u8, u8, u8)], vocab_atoms: bool) -> Query {
    let mut stack: Vec<Query> = Vec::new();
    for &(op, a, b) in tape {
        match op {
            1 | 2 if stack.len() >= 2 => {
                let r = stack.pop().unwrap();
                let l = stack.pop().unwrap();
                stack.push(if op == 1 {
                    Query::all([l, r])
                } else {
                    Query::any([l, r])
                });
            }
            3 => stack.push(Query::phrase([gram_of(a, b), gram_of(b, a)])),
            4 if vocab_atoms && b % 4 == 0 => {
                stack.push(Query::substring(format!("w{}", a % 10), 3))
            }
            4 => stack.push(Query::substring(format!("w{a} w{b}"), 3)),
            5 if vocab_atoms => stack.push(Query::prefix(format!("w{}", a % 3))),
            6 if vocab_atoms => stack.push(Query::fuzzy(gram_of(a, b), 1)),
            _ => stack.push(Query::term(gram_of(a, b))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

fn oracle(query: &Query, lines: &[String]) -> BTreeSet<String> {
    let tokenizer = NgramTokenizer::new(3);
    lines
        .iter()
        .filter(|text| query.matches_tokens(&tokenizer.tokens(text), text))
        .cloned()
        .collect()
}

/// Run every query through `engine` directly, through the sync worker
/// pool and through the caller-pumped async core: all three return the
/// same hits in the same order, equal as a set to the linear scan, in at
/// most one postings batch — none only when the answer is empty.
fn check_engine<E: StagedEngine + 'static>(
    label: &str,
    engine: Arc<E>,
    queries: &[Query],
    lines: &[String],
) -> Result<(), TestCaseError> {
    let opts = QueryOptions::new();
    let direct: Vec<Vec<SearchHit>> = queries
        .iter()
        .map(|q| {
            let r = engine.execute(q, &opts).unwrap();
            let batches = r.trace.round_trips_of(PhaseKind::Postings);
            assert!(
                batches == 1 || (batches == 0 && r.hits.is_empty()),
                "{label}: {batches} postings batches, {} hits for {q:?}",
                r.hits.len()
            );
            r.hits
        })
        .collect();
    for (q, hits) in queries.iter().zip(&direct) {
        let got: BTreeSet<String> = hits.iter().map(|h| h.text.clone()).collect();
        prop_assert_eq!(
            got.len(),
            hits.len(),
            "{}: duplicate hits for {:?}",
            label,
            q
        );
        prop_assert_eq!(got, oracle(q, lines), "{}: {:?}", label, q);
    }

    let pool = QueryServer::start(engine.clone(), ServerConfig::new().with_workers(3));
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| pool.submit(q.clone(), opts.clone()).unwrap())
        .collect();
    for ((q, want), t) in queries.iter().zip(&direct).zip(tickets) {
        prop_assert_eq!(
            &t.wait().unwrap().hits,
            want,
            "{}: sync pool, {:?}",
            label,
            q
        );
    }
    pool.shutdown();

    let core = AsyncQueryServer::start(
        engine as Arc<dyn StagedEngine>,
        AsyncServerConfig::new().with_executor_threads(0),
    );
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| core.submit_at(q.clone(), opts.clone(), SubmitSpec::new()))
        .collect();
    core.drain();
    for ((q, want), t) in queries.iter().zip(&direct).zip(tickets) {
        let served = t.wait().result.expect("served");
        prop_assert_eq!(&served.hits, want, "{}: async core, {:?}", label, q);
    }
    core.shutdown();
    Ok(())
}

/// `lines` appended to `mgr` in `n` slices, slice `i` in `format(i)`.
fn append_slices(
    store: &Arc<dyn ObjectStore>,
    mgr: &SegmentManager,
    lines: &[String],
    n: usize,
    seed: u64,
    format: impl Fn(usize) -> FormatVersion,
) {
    for (i, part) in lines.chunks(lines.len().div_ceil(n)).enumerate() {
        let blob = format!("c/{}-{i}", mgr.base());
        let corpus = corpus_of(store, &blob, part, grams());
        mgr.append(&corpus, &config(seed).with_format(format(i)))
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_ast_matches_linear_scan_on_every_layout_and_path(
        docs in prop::collection::vec(prop::collection::vec(0u8..20, 1..5), 8..40),
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..8, 0u8..30, 0u8..30), 1..9),
            2..5,
        ),
        seed in 0u64..500,
    ) {
        let lines: Vec<String> = docs.iter().enumerate().map(|(i, d)| doc_text(i, d)).collect();
        let queries: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t, true)).collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());

        for n in COUNTS {
            // N un-compacted segments of one flat index.
            let mgr = SegmentManager::new(store.clone(), format!("flat{n}"));
            append_slices(&store, &mgr, &lines, n, seed, |_| FormatVersion::V2);
            let flat = Arc::new(mgr.open_with_tokenizer(grams()).unwrap());
            check_engine(&format!("{n} segments"), flat, &queries, &lines)?;

            // N hash-routed shards.
            let whole = corpus_of(&store, &format!("c/whole{n}"), &lines, grams());
            let router = ShardRouter::create(store.clone(), format!("sharded{n}"), n).unwrap();
            router.append(&whole, &config(seed)).unwrap();
            let sharded = Arc::new(router.open_searcher_with_tokenizer(grams()).unwrap());
            check_engine(&format!("{n} shards"), sharded, &queries, &lines)?;
        }

        // v1 and v2 segments side by side: the v1 ones carry no
        // vocabulary, so they are planned in full and nothing that needs
        // one may be asked.
        let mgr = SegmentManager::new(store.clone(), "mixed");
        append_slices(&store, &mgr, &lines, 4, seed, |i| {
            if i % 2 == 0 { FormatVersion::V1 } else { FormatVersion::V2 }
        });
        let mixed = Arc::new(mgr.open_with_tokenizer(grams()).unwrap());
        prop_assert!(mixed.segments().iter().any(|s| s.vocab().is_none()));
        prop_assert!(mixed.segments().iter().any(|s| s.vocab().is_some()));
        let plain: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t, false)).collect();
        check_engine("mixed v1+v2", mixed, &plain, &lines)?;

        // A live index: one flushed segment, one sealed batch, an active
        // tail — the last two never left the memtable.
        let live = Arc::new(
            LiveIndex::open_with_tokenizer(store.clone(), "live", config(seed), grams()).unwrap(),
        );
        let third = lines.len().div_ceil(3);
        for (i, line) in lines.iter().enumerate() {
            live.append(line).unwrap();
            if i + 1 == third {
                live.flush().unwrap();
            } else if i + 1 == 2 * third {
                live.seal();
            }
        }
        prop_assert!(live.pending_docs() > 0, "the tail must be unflushed");
        check_engine("live index", live, &queries, &lines)?;
    }
}

// ---------------------------------------------------------------------
// Store-asserted read counts on a hand-laid-out whitespace index.
// ---------------------------------------------------------------------

/// Eight segments over a counting store. Segment `i` holds `everywhere`,
/// `seg{i}` and, when `i < k`, `first{k}` for each k in {1, 2, 4}.
struct Laid {
    store: Arc<SimulatedCloudStore<InMemoryStore>>,
    searcher: SegmentedSearcher,
}

fn lay_out(format: impl Fn(usize) -> FormatVersion) -> Laid {
    let store = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::instantaneous(),
        5,
    ));
    let dyn_store: Arc<dyn ObjectStore> = store.clone();
    let mgr = SegmentManager::new(dyn_store.clone(), "idx");
    for i in 0..8 {
        let mut words = vec!["everywhere".to_owned(), format!("seg{i}")];
        for k in [1, 2, 4] {
            if i < k {
                words.push(format!("first{k}"));
            }
        }
        let lines = vec![words.join(" "), format!("filler{i} everywhere")];
        let corpus = corpus_of(
            &dyn_store,
            &format!("c/{i}"),
            &lines,
            Arc::new(WhitespaceTokenizer),
        );
        // Bins to spare: two atoms of one segment sharing a bin would be
        // fetched once, and the counts below are exact.
        let config = config(9).with_total_bins(4096).with_format(format(i));
        mgr.append(&corpus, &config).unwrap();
    }
    let searcher = mgr.open().unwrap();
    Laid { store, searcher }
}

impl Laid {
    /// `(superpost reads, batches)` of the postings phase alone, as the
    /// store counted them.
    fn lookup(&self, query: &Query) -> (u64, u64) {
        self.store.reset_stats();
        let (_, trace) = self.searcher.execute_lookup(query).unwrap();
        let stats = self.store.stats();
        assert_eq!(
            trace.requests(),
            stats.read_requests,
            "trace agrees with the store"
        );
        assert_eq!(trace.round_trips(), stats.batches);
        (stats.read_requests, stats.batches)
    }

    fn hits(&self, query: &Query) -> Vec<String> {
        let r = self.searcher.execute(query, &QueryOptions::new()).unwrap();
        r.hits.into_iter().map(|h| h.text).collect()
    }
}

#[test]
fn a_term_in_k_of_n_segments_plans_k_times_l_reads() {
    let laid = lay_out(|_| FormatVersion::V2);
    let l = LAYERS as u64;
    for (term, k) in [
        ("first1", 1),
        ("first2", 2),
        ("first4", 4),
        ("everywhere", 8),
        ("seg5", 1),
    ] {
        assert_eq!(
            laid.lookup(&Query::term(term)),
            (k * l, 1),
            "{term} lives in {k} of 8 segments"
        );
        let r = laid
            .searcher
            .execute(&Query::term(term), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.trace.segments_read(), k, "{term}");
        assert_eq!(r.trace.pruned_lookups(), 8 - k, "{term}");
        assert_eq!(r.trace.round_trips(), 2, "{term}: postings + documents");
        assert!(r.hits.iter().all(|h| h.text.split(' ').any(|w| w == term)));
        assert_eq!(
            r.hits.len() as u64,
            if term == "everywhere" { 16 } else { k }
        );
    }
}

#[test]
fn an_absent_term_plans_no_reads_and_no_batch() {
    let laid = lay_out(|_| FormatVersion::V2);
    for query in [
        Query::term("nowhere"),
        Query::all([Query::term("everywhere"), Query::term("nowhere")]),
        Query::phrase(["seg1", "seg2"]),
        Query::any([Query::term("nowhere"), Query::term("neither")]),
    ] {
        assert_eq!(laid.lookup(&query), (0, 0), "{query:?}");
        let r = laid.searcher.execute(&query, &QueryOptions::new()).unwrap();
        assert!(r.hits.is_empty(), "{query:?}");
        assert_eq!(r.trace.round_trips(), 0, "{query:?}");
        assert_eq!(r.trace.segments_read(), 0, "{query:?}");
    }
}

#[test]
fn a_conjunct_missing_from_a_segment_silences_that_segment() {
    let laid = lay_out(|_| FormatVersion::V2);
    let l = LAYERS as u64;
    // `everywhere` is in all eight segments, `first2` in two: the other
    // six read nothing — not even `everywhere`.
    let and = Query::all([Query::term("everywhere"), Query::term("first2")]);
    assert_eq!(laid.lookup(&and), (2 * 2 * l, 1));
    assert_eq!(laid.hits(&and).len(), 2);
    // Under an `Or` the live branch still reads: `seg3` in its one
    // segment, the dead conjunction nowhere else.
    let or = Query::any([
        Query::all([Query::term("first1"), Query::term("seg3")]),
        Query::term("seg3"),
    ]);
    assert_eq!(laid.lookup(&or), (l, 1));
    assert_eq!(laid.hits(&or).len(), 1);
    // A phrase is a conjunction of its words.
    let phrase = Query::phrase(["first4", "seg2", "everywhere"]);
    assert_eq!(laid.lookup(&phrase), (3 * l, 1));
    assert_eq!(laid.hits(&phrase).len(), 1);
}

#[test]
fn a_v1_segment_is_never_pruned() {
    // Segments 0 and 1 are v1: no vocabulary, so every atom is planned
    // there whatever the other six can prove.
    let laid = lay_out(|i| {
        if i < 2 {
            FormatVersion::V1
        } else {
            FormatVersion::V2
        }
    });
    let l = LAYERS as u64;
    assert_eq!(
        laid.lookup(&Query::term("nowhere")),
        (2 * l, 1),
        "only the v1 segments read"
    );
    assert_eq!(
        laid.lookup(&Query::term("seg5")),
        (3 * l, 1),
        "two v1 segments + the owner"
    );
    assert_eq!(laid.hits(&Query::term("seg5")).len(), 1);
    let r = laid
        .searcher
        .execute(&Query::term("nowhere"), &QueryOptions::new())
        .unwrap();
    assert!(r.hits.is_empty());
    assert_eq!(r.trace.segments_read(), 2);
    assert_eq!(r.trace.pruned_lookups(), 6);
}

/// A probe for a document that is still in the memtable reads no
/// persisted segment: the durable store sees no traffic at all.
#[test]
fn a_live_probe_for_an_unflushed_document_touches_no_durable_segment() {
    let cloud = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::gcs_like(),
        3,
    ));
    let live = LiveIndex::open(cloud.clone(), "live", config(4)).unwrap();
    for i in 0..40 {
        live.append(&format!("flushed id{i} common")).unwrap();
        if i % 10 == 9 {
            live.flush().unwrap();
        }
    }
    assert_eq!(live.durable_segments(), 4);
    live.append("tail idnewest common").unwrap();

    cloud.reset_stats();
    let r = live
        .execute(&Query::term("idnewest"), &QueryOptions::new())
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    assert_eq!(r.hits[0].text, "tail idnewest common");
    assert_eq!(cloud.stats().read_requests, 0, "answered from the memtable");
    assert_eq!(r.trace.segments_read(), 1);

    // A term the durable segments do hold still reads them.
    cloud.reset_stats();
    let r = live
        .execute(&Query::term("id7"), &QueryOptions::new())
        .unwrap();
    assert_eq!(r.hits.len(), 1);
    assert!(cloud.stats().read_requests > 0);
}
