//! `ingest-live` — writes beside reads.
//!
//! One thread, fully count-triggered (no timers): `LiveIndex::append` of
//! seeded log lines, a seal every 1 024 documents, an explicit `flush()`
//! every 4 096, and a `Compactor` run after every flush that merges while
//! more than 8 segments are live. Every 64 appends it asks for the newest
//! document by its unique token (which must return exactly it) and runs one
//! hot-term query. The same planner and segment layers are used for
//! writing, so a read gain bought with write or space cost shows up in
//! `write_amp`, `space_amp` or `ingest_docs_per_s`.
//!
//! Stack: `LiveIndex → probe → SimulatedCloudStore → probe → InMemoryStore`.
//!
//! Compaction runs with deferred GC: the live index keeps serving from the
//! manifest generation it opened until its next flush, so superseded
//! segments are deleted only after that flush has moved it on.

use crate::clock::process_cpu_ns;
use crate::gen::{self, CorpusText, Rng, Spec};
use crate::harness::{
    counting_allocs, host_scale, jitter_seed, passes_for, pooled_latency, sample_opens, save_trace,
    set_layer_metrics, shifted, timed_open, timed_setups, traced_rounds, Failures, LayerInputs,
    OpenStats, Outcome, RunConfig, FULL_CHECK_EVERY, JITTER_STREAMS, OPEN_SAMPLES, SLO_MS, TOP_K,
};
use crate::probe::{ledger, Counts, ProbeStore, Span, Tracer};
use crate::stats::{lower_quartile, median, percentile};
use airphant::{
    AirphantConfig, CompactionPolicy, Compactor, FlushPolicy, LiveIndex, Query, QueryOptions,
    SearchEngine, SearchResult,
};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, SimulatedCloudStore};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Documents appended per pass.
const DOCS: usize = 16_384;
/// Documents in the traced pass (twelve segments: enough to compact).
const TRACED_DOCS: usize = 12_288;
const SEAL_EVERY: usize = 1_024;
const FLUSH_EVERY: usize = 4_096;
const QUERY_EVERY: usize = 64;
const MAX_LIVE_SEGMENTS: usize = 8;
const SETUPS: usize = 5;
const BASE: &str = "idx/live";
/// Bins per segment: a sealed batch holds 1 024 documents.
const BINS: usize = 4_096;
/// Hot-term queries draw from these Zipf ranks: frequent, yet few enough
/// matches that an unbounded re-run stays cheap.
const HOT_RANKS: std::ops::Range<usize> = 10..50;

fn config() -> AirphantConfig {
    AirphantConfig::default().with_total_bins(BINS)
}

struct Stack {
    tracer: Arc<Tracer>,
    top: Arc<ProbeStore>,
    live: LiveIndex,
    open: OpenStats,
    open_spans: Vec<Span>,
}

fn open_stack(mem: &Arc<InMemoryStore>, sim_seed: u64, spans: bool) -> Result<Stack, String> {
    let tracer = Tracer::new();
    tracer.set_spans(spans);
    let bottom = Arc::new(ProbeStore::new(mem.clone(), "storage.memory", &tracer));
    let sim = Arc::new(SimulatedCloudStore::new(
        bottom,
        LatencyModel::gcs_like(),
        sim_seed,
    ));
    let top = Arc::new(
        ProbeStore::new(sim, "storage.sim", &tracer)
            .metered()
            .capturing(),
    );
    let (live, open, open_spans) = timed_open(&tracer, &[&top], || {
        LiveIndex::open(top.clone(), BASE, config())
            .map(|live| {
                live.with_policy(FlushPolicy {
                    max_docs: SEAL_EVERY,
                    max_bytes: u64::MAX,
                })
            })
            .map_err(|e| e.to_string())
    })?;
    Ok(Stack {
        tracer,
        top,
        live,
        open,
        open_spans,
    })
}

/// The benchmark's own view of what has been appended.
struct Key<'a> {
    line_index: HashMap<&'a str, u32>,
    /// Per hot rank: lines containing its word, ascending.
    hot: HashMap<usize, Vec<u32>>,
}

impl<'a> Key<'a> {
    fn new(text: &'a CorpusText) -> Self {
        let mut hot: HashMap<usize, Vec<u32>> = HOT_RANKS.map(|r| (r, Vec::new())).collect();
        let hot_words: HashMap<&str, usize> =
            HOT_RANKS.map(|r| (text.words[r].as_str(), r)).collect();
        let mut line_index = HashMap::with_capacity(text.docs.len());
        for i in 0..text.docs.len() {
            let line = text.text(i);
            line_index.insert(line, i as u32);
            for token in line.split_ascii_whitespace() {
                if let Some(r) = hot_words.get(token) {
                    let list = hot.get_mut(r).expect("hot rank");
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
        }
        Key { line_index, hot }
    }

    /// Hits must be appended lines that contain `word`; with `exact`, they
    /// must be exactly `expected`.
    fn check(
        &self,
        word: &str,
        result: &SearchResult,
        appended: usize,
        expected: Option<&[u32]>,
    ) -> Result<(), String> {
        let mut ids = Vec::with_capacity(result.hits.len());
        for hit in &result.hits {
            let id = *self
                .line_index
                .get(hit.text.as_str())
                .filter(|&&i| (i as usize) < appended)
                .ok_or_else(|| format!("{word}: hit {:?} was never appended", hit.text))?;
            if !hit.text.split_ascii_whitespace().any(|t| t == word) {
                return Err(format!("{word}: hit {:?} does not match", hit.text));
            }
            ids.push(id);
        }
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("{word}: a document was returned twice"));
        }
        match expected {
            Some(want) if ids != want => Err(format!(
                "{word}: returned {} documents, expected {}",
                ids.len(),
                want.len()
            )),
            None if result.hits.len() > TOP_K => {
                Err(format!("{word}: {} hits exceed top_k", result.hits.len()))
            }
            _ => Ok(()),
        }
    }
}

/// What one ingest pass produced.
#[derive(Default)]
struct Pass {
    docs: usize,
    cpu_ns: u64,
    query_cpu_ns: u64,
    /// Query latency, ms, ascending.
    latency_ms: Vec<f64>,
    hits: u64,
    round_trips: u64,
    trace_bytes: u64,
    compute_ns: u64,
    /// Probe counts during query calls only.
    query_counts: Counts,
    /// Probe counts over the whole pass.
    counts: Counts,
    appended_bytes: u64,
    index_bytes: u64,
    /// Traced passes only.
    append_us: Vec<f64>,
    flush_ms: Vec<f64>,
    flush_puts: u64,
    compact_ms: Vec<f64>,
    compact_put_bytes: u64,
}

impl Pass {
    fn queries(&self) -> usize {
        self.latency_ms.len()
    }

    fn digest(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.hits,
            self.round_trips,
            self.query_counts.requests,
            self.query_counts.bytes,
            self.counts.put_bytes,
            self.index_bytes,
        )
    }
}

/// Ingest `n` lines of `text` into `stack`, querying as it goes. With
/// `key`, every answer is checked (and every [`FULL_CHECK_EVERY`]-th hot
/// query re-run without `top_k`); operations are recorded in `failures`.
fn ingest(
    stack: &Stack,
    text: &CorpusText,
    n: usize,
    seed: u64,
    key: Option<&Key<'_>>,
    failures: &mut Failures,
    timed_ops: bool,
) -> Pass {
    let mut pass = Pass {
        docs: n,
        ..Pass::default()
    };
    let opts = QueryOptions::new().top_k(TOP_K);
    let mut rng = Rng::new(gen::derive(seed, 7));
    let compactor = Compactor::new(stack.live.segment_manager(), config()).with_policy(
        CompactionPolicy::new()
            .with_max_live_segments(MAX_LIVE_SEGMENTS)
            .with_deferred_gc(true),
    );
    let mut superseded = None;
    let mut unit = 0u64;
    let mut hot_queries = 0usize;
    let tracer = &stack.tracer;
    let before = stack.top.counts();
    let started = process_cpu_ns();

    let query = |pass: &mut Pass, word: &str, unit: u64| -> Result<SearchResult, String> {
        let q = Query::term(word);
        let c0 = stack.top.counts();
        let t0 = process_cpu_ns();
        let result = tracer.root(unit, "core.plan", "execute", || {
            stack.live.execute(&q, &opts)
        });
        pass.query_cpu_ns += process_cpu_ns() - t0;
        pass.query_counts = pass.query_counts.plus(&stack.top.counts().since(&c0));
        let r = result.map_err(|e| format!("{word}: {e}"))?;
        pass.latency_ms.push(r.latency().as_millis_f64());
        pass.hits += r.hits.len() as u64;
        pass.round_trips += r.trace.round_trips();
        pass.trace_bytes += r.trace.bytes();
        pass.compute_ns += r.trace.compute().as_nanos();
        Ok(r)
    };

    for i in 0..n {
        let line = text.text(i);
        unit += 1;
        let t0 = timed_ops.then(Instant::now);
        let appended = tracer.root(unit, "core.memtable", "append", || stack.live.append(line));
        if let Some(t0) = t0 {
            pass.append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        failures.record(appended.map_err(|e| format!("append {i}: {e}")));
        pass.appended_bytes += line.len() as u64;
        let done = i + 1;

        if done % QUERY_EVERY == 0 {
            // The newest document, by the token only it carries.
            let id = gen::unique_token(seed, i);
            let id = id.trim();
            unit += 1;
            match (query(&mut pass, id, unit), key) {
                (Ok(r), Some(key)) => failures.record(key.check(id, &r, done, Some(&[i as u32]))),
                (Ok(_), None) => {}
                (Err(e), _) => failures.record(Err(e)),
            }
            // One hot term.
            let rank = HOT_RANKS.start + rng.below(HOT_RANKS.len());
            let word = &text.words[rank];
            unit += 1;
            hot_queries += 1;
            match (query(&mut pass, word, unit), key) {
                (Ok(r), Some(key)) => {
                    failures.record(key.check(word, &r, done, None));
                    if hot_queries.is_multiple_of(FULL_CHECK_EVERY) {
                        let want = &key.hot[&rank];
                        let want = &want[..want.partition_point(|&d| (d as usize) < done)];
                        failures.record(
                            stack
                                .live
                                .execute(&Query::term(word.clone()), &QueryOptions::new())
                                .map_err(|e| e.to_string())
                                .and_then(|r| key.check(word, &r, done, Some(want))),
                        );
                    }
                }
                (Ok(_), None) => {}
                (Err(e), _) => failures.record(Err(e)),
            }
        }

        if done % FLUSH_EVERY == 0 || done == n {
            unit += 1;
            let c0 = stack.top.counts();
            let t0 = Instant::now();
            let flushed = tracer.root(unit, "core.memtable", "flush", || stack.live.flush());
            pass.flush_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            pass.flush_puts += stack.top.counts().since(&c0).puts;
            failures.record(
                flushed
                    .map(|_| ())
                    .map_err(|e| format!("flush at {done}: {e}")),
            );
            // The flush moved the live index past the generation the last
            // compaction superseded; its blobs can go now.
            unit += 1;
            let c0 = stack.top.counts();
            let t0 = Instant::now();
            let compacted = tracer.root(unit, "core.compact", "compact", || {
                if let Some(report) = superseded.take() {
                    compactor.gc_deferred(&report)?;
                }
                compactor.compact()
            });
            pass.compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            pass.compact_put_bytes += stack.top.counts().since(&c0).put_bytes;
            match compacted {
                Ok(report) => {
                    failures.attempted += 1;
                    superseded = Some(report);
                }
                Err(e) => failures.record(Err(format!("compact at {done}: {e}"))),
            }
        }
    }
    pass.cpu_ns = process_cpu_ns() - started;
    pass.counts = stack.top.counts().since(&before);
    let usage = |prefix: &str| stack.top.usage(prefix).unwrap_or(0);
    pass.index_bytes = usage(&format!("{BASE}/")).saturating_sub(usage(&format!("{BASE}/ingest/")));
    pass.latency_ms.sort_by(f64::total_cmp);
    pass
}

/// Run the workload.
pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    Outcome::from_run(|out| run_inner(cfg, traced, out))
}

fn run_inner(cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let n_docs = cfg.scaled(if traced { TRACED_DOCS } else { DOCS });
    let sim_seed = gen::derive(cfg.seed, 0x54);
    let fresh = || Arc::new(InMemoryStore::new());

    // Set-up: generate the lines and open a live index on an empty store.
    let (setup_s, text) = timed_setups(cfg, traced, SETUPS, || {
        let text = gen::corpus(cfg.seed, n_docs, n_docs, "lines", true);
        drop(open_stack(&fresh(), sim_seed, false)?);
        Ok(text)
    })?;
    out.notes.push(format!(
        "inputs: seed {} lines {:016x} ({} docs, {} bytes); seal {SEAL_EVERY}, flush {FLUSH_EVERY}, \
         compact above {MAX_LIVE_SEGMENTS} segments, 2 queries per {QUERY_EVERY} appends",
        cfg.seed, text.digest, n_docs, text.doc_bytes
    ));
    if traced {
        return run_traced(cfg, out, &text, n_docs, sim_seed);
    }

    // One verified pass, then identical timed passes into fresh stores.
    let key = Key::new(&text);
    {
        let stack = open_stack(&fresh(), sim_seed, false)?;
        let verified = Some(&key);
        ingest(
            &stack,
            &text,
            n_docs,
            cfg.seed,
            verified,
            &mut out.failures,
            false,
        );
    }
    let mut passes: Vec<Pass> = Vec::new();
    let mut written = fresh();
    passes_for(cfg, JITTER_STREAMS, |pass| {
        written = fresh();
        let stack = open_stack(&written, jitter_seed(sim_seed, pass), false)?;
        passes.push(ingest(
            &stack,
            &text,
            n_docs,
            cfg.seed,
            None,
            &mut out.failures,
            false,
        ));
        Ok(())
    })?;
    let first = &passes[0];
    if first.queries() == 0 {
        return Err("no query succeeded".into());
    }
    for (i, p) in passes.iter().enumerate() {
        out.failures.attempted += p.queries() as u64;
        if p.digest() != first.digest() {
            out.violations.push(format!(
                "pass {i} differs from pass 0 under one seed: {:?} vs {:?}",
                p.digest(),
                first.digest()
            ));
        }
    }

    let q = first.queries() as f64;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let pooled = pooled_latency(passes.iter().map(|p| p.latency_ms.as_slice()));
    let mean_latency_s = pooled.iter().sum::<f64>() / 1e3 / pooled.len() as f64;
    let within_slo = pooled.partition_point(|&ms| ms <= SLO_MS) as f64 / pooled.len() as f64;
    let host = per_pass(&|p| p.query_cpu_ns as f64 / 1e3 / p.queries() as f64);
    out.set("setup_s", median(&setup_s) * host_scale());
    out.set("query_ms_p50", percentile(&pooled, 0.50));
    out.set("query_ms_p99", percentile(&pooled, 0.99));
    out.set("round_trips_per_query", first.round_trips as f64 / q);
    out.set("requests_per_query", first.query_counts.requests as f64 / q);
    out.set("bytes_per_query", first.query_counts.bytes as f64 / q);
    out.set("host_us_per_query", lower_quartile(&host) * host_scale());
    out.set("max_rate_at_slo", within_slo / mean_latency_s);
    out.set(
        "ingest_docs_per_s",
        n_docs as f64 / (lower_quartile(&per_pass(&|p| p.cpu_ns as f64)) * host_scale() / 1e9),
    );
    out.set(
        "write_amp",
        first.counts.put_bytes as f64 / first.appended_bytes as f64,
    );
    out.set(
        "space_amp",
        first.index_bytes as f64 / first.appended_bytes as f64,
    );
    out.notes.push(format!(
        "samples: {n_docs} docs and {} queries x {} timed passes; latency pooled over {} jitter \
         streams (p99 has {} samples beyond it); raw host us/query per pass {host:.0?}",
        first.queries(),
        passes.len(),
        JITTER_STREAMS.min(passes.len()),
        pooled.len() / 100
    ));
    // What a restart pays: cold opens of what the last pass wrote.
    sample_opens(out, sim_seed, cfg.scaled(OPEN_SAMPLES / 2), |jitter| {
        open_stack(&written, jitter, false).map(|s| s.open)
    })
}

fn run_traced(
    cfg: &RunConfig,
    out: &mut Outcome,
    text: &CorpusText,
    n_docs: usize,
    sim_seed: u64,
) -> Result<(), String> {
    struct Kept {
        pass: Pass,
        stack: Stack,
        spans: Vec<Span>,
        reopened: Stack,
    }
    let mut failures = Failures::default();
    let rounds = traced_rounds(cfg, |spans| {
        let mem = Arc::new(InMemoryStore::new());
        let stack = open_stack(&mem, sim_seed, spans)?;
        let (pass, allocs) =
            counting_allocs(|| ingest(&stack, text, n_docs, cfg.seed, None, &mut failures, spans));
        let kept = Kept {
            spans: stack.tracer.take_spans(),
            reopened: open_stack(&mem, sim_seed, spans)?,
            pass,
            stack,
        };
        Ok((kept.pass.cpu_ns, allocs, kept))
    })?;
    let Kept {
        pass,
        stack,
        spans,
        reopened,
    } = rounds.kept;
    out.failures = failures;
    out.failures.attempted += pass.queries() as u64;

    let book = ledger(&spans, false);
    out.violations.extend(book.violations.iter().cloned());
    // The memtable part of a query is served from the in-process tail and
    // never reaches the probe, so the probe sees at most what the trace
    // reports.
    if pass.query_counts.bytes > pass.trace_bytes {
        out.violations.push(format!(
            "bytes at the top probe during queries ({}) exceed summed trace.bytes() ({})",
            pass.query_counts.bytes, pass.trace_bytes
        ));
    }

    let q = pass.queries().max(1) as f64;
    let hot: Vec<Spec> = HOT_RANKS
        .map(|r| Spec::Term(text.words[r].clone()))
        .collect();
    out.set(
        "core.plan.self_us",
        book.self_of("core.plan") as f64 / 1e3 / q,
    );
    let mut append_us = pass.append_us.clone();
    append_us.sort_by(f64::total_cmp);
    out.set("core.memtable.append_us_p50", percentile(&append_us, 0.50));
    out.set("core.memtable.append_us_p99", percentile(&append_us, 0.99));
    out.set("core.memtable.flush_ms_p50", median(&pass.flush_ms));
    out.set(
        "core.memtable.flush_puts",
        pass.flush_puts as f64 / pass.flush_ms.len() as f64,
    );
    out.set("core.compact.ms_total", pass.compact_ms.iter().sum());
    out.set(
        "core.compact.bytes_rewritten",
        pass.compact_put_bytes as f64,
    );
    out.set(
        "core.compact.max_stall_ms",
        pass.compact_ms.iter().copied().fold(0.0, f64::max),
    );
    set_layer_metrics(
        out,
        LayerInputs {
            queries: q,
            // The store also works for appends, flushes and compactions
            // here: its self time is per operation of any kind.
            store_units: book.roots.max(1) as f64,
            sims: &pass.query_counts,
            engine: &pass.query_counts,
            self_ns: &|layer| book.self_of(layer) as f64,
            // Documents of the memtable never reach a probe, so fetched /
            // returned means nothing here.
            hits: None,
            compute_ns: pass.compute_ns,
            allocs_per_query: (rounds.allocs.0 as f64 / q, rounds.allocs.1 as f64 / q),
            captured: stack.top.take_captured(),
            specs: &hot,
            open: &reopened.open,
            build: None,
            text,
            overhead_frac: rounds.overhead_frac,
        },
    );

    let mut all = stack.open_spans;
    all.extend(spans);
    // The cold re-open ran on its own tracer: keep its ids apart.
    all.extend(shifted(&reopened.open_spans, 1 << 40));
    save_trace(
        cfg,
        out,
        "ingest-live",
        &all,
        &format!("{} appends and {} queries", pass.docs, pass.queries()),
    )
}
