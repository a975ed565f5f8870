//! What the four workloads share: run parameters, the result record, the
//! failure ledger, pass/set-up/open scaffolding, and the metrics every
//! workload derives the same way.

use crate::clock::{self, alloc_snapshot, cpu_timed};
use crate::gen::{self, CorpusText, Spec};
use crate::oracle::Oracle;
use crate::probe::{Captured, Counts, ProbeStore, Span, Tracer};
use crate::stats::{lower_quartile, median, percentile};
use airphant::{AirphantConfig, Builder, Query, QueryOptions, SearchResult};
use airphant_corpus::{Corpus, LineSplitter, Tokenizer, WhitespaceTokenizer};
use airphant_storage::ObjectStore;
use bytes::Bytes;
use iou_sketch::{intersect_views, HeaderBlock, Mht, SuperpostView};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Latency limit the served rate is judged against.
pub const SLO_MS: f64 = 400.0;
/// Results every query asks for.
pub const TOP_K: usize = 10;
/// Every this-many-th query is re-run without `top_k` and compared with
/// the oracle for set equality.
pub const FULL_CHECK_EVERY: usize = 100;
/// Queries matching more documents than this are skipped by the full
/// check (an unbounded hot term would fetch most of the corpus).
pub const FULL_CHECK_MAX_MATCHES: usize = 1_000;

/// Timed passes whose latencies are pooled. Passes do identical work, but
/// each of the first few draws its storage jitter from its own stream, so
/// the latency sample is several times a pass's queries and still does not
/// depend on how many passes the time budget allows.
pub const JITTER_STREAMS: usize = 3;

/// Cold opens sampled for `open_ms` and `resident_mb`. One open sees one
/// draw of the storage jitter per header, so a single open says little;
/// the median over this many, each on its own jitter stream, is steady.
pub const OPEN_SAMPLES: usize = 32;

/// Jitter seed of pass `pass`.
pub fn jitter_seed(sim_seed: u64, pass: usize) -> u64 {
    gen::derive(sim_seed, (pass % JITTER_STREAMS) as u64)
}

/// Pool the latencies of the first [`JITTER_STREAMS`] passes, ascending.
pub fn pooled_latency<'a>(passes: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut pooled: Vec<f64> = passes.take(JITTER_STREAMS).flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Smoke mode: a tenth of the inputs, one pass.
    pub quick: bool,
    /// Where traces go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// `full`, or a tenth of it in quick mode.
    pub fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, timed out or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub first: Vec<String>,
}

impl Failures {
    /// Count one operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Count a failure of an operation already counted as attempted, or a
    /// failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first.len() < 5 {
            self.first.push(why);
        }
    }

    /// `failed / attempted`.
    pub fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(metric, value)`, end-to-end or per-layer depending on the run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted and failed.
    pub failures: Failures,
    /// Conservation or determinism checks that did not hold.
    pub violations: Vec<String>,
    /// Context lines (digests, sample counts, sweep table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Run a workload body; an error that stops it counts as one failed
    /// operation.
    pub fn from_run(body: impl FnOnce(&mut Outcome) -> Result<(), String>) -> Outcome {
        let mut out = Outcome::default();
        clock::reset_reference();
        if let Err(e) = body(&mut out) {
            out.failures.record(Err(e));
        }
        let (scale, samples) = clock::reference_scale();
        out.notes.push(format!(
            "reference kernel sampled {samples} times: end-to-end host times (setup_s, \
             host_us_per_query, ingest_docs_per_s) are raw times x {scale:.4}; per-layer times \
             are raw"
        ));
        out
    }
}

/// Call `pass(i)` for `i = 0, 1, …` until `seconds` have elapsed, at least
/// `min` times; quick mode runs exactly one. Stops at the first error.
pub fn passes_for(
    cfg: &RunConfig,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut done = 0;
    loop {
        clock::sample_reference();
        pass(done)?;
        done += 1;
        if cfg.quick || (done >= min && started.elapsed().as_secs_f64() >= cfg.seconds) {
            return Ok(());
        }
    }
}

/// Run `setup` `repeats` times (once when traced or quick) and return each
/// run's wall seconds with the last run's product.
pub fn timed_setups<T>(
    cfg: &RunConfig,
    traced: bool,
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let repeats = if traced || cfg.quick { 1 } else { repeats };
    let mut wall_s = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        clock::sample_reference();
        let started = Instant::now();
        last = Some(setup()?);
        wall_s.push(started.elapsed().as_secs_f64());
    }
    Ok((wall_s, last.expect("at least one set-up")))
}

/// Factor that turns a raw host time of this run into reference time (see
/// [`clock::reference_scale`]).
pub fn host_scale() -> f64 {
    clock::reference_scale().0
}

/// The line every workload prints so two runs can prove identical inputs.
pub fn input_note(seed: u64, text: &CorpusText, specs: &[Spec]) -> String {
    format!(
        "inputs: seed {seed} corpus {:016x} ({} docs, {} bytes) queries {:016x} ({})",
        text.digest,
        text.docs.len(),
        text.doc_bytes,
        gen::digest_specs(specs),
        specs.len()
    )
}

/// What building the index cost.
pub struct BuildStats {
    /// Process CPU nanoseconds of corpus upload + build.
    pub cpu_ns: u64,
    /// What the build-time probe saw.
    pub counts: Counts,
    /// `usage` under the index prefix.
    pub index_bytes: u64,
}

/// Run `build` against `store` behind a metered probe, so every `put` is
/// counted, and measure it.
pub fn timed_build(
    store: Arc<dyn ObjectStore>,
    prefix: &str,
    build: impl FnOnce(&Arc<ProbeStore>) -> Result<(), String>,
) -> Result<BuildStats, String> {
    let probe = Arc::new(ProbeStore::new(store, "storage.memory", &Tracer::new()).metered());
    let (built, cpu_ns) = cpu_timed(|| build(&probe));
    built?;
    Ok(BuildStats {
        cpu_ns,
        counts: probe.counts(),
        index_bytes: probe
            .usage(&format!("{prefix}/"))
            .map_err(|e| e.to_string())?,
    })
}

/// Upload `blobs` of `text` and wrap them as a line-split,
/// whitespace-tokenised corpus over `store`.
pub fn upload(
    store: &Arc<ProbeStore>,
    text: &CorpusText,
    blobs: std::ops::Range<usize>,
) -> Result<Corpus, String> {
    for (name, blob) in &text.blobs[blobs.clone()] {
        store
            .put(name, Bytes::from(blob.clone()))
            .map_err(|e| e.to_string())?;
    }
    Ok(Corpus::new(
        store.clone(),
        text.blobs[blobs].iter().map(|(n, _)| n.clone()).collect(),
        Arc::new(LineSplitter),
        Arc::new(WhitespaceTokenizer),
    ))
}

/// Upload `text` and build one index over it under `prefix`.
pub fn build_index(
    store: Arc<dyn ObjectStore>,
    text: &CorpusText,
    config: AirphantConfig,
    prefix: &str,
) -> Result<BuildStats, String> {
    timed_build(store, prefix, |probe| {
        let corpus = upload(probe, text, 0..text.blobs.len())?;
        Builder::new(config)
            .build(&corpus, prefix)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

/// Record what set-up and the index build cost: `setup_s` is the median
/// wall time of the repeated set-ups, `ingest_docs_per_s` the documents
/// indexed per CPU second by the fastest of the builds (with four or five
/// samples and interference that only ever adds time, the fastest is the
/// steadiest estimate; the first builds of a process run up to twice as
/// slow on this box).
pub fn set_build_metrics(
    out: &mut Outcome,
    setup_s: &[f64],
    build_cpu_ns: &[f64],
    text: &CorpusText,
    put_bytes: u64,
    index_bytes: u64,
) {
    let fastest_ns = build_cpu_ns.iter().copied().fold(f64::MAX, f64::min);
    out.set("setup_s", median(setup_s) * host_scale());
    out.set(
        "ingest_docs_per_s",
        text.docs.len() as f64 / (fastest_ns * host_scale() / 1e9),
    );
    out.set("write_amp", put_bytes as f64 / text.doc_bytes as f64);
    out.set("space_amp", index_bytes as f64 / text.doc_bytes as f64);
    out.notes.push(format!(
        "set-ups: {setup_s:.3?} s wall (raw); builds {:.3?} s CPU (raw)",
        build_cpu_ns.iter().map(|ns| ns / 1e9).collect::<Vec<_>>()
    ));
}

/// What a cold open cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenStats {
    /// Virtual nanoseconds of what `open` fetched.
    pub sim_ns: u64,
    /// Process CPU nanoseconds of `open`.
    pub cpu_ns: u64,
    /// Heap held after `open` that was not held before.
    pub resident_bytes: u64,
    /// Index-class bytes fetched (span mode only).
    pub header_bytes: u64,
    /// Index-class ranges fetched — one per live segment (span mode only).
    pub header_requests: u64,
}

impl OpenStats {
    /// `open_ms`: virtual fetch time plus host decode time.
    pub fn open_ms(&self) -> f64 {
        (self.sim_ns + self.cpu_ns) as f64 / 1e6
    }
}

/// Run `open` and account for it from the probes in `sims` (the metered
/// probes above the simulated stores).
pub fn timed_open<T>(
    tracer: &Tracer,
    sims: &[&ProbeStore],
    open: impl FnOnce() -> Result<T, String>,
) -> Result<(T, OpenStats, Vec<Span>), String> {
    let total = |sims: &[&ProbeStore]| {
        sims.iter()
            .fold(Counts::default(), |acc, p| acc.plus(&p.counts()))
    };
    let before = total(sims);
    let live_before = alloc_snapshot().live;
    let (opened, cpu_ns) = cpu_timed(|| tracer.root(0, "core.searcher", "open", open));
    let opened = opened?;
    let live_after = alloc_snapshot().live;
    let seen = total(sims).since(&before);
    Ok((
        opened,
        OpenStats {
            sim_ns: seen.sim_ns(),
            cpu_ns,
            resident_bytes: live_after.saturating_sub(live_before),
            header_bytes: seen.class_bytes[0],
            header_requests: seen.class_requests[0],
        },
        tracer.take_spans(),
    ))
}

/// Open `n` times through `open(jitter_seed)` and record `open_ms` and
/// `resident_mb` as the medians.
pub fn sample_opens(
    out: &mut Outcome,
    sim_seed: u64,
    n: usize,
    open: impl Fn(u64) -> Result<OpenStats, String>,
) -> Result<(), String> {
    let opens = (0..n)
        .map(|i| open(gen::derive(sim_seed, 1_000 + i as u64)))
        .collect::<Result<Vec<OpenStats>, String>>()?;
    let of = |f: &dyn Fn(&OpenStats) -> f64| median(&opens.iter().map(f).collect::<Vec<f64>>());
    out.set("open_ms", of(&OpenStats::open_ms));
    out.set("resident_mb", of(&|o| o.resident_bytes as f64 / 1e6));
    Ok(())
}

/// What one pass over a query list produced.
#[derive(Default)]
pub struct PassStats {
    /// Process CPU nanoseconds of the pass.
    pub cpu_ns: u64,
    /// Per-query latency, ms, ascending.
    pub latency_ms: Vec<f64>,
    /// Hits returned.
    pub hits: u64,
    /// `trace.round_trips()` summed.
    pub round_trips: u64,
    /// `trace.bytes()` summed.
    pub trace_bytes: u64,
    /// `trace.compute()` summed, ns.
    pub compute_ns: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// What the metered probe saw during the pass.
    pub counts: Counts,
}

impl PassStats {
    /// What must repeat exactly between identical passes.
    pub fn digest(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits,
            self.round_trips,
            self.trace_bytes,
            self.counts.requests,
            self.counts.bytes,
        )
    }

    /// Fold one answer in.
    pub fn record(&mut self, result: &SearchResult) {
        self.latency_ms.push(result.latency().as_millis_f64());
        self.hits += result.hits.len() as u64;
        self.round_trips += result.trace.round_trips();
        self.trace_bytes += result.trace.bytes();
        self.compute_ns += result.trace.compute().as_nanos();
    }
}

/// Run `queries` through `execute`, one root span each (`layer`), counting
/// at `metered`. CPU time is the caller's to measure: with several clients
/// the process clock covers all of them at once.
pub fn run_pass<E>(
    tracer: &Tracer,
    metered: &ProbeStore,
    layer: &'static str,
    queries: &[Query],
    execute: impl Fn(&Query, &QueryOptions) -> Result<SearchResult, E>,
) -> PassStats {
    let opts = QueryOptions::new().top_k(TOP_K);
    let mut stats = PassStats {
        latency_ms: Vec::with_capacity(queries.len()),
        ..PassStats::default()
    };
    let before = metered.counts();
    for (i, q) in queries.iter().enumerate() {
        match tracer.root(1 + i as u64, layer, "execute", || execute(q, &opts)) {
            Ok(r) => stats.record(&r),
            Err(_) => stats.errors += 1,
        }
    }
    stats.counts = metered.counts().since(&before);
    stats
}

/// Run every query once against the oracle: precision on each answer, set
/// equality on every [`FULL_CHECK_EVERY`]-th.
pub fn verify_pass(
    execute: impl Fn(&Query, &QueryOptions) -> Result<SearchResult, String>,
    specs: &[Spec],
    queries: &[Query],
    oracle: &Oracle<'_>,
    failures: &mut Failures,
) {
    let top_k = QueryOptions::new().top_k(TOP_K);
    let full = QueryOptions::new();
    let mut since_full = 0;
    for (spec, query) in specs.iter().zip(queries) {
        failures
            .record(execute(query, &top_k).and_then(|r| oracle.check(spec, &r.hits, Some(TOP_K))));
        since_full += 1;
        if since_full >= FULL_CHECK_EVERY && oracle.truth(spec).len() <= FULL_CHECK_MAX_MATCHES {
            since_full = 0;
            failures.record(execute(query, &full).and_then(|r| oracle.check(spec, &r.hits, None)));
        }
    }
}

/// Count the passes' operations and check that identical passes agreed.
pub fn check_passes(out: &mut Outcome, passes: &[PassStats]) {
    let first = passes[0].digest();
    for (i, p) in passes.iter().enumerate() {
        out.failures.attempted += p.latency_ms.len() as u64 + p.errors;
        out.failures.failed += p.errors;
        if p.digest() != first {
            out.violations.push(format!(
                "pass {i} differs from pass 0 under one seed: {:?} vs {first:?}",
                p.digest()
            ));
        }
    }
}

/// The end-to-end metrics a closed-loop workload derives from its timed
/// passes, with a note describing the sample.
pub fn set_closed_loop_metrics(out: &mut Outcome, passes: &[PassStats], clients: usize) {
    let first = &passes[0];
    let n = (first.latency_ms.len() as u64 + first.errors) as f64;
    let pooled = pooled_latency(passes.iter().map(|p| p.latency_ms.as_slice()));
    let mean_latency_s = pooled.iter().sum::<f64>() / 1e3 / pooled.len() as f64;
    let within_slo = pooled.partition_point(|&ms| ms <= SLO_MS) as f64 / pooled.len() as f64;
    let host: Vec<f64> = passes.iter().map(|p| p.cpu_ns as f64 / 1e3 / n).collect();
    out.set("query_ms_p50", percentile(&pooled, 0.50));
    out.set("query_ms_p99", percentile(&pooled, 0.99));
    out.set("round_trips_per_query", first.round_trips as f64 / n);
    out.set("requests_per_query", first.counts.requests as f64 / n);
    out.set("bytes_per_query", first.counts.bytes as f64 / n);
    out.set("host_us_per_query", lower_quartile(&host) * host_scale());
    // No rate is swept: the rate the loop sustains within the SLO.
    out.set(
        "max_rate_at_slo",
        clients as f64 * within_slo / mean_latency_s,
    );
    out.notes.push(format!(
        "samples: {n} queries x {} timed passes over {clients} client(s); latency pooled over {} \
         jitter streams (p99 has {} samples beyond it); raw host us/query per pass {host:.1?}",
        passes.len(),
        JITTER_STREAMS.min(passes.len()),
        pooled.len() / 100
    ));
}

/// What the alternating untraced/traced rounds of a traced run produced.
pub struct Rounds<K> {
    /// What the first traced round kept.
    pub kept: K,
    /// Allocations and allocated bytes of the first untraced round's pass.
    pub allocs: (u64, u64),
    /// Traced over untraced host time, minus one (lower quartiles).
    pub overhead_frac: f64,
}

/// Alternate untraced and traced rounds over the same work while time
/// lasts. `round(spans)` opens a fresh stack in that mode, runs the pass
/// and returns `(cpu_ns, (allocs, alloc_bytes) of the pass, keep)`.
pub fn traced_rounds<K>(
    cfg: &RunConfig,
    mut round: impl FnMut(bool) -> Result<(u64, (u64, u64), K), String>,
) -> Result<Rounds<K>, String> {
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let (mut kept, mut allocs) = (None, None);
    passes_for(cfg, 2, |_| {
        let (ns, pass_allocs, _) = round(false)?;
        plain_ns.push(ns as f64);
        allocs.get_or_insert(pass_allocs);
        let (ns, _, keep) = round(true)?;
        traced_ns.push(ns as f64);
        kept.get_or_insert(keep);
        Ok(())
    })?;
    Ok(Rounds {
        kept: kept.expect("at least one round"),
        allocs: allocs.expect("at least one round"),
        overhead_frac: lower_quartile(&traced_ns) / lower_quartile(&plain_ns) - 1.0,
    })
}

/// Run `pass` and return its result with the allocations it made.
pub fn counting_allocs<T>(pass: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = alloc_snapshot();
    let out = pass();
    let after = alloc_snapshot();
    (
        out,
        (after.allocs - before.allocs, after.bytes - before.bytes),
    )
}

/// Inputs of the per-layer metrics every workload derives the same way.
pub struct LayerInputs<'a> {
    /// Queries of the traced pass.
    pub queries: f64,
    /// What storage self times are divided by (queries, or operations of
    /// any kind where the store also works for writes).
    pub store_units: f64,
    /// Counts at the probes above the simulated clouds.
    pub sims: &'a Counts,
    /// Counts at the probe the engine talks to.
    pub engine: &'a Counts,
    /// Summed self nanoseconds of a layer.
    pub self_ns: &'a dyn Fn(&str) -> f64,
    /// Hits returned, where documents fetched / returned is meaningful.
    pub hits: Option<u64>,
    /// `trace.compute()` summed, ns.
    pub compute_ns: u64,
    /// Allocations and bytes per query of an untraced pass.
    pub allocs_per_query: (f64, f64),
    /// What the engine-facing probe captured.
    pub captured: Captured,
    /// The specs of the traced queries.
    pub specs: &'a [Spec],
    /// The traced cold open.
    pub open: &'a OpenStats,
    /// The index build, where the workload has one up front.
    pub build: Option<&'a BuildStats>,
    /// The corpus.
    pub text: &'a CorpusText,
    /// From [`traced_rounds`].
    pub overhead_frac: f64,
}

/// Record the per-layer metrics shared by all workloads. Metrics that do
/// not apply (no expansion queries, no up-front build) stay absent.
pub fn set_layer_metrics(out: &mut Outcome, l: LayerInputs<'_>) {
    let q = l.queries;
    out.set("storage.sim.requests", l.sims.requests as f64 / q);
    out.set("storage.sim.batches", l.sims.calls as f64 / q);
    out.set("storage.sim.bytes", l.sims.bytes as f64 / q);
    out.set("storage.sim.wait_ms", l.sims.wait_ns as f64 / 1e6 / q);
    out.set(
        "storage.sim.download_ms",
        l.sims.download_ns as f64 / 1e6 / q,
    );
    out.set(
        "storage.sim.self_us",
        (l.self_ns)("storage.sim") / 1e3 / l.store_units,
    );
    out.set(
        "storage.memory.self_us",
        (l.self_ns)("storage.memory") / 1e3 / l.store_units,
    );
    let sketch = time_sketch(&l.captured, l.specs);
    for (name, value) in [
        ("sketch.decode_mb_s", sketch.decode_mb_s),
        ("sketch.mht_lookup_ns", sketch.mht_lookup_ns),
        ("sketch.expand_us", sketch.expand_us),
    ] {
        if value > 0.0 {
            out.set(name, value);
        }
    }
    out.set(
        "sketch.superposts_per_query",
        l.engine.class_requests[1] as f64 / q,
    );
    out.set(
        "sketch.superpost_bytes_per_query",
        l.engine.class_bytes[1] as f64 / q,
    );
    out.set("core.plan.compute_ms", l.compute_ns as f64 / 1e6 / q);
    if let Some(hits) = l.hits {
        let fetched_docs = l.engine.class_requests[2] as f64;
        out.set(
            "core.plan.candidates_per_hit",
            fetched_docs / (hits as f64).max(1.0),
        );
        out.set(
            "core.plan.false_pos_per_query",
            (fetched_docs - hits as f64) / q,
        );
    }
    out.set("core.plan.allocs_per_query", l.allocs_per_query.0);
    out.set("core.plan.alloc_bytes_per_query", l.allocs_per_query.1);
    out.set("core.searcher.open_sim_ms", l.open.sim_ns as f64 / 1e6);
    out.set("core.searcher.open_host_ms", l.open.cpu_ns as f64 / 1e6);
    out.set("core.searcher.header_bytes", l.open.header_bytes as f64);
    out.set("core.segments.live_segments", l.open.header_requests as f64);
    if let Some(build) = l.build {
        out.set(
            "core.builder.docs_per_s",
            l.text.docs.len() as f64 / (build.cpu_ns as f64 / 1e9),
        );
        out.set("core.builder.index_bytes", build.index_bytes as f64);
        out.set("core.builder.puts", build.counts.puts as f64);
    }
    out.set("corpus.tokenize_mb_s", tokenize_mb_s(l.text));
    out.set("trace_overhead_frac", l.overhead_frac);
    let fail_frac = out.failures.frac();
    out.set("fail_frac", fail_frac);
}

/// Write the workload's trace and note where it went.
pub fn save_trace(
    cfg: &RunConfig,
    out: &mut Outcome,
    workload: &str,
    spans: &[Span],
    over: &str,
) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("{workload}.trace.json"));
    crate::probe::write_trace(&path, workload, cfg.seed, spans)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "trace: {} spans over {over} -> {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

/// Shift span ids so that spans of different tracers can share one file.
pub fn shifted(spans: &[Span], by: u64) -> impl Iterator<Item = Span> + '_ {
    spans.iter().cloned().map(move |mut s| {
        s.span += by;
        if s.parent != 0 {
            s.parent += by;
        }
        s
    })
}

/// Timed public `iou_sketch` calls over what a traced probe captured.
#[derive(Debug, Default, Clone, Copy)]
struct SketchTimes {
    /// `SuperpostView::parse` + `intersect_views`, MB of superpost per
    /// CPU second.
    decode_mb_s: f64,
    /// One `Mht::lookup`.
    mht_lookup_ns: f64,
    /// One `Vocabulary::prefix_matches` / `fuzzy_matches`.
    expand_us: f64,
}

const MICRO_REPS: usize = 5;

fn lq_ns(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..MICRO_REPS)
        .map(|_| cpu_timed(&mut f).1 as f64)
        .collect();
    lower_quartile(&runs)
}

/// Time the sketch's public entry points on the bytes the engine actually
/// fetched and the terms it was actually asked for.
fn time_sketch(captured: &Captured, specs: &[Spec]) -> SketchTimes {
    let mut out = SketchTimes::default();
    let bytes: usize = captured
        .superpost_batches
        .iter()
        .flatten()
        .map(|b| b.len())
        .sum();
    if bytes > 0 {
        let ns = lq_ns(|| {
            for batch in &captured.superpost_batches {
                let views: Vec<SuperpostView> = batch
                    .iter()
                    .filter_map(|b| SuperpostView::parse(b.clone()).ok())
                    .collect();
                let refs: Vec<&SuperpostView> = views.iter().collect();
                std::hint::black_box(intersect_views(&refs));
            }
        });
        out.decode_mb_s = bytes as f64 / 1e6 / (ns / 1e9);
    }
    let Some(mht) = captured
        .header
        .as_ref()
        .and_then(|h| HeaderBlock::decode_any_bytes(h).ok())
        .map(|(header, _)| Mht::from_header(header))
    else {
        return out;
    };
    let mut words: Vec<&str> = Vec::new();
    let mut expansions: Vec<&Spec> = Vec::new();
    for spec in specs {
        match spec {
            Spec::Term(w) => words.push(w),
            Spec::And(ws) | Spec::Or(ws) | Spec::Phrase(ws) => {
                words.extend(ws.iter().map(String::as_str))
            }
            Spec::Prefix(_) | Spec::Fuzzy(_) => expansions.push(spec),
        }
    }
    if !words.is_empty() {
        let ns = lq_ns(|| {
            for w in &words {
                std::hint::black_box(mht.lookup(w));
            }
        });
        out.mht_lookup_ns = ns / words.len() as f64;
    }
    if let (Some(vocab), false) = (mht.vocab(), expansions.is_empty()) {
        let ns = lq_ns(|| {
            for spec in &expansions {
                match spec {
                    Spec::Prefix(p) => {
                        std::hint::black_box(vocab.prefix_matches(p).len());
                    }
                    Spec::Fuzzy(w) => {
                        std::hint::black_box(vocab.fuzzy_matches(w, 1).len());
                    }
                    _ => {}
                }
            }
        });
        out.expand_us = ns / 1e3 / expansions.len() as f64;
    }
    out
}

/// `WhitespaceTokenizer` throughput over (up to 20k of) the corpus'
/// documents, MB per CPU second.
fn tokenize_mb_s(corpus: &CorpusText) -> f64 {
    let docs = corpus.docs.len().min(20_000);
    let bytes: usize = (0..docs).map(|d| corpus.text(d).len()).sum();
    let ns = lq_ns(|| {
        for d in 0..docs {
            std::hint::black_box(WhitespaceTokenizer.tokens(corpus.text(d)));
        }
    });
    bytes as f64 / 1e6 / (ns / 1e9)
}
