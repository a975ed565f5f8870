//! `serve-zipf` — the production stack under open-loop load.
//!
//! `AsyncQueryServer` (caller-pumped, admission cap, three priority
//! classes, region hedging) over a `Searcher` over
//! `CachedStore → CoalescingStore → ReplicatedStore → 3 × simulated cloud`.
//! Terms are drawn by document frequency — the hot set, long superposts —
//! so decode dominates host CPU, and it is the only workload where cache,
//! scheduler, replication, hedging and admission do the work.
//!
//! Load is open-loop at fixed virtual rates with evenly spaced arrivals.
//! Arrival times are *data* handed to `submit_at`, so the generator cannot
//! run late: lateness is 0 by construction. Each rate gets a fresh stack.
//! Latency, cost and host metrics are reported at the lowest rate;
//! `max_rate_at_slo` comes from the sweep.

use crate::clock::cpu_timed;
use crate::gen::{self, CorpusText, QueryGen, Spec};
use crate::harness::{
    build_index, counting_allocs, host_scale, input_note, jitter_seed, passes_for, pooled_latency,
    sample_opens, save_trace, set_build_metrics, set_layer_metrics, timed_open, timed_setups,
    traced_rounds, BuildStats, LayerInputs, OpenStats, Outcome, RunConfig, FULL_CHECK_EVERY,
    FULL_CHECK_MAX_MATCHES, JITTER_STREAMS, OPEN_SAMPLES, SLO_MS, TOP_K,
};
use crate::oracle::Oracle;
use crate::probe::{ledger, Counts, ProbeStore, Span, Tracer};
use crate::stats::{lower_quartile, percentile};
use airphant::{
    AdmissionConfig, AirphantConfig, AsyncQueryServer, AsyncServerConfig, HedgeConfig, Priority,
    Query, QueryOptions, Searcher, ServeError, SubmitSpec,
};
use airphant_storage::{
    CachedStore, CoalescingStore, InMemoryStore, LatencyModel, ObjectStore, RegionProfile,
    ReplicatedStore, SchedulerConfig, SimDuration, SimulatedCloudStore,
};
use std::sync::Arc;

const DOCS: usize = 100_000;
/// Offered rates, virtual queries per second, from well under to well over
/// the knee of a 32-slot backend.
const RATES: [f64; 8] = [25.0, 100.0, 175.0, 200.0, 225.0, 250.0, 275.0, 400.0];
/// Queries offered at the lowest rate (the reported one) …
const QUERIES_LOW: usize = 4_000;
/// … and at each other rate of the sweep.
const QUERIES_SWEEP: usize = 2_500;
const TRACED_QUERIES: usize = 1_500;
const SETUPS: usize = 4;
const INDEX: &str = "idx/serve";
/// Cache budget: about a sixteenth of index + corpus, so it cannot hold
/// the working set.
const CACHE_BYTES: usize = 1 << 20;
const STORAGE_SLOTS: usize = 32;
const MAX_IN_FLIGHT: usize = 256;
/// Share of a rate's queries that may miss the SLO (p99 within the limit).
const MISS_BUDGET: f64 = 0.01;
/// A rate whose last quarter of arrivals waits this much longer than its
/// first quarter has a growing backlog, whatever its p99 says so far.
const BACKLOG_GROWTH_MS: f64 = 100.0;
/// The nearest region's Pareto tail: probability and shape.
const NEAREST_TAIL: (f64, f64) = (0.01, 1.5);

struct Fixture {
    regions: Vec<Arc<InMemoryStore>>,
    build: BuildStats,
    /// Bytes physically written across all regions.
    physical_put_bytes: u64,
}

fn region_profiles() -> Vec<RegionProfile> {
    RegionProfile::paper_spread()
}

/// Build the index once through a `ReplicatedStore`, so every region holds
/// a replica and the write fan-out is counted.
fn build_fixture(text: &CorpusText) -> Result<Fixture, String> {
    let tracer = Tracer::new();
    let regions: Vec<Arc<InMemoryStore>> = region_profiles()
        .iter()
        .map(|_| Arc::new(InMemoryStore::new()))
        .collect();
    let probes: Vec<Arc<ProbeStore>> = regions
        .iter()
        .map(|mem| Arc::new(ProbeStore::new(mem.clone(), "storage.memory", &tracer).metered()))
        .collect();
    let replicated = Arc::new(ReplicatedStore::new(
        region_profiles()
            .into_iter()
            .zip(&probes)
            .map(|(profile, p)| (profile, p.clone() as Arc<dyn ObjectStore>))
            .collect(),
    ));
    let build = build_index(replicated, text, AirphantConfig::default(), INDEX)?;
    Ok(Fixture {
        regions,
        build,
        physical_put_bytes: probes.iter().map(|p| p.counts().put_bytes).sum(),
    })
}

struct Stack {
    tracer: Arc<Tracer>,
    /// Above the cache (what the engine sees).
    top: Arc<ProbeStore>,
    /// Above the scheduler (below the cache).
    below_cache: Arc<ProbeStore>,
    /// Above the replicated store (below the scheduler).
    below_scheduler: Arc<ProbeStore>,
    /// Above each region's simulated cloud.
    region_sims: Vec<Arc<ProbeStore>>,
    server: AsyncQueryServer,
    open: OpenStats,
    open_spans: Vec<Span>,
}

impl Stack {
    fn sim_counts(&self) -> Counts {
        self.region_sims
            .iter()
            .fold(Counts::default(), |acc, p| acc.plus(&p.counts()))
    }
}

fn open_stack(fixture: &Fixture, sim_seed: u64, spans: bool) -> Result<Stack, String> {
    let tracer = Tracer::new();
    tracer.set_spans(spans);
    let mut region_sims = Vec::new();
    let mut regions: Vec<(RegionProfile, Arc<dyn ObjectStore>)> = Vec::new();
    for (i, (profile, mem)) in region_profiles()
        .into_iter()
        .zip(&fixture.regions)
        .enumerate()
    {
        let model = if i == 0 {
            LatencyModel::builder()
                .long_tail(NEAREST_TAIL.0, NEAREST_TAIL.1)
                .build()
        } else {
            LatencyModel::gcs_like()
        }
        .with_region(profile.clone());
        let bottom = Arc::new(ProbeStore::new(mem.clone(), "storage.memory", &tracer));
        let sim = Arc::new(SimulatedCloudStore::new(
            bottom,
            model,
            gen::derive(sim_seed, i as u64),
        ));
        let above_sim = Arc::new(ProbeStore::new(sim, "storage.sim", &tracer).metered());
        regions.push((profile, above_sim.clone()));
        region_sims.push(above_sim);
    }
    let replicated = Arc::new(ReplicatedStore::new(regions));
    let below_scheduler = Arc::new(ProbeStore::new(
        replicated.clone(),
        "storage.replicated",
        &tracer,
    ));
    let scheduler = Arc::new(CoalescingStore::with_config(
        below_scheduler.clone(),
        SchedulerConfig::new().coalesce_only(),
    ));
    let below_cache = Arc::new(ProbeStore::new(scheduler, "storage.scheduler", &tracer));
    let cache = Arc::new(CachedStore::new(below_cache.clone(), CACHE_BYTES));
    let top = Arc::new(ProbeStore::new(cache, "storage.cache", &tracer).capturing());
    let sims: Vec<&ProbeStore> = region_sims.iter().map(Arc::as_ref).collect();
    let (searcher, mut open, open_spans) = timed_open(&tracer, &sims, || {
        Searcher::open(top.clone(), INDEX).map_err(|e| e.to_string())
    })?;
    // Header bytes are classed where the engine asks for them.
    let seen = top.counts();
    open.header_bytes = seen.class_bytes[0];
    open.header_requests = seen.class_requests[0];
    let config = AsyncServerConfig::new()
        .with_executor_threads(0)
        .with_storage_slots(STORAGE_SLOTS)
        .with_admission(AdmissionConfig::with_max_in_flight(MAX_IN_FLIGHT))
        .with_hedge(HedgeConfig {
            percentile: 0.95,
            min_samples: 64,
            budget_fraction: 0.10,
        });
    let server =
        AsyncQueryServer::start(Arc::new(searcher), config).with_region_backend(replicated);
    Ok(Stack {
        tracer,
        top,
        below_cache,
        below_scheduler,
        region_sims,
        server,
        open,
        open_spans,
    })
}

fn class_of(i: usize) -> Priority {
    match i % 10 {
        0 => Priority::High,
        8 | 9 => Priority::Low,
        _ => Priority::Normal,
    }
}

/// One offered rate, pumped to completion.
#[derive(Default)]
struct RateRun {
    rate: f64,
    submitted: u64,
    served: u64,
    /// Shed by class: high, normal, low.
    shed: [u64; 3],
    errored: u64,
    wrong: u64,
    /// Sojourn of served queries, ms, ascending.
    sojourn_ms: Vec<f64>,
    /// Sojourn minus service time of served queries, ms, ascending.
    queue_ms: Vec<f64>,
    /// Sojourn of served queries, ms, in arrival order.
    sojourn_by_arrival: Vec<f64>,
    hits: u64,
    round_trips: u64,
    trace_bytes: u64,
    compute_ns: u64,
    cpu_ns: u64,
    /// Summed over the region probes, during the pump.
    sims: Counts,
    first_wrong: Option<String>,
}

impl RateRun {
    fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Share of offered queries that missed the SLO, counting shed, failed
    /// and wrong ones as misses.
    fn miss_frac(&self) -> f64 {
        let late = self.sojourn_ms.len() - self.sojourn_ms.partition_point(|&ms| ms <= SLO_MS);
        (late as u64 + self.shed_total() + self.errored + self.wrong) as f64
            / self.submitted.max(1) as f64
    }

    /// Mean sojourn of the last quarter of arrivals minus that of the
    /// first quarter, ms: how much the backlog grew over the run.
    fn backlog_growth_ms(&self) -> f64 {
        let q = self.sojourn_by_arrival.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        mean(&self.sojourn_by_arrival[self.sojourn_by_arrival.len() - q..])
            - mean(&self.sojourn_by_arrival[..q])
    }

    /// p99 within the limit (shed, failed and wrong answers counted as
    /// misses) and no growing backlog.
    fn meets_slo(&self) -> bool {
        self.miss_frac() <= MISS_BUDGET && self.backlog_growth_ms() <= BACKLOG_GROWTH_MS
    }
}

fn run_rate(
    stack: &Stack,
    specs: &[Spec],
    queries: &[Query],
    rate: f64,
    oracle: Option<&Oracle<'_>>,
) -> RateRun {
    let opts = QueryOptions::new().top_k(TOP_K);
    let sims_before = stack.sim_counts();
    let (tickets, cpu_ns) = cpu_timed(|| {
        stack.tracer.root(1, "core.serve", "pump", || {
            let tickets: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    stack.server.submit_at(
                        q.clone(),
                        opts.clone(),
                        SubmitSpec::new()
                            .with_class(class_of(i))
                            .at(SimDuration::from_secs_f64(i as f64 / rate)),
                    )
                })
                .collect();
            stack.server.drain();
            tickets
        })
    });
    let mut run = RateRun {
        rate,
        submitted: queries.len() as u64,
        cpu_ns,
        sims: stack.sim_counts().since(&sims_before),
        ..RateRun::default()
    };
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait();
        match response.result {
            Ok(r) => {
                if let Some(Err(e)) = oracle.map(|o| o.check(&specs[i], &r.hits, Some(TOP_K))) {
                    run.wrong += 1;
                    run.first_wrong.get_or_insert(e);
                    continue;
                }
                run.served += 1;
                let sojourn = response.sojourn.as_millis_f64();
                run.sojourn_ms.push(sojourn);
                run.sojourn_by_arrival.push(sojourn);
                run.queue_ms
                    .push((sojourn - r.latency().as_millis_f64()).max(0.0));
                run.hits += r.hits.len() as u64;
                run.round_trips += r.trace.round_trips();
                run.trace_bytes += r.trace.bytes();
                run.compute_ns += r.trace.compute().as_nanos();
            }
            Err(ServeError::Rejected(_)) => {
                let class = match class_of(i) {
                    Priority::High => 0,
                    Priority::Normal => 1,
                    Priority::Low => 2,
                };
                run.shed[class] += 1;
            }
            Err(ServeError::Failed(_)) => run.errored += 1,
        }
    }
    run.sojourn_ms.sort_by(f64::total_cmp);
    run.queue_ms.sort_by(f64::total_cmp);
    run
}

/// Highest swept rate that meets the SLO, moved toward the first failing
/// rate by where the miss share crosses its budget (so the metric responds
/// to improvements smaller than one step of the sweep).
fn max_rate_at_slo(sweep: &[&RateRun]) -> Option<f64> {
    let first_fail = sweep.iter().position(|r| !r.meets_slo());
    match first_fail {
        Some(0) => None,
        None => sweep.last().map(|r| r.rate),
        Some(i) => {
            let (pass, fail) = (sweep[i - 1], sweep[i]);
            let (mp, mf) = (pass.miss_frac(), fail.miss_frac());
            let share = if mf > MISS_BUDGET && mf > mp {
                ((MISS_BUDGET - mp) / (mf - mp)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Some(pass.rate + (fail.rate - pass.rate) * share)
        }
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    Outcome::from_run(|out| run_inner(cfg, traced, out))
}

fn run_inner(cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let n_docs = cfg.scaled(DOCS);
    let n_low = cfg.scaled(QUERIES_LOW);
    let n_sweep = cfg.scaled(QUERIES_SWEEP);
    let sim_seed = gen::derive(cfg.seed, 0x52);

    let mut build_cpu_ns = Vec::new();
    let (setup_s, (text, specs, fixture)) = timed_setups(cfg, traced, SETUPS, || {
        let text = gen::corpus(cfg.seed, n_docs, gen::DOCS_PER_BLOB, "corpus/serve", false);
        let specs = QueryGen::new(&text, cfg.seed, 3).hot_terms(n_low);
        let fixture = build_fixture(&text)?;
        drop(open_stack(&fixture, sim_seed, false)?);
        build_cpu_ns.push(fixture.build.cpu_ns as f64);
        Ok((text, specs, fixture))
    })?;
    let queries: Vec<Query> = specs.iter().map(Spec::to_query).collect();
    out.notes.push(input_note(cfg.seed, &text, &specs));
    if traced {
        return run_traced(cfg, out, &text, &specs, &queries, &fixture, sim_seed);
    }
    let oracle = Oracle::new(&text);

    // Set equality without top_k, on a sample, straight through a searcher
    // over the same stack.
    {
        let stack = open_stack(&fixture, sim_seed, false)?;
        let searcher = Searcher::open(stack.top.clone(), INDEX).map_err(|e| e.to_string())?;
        let mut since = 0;
        for (spec, query) in specs.iter().zip(&queries) {
            since += 1;
            if since >= FULL_CHECK_EVERY && oracle.truth(spec).len() <= FULL_CHECK_MAX_MATCHES {
                since = 0;
                out.failures.record(
                    searcher
                        .execute(query, &QueryOptions::new())
                        .map_err(|e| e.to_string())
                        .and_then(|r| oracle.check(spec, &r.hits, None)),
                );
            }
        }
    }

    // The sweep: lowest rate first (it is also the first timed pass), then
    // the other rates once, then more lowest-rate passes while time lasts.
    let mut low: Vec<RateRun> = Vec::new();
    let mut sweep: Vec<RateRun> = Vec::new();
    passes_for(cfg, JITTER_STREAMS, |pass| {
        let stack = open_stack(&fixture, jitter_seed(sim_seed, pass), false)?;
        low.push(run_rate(&stack, &specs, &queries, RATES[0], Some(&oracle)));
        if pass == 0 {
            for &rate in &RATES[1..] {
                let stack = open_stack(&fixture, sim_seed, false)?;
                sweep.push(run_rate(
                    &stack,
                    &specs[..n_sweep],
                    &queries[..n_sweep],
                    rate,
                    Some(&oracle),
                ));
            }
        }
        Ok(())
    })?;

    // Failures: everything at the reported rate; wrong answers and engine
    // errors at any rate. Sheds above the knee are the measurement.
    for r in &low {
        out.failures.attempted += r.submitted;
        out.failures.failed += r.shed_total() + r.errored + r.wrong;
    }
    for r in &sweep {
        out.failures.attempted += r.submitted;
        out.failures.failed += r.errored + r.wrong;
    }
    for r in low.iter().chain(&sweep) {
        if let Some(e) = &r.first_wrong {
            if out.failures.first.len() < 5 {
                out.failures.first.push(e.clone());
            }
        }
    }
    let first = &low[0];
    for (i, r) in low.iter().enumerate() {
        // Hedges depend on the jitter stream, so what reaches the cloud
        // may differ between passes; what the engine asks for may not.
        let same = (r.served, r.hits, r.round_trips, r.trace_bytes)
            == (
                first.served,
                first.hits,
                first.round_trips,
                first.trace_bytes,
            );
        if !same {
            out.violations.push(format!(
                "lowest-rate pass {i} differs from pass 0 under one seed"
            ));
        }
    }

    let mut table: Vec<&RateRun> = vec![first];
    table.extend(&sweep);
    for r in &table {
        let at = |p: f64| {
            if r.sojourn_ms.is_empty() {
                0.0
            } else {
                percentile(&r.sojourn_ms, p)
            }
        };
        out.notes.push(format!(
            "rate {:>5.0} qps: offered {} served {} shed {:?} errored {} p50 {:.1} ms p99 {:.1} ms \
             miss {:.4} backlog growth {:.0} ms -> {}",
            r.rate,
            r.submitted,
            r.served,
            r.shed,
            r.errored,
            at(0.50),
            at(0.99),
            r.miss_frac(),
            r.backlog_growth_ms(),
            if r.meets_slo() { "meets SLO" } else { "misses SLO" }
        ));
    }
    if first.sojourn_ms.is_empty() {
        return Err("no query was served at the lowest rate".into());
    }
    if !cfg.quick && table.last().is_some_and(|r| r.meets_slo()) {
        out.violations
            .push("the highest swept rate still meets the SLO: the sweep has no knee".into());
    }
    let Some(max_rate) = max_rate_at_slo(&table) else {
        out.violations
            .push("the lowest swept rate does not meet the SLO".into());
        return Ok(());
    };

    let host: Vec<f64> = low
        .iter()
        .map(|r| r.cpu_ns as f64 / 1e3 / r.submitted as f64)
        .collect();
    let pooled = pooled_latency(low.iter().map(|r| r.sojourn_ms.as_slice()));
    let streams = &low[..JITTER_STREAMS.min(low.len())];
    let served: f64 = streams.iter().map(|r| r.served as f64).sum();
    let sum = |f: &dyn Fn(&RateRun) -> u64| streams.iter().map(f).sum::<u64>() as f64;
    out.set("query_ms_p50", percentile(&pooled, 0.50));
    out.set("query_ms_p99", percentile(&pooled, 0.99));
    out.set("round_trips_per_query", sum(&|r| r.round_trips) / served);
    out.set("requests_per_query", sum(&|r| r.sims.requests) / served);
    out.set("bytes_per_query", sum(&|r| r.sims.bytes) / served);
    out.set("host_us_per_query", lower_quartile(&host) * host_scale());
    out.set("max_rate_at_slo", max_rate);
    set_build_metrics(
        out,
        &setup_s,
        &build_cpu_ns,
        &text,
        fixture.physical_put_bytes,
        fixture.build.index_bytes,
    );
    sample_opens(out, sim_seed, cfg.scaled(OPEN_SAMPLES), |jitter| {
        open_stack(&fixture, jitter, false).map(|s| s.open)
    })?;
    out.notes.push(format!(
        "samples: {} queries x {} passes at {} qps; latency pooled over {} jitter streams (p99 \
         has {} samples beyond it); generator lateness 0 by construction (arrivals are virtual \
         timestamps); raw host us/query per pass {host:.1?}",
        first.submitted,
        host.len(),
        first.rate,
        streams.len(),
        pooled.len() / 100
    ));
    Ok(())
}

fn run_traced(
    cfg: &RunConfig,
    out: &mut Outcome,
    text: &CorpusText,
    specs: &[Spec],
    queries: &[Query],
    fixture: &Fixture,
    sim_seed: u64,
) -> Result<(), String> {
    let m = cfg.scaled(TRACED_QUERIES).min(queries.len());
    let (specs, queries) = (&specs[..m], &queries[..m]);

    struct Kept {
        run: RateRun,
        stack: Stack,
        spans: Vec<Span>,
        top: Counts,
        below_cache: Counts,
        below_scheduler: Counts,
        regions: Vec<Counts>,
    }
    let rounds = traced_rounds(cfg, |spans| {
        let stack = open_stack(fixture, sim_seed, spans)?;
        let before = (
            stack.top.counts(),
            stack.below_cache.counts(),
            stack.below_scheduler.counts(),
            stack
                .region_sims
                .iter()
                .map(|p| p.counts())
                .collect::<Vec<_>>(),
        );
        let (run, allocs) = counting_allocs(|| run_rate(&stack, specs, queries, RATES[0], None));
        let kept = Kept {
            top: stack.top.counts().since(&before.0),
            below_cache: stack.below_cache.counts().since(&before.1),
            below_scheduler: stack.below_scheduler.counts().since(&before.2),
            regions: stack
                .region_sims
                .iter()
                .zip(&before.3)
                .map(|(p, b)| p.counts().since(b))
                .collect(),
            spans: stack.tracer.take_spans(),
            run,
            stack,
        };
        Ok((kept.run.cpu_ns, allocs, kept))
    })?;
    let k = rounds.kept;
    let run = &k.run;
    out.failures.attempted += run.submitted;
    out.failures.failed += run.shed_total() + run.errored;

    // Admission under overload: the highest swept rate, untraced.
    let overload = {
        let n = cfg.scaled(QUERIES_SWEEP).min(queries.len());
        let stack = open_stack(fixture, sim_seed, false)?;
        run_rate(
            &stack,
            &specs[..n],
            &queries[..n],
            RATES[RATES.len() - 1],
            None,
        )
    };

    let book = ledger(&k.spans, false);
    out.violations.extend(book.violations.iter().cloned());
    if run.trace_bytes != k.top.bytes {
        out.violations.push(format!(
            "bytes at the top probe ({}) != summed trace.bytes() ({})",
            k.top.bytes, run.trace_bytes
        ));
    }
    if k.top.requests != k.top.free_parts + k.below_cache.requests {
        out.violations.push(format!(
            "requests above the cache ({}) != hits ({}) + requests below ({})",
            k.top.requests, k.top.free_parts, k.below_cache.requests
        ));
    }
    for r in [run, &overload] {
        if r.submitted != r.served + r.shed_total() + r.errored + r.wrong {
            out.violations.push(format!(
                "at {} qps submitted {} != served {} + shed {} + failed {}",
                r.rate,
                r.submitted,
                r.served,
                r.shed_total(),
                r.errored + r.wrong
            ));
        }
    }

    let n = run.served.max(1) as f64;
    let sims = k.regions.iter().fold(Counts::default(), |a, c| a.plus(c));
    let frac = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    out.set(
        "storage.replicated.nearest_frac",
        frac(k.regions[0].calls, sims.calls),
    );
    out.set(
        "storage.replicated.hedge_reads_frac",
        frac(sims.calls - k.regions[0].calls, sims.calls),
    );
    out.set(
        "storage.replicated.self_us",
        book.self_of("storage.replicated") as f64 / 1e3 / n,
    );
    out.set(
        "storage.scheduler.merge_ratio",
        frac(k.below_scheduler.requests, k.below_cache.requests),
    );
    out.set(
        "storage.scheduler.pad_frac",
        k.below_scheduler.bytes as f64 / k.below_cache.bytes.max(1) as f64 - 1.0,
    );
    out.set(
        "storage.scheduler.self_us",
        book.self_of("storage.scheduler") as f64 / 1e3 / n,
    );
    out.set(
        "storage.cache.hit_frac",
        frac(k.top.free_parts, k.top.requests),
    );
    for (i, name) in [
        "storage.cache.hit_frac_index",
        "storage.cache.hit_frac_superpost",
        "storage.cache.hit_frac_data",
    ]
    .into_iter()
    .enumerate()
    {
        let above = k.top.class_requests[i];
        out.set(
            name,
            frac(above.saturating_sub(k.below_cache.class_requests[i]), above),
        );
    }
    out.set(
        "storage.cache.byte_hit_frac",
        1.0 - k.below_cache.bytes as f64 / k.top.bytes.max(1) as f64,
    );
    out.set(
        "storage.cache.self_us",
        book.self_of("storage.cache") as f64 / 1e3 / n,
    );
    out.set("core.serve.queue_ms_p99", percentile(&run.queue_ms, 0.99));
    out.set(
        "core.serve.pump_self_us",
        book.self_of("core.serve") as f64 / 1e3 / n,
    );
    out.set(
        "core.serve.hedge_frac",
        frac(sims.calls - k.regions[0].calls, k.regions[0].calls),
    );
    out.set(
        "core.admission.shed_frac",
        frac(overload.shed_total(), overload.submitted),
    );
    let offered = |class: Priority| {
        (0..overload.submitted as usize)
            .filter(|&i| class_of(i) == class)
            .count() as u64
    };
    out.set(
        "core.admission.shed_frac_low",
        frac(overload.shed[2], offered(Priority::Low)),
    );
    out.set(
        "core.admission.shed_frac_high",
        frac(overload.shed[0], offered(Priority::High)),
    );
    set_layer_metrics(
        out,
        LayerInputs {
            queries: n,
            store_units: n,
            sims: &sims,
            engine: &k.top,
            self_ns: &|layer| book.self_of(layer) as f64,
            hits: Some(run.hits),
            compute_ns: run.compute_ns,
            allocs_per_query: (
                rounds.allocs.0 as f64 / m as f64,
                rounds.allocs.1 as f64 / m as f64,
            ),
            captured: k.stack.top.take_captured(),
            specs,
            open: &k.stack.open,
            build: Some(&fixture.build),
            text,
            overhead_frac: rounds.overhead_frac,
        },
    );
    out.notes.push(format!(
        "admission at {} qps: offered {} shed {:?} (high, normal, low)",
        overload.rate, overload.submitted, overload.shed
    ));

    let mut all = k.stack.open_spans.clone();
    all.extend(k.spans.iter().cloned());
    save_trace(
        cfg,
        out,
        "serve-zipf",
        &all,
        &format!("{m} queries at {} qps", run.rate),
    )
}
