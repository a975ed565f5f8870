//! `scatter-segments` — fan-out.
//!
//! Four shards of four un-compacted segments each (the corpus appended in
//! four slices), queried through `ShardedSearcher::execute` by two
//! closed-loop benchmark threads, each over its own simulated store; compound
//! boolean queries on uniform terms; no cache. The work is per-query scatter
//! threads, segment fan-in and trace merge; cache and admission do nothing.
//!
//! Stack per client:
//! `ShardedSearcher → probe → SimulatedCloudStore → probe → InMemoryStore`
//! (the in-memory store is shared). The engine's scatter threads draw from
//! one jitter stream in scheduling order, so latencies here repeat only
//! statistically; counts repeat exactly.

use crate::clock::cpu_timed;
use crate::gen::{self, CorpusText, QueryGen, Spec};
use crate::harness::{
    check_passes, counting_allocs, input_note, jitter_seed, passes_for, run_pass, sample_opens,
    save_trace, set_build_metrics, set_closed_loop_metrics, set_layer_metrics, shifted,
    timed_build, timed_open, timed_setups, traced_rounds, upload, verify_pass, BuildStats,
    LayerInputs, OpenStats, Outcome, PassStats, RunConfig, JITTER_STREAMS, OPEN_SAMPLES,
};
use crate::oracle::Oracle;
use crate::probe::{ledger, ProbeStore, Span, Tracer};
use airphant::{AirphantConfig, Query, ShardRouter, ShardedSearcher};
use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};
use std::sync::Arc;

const DOCS: usize = 100_000;
const SHARDS: usize = 4;
const SLICES: usize = 4;
/// Closed-loop benchmark threads (the box has two cores).
const CLIENTS: usize = 2;
/// Queries per pass, over all clients.
const QUERIES: usize = 6_000;
const TRACED_QUERIES: usize = 1_000;
const SETUPS: usize = 4;
const BASE: &str = "idx/scatter";
/// Bins per segment: a segment holds a sixteenth of the corpus.
const BINS: usize = 25_000;

/// Upload the corpus and append it to a fresh sharded layout one blob
/// (slice) at a time, so every shard ends up with [`SLICES`] segments.
fn build_fixture(text: &CorpusText) -> Result<(Arc<InMemoryStore>, BuildStats), String> {
    let mem = Arc::new(InMemoryStore::new());
    let config = AirphantConfig::default().with_total_bins(BINS);
    let stats = timed_build(mem.clone(), BASE, |probe| {
        let router = ShardRouter::create(probe.clone(), BASE, SHARDS).map_err(|e| e.to_string())?;
        for slice in 0..text.blobs.len() {
            let corpus = upload(probe, text, slice..slice + 1)?;
            router.append(&corpus, &config).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    Ok((mem, stats))
}

struct Client {
    tracer: Arc<Tracer>,
    top: Arc<ProbeStore>,
    searcher: ShardedSearcher,
    open: OpenStats,
    open_spans: Vec<Span>,
}

fn open_client(mem: &Arc<InMemoryStore>, sim_seed: u64, spans: bool) -> Result<Client, String> {
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
    let (searcher, open, open_spans) = timed_open(&tracer, &[&top], || {
        ShardRouter::open(top.clone(), BASE)
            .and_then(|router| router.open_searcher())
            .map_err(|e| e.to_string())
    })?;
    Ok(Client {
        tracer,
        top,
        searcher,
        open,
        open_spans,
    })
}

fn open_clients(
    mem: &Arc<InMemoryStore>,
    sim_seed: u64,
    spans: bool,
) -> Result<Vec<Client>, String> {
    (0..CLIENTS)
        .map(|c| open_client(mem, gen::derive(sim_seed, c as u64), spans))
        .collect()
}

/// One pass: every client runs its share of `queries` concurrently. CPU
/// time is the process's, all threads.
fn run_clients(clients: &[Client], queries: &[Query]) -> PassStats {
    let shares: Vec<Vec<Query>> = (0..clients.len())
        .map(|c| {
            queries
                .iter()
                .skip(c)
                .step_by(clients.len())
                .cloned()
                .collect()
        })
        .collect();
    let (per_client, cpu_ns) = cpu_timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .zip(&shares)
                .map(|(client, share)| {
                    scope.spawn(move || {
                        run_pass(&client.tracer, &client.top, "core.shard", share, |q, o| {
                            client.searcher.execute(q, o)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a benchmark client panicked"))
                .collect::<Vec<PassStats>>()
        })
    });
    let mut merged = PassStats {
        cpu_ns,
        ..PassStats::default()
    };
    for p in &per_client {
        merged.latency_ms.extend(&p.latency_ms);
        merged.hits += p.hits;
        merged.round_trips += p.round_trips;
        merged.trace_bytes += p.trace_bytes;
        merged.compute_ns += p.compute_ns;
        merged.errors += p.errors;
        merged.counts = merged.counts.plus(&p.counts);
    }
    merged.latency_ms.sort_by(f64::total_cmp);
    merged
}

/// Run the workload.
pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    Outcome::from_run(|out| run_inner(cfg, traced, out))
}

fn run_inner(cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let n_docs = cfg.scaled(DOCS);
    let n_queries = cfg.scaled(QUERIES);
    let sim_seed = gen::derive(cfg.seed, 0x53);

    let mut build_cpu_ns = Vec::new();
    let (setup_s, (text, specs, mem, build)) = timed_setups(cfg, traced, SETUPS, || {
        let text = gen::corpus(
            cfg.seed,
            n_docs,
            n_docs.div_ceil(SLICES),
            "corpus/scatter",
            false,
        );
        let specs = QueryGen::new(&text, cfg.seed, 4).compound_mix(n_queries);
        let (mem, build) = build_fixture(&text)?;
        drop(open_clients(&mem, sim_seed, false)?);
        build_cpu_ns.push(build.cpu_ns as f64);
        Ok((text, specs, mem, build))
    })?;
    let queries: Vec<Query> = specs.iter().map(Spec::to_query).collect();
    out.notes.push(input_note(cfg.seed, &text, &specs));
    out.notes.push(format!(
        "{CLIENTS} clients, {} threads available",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));

    if traced {
        let m = cfg.scaled(TRACED_QUERIES).min(queries.len());
        let (specs, queries) = (&specs[..m], &queries[..m]);
        let rounds = traced_rounds(cfg, |spans| {
            let clients = open_clients(&mem, sim_seed, spans)?;
            let (pass, allocs) = counting_allocs(|| run_clients(&clients, queries));
            let spans: Vec<Vec<Span>> = clients.iter().map(|c| c.tracer.take_spans()).collect();
            Ok((pass.cpu_ns, allocs, (pass, clients, spans)))
        })?;
        let (pass, clients, spans) = rounds.kept;
        out.failures.attempted += m as u64;
        out.failures.failed += pass.errors;

        // One ledger per client (span ids are per tracer); scatter threads
        // overlap, so self times may exceed the root.
        let books: Vec<_> = spans.iter().map(|s| ledger(s, true)).collect();
        for book in &books {
            out.violations.extend(book.violations.iter().cloned());
        }
        let self_of = |layer: &str| books.iter().map(|b| b.self_of(layer)).sum::<u64>() as f64;
        if books.iter().map(|b| b.roots).sum::<u64>() != m as u64 {
            out.violations.push(format!("root spans do not number {m}"));
        }
        if pass.trace_bytes != pass.counts.bytes {
            out.violations.push(format!(
                "bytes at the top probes ({}) != summed trace.bytes() ({})",
                pass.counts.bytes, pass.trace_bytes
            ));
        }
        let n = m as f64;
        out.set("core.shard.self_us", self_of("core.shard") / 1e3 / n);
        out.set("core.shard.fanout_requests", pass.counts.calls as f64 / n);
        set_layer_metrics(
            out,
            LayerInputs {
                queries: n,
                store_units: n,
                sims: &pass.counts,
                engine: &pass.counts,
                self_ns: &self_of,
                hits: Some(pass.hits),
                compute_ns: pass.compute_ns,
                allocs_per_query: (rounds.allocs.0 as f64 / n, rounds.allocs.1 as f64 / n),
                captured: clients[0].top.take_captured(),
                specs,
                open: &clients[0].open,
                build: Some(&build),
                text: &text,
                overhead_frac: rounds.overhead_frac,
            },
        );
        // One file: keep the clients' span ids apart.
        let all: Vec<Span> = clients
            .iter()
            .zip(&spans)
            .enumerate()
            .flat_map(|(c, (client, spans))| {
                let by = (c as u64) << 40;
                shifted(&client.open_spans, by).chain(shifted(spans, by))
            })
            .collect();
        return save_trace(cfg, out, "scatter-segments", &all, &format!("{m} queries"));
    }

    let oracle = Oracle::new(&text);
    {
        let client = open_client(&mem, sim_seed, false)?;
        verify_pass(
            |q, o| client.searcher.execute(q, o).map_err(|e| e.to_string()),
            &specs,
            &queries,
            &oracle,
            &mut out.failures,
        );
    }

    let mut passes: Vec<PassStats> = Vec::new();
    passes_for(cfg, JITTER_STREAMS, |pass| {
        let clients = open_clients(&mem, jitter_seed(sim_seed, pass), false)?;
        passes.push(run_clients(&clients, &queries));
        Ok(())
    })?;
    check_passes(out, &passes);
    set_closed_loop_metrics(out, &passes, CLIENTS);
    set_build_metrics(
        out,
        &setup_s,
        &build_cpu_ns,
        &text,
        build.counts.put_bytes,
        build.index_bytes,
    );
    sample_opens(out, sim_seed, cfg.scaled(OPEN_SAMPLES / 4), |jitter| {
        open_client(&mem, jitter, false).map(|c| c.open)
    })
}
