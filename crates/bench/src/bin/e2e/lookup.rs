//! `lookup-cold` — the paper's experiment (Figs 6/8/14).
//!
//! One closed-loop client calls `Searcher::execute` on a single-segment
//! index straight over a GCS-like simulated store: no cache, scheduler,
//! server, shards or memtable. It isolates planner + sketch + cloud model;
//! fixed per-query CPU dominates and decode does little. It must show two
//! dependent round trips per query — the paper's claim.
//!
//! Stack: `Searcher → probe → SimulatedCloudStore → probe → InMemoryStore`.

use crate::clock::cpu_timed;
use crate::gen::{self, QueryGen, Spec};
use crate::harness::{
    build_index, check_passes, counting_allocs, input_note, jitter_seed, passes_for, run_pass,
    sample_opens, save_trace, set_build_metrics, set_closed_loop_metrics, set_layer_metrics,
    timed_open, timed_setups, traced_rounds, verify_pass, LayerInputs, OpenStats, Outcome,
    PassStats, RunConfig, JITTER_STREAMS, OPEN_SAMPLES,
};
use crate::oracle::Oracle;
use crate::probe::{ledger, ProbeStore, Span, Tracer};
use airphant::{AirphantConfig, Query, Searcher};
use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};
use std::sync::Arc;

const DOCS: usize = 100_000;
const QUERIES: usize = 40_000;
const TRACED_QUERIES: usize = 4_000;
const SETUPS: usize = 5;
const INDEX: &str = "idx/lookup";

struct Stack {
    tracer: Arc<Tracer>,
    top: Arc<ProbeStore>,
    searcher: Searcher,
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
    let (searcher, open, open_spans) = timed_open(&tracer, &[&top], || {
        Searcher::open(top.clone(), INDEX).map_err(|e| e.to_string())
    })?;
    Ok(Stack {
        tracer,
        top,
        searcher,
        open,
        open_spans,
    })
}

fn timed_pass(stack: &Stack, queries: &[Query]) -> PassStats {
    let (mut stats, cpu_ns) = cpu_timed(|| {
        run_pass(&stack.tracer, &stack.top, "core.plan", queries, |q, o| {
            stack.searcher.execute(q, o)
        })
    });
    stats.cpu_ns = cpu_ns;
    stats.latency_ms.sort_by(f64::total_cmp);
    stats
}

/// Run the workload.
pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    Outcome::from_run(|out| run_inner(cfg, traced, out))
}

fn run_inner(cfg: &RunConfig, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let n_docs = cfg.scaled(DOCS);
    let n_queries = cfg.scaled(QUERIES);
    let sim_seed = gen::derive(cfg.seed, 0x51);

    // Set-up, repeated: generate inputs, build the index, open the engine.
    let mut build_cpu_ns = Vec::new();
    let (setup_s, (text, specs, mem, build)) = timed_setups(cfg, traced, SETUPS, || {
        let text = gen::corpus(cfg.seed, n_docs, gen::DOCS_PER_BLOB, "corpus/lookup", false);
        let specs = QueryGen::new(&text, cfg.seed, 2).paper_mix(n_queries);
        let mem = Arc::new(InMemoryStore::new());
        let build = build_index(mem.clone(), &text, AirphantConfig::default(), INDEX)?;
        drop(open_stack(&mem, sim_seed, false)?);
        build_cpu_ns.push(build.cpu_ns as f64);
        Ok((text, specs, mem, build))
    })?;
    let queries: Vec<Query> = specs.iter().map(Spec::to_query).collect();
    out.notes.push(input_note(cfg.seed, &text, &specs));

    if traced {
        let m = cfg.scaled(TRACED_QUERIES).min(queries.len());
        let (specs, queries) = (&specs[..m], &queries[..m]);
        let rounds = traced_rounds(cfg, |spans| {
            let stack = open_stack(&mem, sim_seed, spans)?;
            let (pass, allocs) = counting_allocs(|| timed_pass(&stack, queries));
            let spans = stack.tracer.take_spans();
            Ok((pass.cpu_ns, allocs, (pass, stack, spans)))
        })?;
        let (pass, stack, spans) = rounds.kept;
        out.failures.attempted += m as u64;
        out.failures.failed += pass.errors;

        let book = ledger(&spans, false);
        out.violations.extend(book.violations.iter().cloned());
        if pass.trace_bytes != pass.counts.bytes {
            out.violations.push(format!(
                "bytes at the top probe ({}) != summed trace.bytes() ({})",
                pass.counts.bytes, pass.trace_bytes
            ));
        }
        if book.roots != m as u64 {
            out.violations
                .push(format!("{} root spans for {m} queries", book.roots));
        }
        let n = m as f64;
        out.set(
            "core.plan.self_us",
            book.self_of("core.plan") as f64 / 1e3 / n,
        );
        set_layer_metrics(
            out,
            LayerInputs {
                queries: n,
                store_units: n,
                sims: &pass.counts,
                engine: &pass.counts,
                self_ns: &|layer| book.self_of(layer) as f64,
                hits: Some(pass.hits),
                compute_ns: pass.compute_ns,
                allocs_per_query: (rounds.allocs.0 as f64 / n, rounds.allocs.1 as f64 / n),
                captured: stack.top.take_captured(),
                specs,
                open: &stack.open,
                build: Some(&build),
                text: &text,
                overhead_frac: rounds.overhead_frac,
            },
        );
        let mut all = stack.open_spans;
        all.extend(spans);
        return save_trace(cfg, out, "lookup-cold", &all, &format!("{m} queries"));
    }

    // One verified pass, then identical timed passes on fresh stacks.
    let oracle = Oracle::new(&text);
    let stack = open_stack(&mem, sim_seed, false)?;
    verify_pass(
        |q, o| stack.searcher.execute(q, o).map_err(|e| e.to_string()),
        &specs,
        &queries,
        &oracle,
        &mut out.failures,
    );
    drop(stack);

    let mut passes: Vec<PassStats> = Vec::new();
    passes_for(cfg, JITTER_STREAMS, |pass| {
        let stack = open_stack(&mem, jitter_seed(sim_seed, pass), false)?;
        passes.push(timed_pass(&stack, &queries));
        Ok(())
    })?;
    check_passes(out, &passes);
    set_closed_loop_metrics(out, &passes, 1);
    set_build_metrics(
        out,
        &setup_s,
        &build_cpu_ns,
        &text,
        build.counts.put_bytes,
        build.index_bytes,
    );
    sample_opens(out, sim_seed, cfg.scaled(OPEN_SAMPLES), |jitter| {
        open_stack(&mem, jitter, false).map(|s| s.open)
    })
}
