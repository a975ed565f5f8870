//! `ProbeStore`: the benchmark's view of a layer from outside it.
//!
//! The benchmark composes the store stack itself and puts one probe
//! between every two layers. A probe is an [`ObjectStore`] that forwards
//! every call unchanged and, depending on the tracer's mode:
//!
//! * **untraced** — does nothing, except for the *metered* probes (the ones
//!   directly above a simulated cloud store, and the build-time probe),
//!   which bump a handful of relaxed atomics. End-to-end metrics are
//!   measured like this.
//! * **traced** — records a span per call (`query, span, parent, layer, op,
//!   start_ns, end_ns, sim_ns, requests, bytes`) and counts everything,
//!   split by [`RangeClass`]. The per-layer ledger comes from this pass.
//!
//! A span's `layer` names the layer the probe sits *above*: the span covers
//! the call into that layer, and the layer's self time is the span minus
//! the part of it that child spans (probes further down) cover.

use airphant_storage::{
    BatchFetch, Fetched, ObjectStore, RangeClass, RangeRequest, Result, SimDuration, Version,
};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call (or root unit of work).
#[derive(Debug, Clone)]
pub struct Span {
    /// Root unit this span belongs to: the query ordinal on direct-call
    /// workloads, the pump ordinal on `serve-zipf`.
    pub query: u64,
    /// Span id (unique per tracer, never 0).
    pub span: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer the span measures.
    pub layer: &'static str,
    /// Operation.
    pub op: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Virtual nanoseconds the call reported (wait + download).
    pub sim_ns: u64,
    /// Ranges asked for.
    pub requests: u64,
    /// Bytes returned (reads) or written (puts).
    pub bytes: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last. Store calls run
    /// synchronously down the wrapper stack, so nesting is per thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Shared state of the probes of one store stack.
pub struct Tracer {
    spans_on: AtomicBool,
    epoch: Instant,
    query: AtomicU64,
    root: AtomicU64,
    next_span: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer in untraced mode.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            spans_on: AtomicBool::new(false),
            epoch: Instant::now(),
            query: AtomicU64::new(0),
            root: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switch every probe of this tracer between untraced and span mode.
    pub fn set_spans(&self, on: bool) {
        self.spans_on.store(on, Relaxed);
    }

    fn spans_on(&self) -> bool {
        self.spans_on.load(Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a probe panicked while recording a span")
            .push(span);
    }

    /// Run `f` as root unit `query`. Probe calls made meanwhile — on this
    /// thread or on threads the engine spawns — hang below the root span.
    /// Untraced, this is just `f()`.
    pub fn root<T>(
        &self,
        query: u64,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.spans_on() {
            return f();
        }
        let id = self.next_span.fetch_add(1, Relaxed);
        self.query.store(query, Relaxed);
        self.root.store(id, Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        self.root.store(0, Relaxed);
        self.push(Span {
            query,
            span: id,
            parent: 0,
            layer,
            op,
            start_ns,
            end_ns,
            sim_ns: 0,
            requests: 0,
            bytes: 0,
        });
        out
    }

    /// Take the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a probe panicked while recording a span"),
        )
    }
}

fn class_idx(class: RangeClass) -> usize {
    match class {
        RangeClass::Index => 0,
        RangeClass::Superpost => 1,
        RangeClass::Data => 2,
    }
}

/// What a probe has seen pass through.
#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    requests: AtomicU64,
    bytes: AtomicU64,
    wait_ns: AtomicU64,
    download_ns: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    class_requests: [AtomicU64; 3],
    class_bytes: [AtomicU64; 3],
    free_parts: AtomicU64,
}

/// A reading of a probe's counters. Class arrays are indexed
/// `[Index, Superpost, Data]` and are only filled in span mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Read calls (`get`, `get_range`, `get_ranges`).
    pub calls: u64,
    /// Ranges asked for.
    pub requests: u64,
    /// Bytes the reads returned.
    pub bytes: u64,
    /// Summed virtual wait of the read calls.
    pub wait_ns: u64,
    /// Summed virtual download of the read calls.
    pub download_ns: u64,
    /// Successful `put` / `put_if_version` calls.
    pub puts: u64,
    /// Bytes those wrote.
    pub put_bytes: u64,
    /// Ranges asked for, by class (span mode).
    pub class_requests: [u64; 3],
    /// Bytes returned, by class (span mode).
    pub class_bytes: [u64; 3],
    /// Parts that came back with zero latency — served above the cloud
    /// (span mode).
    pub free_parts: u64,
}

impl Counts {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let sub3 = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        Counts {
            calls: self.calls - earlier.calls,
            requests: self.requests - earlier.requests,
            bytes: self.bytes - earlier.bytes,
            wait_ns: self.wait_ns - earlier.wait_ns,
            download_ns: self.download_ns - earlier.download_ns,
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            class_requests: sub3(self.class_requests, earlier.class_requests),
            class_bytes: sub3(self.class_bytes, earlier.class_bytes),
            free_parts: self.free_parts - earlier.free_parts,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &Counts) -> Counts {
        let add3 = |a: [u64; 3], b: [u64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
        Counts {
            calls: self.calls + other.calls,
            requests: self.requests + other.requests,
            bytes: self.bytes + other.bytes,
            wait_ns: self.wait_ns + other.wait_ns,
            download_ns: self.download_ns + other.download_ns,
            puts: self.puts + other.puts,
            put_bytes: self.put_bytes + other.put_bytes,
            class_requests: add3(self.class_requests, other.class_requests),
            class_bytes: add3(self.class_bytes, other.class_bytes),
            free_parts: self.free_parts + other.free_parts,
        }
    }

    /// Virtual nanoseconds (wait + download).
    pub fn sim_ns(&self) -> u64 {
        self.wait_ns + self.download_ns
    }
}

/// Bytes a traced top probe keeps for the timed `iou_sketch` calls.
#[derive(Default)]
pub struct Captured {
    /// The first Index-class payload seen (an index header).
    pub header: Option<Bytes>,
    /// Superpost payloads, one inner vector per all-superpost batch.
    pub superpost_batches: Vec<Vec<Bytes>>,
}

/// Most superpost batches a probe keeps.
const CAPTURE_BATCHES: usize = 2_000;

/// The pass-through [`ObjectStore`] the benchmark interposes between layers.
pub struct ProbeStore {
    inner: Arc<dyn ObjectStore>,
    layer: &'static str,
    tracer: Arc<Tracer>,
    metered: bool,
    counters: Counters,
    captured: Option<Mutex<Captured>>,
}

impl ProbeStore {
    /// A probe above `inner`, which is layer `layer`.
    pub fn new(inner: Arc<dyn ObjectStore>, layer: &'static str, tracer: &Arc<Tracer>) -> Self {
        ProbeStore {
            inner,
            layer,
            tracer: tracer.clone(),
            metered: false,
            counters: Counters::default(),
            captured: None,
        }
    }

    /// Keep counting in untraced mode (the probes directly above a
    /// simulated cloud, and the build-time probe).
    pub fn metered(mut self) -> Self {
        self.metered = true;
        self
    }

    /// Keep the header and superpost payloads seen in span mode.
    pub fn capturing(mut self) -> Self {
        self.captured = Some(Mutex::new(Captured::default()));
        self
    }

    /// Read the counters.
    pub fn counts(&self) -> Counts {
        let c = &self.counters;
        let load3 =
            |a: &[AtomicU64; 3]| [a[0].load(Relaxed), a[1].load(Relaxed), a[2].load(Relaxed)];
        Counts {
            calls: c.calls.load(Relaxed),
            requests: c.requests.load(Relaxed),
            bytes: c.bytes.load(Relaxed),
            wait_ns: c.wait_ns.load(Relaxed),
            download_ns: c.download_ns.load(Relaxed),
            puts: c.puts.load(Relaxed),
            put_bytes: c.put_bytes.load(Relaxed),
            class_requests: load3(&c.class_requests),
            class_bytes: load3(&c.class_bytes),
            free_parts: c.free_parts.load(Relaxed),
        }
    }

    /// Take what a capturing probe kept.
    pub fn take_captured(&self) -> Captured {
        self.captured
            .as_ref()
            .map(|m| std::mem::take(&mut *m.lock().expect("capture lock")))
            .unwrap_or_default()
    }

    fn count_read(&self, requests: u64, bytes: u64, wait: SimDuration, download: SimDuration) {
        let c = &self.counters;
        c.calls.fetch_add(1, Relaxed);
        c.requests.fetch_add(requests, Relaxed);
        c.bytes.fetch_add(bytes, Relaxed);
        c.wait_ns.fetch_add(wait.as_nanos(), Relaxed);
        c.download_ns.fetch_add(download.as_nanos(), Relaxed);
    }

    fn count_put(&self, bytes: u64) {
        self.counters.puts.fetch_add(1, Relaxed);
        self.counters.put_bytes.fetch_add(bytes, Relaxed);
    }

    fn count_part(&self, class: RangeClass, part: &Fetched) {
        let i = class_idx(class);
        self.counters.class_requests[i].fetch_add(1, Relaxed);
        self.counters.class_bytes[i].fetch_add(part.bytes.len() as u64, Relaxed);
        if part.latency.total() == SimDuration::ZERO {
            self.counters.free_parts.fetch_add(1, Relaxed);
        }
    }

    /// Run `call` inside a span. `measure` reads `(sim_ns, requests,
    /// bytes)` off a successful result.
    fn spanned<T>(
        &self,
        op: &'static str,
        call: impl FnOnce() -> Result<T>,
        measure: impl FnOnce(&T) -> (u64, u64, u64),
    ) -> Result<T> {
        let t = &self.tracer;
        let id = t.next_span.fetch_add(1, Relaxed);
        let parent = OPEN.with(|o| {
            let mut open = o.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = t.now_ns();
        let out = call();
        let end_ns = t.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let (sim_ns, requests, bytes) = out.as_ref().map(measure).unwrap_or((0, 0, 0));
        t.push(Span {
            query: t.query.load(Relaxed),
            span: id,
            // An engine-spawned thread has no open span of its own: its
            // calls belong to the root the owning client is running.
            parent: parent.unwrap_or_else(|| t.root.load(Relaxed)),
            layer: self.layer,
            op,
            start_ns,
            end_ns,
            sim_ns,
            requests,
            bytes,
        });
        out
    }

    fn single_read(
        &self,
        op: &'static str,
        call: impl FnOnce() -> Result<Fetched>,
    ) -> Result<Fetched> {
        if self.tracer.spans_on() {
            let out = self.spanned(op, call, |f| {
                (f.latency.total().as_nanos(), 1, f.bytes.len() as u64)
            })?;
            self.count_read(
                1,
                out.bytes.len() as u64,
                out.latency.first_byte,
                out.latency.transfer,
            );
            self.count_part(RangeClass::Data, &out);
            Ok(out)
        } else {
            let out = call()?;
            if self.metered {
                self.count_read(
                    1,
                    out.bytes.len() as u64,
                    out.latency.first_byte,
                    out.latency.transfer,
                );
            }
            Ok(out)
        }
    }

    fn capture(&self, requests: &[RangeRequest], batch: &BatchFetch) {
        let Some(captured) = &self.captured else {
            return;
        };
        let mut c = captured.lock().expect("capture lock");
        if c.header.is_none() {
            if let Some(i) = requests.iter().position(|r| r.class == RangeClass::Index) {
                c.header = Some(batch.parts[i].bytes.clone());
            }
        }
        if c.superpost_batches.len() < CAPTURE_BATCHES
            && !requests.is_empty()
            && requests.iter().all(|r| r.class == RangeClass::Superpost)
        {
            c.superpost_batches
                .push(batch.parts.iter().map(|p| p.bytes.clone()).collect());
        }
    }
}

impl ObjectStore for ProbeStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        let len = data.len() as u64;
        if self.tracer.spans_on() {
            self.spanned("put", || self.inner.put(name, data), |_| (0, 0, len))?;
            self.count_put(len);
        } else {
            self.inner.put(name, data)?;
            if self.metered {
                self.count_put(len);
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        self.single_read("get", || self.inner.get(name))
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        self.single_read("get_range", || self.inner.get_range(name, offset, len))
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        if self.tracer.spans_on() {
            let n = requests.len() as u64;
            let out = self.spanned(
                "get_ranges",
                || self.inner.get_ranges(requests),
                |b| (b.batch_latency.as_nanos(), n, b.total_bytes()),
            )?;
            self.count_read(n, out.total_bytes(), out.batch_wait, out.batch_download);
            for (r, part) in requests.iter().zip(&out.parts) {
                self.count_part(r.class, part);
            }
            self.capture(requests, &out);
            Ok(out)
        } else {
            let out = self.inner.get_ranges(requests)?;
            if self.metered {
                self.count_read(
                    requests.len() as u64,
                    out.total_bytes(),
                    out.batch_wait,
                    out.batch_download,
                );
            }
            Ok(out)
        }
    }

    fn version_of(&self, name: &str) -> Result<Version> {
        self.inner.version_of(name)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        let len = data.len() as u64;
        let call = || self.inner.put_if_version(name, data, expected);
        if self.tracer.spans_on() {
            let out = self.spanned("put_if_version", call, |_| (0, 0, len))?;
            self.count_put(len);
            Ok(out)
        } else {
            let out = call()?;
            if self.metered {
                self.count_put(len);
            }
            Ok(out)
        }
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn usage(&self, prefix: &str) -> Result<u64> {
        self.inner.usage(prefix)
    }
}

/// Per-layer totals and the conservation verdict of one traced pass.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Summed self nanoseconds per layer.
    pub self_ns: HashMap<&'static str, u64>,
    /// Spans per layer.
    pub spans: HashMap<&'static str, u64>,
    /// Root spans seen.
    pub roots: u64,
    /// Root units whose layer self times do not add up to the root span
    /// (or whose spans do not nest) — must be empty.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Self nanoseconds of `layer` (0 when it never ran).
    pub fn self_of(&self, layer: &str) -> u64 {
        self.self_ns
            .iter()
            .find(|(k, _)| **k == layer)
            .map_or(0, |(_, v)| *v)
    }
}

/// Build the ledger. A span's self time is its duration minus the part of
/// its interval that child spans cover. With `parallel_children` false
/// (single-threaded engines) the self times under every root must sum to
/// the root span within 1 %; with it true (scatter threads overlap) they
/// must sum to at least that.
pub fn ledger(spans: &[Span], parallel_children: bool) -> Ledger {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut out = Ledger::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 {
            out.roots += 1;
        } else if let Some(&p) = index.get(&s.parent) {
            children[p].push(i);
        } else {
            out.violations
                .push(format!("span {} has unknown parent {}", s.span, s.parent));
        }
    }
    let mut self_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (start, end) in kids {
            if start < s.start_ns || end > s.end_ns {
                out.violations
                    .push(format!("a child of span {} is not nested in it", s.span));
            }
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        self_ns[i] = s.dur().saturating_sub(covered);
        *out.self_ns.entry(s.layer).or_default() += self_ns[i];
        *out.spans.entry(s.layer).or_default() += 1;
    }
    // Sum self times up to each root.
    let mut tree_ns = self_ns.clone();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(spans[i].span));
    // A span takes its id when it opens, after its parent took one, so
    // visiting highest id first folds every subtree before its parent is
    // read.
    for i in order {
        if let Some(&p) = index.get(&spans[i].parent) {
            tree_ns[p] += tree_ns[i];
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            continue;
        }
        let (sum, root) = (tree_ns[i] as f64, s.dur() as f64);
        let ok = if parallel_children {
            sum >= root * 0.99
        } else {
            (sum - root).abs() <= root * 0.01
        };
        if !ok && out.violations.len() < 8 {
            out.violations.push(format!(
                "root {} (unit {}): layer self times sum to {sum} ns, root span is {root} ns",
                s.span, s.query
            ));
        }
    }
    out
}

/// Write `spans` as `{"workload":…,"seed":…,"spans":[…]}`.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(
            w,
            "\n{{\"query\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"sim_ns\":{},\"requests\":{},\"bytes\":{}}}",
            s.query,
            s.span,
            s.parent,
            s.layer,
            s.op,
            s.start_ns,
            s.end_ns,
            s.sim_ns,
            s.requests,
            s.bytes
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};

    fn stack() -> (Arc<Tracer>, Arc<ProbeStore>, Arc<dyn ObjectStore>) {
        let tracer = Tracer::new();
        let mem: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        mem.put(
            "blob",
            Bytes::from((0..=255u8).cycle().take(4096).collect::<Vec<_>>()),
        )
        .unwrap();
        let low = Arc::new(ProbeStore::new(mem, "storage.memory", &tracer));
        let sim: Arc<dyn ObjectStore> =
            Arc::new(SimulatedCloudStore::new(low, LatencyModel::gcs_like(), 9));
        let top = Arc::new(ProbeStore::new(sim.clone(), "storage.sim", &tracer).metered());
        (tracer, top, sim)
    }

    #[test]
    fn passes_bytes_and_latency_through_unchanged_in_both_modes() {
        for spans_on in [false, true] {
            // Two identical stacks (same jitter seed): one read directly,
            // one through the probe.
            let (tracer, probed, _) = stack();
            let (_, _, bare) = stack();
            tracer.set_spans(spans_on);
            let reqs = [
                RangeRequest::superpost("blob", 10, 100),
                RangeRequest::new("blob", 1000, 77),
            ];
            let a = probed.get_ranges(&reqs).unwrap();
            let b = bare.get_ranges(&reqs).unwrap();
            assert_eq!(a.parts.len(), b.parts.len());
            for (x, y) in a.parts.iter().zip(&b.parts) {
                assert_eq!(x.bytes, y.bytes);
                assert_eq!(x.latency, y.latency);
            }
            assert_eq!(a.batch_latency, b.batch_latency);
            assert_eq!(a.batch_wait, b.batch_wait);
            assert_eq!(a.batch_download, b.batch_download);
            let x = probed.get_range("blob", 5, 50).unwrap();
            let y = bare.get_range("blob", 5, 50).unwrap();
            assert_eq!((x.bytes, x.latency), (y.bytes, y.latency));
            assert_eq!(
                probed.get("blob").unwrap().bytes,
                bare.get("blob").unwrap().bytes
            );
            assert_eq!(probed.size_of("blob").unwrap(), 4096);
            assert!(probed.get_range("missing", 0, 1).is_err());
            let c = probed.counts();
            assert_eq!((c.calls, c.requests), (3, 4));
            assert_eq!(c.bytes, 100 + 77 + 50 + 4096);
        }
    }

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let (tracer, top, _) = stack();
        tracer.set_spans(true);
        tracer.root(7, "core.plan", "execute", || {
            top.get_ranges(&[
                RangeRequest::new("blob", 0, 64),
                RangeRequest::new("blob", 64, 64),
            ])
            .unwrap();
            top.get_range("blob", 0, 8).unwrap();
        });
        let spans = tracer.take_spans();
        // root + 2 calls at the top probe + 3 single reads at the bottom.
        assert_eq!(spans.len(), 6);
        assert!(spans.iter().all(|s| s.query == 7));
        let root = spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root.layer, "core.plan");
        let l = ledger(&spans, false);
        assert!(l.violations.is_empty(), "{:?}", l.violations);
        assert_eq!(l.roots, 1);
        let total: u64 = l.self_ns.values().sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert_eq!(l.spans.get("storage.memory").copied(), Some(3));
    }

    #[test]
    fn ledger_flags_self_times_that_do_not_add_up() {
        let span = |span, parent, start_ns, end_ns| Span {
            query: 0,
            span,
            parent,
            layer: "x",
            op: "y",
            start_ns,
            end_ns,
            sim_ns: 0,
            requests: 0,
            bytes: 0,
        };
        // The child sticks out of its parent.
        let bad = [span(1, 0, 0, 100), span(2, 1, 50, 180)];
        assert!(!ledger(&bad, false).violations.is_empty());
        let good = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        assert!(ledger(&good, false).violations.is_empty());
    }

    #[test]
    fn trace_file_parses() {
        let (tracer, top, _) = stack();
        tracer.set_spans(true);
        tracer.root(0, "core.plan", "execute", || top.get("blob").unwrap());
        let dir = std::env::temp_dir().join(format!("e2e-probe-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.json");
        write_trace(&path, "unit", 3, &tracer.take_spans()).unwrap();
        let v = serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(v.get("spans").and_then(|s| s.as_array()).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
