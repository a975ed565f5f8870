//! Query-latency tracing: the reproduction's stand-in for the paper's
//! tcpdump-based breakdown (§V-B0c, Figures 8 and 11).
//!
//! A query executes as a sequence of *phases*. Within a phase, requests are
//! concurrent (one batch); across phases, execution is sequential (the next
//! phase depends on the previous one's results — exactly the "dependent
//! reads" the paper identifies as the bottleneck of hierarchical indexes).
//! Each phase records its wait (time-to-first-byte) and download (transfer)
//! components; the query's end-to-end simulated latency is the sum of the
//! phase latencies plus any recorded compute time.

use crate::latency::SimDuration;
use crate::object_store::BatchFetch;

/// What a phase was doing — used by experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Term-index lookup traffic (MHT is in memory for Airphant, so its
    /// lookup phase is the superpost fetch; for B-tree/skip-list baselines
    /// these are the node fetches).
    Lookup,
    /// Fetching postings lists / superposts.
    Postings,
    /// Fetching document contents.
    Documents,
    /// Pure CPU work (hashing, intersection, filtering). No network.
    Compute,
    /// One-time initialization traffic (header download, snapshot mount).
    Init,
}

impl PhaseKind {
    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Lookup => "lookup",
            PhaseKind::Postings => "postings",
            PhaseKind::Documents => "documents",
            PhaseKind::Compute => "compute",
            PhaseKind::Init => "init",
        }
    }
}

/// One sequential phase of a query.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    /// What the phase was doing.
    pub kind: PhaseKind,
    /// Number of concurrent requests in the phase's batch.
    pub requests: u64,
    /// Number of *dependent* storage round trips the phase represents: 1
    /// for a concurrent batch (all requests issued at once), `requests`
    /// for a chain of dependent reads (hierarchical index traversals).
    pub batches: u64,
    /// Bytes fetched in the phase.
    pub bytes: u64,
    /// Wait component (max time-to-first-byte of the batch).
    pub wait: SimDuration,
    /// Download component (shared-bandwidth transfer).
    pub download: SimDuration,
    /// CPU time attributed to the phase (compute phases).
    pub compute: SimDuration,
}

impl PhaseTrace {
    /// Total simulated duration of this phase.
    pub fn total(&self) -> SimDuration {
        self.wait + self.download + self.compute
    }
}

/// Accumulated trace for a single query (or initialization).
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    phases: Vec<PhaseTrace>,
    /// `(segment, atom)` lookups the planner skipped because the segment's
    /// vocabulary proved them empty.
    pruned_lookups: u64,
    /// Segments the postings plan read at least one superpost from.
    segments_read: u64,
}

impl QueryTrace {
    /// Start an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a phase from a [`BatchFetch`] (one concurrent round trip).
    pub fn record_batch(&mut self, kind: PhaseKind, batch: &BatchFetch) {
        let requests = batch.parts.len() as u64;
        self.phases.push(PhaseTrace {
            kind,
            requests,
            batches: u64::from(requests > 0),
            bytes: batch.total_bytes(),
            wait: batch.batch_wait,
            download: batch.batch_download,
            compute: SimDuration::ZERO,
        });
    }

    /// Record a phase of `n` *sequential* single requests (hierarchical
    /// index traversals), given their summed wait and download. Each
    /// request counts as its own dependent round trip.
    pub fn record_sequential(
        &mut self,
        kind: PhaseKind,
        requests: u64,
        bytes: u64,
        wait: SimDuration,
        download: SimDuration,
    ) {
        self.phases.push(PhaseTrace {
            kind,
            requests,
            batches: requests,
            bytes,
            wait,
            download,
            compute: SimDuration::ZERO,
        });
    }

    /// Record a phase of `requests` *concurrent* requests that were issued
    /// as one batch but whose latency was aggregated by the caller (e.g. a
    /// straggler-mitigated lookup that kept only the fastest streams).
    /// Counts as a single round trip.
    pub fn record_concurrent(
        &mut self,
        kind: PhaseKind,
        requests: u64,
        bytes: u64,
        wait: SimDuration,
        download: SimDuration,
    ) {
        self.phases.push(PhaseTrace {
            kind,
            requests,
            batches: u64::from(requests > 0),
            bytes,
            wait,
            download,
            compute: SimDuration::ZERO,
        });
    }

    /// Record pure compute time.
    pub fn record_compute(&mut self, compute: SimDuration) {
        self.phases.push(PhaseTrace {
            kind: PhaseKind::Compute,
            requests: 0,
            batches: 0,
            bytes: 0,
            wait: SimDuration::ZERO,
            download: SimDuration::ZERO,
            compute,
        });
    }

    /// Record what the postings planner decided before any read: how many
    /// `(segment, atom)` lookups the segment vocabularies removed, and how
    /// many segments were left with something to read.
    pub fn record_pruning(&mut self, pruned_lookups: u64, segments_read: u64) {
        self.pruned_lookups += pruned_lookups;
        self.segments_read += segments_read;
    }

    /// `(segment, atom)` lookups skipped because the segment's vocabulary
    /// does not hold the atom (or a conjunction it sits under is dead
    /// there) — superposts that were never requested.
    pub fn pruned_lookups(&self) -> u64 {
        self.pruned_lookups
    }

    /// Segments the query read at least one superpost from.
    pub fn segments_read(&self) -> u64 {
        self.segments_read
    }

    /// Append all phases of another trace (e.g. merge init into a query).
    pub fn extend(&mut self, other: &QueryTrace) {
        self.phases.extend(other.phases.iter().cloned());
        self.record_pruning(other.pruned_lookups, other.segments_read);
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[PhaseTrace] {
        &self.phases
    }

    /// End-to-end simulated latency: phases are sequential, so they sum.
    pub fn total(&self) -> SimDuration {
        self.phases.iter().map(|p| p.total()).sum()
    }

    /// Total wait (time blocked on first bytes) — Figure 8's "Wait Time".
    pub fn wait(&self) -> SimDuration {
        self.phases.iter().map(|p| p.wait).sum()
    }

    /// Total download (transfer) time — Figure 8's "Download Time".
    pub fn download(&self) -> SimDuration {
        self.phases.iter().map(|p| p.download).sum()
    }

    /// Total CPU time recorded.
    pub fn compute(&self) -> SimDuration {
        self.phases.iter().map(|p| p.compute).sum()
    }

    /// Total bytes fetched.
    pub fn bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.bytes).sum()
    }

    /// Total network requests issued.
    pub fn requests(&self) -> u64 {
        self.phases.iter().map(|p| p.requests).sum()
    }

    /// Number of dependent storage round trips (batches) the query paid,
    /// excluding one-time initialization traffic. This is the quantity the
    /// paper's single-batch guarantee bounds: an Airphant index lookup is
    /// at most one round trip no matter how many terms, grams, layers, or
    /// segments the query touches; hierarchical baselines pay one per
    /// dependent read.
    pub fn round_trips(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.kind != PhaseKind::Init)
            .map(|p| p.batches)
            .sum()
    }

    /// Round trips attributed to phases of one kind (e.g.
    /// [`PhaseKind::Postings`] isolates the index-lookup phase).
    pub fn round_trips_of(&self, kind: PhaseKind) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.batches)
            .sum()
    }

    /// Sum of phases of a given kind.
    pub fn total_of(&self, kind: PhaseKind) -> SimDuration {
        self.phases
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.total())
            .sum()
    }

    /// Combine traces of *concurrent* sub-queries (e.g. one per index
    /// segment): round-trip waits overlap (max), transfers share the link
    /// (sum), compute is serial on the client (sum). Request/byte counters
    /// add up. The result is a single summary phase per kind.
    pub fn merge_parallel(traces: &[QueryTrace]) -> QueryTrace {
        let mut merged = QueryTrace::new();
        if traces.is_empty() {
            return merged;
        }
        for kind in [
            PhaseKind::Init,
            PhaseKind::Lookup,
            PhaseKind::Postings,
            PhaseKind::Documents,
        ] {
            let mut wait = SimDuration::ZERO;
            let mut download = SimDuration::ZERO;
            let mut requests = 0u64;
            let mut batches = 0u64;
            let mut bytes = 0u64;
            let mut present = false;
            for t in traces {
                let mut t_wait = SimDuration::ZERO;
                let mut t_batches = 0u64;
                for p in t.phases.iter().filter(|p| p.kind == kind) {
                    present = true;
                    t_wait += p.wait;
                    t_batches += p.batches;
                    download += p.download;
                    requests += p.requests;
                    bytes += p.bytes;
                }
                wait = wait.max(t_wait);
                // Concurrent sub-queries overlap: the effective dependent
                // depth is the longest chain, not the sum.
                batches = batches.max(t_batches);
            }
            if present {
                merged.phases.push(PhaseTrace {
                    kind,
                    requests,
                    batches,
                    bytes,
                    wait,
                    download,
                    compute: SimDuration::ZERO,
                });
            }
        }
        let compute: SimDuration = traces.iter().map(|t| t.compute()).sum();
        if compute > SimDuration::ZERO {
            merged.record_compute(compute);
        }
        // Sub-queries cover disjoint segments: their planner counts add.
        for t in traces {
            merged.record_pruning(t.pruned_lookups, t.segments_read);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::Fetched;
    use bytes::Bytes;

    fn fake_batch(n: usize, bytes_each: usize, wait_ms: u64, dl_ms: u64) -> BatchFetch {
        BatchFetch {
            parts: (0..n)
                .map(|_| Fetched::instant(Bytes::from(vec![0u8; bytes_each])))
                .collect(),
            batch_latency: SimDuration::from_millis(wait_ms + dl_ms),
            batch_wait: SimDuration::from_millis(wait_ms),
            batch_download: SimDuration::from_millis(dl_ms),
        }
    }

    #[test]
    fn phases_sum_sequentially() {
        let mut t = QueryTrace::new();
        t.record_batch(PhaseKind::Postings, &fake_batch(3, 100, 50, 10));
        t.record_batch(PhaseKind::Documents, &fake_batch(5, 1000, 45, 30));
        t.record_compute(SimDuration::from_millis(2));
        assert_eq!(t.total(), SimDuration::from_millis(137));
        assert_eq!(t.wait(), SimDuration::from_millis(95));
        assert_eq!(t.download(), SimDuration::from_millis(40));
        assert_eq!(t.compute(), SimDuration::from_millis(2));
        assert_eq!(t.bytes(), 3 * 100 + 5 * 1000);
        assert_eq!(t.requests(), 8);
    }

    #[test]
    fn total_of_filters_by_kind() {
        let mut t = QueryTrace::new();
        t.record_batch(PhaseKind::Postings, &fake_batch(2, 10, 40, 5));
        t.record_batch(PhaseKind::Documents, &fake_batch(1, 10, 40, 5));
        assert_eq!(
            t.total_of(PhaseKind::Postings),
            SimDuration::from_millis(45)
        );
        assert_eq!(t.total_of(PhaseKind::Lookup), SimDuration::ZERO);
    }

    #[test]
    fn sequential_recording() {
        let mut t = QueryTrace::new();
        // A 4-level B-tree traversal: 4 dependent reads, waits add up.
        t.record_sequential(
            PhaseKind::Lookup,
            4,
            4 * 4096,
            SimDuration::from_millis(180),
            SimDuration::from_millis(2),
        );
        assert_eq!(t.requests(), 4);
        assert_eq!(t.wait(), SimDuration::from_millis(180));
    }

    #[test]
    fn extend_merges_traces() {
        let mut init = QueryTrace::new();
        init.record_batch(PhaseKind::Init, &fake_batch(1, 2_000_000, 50, 48));
        let mut q = QueryTrace::new();
        q.record_batch(PhaseKind::Postings, &fake_batch(2, 100, 45, 1));
        let mut merged = QueryTrace::new();
        merged.extend(&init);
        merged.extend(&q);
        assert_eq!(merged.phases().len(), 2);
        assert_eq!(merged.total(), init.total() + q.total());
    }

    #[test]
    fn round_trips_counts_dependent_batches() {
        let mut t = QueryTrace::new();
        // Init traffic never counts.
        t.record_batch(PhaseKind::Init, &fake_batch(1, 100, 40, 5));
        // One concurrent superpost batch: one round trip.
        t.record_batch(PhaseKind::Postings, &fake_batch(6, 100, 45, 5));
        // A 4-level dependent traversal: four round trips.
        t.record_sequential(
            PhaseKind::Lookup,
            4,
            4096,
            SimDuration::from_millis(160),
            SimDuration::from_millis(4),
        );
        // A straggler-trimmed concurrent batch: still one round trip.
        t.record_concurrent(
            PhaseKind::Postings,
            2,
            128,
            SimDuration::from_millis(30),
            SimDuration::from_millis(1),
        );
        // Compute is free.
        t.record_compute(SimDuration::from_millis(1));
        assert_eq!(t.round_trips(), 6);
        assert_eq!(t.round_trips_of(PhaseKind::Postings), 2);
        assert_eq!(t.round_trips_of(PhaseKind::Lookup), 4);
        assert_eq!(t.round_trips_of(PhaseKind::Init), 1, "init visible via _of");
        // Empty batches do not count as round trips.
        let mut e = QueryTrace::new();
        e.record_batch(PhaseKind::Postings, &fake_batch(0, 0, 0, 0));
        assert_eq!(e.round_trips(), 0);
    }

    #[test]
    fn merge_parallel_round_trips_take_longest_chain() {
        let mut a = QueryTrace::new();
        a.record_batch(PhaseKind::Postings, &fake_batch(2, 100, 50, 10));
        let mut b = QueryTrace::new();
        b.record_batch(PhaseKind::Postings, &fake_batch(3, 100, 70, 5));
        b.record_batch(PhaseKind::Postings, &fake_batch(3, 100, 70, 5));
        let m = QueryTrace::merge_parallel(&[a, b]);
        assert_eq!(m.round_trips(), 2, "overlapping fan-out: longest chain");
    }

    #[test]
    fn phase_kind_labels() {
        assert_eq!(PhaseKind::Lookup.label(), "lookup");
        assert_eq!(PhaseKind::Compute.label(), "compute");
    }

    #[test]
    fn merge_parallel_waits_overlap_downloads_add() {
        let mut a = QueryTrace::new();
        a.record_batch(PhaseKind::Postings, &fake_batch(2, 100, 50, 10));
        a.record_compute(SimDuration::from_millis(1));
        let mut b = QueryTrace::new();
        b.record_batch(PhaseKind::Postings, &fake_batch(3, 100, 70, 5));
        let m = QueryTrace::merge_parallel(&[a, b]);
        assert_eq!(m.wait(), SimDuration::from_millis(70), "max of waits");
        assert_eq!(
            m.download(),
            SimDuration::from_millis(15),
            "sum of downloads"
        );
        assert_eq!(m.compute(), SimDuration::from_millis(1));
        assert_eq!(m.requests(), 5);
        assert_eq!(m.bytes(), 500);
    }

    #[test]
    fn pruning_counts_survive_extend_and_merge() {
        let mut a = QueryTrace::new();
        a.record_pruning(3, 1);
        let mut b = QueryTrace::new();
        b.record_pruning(2, 4);
        let m = QueryTrace::merge_parallel(&[a.clone(), b.clone()]);
        assert_eq!((m.pruned_lookups(), m.segments_read()), (5, 5));
        a.extend(&b);
        assert_eq!((a.pruned_lookups(), a.segments_read()), (5, 5));
        assert_eq!(a.round_trips(), 0, "planner counts are not phases");
    }

    #[test]
    fn merge_parallel_empty_and_single() {
        assert_eq!(QueryTrace::merge_parallel(&[]).total(), SimDuration::ZERO);
        let mut a = QueryTrace::new();
        a.record_batch(PhaseKind::Documents, &fake_batch(1, 10, 40, 2));
        let m = QueryTrace::merge_parallel(std::slice::from_ref(&a));
        assert_eq!(m.total(), a.total());
    }
}
