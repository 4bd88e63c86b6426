//! Attribution by staged replay: the decided history of an end-to-end
//! epoch is pushed through each layer on its own, from outside, and the
//! stage times are compared with the end-to-end time.

use crate::driver::{open_stores, Epoch, History};
use crate::span::Recorder;
use crate::spec::{After, SimSpec, MAX_INFLIGHT_BATCHES, QUEUE_CAPACITY};
use pbc_arch::{BlockOutcome, ExecutionPipeline};
use pbc_consensus::{cluster_with, durable_cluster_with, OrderingCluster};
use pbc_core::ingress_queue::{IngressQueue, QueueConfig};
use pbc_core::{ArchKind, Batch};
use pbc_sim::{NetworkConfig, SimTime};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Event budget for one replayed batch. A healthy PBFT n=32 batch takes
/// about 2 100 events; exhausting this means the replay stalled.
const BATCH_EVENTS: u64 = 1_000_000;

/// What the order stage saw.
#[derive(Default)]
pub struct OrderReplay {
    pub span: usize,
    pub persist_ns: u64,
    pub persist_calls: u64,
    pub events: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub timers_fired: u64,
    /// Submit to decision on the reference node, ticks, per batch.
    pub decide_latency: Vec<SimTime>,
    /// Host time between consecutive decisions, ns.
    pub per_batch_ns: Vec<u64>,
}

/// Where the between-slice actions of the end-to-end epoch fall in the
/// decided sequence: `(batches decided so far, action)`.
pub fn marks(spec: &SimSpec, epoch: &Epoch) -> Vec<(usize, After)> {
    epoch
        .slice_batches
        .iter()
        .zip(&spec.slices)
        .filter(|(_, s)| s.1 != After::Nothing)
        .map(|(&b, s)| (b, s.1))
        .collect()
}

/// Re-orders exactly `hist.batches` on a fresh cluster, window
/// `MAX_INFLIGHT_BATCHES`, repeating persist/crash at the same places.
/// Submissions are paced to the original decision times so timers that
/// fire on simulated time (heartbeats) fire about as often as they did,
/// and none runs ahead of the next mark: `run_ingress` drains its window
/// before a slice ends, so the action meets no batch in flight.
#[allow(clippy::too_many_arguments)]
pub fn order(
    protocol: &str,
    n: usize,
    seed: u64,
    durable_root: Option<&Path>,
    marks: &[(usize, After)],
    hist: &History,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> OrderReplay {
    let cfg = NetworkConfig { seed, ..Default::default() };
    let mut cluster: Box<dyn OrderingCluster<Batch>> = match durable_root {
        Some(root) => durable_cluster_with(protocol, n, cfg, open_stores(root, n)),
        None => cluster_with(protocol, n, cfg, &[]),
    }
    .expect("a registered protocol");
    let seal_time: HashMap<u64, SimTime> = hist.seals.iter().map(|(s, b)| (*s, b.time)).collect();
    let total = hist.batches.len();
    let mut out = OrderReplay::default();
    let mut submit_time: Vec<SimTime> = Vec::with_capacity(total);
    let mut unloaded: SimTime = 0;
    let mut submitted = 0;
    let mut reference = 0;

    let open = rec.open("stage.order", parent);
    let mut last = Instant::now();
    for k in 0..total {
        let next_mark = marks.iter().map(|m| m.0).find(|&m| m > k).unwrap_or(total);
        while submitted < next_mark.min(total) && submitted < k + MAX_INFLIGHT_BATCHES {
            let (seq, batch) = &hist.batches[submitted];
            let due = seal_time[seq].saturating_sub(unloaded);
            if due > cluster.now() {
                cluster.run_until_time(due);
            }
            submit_time.push(cluster.now());
            cluster.submit(batch.clone());
            submitted += 1;
        }
        assert!(
            cluster.run_until_decided(k + 1, BATCH_EVENTS),
            "order replay stalled at batch {k}"
        );
        out.per_batch_ns.push(last.elapsed().as_nanos() as u64);
        let decided_at = cluster.decided(reference)[k].2;
        out.decide_latency.push(decided_at.saturating_sub(submit_time[k]));
        if k == 0 {
            unloaded = out.decide_latency[0];
        }
        for &(_, action) in marks.iter().filter(|m| m.0 == k + 1) {
            match action {
                After::Persist => {
                    let (_, span) =
                        rec.time("stage.persist", Some(open.index()), 1, || cluster.persist());
                    out.persist_ns += rec.ns(span);
                    out.persist_calls += 1;
                }
                After::CrashPrimary => {
                    cluster.crash(0);
                    reference = 1;
                }
                After::Nothing => {}
            }
        }
        last = Instant::now();
    }
    let s = cluster.stats();
    out.events = s.msgs_delivered + s.timers_fired;
    out.msgs = s.msgs_sent;
    out.bytes = s.bytes_sent;
    out.timers_fired = s.timers_fired;
    out.span = rec.close(open, total as u64);
    out
}

/// What the execute stage saw on the reference pipeline.
#[derive(Default)]
pub struct ExecuteReplay {
    pub span: usize,
    /// Transactions processed, summed over pipelines.
    pub tx_node: u64,
    pub outcome: BlockOutcome,
    pub blocks: u64,
}

/// Replays the decided blocks with their seals through `n` fresh
/// pipelines (one stops at a crash mark, as its node did) and checks
/// that the replayed head equals the end-to-end head.
pub fn execute(
    arch: ArchKind,
    n: usize,
    marks: &[(usize, After)],
    hist: &History,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> ExecuteReplay {
    let mut pipes: Vec<Box<dyn ExecutionPipeline>> =
        (0..n).map(|_| arch.make_pipeline(hist.genesis.clone())).collect();
    let seal_of: HashMap<u64, _> = hist.seals.iter().copied().collect();
    let crash_at = marks.iter().find(|m| m.1 == After::CrashPrimary).map(|m| m.0);
    let mut out = ExecuteReplay::default();
    let mut first_alive = 0;
    let open = rec.open("stage.execute", parent);
    for (k, (seq, batch)) in hist.batches.iter().enumerate() {
        if crash_at == Some(k) {
            first_alive = 1;
        }
        for (i, pipe) in pipes.iter_mut().enumerate().skip(first_alive) {
            let o = pipe.process_block_sealed(batch.txs.clone(), seal_of[seq]);
            out.tx_node += batch.txs.len() as u64;
            if i == first_alive {
                out.outcome.committed.extend(o.committed);
                out.outcome.aborted.extend(o.aborted);
                out.outcome.reexecuted.extend(o.reexecuted);
                out.outcome.mispredicted.extend(o.mispredicted);
                out.outcome.out_of_gas.extend(o.out_of_gas);
                out.outcome.sequential_steps += o.sequential_steps;
            }
        }
        out.blocks += 1;
    }
    out.span = rec.close(open, out.tx_node);
    assert_eq!(
        pipes[first_alive].ledger().head_hash(),
        hist.head,
        "replayed head differs from the end-to-end head"
    );
    out
}

/// The same arrivals through the queue alone: generate, offer, drain
/// into batches, resolve. Returns the span; its count is the offers.
pub fn ingress(
    spec: &SimSpec,
    seed: u64,
    offers: usize,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> usize {
    let (mut load, _) = spec.load_gen(seed);
    let mut queue =
        IngressQueue::new(QueueConfig { capacity: QUEUE_CAPACITY, ttl: spec.horizon() / 2 });
    let open = rec.open("stage.ingress", parent);
    let mut now = 0;
    for _ in 0..offers {
        load.peek(SimTime::MAX).expect("an open-loop generator never runs dry");
        let (at, tx) = load.pop();
        now = at;
        queue.offer(tx, at);
        while queue.depth() >= spec.batch {
            for tx in queue.drain(spec.batch, at) {
                queue.resolve_committed(tx.id, at);
            }
        }
    }
    for tx in queue.drain(usize::MAX, now) {
        queue.resolve_committed(tx.id, now);
    }
    assert!(queue.check_conservation(), "ingress replay broke the queue identity");
    rec.close(open, offers as u64)
}
