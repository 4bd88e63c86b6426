//! `sweep --real`: the deployment-mode cross-check and timing snapshot.
//!
//! Boots a 4-node cluster of the registry's actual replicas on
//! localhost TCP (`pbc-net`), replays the same workload through the
//! deterministic simulator, and — **before any timing is reported** —
//! asserts that the two backends agree on everything consensus
//! determines: committed batch sequence, payload digests, seal
//! proposers, and (via seal replay) the resulting ledger head. A run
//! that fails the cross-check panics; the timings of a wrong cluster
//! are not data.
//!
//! Timings come second and are honest about what they are: wall-clock
//! numbers from one machine's loopback, useful for spotting
//! regressions in the runtime itself, not for cross-host comparison.
//! After the cross-check, a closed-loop pass on a fresh cluster (one
//! client, one batch outstanding) times each batch from `submit` to
//! `wait_decided(0, k)`: `first_batch_ms` is batch 0, which also pays
//! the client's four handshakes, `client_p50_ms`/`client_p99_ms` are
//! over the `latency_samples` batches after it.
//! Writes `BENCH_REAL.json` (schema `pbc-real-v2`). `REAL_SMOKE=1`
//! shrinks the batch counts for CI while keeping every assertion.

use pbc_core::{sealed_head, ArchKind, Batch, ConsensusKind, NetworkBuilder};
use pbc_net::NetRunner;
use pbc_sim::LatencyModel;
use pbc_types::Transaction;
use pbc_workload::PaymentWorkload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const BATCH: usize = 32;
const WAIT: Duration = Duration::from_secs(120);

fn batches(txs: &[Transaction]) -> Vec<Batch> {
    txs.chunks(BATCH).enumerate().map(|(id, chunk)| Batch::new(id as u64, chunk.to_vec())).collect()
}

struct ProtoRow {
    proto: &'static str,
    batches: usize,
    txs: usize,
    secs: f64,
    batches_per_sec: f64,
    txs_per_sec: f64,
    frames_sent: u64,
    bytes_sent: u64,
    reconnects: u64,
    handshakes_rejected: u64,
    latency: ClientLatency,
}

/// What one closed-loop client saw, submit to decision at node 0.
struct ClientLatency {
    first_batch_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
}

/// The timing pass: a fresh cluster, one batch outstanding. The wait on
/// every replica between batches is outside the timed interval; it is
/// what keeps a rotating proposer to one candidate per height.
fn client_latency(proto: &'static str, seed: u64, n_batches: usize) -> ClientLatency {
    let workload = PaymentWorkload { accounts: 128, seed, ..Default::default() };
    let txs = workload.generate(0, n_batches * BATCH);
    let mut cluster =
        pbc_core::consensus::run_real::<Batch, _>(proto, 4, NetRunner::with_seed(seed))
            .unwrap_or_else(|| panic!("{proto} is not wire-capable"))
            .expect("localhost cluster boots");
    let mut ms = Vec::with_capacity(n_batches);
    for (k, batch) in batches(&txs).into_iter().enumerate() {
        let t = Instant::now();
        cluster.submit(batch);
        assert!(cluster.wait_decided(0, k + 1, WAIT), "{proto}: node 0 stalled at batch {k}");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(cluster.wait_all_decided(k + 1, WAIT), "{proto}: a replica stalled at batch {k}");
    }
    let ids = |node| cluster.decided(node).iter().map(|(_, b, _)| b.id).collect::<Vec<_>>();
    let reference = ids(0);
    assert_eq!(reference.len(), n_batches, "{proto}: one decision per batch");
    for node in 1..4 {
        assert_eq!(ids(node), reference, "{proto}: replica {node} ordered differently");
    }
    assert_eq!(cluster.stats().decode_errors, 0, "{proto}: healthy run must decode every frame");

    let first_batch_ms = ms.remove(0);
    ms.sort_by(f64::total_cmp);
    let at = |p: f64| ms[((ms.len() - 1) as f64 * p) as usize];
    ClientLatency { first_batch_ms, p50_ms: at(0.50), p99_ms: at(0.99), samples: ms.len() }
}

/// How the benchmark's client submits work.
///
/// With a fixed primary (PBFT) the slot a batch lands in is decided by
/// arrival order at one node over one FIFO connection, so an open-loop
/// client (fire everything, wait at the end) is deterministic and
/// exercises pipelined slots. Under per-height rotation (IBFT) a
/// proposer facing *several* queued requests picks by pending-map
/// order, so which batch lands in which slot depends on how many
/// requests have arrived — environment, not consensus. The honest
/// deterministic cross-check there is a closed-loop client: one batch
/// in flight, each height has exactly one candidate on both backends.
#[derive(Clone, Copy, PartialEq)]
enum ClientMode {
    OpenLoop,
    ClosedLoop,
}

fn run_proto(
    kind: ConsensusKind,
    mode: ClientMode,
    seed: u64,
    n_batches: usize,
    latency_batches: usize,
) -> ProtoRow {
    let proto = kind.registry_name();
    let workload = PaymentWorkload { accounts: 128, seed, ..Default::default() };
    let txs = workload.generate(0, n_batches * BATCH);

    // Reference run: the simulator fixes what "correct" means. Jitter
    // is off because request *arrival order* is environment, not
    // consensus: TCP clients deliver requests FIFO per connection, so
    // the matching simulated environment is deterministic delivery.
    let mut sim = NetworkBuilder::new(4)
        .consensus(kind)
        .architecture(ArchKind::Ox)
        .initial_state(workload.initial_state())
        .latency(LatencyModel::Uniform { base: 100, jitter: 0 })
        .batch_size(BATCH)
        .seed(seed)
        .build();
    let mut sim_head = None;
    match mode {
        ClientMode::OpenLoop => {
            sim.submit_all(txs.clone());
            let report = sim.run_to_completion();
            assert!(report.consensus_complete, "{proto}: simulator run must decide every batch");
            sim_head = report.head;
        }
        ClientMode::ClosedLoop => {
            for chunk in txs.chunks(BATCH) {
                sim.submit_all(chunk.to_vec());
                let report = sim.run_to_completion();
                assert!(report.consensus_complete, "{proto}: simulator batch did not decide");
                sim_head = report.head;
            }
        }
    }
    let sim_rows = sim.commit_rows().expect("sim cluster alive");
    assert_eq!(sim_rows.len(), n_batches, "{proto}: simulator committed a partial sweep");
    let sim_head = sim_head.expect("sim head");

    // Deployment run: same actors, real sockets.
    let mut cluster =
        pbc_core::consensus::run_real::<Batch, _>(proto, 4, NetRunner::with_seed(seed))
            .unwrap_or_else(|| panic!("{proto} is not wire-capable"))
            .expect("localhost cluster boots");
    let t0 = Instant::now();
    for (k, batch) in batches(&txs).into_iter().enumerate() {
        cluster.submit(batch);
        if mode == ClientMode::ClosedLoop {
            assert!(
                cluster.wait_all_decided(k + 1, WAIT),
                "{proto}: TCP cluster stalled at batch {k}"
            );
        }
    }
    assert!(
        cluster.wait_all_decided(n_batches, WAIT),
        "{proto}: TCP cluster stalled; decided lens {:?}",
        (0..4).map(|i| cluster.decided(i).len()).collect::<Vec<_>>()
    );
    let secs = t0.elapsed().as_secs_f64();

    // The cross-check gates the timings: every replica's committed
    // sequence must equal the simulator's, and replaying that sequence
    // with the simulator's seals must reproduce the simulator's head.
    for node in 0..4 {
        let decided = cluster.decided(node);
        let rows = pbc_core::commit_rows(proto, 4, &decided[..n_batches]);
        assert_eq!(rows, sim_rows, "{proto}: TCP replica {node} diverged from the simulator");
    }
    let seals: HashMap<u64, _> = sim.seals().into_iter().collect();
    let decided = cluster.decided(0);
    let blocks: Vec<_> =
        decided[..n_batches].iter().map(|(seq, batch, _)| (batch.clone(), seals[seq])).collect();
    let replayed = sealed_head(ArchKind::Ox, workload.initial_state(), &blocks);
    assert_eq!(replayed, sim_head, "{proto}: TCP commit order does not reproduce the sim head");

    let stats = cluster.stats();
    assert_eq!(stats.decode_errors, 0, "{proto}: healthy run must decode every frame");
    cluster.shutdown();
    ProtoRow {
        proto,
        batches: n_batches,
        txs: txs.len(),
        secs,
        batches_per_sec: n_batches as f64 / secs,
        txs_per_sec: txs.len() as f64 / secs,
        frames_sent: stats.frames_sent,
        bytes_sent: stats.bytes_sent,
        reconnects: stats.reconnects,
        handshakes_rejected: stats.handshakes_rejected,
        latency: client_latency(proto, seed, latency_batches),
    }
}

/// Runs the sim-vs-TCP cross-check and writes `BENCH_REAL.json`.
/// `REAL_SMOKE=1` shrinks the batch budget for CI.
pub fn real_bench(out_path: &str) {
    let smoke = std::env::var("REAL_SMOKE").is_ok_and(|v| v == "1");
    let n_batches = if smoke { 4 } else { 12 };
    // Enough batches past the first for ten samples beyond the 99th
    // percentile; the smoke run keeps the assertions, not the percentile.
    let latency_batches = if smoke { 9 } else { 1025 };
    crate::header(
        "REAL: deployment mode cross-check (4-node localhost TCP vs simulator)",
        "the same ordering actors commit the same batch sequence over real \
         sockets as under simulation (§2.3.3 Discussion)",
    );

    let mut rows = Vec::new();
    let runs = [
        (ConsensusKind::Pbft, ClientMode::OpenLoop),
        (ConsensusKind::Ibft, ClientMode::ClosedLoop),
    ];
    for (kind, mode) in runs {
        let seed = 0x4EA1 ^ kind.registry_name().len() as u64;
        let row = run_proto(kind, mode, seed, n_batches, latency_batches);
        println!(
            "{:>5}: {} batches ({} txs) over TCP in {:.3}s  {:>7.1} batches/s {:>9.0} txs/s  \
             frames={} bytes={} reconnects={} rejected={}  [sequence == sim, head == sim]\n       \
             closed loop, submit -> decided at node 0: first batch {:.3} ms, then p50 {:.3} ms \
             p99 {:.3} ms over {} batches",
            row.proto,
            row.batches,
            row.txs,
            row.secs,
            row.batches_per_sec,
            row.txs_per_sec,
            row.frames_sent,
            row.bytes_sent,
            row.reconnects,
            row.handshakes_rejected,
            row.latency.first_batch_ms,
            row.latency.p50_ms,
            row.latency.p99_ms,
            row.latency.samples,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"proto\": \"{}\", \"batches\": {}, \"txs\": {}, \"secs\": {:.6}, \
                 \"batches_per_sec\": {:.2}, \"txs_per_sec\": {:.0}, \"frames_sent\": {}, \
                 \"bytes_sent\": {}, \"reconnects\": {}, \"handshakes_rejected\": {}, \
                 \"sequence_matches_sim\": true, \"head_matches_sim\": true, \
                 \"first_batch_ms\": {:.3}, \"client_p50_ms\": {:.3}, \"client_p99_ms\": {:.3}, \
                 \"latency_samples\": {}}}",
                r.proto,
                r.batches,
                r.txs,
                r.secs,
                r.batches_per_sec,
                r.txs_per_sec,
                r.frames_sent,
                r.bytes_sent,
                r.reconnects,
                r.handshakes_rejected,
                r.latency.first_batch_ms,
                r.latency.p50_ms,
                r.latency.p99_ms,
                r.latency.samples,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"pbc-real-v2\",\n  \"smoke\": {},\n  \"nodes\": 4,\n  \
         \"batch_size\": {BATCH},\n  \"note\": \"timings are wall-clock loopback; the \
         cross-check fields are the data\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        smoke,
        body.join(",\n")
    );
    std::fs::write(out_path, json).expect("write real bench json");
    println!("wrote {out_path}");
}
