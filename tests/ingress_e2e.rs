//! End-to-end client-path tests: golden determinism of seeded ingress
//! runs and queue conservation under chaos.
//!
//! The conservation identity under test everywhere:
//! `admitted = committed + aborted + expired + in_flight`.

use pbc_core::ingress_queue::{IngressQueue, LoadGen, LoadProfile, QueueConfig, WorkloadSource};
use pbc_core::{
    ArchKind, BlockchainNetwork, ConsensusKind, IngressConfig, IngressReport, NetworkBuilder,
};
use pbc_workload::PaymentWorkload;

fn workload() -> PaymentWorkload {
    PaymentWorkload { accounts: 64, theta: 0.5, ..Default::default() }
}

fn chain(consensus: ConsensusKind, arch: ArchKind, seed: u64) -> BlockchainNetwork {
    NetworkBuilder::new(consensus.min_nodes())
        .consensus(consensus)
        .architecture(arch)
        .initial_state(workload().initial_state())
        .batch_size(8)
        .seed(seed)
        .build()
}

fn open_load(seed: u64, mean_gap: u64) -> LoadGen {
    LoadGen::new(WorkloadSource::payments(workload()), LoadProfile::Open { mean_gap }, seed)
}

fn small_cfg() -> IngressConfig {
    IngressConfig { horizon: 200_000, ..Default::default() }
}

fn run_open() -> (IngressReport, u64, Option<pbc_crypto::Hash>) {
    let mut net = chain(ConsensusKind::Pbft, ArchKind::Ox, 7);
    let mut load = open_load(7, 1_500);
    let mut queue = IngressQueue::new(QueueConfig { capacity: 256, ttl: 150_000 });
    let report = net.run_ingress(&mut load, &mut queue, &small_cfg());
    let head = Some(net.node_ledger(0).head_hash());
    (report, net.trace_digest(), head)
}

#[test]
fn open_loop_seeded_run_is_bit_for_bit_deterministic() {
    let (r1, d1, h1) = run_open();
    let (r2, d2, h2) = run_open();
    assert!(r1.queue.committed > 0, "run committed nothing: {:?}", r1.queue);
    assert!(r1.consensus_complete);
    assert_eq!(d1, d2, "trace digests differ between identical seeded runs");
    assert_eq!(h1, h2, "ledger heads differ between identical seeded runs");
    assert_eq!(r1.queue, r2.queue, "queue counters differ");
    assert_eq!(r1.elapsed, r2.elapsed);
    assert_eq!(r1.p50_latency, r2.p50_latency);
    assert_eq!(r1.p99_latency, r2.p99_latency);
}

#[test]
fn open_loop_conserves_and_stamps_latency() {
    let (report, _, _) = run_open();
    assert!(report.conserves(), "identity broken: {:?}", report.queue);
    assert_eq!(report.in_flight_at_end, 0, "drain left work in flight");
    assert!(report.mean_latency > 0.0);
    assert!(report.p99_latency >= report.p50_latency);
    assert!(report.committed_tps > 0.0);
}

#[test]
fn closed_loop_self_throttles_and_conserves() {
    let mut net = chain(ConsensusKind::HotStuff, ArchKind::Oxii, 11);
    let mut load = LoadGen::new(
        WorkloadSource::payments(workload()),
        LoadProfile::Closed { clients: 16, think: 4_000 },
        11,
    );
    let mut queue = IngressQueue::new(QueueConfig { capacity: 64, ttl: 200_000 });
    let report = net.run_ingress(&mut load, &mut queue, &small_cfg());
    assert!(report.queue.committed > 0, "{:?}", report.queue);
    assert!(report.conserves(), "identity broken: {:?}", report.queue);
    // A closed loop never floods the queue past its population.
    assert_eq!(report.queue.rejected_full, 0, "16 clients cannot overflow capacity 64");
    assert!(!report.diverged);
}

#[test]
fn overload_sheds_with_backpressure_and_ttl() {
    // Offered rate far beyond capacity: a tiny queue with a short TTL
    // must shed load via Full rejections and expiries while keeping
    // the books balanced.
    let mut net = chain(ConsensusKind::Pbft, ArchKind::Ox, 3);
    let mut load = open_load(3, 8); // ~125k tx/s offered
    let mut queue = IngressQueue::new(QueueConfig { capacity: 24, ttl: 6_000 });
    let cfg = IngressConfig { horizon: 120_000, max_inflight_batches: 2, ..Default::default() };
    let report = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(report.conserves(), "identity broken: {:?}", report.queue);
    assert!(
        report.queue.rejected_full > 0 || report.queue.expired > 0,
        "overload produced no shedding: {:?}",
        report.queue
    );
    assert!(report.queue.committed > 0);
    assert!(
        report.queue.committed < report.queue.offered,
        "a saturated system cannot commit every offer"
    );
}

#[test]
fn chaos_crash_and_recover_keeps_identity() {
    // One replica crashes between ingress waves and later rejoins:
    // PBFT n=4 keeps deciding, the queue books stay balanced at every
    // boundary, and nothing commits twice.
    let mut net = chain(ConsensusKind::Pbft, ArchKind::Ox, 19);
    let mut load = open_load(19, 2_000);
    let mut queue = IngressQueue::new(QueueConfig { capacity: 256, ttl: 150_000 });
    let cfg = IngressConfig { horizon: 120_000, ..Default::default() };

    let r1 = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(r1.conserves(), "wave 1: {:?}", r1.queue);

    net.crash(2);
    let r2 = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(r2.conserves(), "wave 2 (crashed): {:?}", r2.queue);
    assert!(r2.queue.committed > r1.queue.committed, "f=1 crash must not stop commits");

    net.restart(2);
    let r3 = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(r3.conserves(), "wave 3 (recovered): {:?}", r3.queue);
    assert!(!r3.diverged, "recovered replica forked");
    // Cumulative counters are monotone and every commit is unique:
    // committed never exceeds admitted.
    let s = r3.queue;
    assert!(s.committed + s.aborted + s.expired <= s.admitted);
}

#[test]
fn dead_majority_stalls_but_books_stay_balanced() {
    // With 2 of 4 replicas down PBFT cannot decide; admitted work ends
    // the run in flight (or expired) — never silently lost.
    let mut net = chain(ConsensusKind::Pbft, ArchKind::Ox, 23);
    let mut load = open_load(23, 3_000);
    let mut queue = IngressQueue::new(QueueConfig { capacity: 64, ttl: 80_000 });
    net.crash(2);
    net.crash(3);
    let cfg = IngressConfig { horizon: 60_000, drain_events: 200_000, ..Default::default() };
    let report = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(!report.consensus_complete, "a dead majority cannot complete");
    assert_eq!(report.queue.committed, 0);
    assert!(report.conserves(), "identity broken under stall: {:?}", report.queue);
    assert!(report.in_flight_at_end > 0 || report.queue.expired > 0);
}
