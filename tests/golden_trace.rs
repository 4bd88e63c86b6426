//! Golden-trace determinism tests.
//!
//! The simulator's contract is *bit-for-bit deterministic replay*: the
//! same seed and the same inputs must produce the same sequence of
//! deliveries `(at, seq, from, to)` — across refactors, across scheduler
//! rewrites, forever. Each test below runs a consensus protocol on a
//! fixed seed and asserts the network's running trace digest against a
//! value captured from the original `BinaryHeap` scheduler. If one of
//! these fails, the event loop changed the *order* in which it delivers
//! events, which silently invalidates every seeded experiment in the
//! repo.
//!
//! The digests are a pure function of the delivery schedule (not of
//! actor state), so protocol-internal refactors that don't change what
//! gets sent when will not disturb them — but a scheduler that breaks
//! `(at, seq)` ordering, perturbs RNG draw order, or renumbers sends
//! will.
//!
//! The observability layer is held to the same contract: installing a
//! [`pbc_trace::TraceSink`] must not change any digest, because trace
//! emission makes no RNG draws and no scheduling decisions.

use pbc_consensus::minbft::{MinBftConfig, MinBftReplica};
use pbc_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use pbc_consensus::raft::{RaftConfig, RaftMsg, RaftNode, Role};
use pbc_consensus::OrderingActor;
use pbc_sim::fault::{FaultModel, LinkFault};
use pbc_sim::{Network, NetworkConfig};

/// PBFT, 4 replicas, healthy LAN: captured from the pre-timer-wheel
/// scheduler (PR 2). Pins the fault-free hot path: broadcast fan-out
/// order, latency RNG draw order, seq assignment.
const GOLDEN_PBFT_HEALTHY: u64 = 0x6fdec6a07160da08;

/// PBFT, 7 replicas, lossy + duplicating + reordering links with a
/// partition window: pins every RNG-consuming fault branch.
const GOLDEN_PBFT_FAULTS: u64 = 0x13d2bd2034d53dda;

/// Raft, 5 nodes, healthy LAN with a leader crash mid-run: pins timer
/// scheduling (election + heartbeat), crash filtering, and delivery
/// order under timer pressure.
const GOLDEN_RAFT_CRASH: u64 = 0xbebc89a9234d6213;

/// IBFT, 4 replicas, the proposer of height 0 crashed before any
/// request: pins the rotating-proposer view change and its re-proposal.
const GOLDEN_IBFT_CRASH: Pinned = Pinned {
    digest: 0x8023021cb4347f6f,
    logs: &[&[], &[700, 701, 702, 703], &[700, 701, 702, 703], &[700, 701, 702, 703]],
    counts: [12, 6, 2, 24],
};

/// MinBFT, 3 replicas, the view-0 primary crashed before any request:
/// pins the attested view change (`ReqViewChange`, attested `NewView`).
const GOLDEN_MINBFT_CRASH: Pinned = Pinned {
    digest: 0x619128dc3e0191a4,
    logs: &[&[], &[700, 701, 702, 703], &[700, 701, 702, 703]],
    counts: [8, 2, 0, 0],
};

/// `PbftConfig::hybrid(2, 1)` (6 replicas, quorum 4), the view-0 primary
/// crashed before any request: pins the hybrid view change.
const GOLDEN_HYBRID_CRASH: Pinned = Pinned {
    digest: 0xf30c0d6b0f5c18bd,
    logs: &[
        &[],
        &[700, 701, 702, 703],
        &[700, 701, 702, 703],
        &[700, 701, 702, 703],
        &[700, 701, 702, 703],
        &[700, 701, 702, 703],
    ],
    counts: [20, 5, 2, 40],
};

/// What a view-change scenario pins: the schedule digest, every
/// replica's decided payloads (a crashed replica's included), and the
/// trace counts of its protocol label as `[commits, view changes,
/// leaders elected, phases]`.
struct Pinned {
    digest: u64,
    logs: &'static [&'static [u64]],
    counts: [u64; 4],
}

/// A view-change scenario's outcome: the schedule digest, every
/// replica's decided payloads, and the most view changes one replica
/// entered.
type CrashRun = (u64, Vec<Vec<u64>>, u64);

/// Crashes node 0 (the first proposer), submits four requests to every
/// replica and runs past several progress timeouts.
fn primary_crash_run<A: OrderingActor<Payload = u64>>(
    actors: Vec<A>,
    seed: u64,
    view_changes: impl Fn(&A) -> u64,
) -> CrashRun {
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
    net.start();
    net.crash(0);
    for i in 0..4 {
        net.inject_all(0, A::request_msg(700 + i), 1 + i * 7);
    }
    net.run_until(600_000);
    let logs = net.actors().map(|a| a.log().payloads().into_iter().copied().collect()).collect();
    let most = net.actors().map(view_changes).max().unwrap_or(0);
    (net.trace_digest(), logs, most)
}

fn ibft_crash_run() -> CrashRun {
    let actors = (0..4).map(|_| PbftReplica::new(PbftConfig::ibft(4))).collect();
    primary_crash_run(actors, 0x1BF7, |r: &PbftReplica<u64>| r.view_changes)
}

fn minbft_crash_run() -> CrashRun {
    let cfg = MinBftConfig::new(3);
    let actors = (0..3).map(|i| MinBftReplica::new(cfg.clone(), i)).collect();
    primary_crash_run(actors, 0x312B, |r: &MinBftReplica<u64>| r.view_changes)
}

fn hybrid_crash_run() -> CrashRun {
    let cfg = PbftConfig::hybrid(2, 1);
    let actors = (0..cfg.n).map(|_| PbftReplica::new(cfg.clone())).collect();
    primary_crash_run(actors, 0x4B21, |r: &PbftReplica<u64>| r.view_changes)
}

/// Runs `run` under a trace sink and checks it against `golden`: a view
/// change happened, and the digest, the logs and the counts of `label`
/// are the pinned ones.
fn assert_pinned(name: &str, label: &str, run: fn() -> CrashRun, golden: &Pinned) {
    pbc_trace::install(pbc_trace::TraceSink::new(1024));
    let (digest, logs, view_changes) = run();
    let sink = pbc_trace::uninstall().expect("sink installed above");
    assert!(view_changes >= 1, "{name}: the scenario must change view");
    let m = sink.metrics().proto(label).expect("the protocol emitted events");
    let logs: Vec<&[u64]> = logs.iter().map(Vec::as_slice).collect();
    let counts = [m.commits, m.view_changes, m.leaders_elected, m.phases];
    assert_eq!(
        (digest, logs, counts),
        (golden.digest, golden.logs.to_vec(), golden.counts),
        "{name} diverged from its golden run (digest {digest:#018x})"
    );
}

fn pbft_actors(n: usize) -> Vec<PbftReplica<u64>> {
    (0..n).map(|_| PbftReplica::new(PbftConfig::new(n))).collect()
}

fn pbft_net(n: usize, seed: u64) -> Network<PbftReplica<u64>> {
    let mut net = Network::new(pbft_actors(n), NetworkConfig { seed, ..Default::default() });
    net.start();
    net
}

/// The healthy-path scenario, returning the schedule digest.
fn pbft_healthy_on(mut net: Network<PbftReplica<u64>>) -> u64 {
    for i in 0..10u64 {
        net.inject(0, 0, PbftMsg::Request(100 + i), 1 + i);
    }
    net.run_until(40_000);
    assert!(
        (0..net.len()).all(|i| net.actor(i).log.delivered().len() == 10),
        "scenario must decide all requests before the deadline"
    );
    net.trace_digest()
}

fn pbft_healthy_digest() -> u64 {
    pbft_healthy_on(pbft_net(4, 0xB117))
}

/// The faulty-links scenario, returning the digest.
fn pbft_faults_on(mut net: Network<PbftReplica<u64>>) -> u64 {
    net.set_fault_model(FaultModel::uniform(LinkFault {
        drop: 0.02,
        duplicate: 0.03,
        delay_spike: 0.05,
        spike: 700,
        reorder: 0.10,
    }));
    for i in 0..8u64 {
        net.inject(0, (i % 7) as usize, PbftMsg::Request(500 + i), 1 + i * 3);
    }
    net.run_until(30_000);
    net.partition(&[vec![0, 1, 2, 3], vec![4, 5, 6]]);
    net.run_until(60_000);
    net.heal_partition();
    net.run_until(200_000);
    let stats = net.stats();
    assert!(stats.msgs_duplicated > 0, "duplication branch must exercise");
    assert!(stats.msgs_reordered > 0, "reorder branch must exercise");
    assert!(stats.delay_spikes > 0, "delay-spike branch must exercise");
    net.trace_digest()
}

fn pbft_faults_digest() -> u64 {
    pbft_faults_on(pbft_net(7, 0x5EED_F417))
}

fn raft_actors(n: usize) -> Vec<RaftNode<u64>> {
    (0..n).map(|i| RaftNode::<u64>::new(RaftConfig::new(n), i)).collect()
}

/// The Raft leader-crash scenario, returning the digest.
fn raft_crash_on(mut net: Network<RaftNode<u64>>) -> u64 {
    let n = net.len();
    for i in 0..6u64 {
        net.inject(0, (i % n as u64) as usize, RaftMsg::Request(900 + i), 1 + i * 5);
    }
    net.run_until(60_000);
    let leader = (0..n).find(|&i| net.actor(i).role() == Role::Leader).expect("a leader by t=60k");
    net.crash(leader);
    net.run_until(200_000);
    net.recover(leader);
    net.run_until(260_000);
    assert!(
        net.stats().timers_fired > 0 && net.stats().timers_set > net.stats().timers_fired,
        "scenario must put real pressure on the timer path"
    );
    net.trace_digest()
}

fn raft_crash_digest() -> u64 {
    let mut net =
        Network::new(raft_actors(5), NetworkConfig { seed: 0xC0FFEE, ..Default::default() });
    net.start();
    raft_crash_on(net)
}

#[test]
fn pbft_healthy_trace_matches_golden() {
    let digest = pbft_healthy_digest();
    assert_eq!(
        digest, GOLDEN_PBFT_HEALTHY,
        "PBFT healthy-path delivery order diverged from the golden trace \
         (digest {digest:#018x})"
    );
}

#[test]
fn pbft_faulty_links_trace_matches_golden() {
    let digest = pbft_faults_digest();
    assert_eq!(
        digest, GOLDEN_PBFT_FAULTS,
        "PBFT faulty-link delivery order diverged from the golden trace \
         (digest {digest:#018x})"
    );
}

#[test]
fn raft_crash_trace_matches_golden() {
    let digest = raft_crash_digest();
    assert_eq!(
        digest, GOLDEN_RAFT_CRASH,
        "Raft crash-path delivery order diverged from the golden trace \
         (digest {digest:#018x})"
    );
}

#[test]
fn ibft_proposer_crash_matches_golden() {
    assert_pinned("ibft-crash", "ibft", ibft_crash_run, &GOLDEN_IBFT_CRASH);
}

#[test]
fn minbft_primary_crash_matches_golden() {
    assert_pinned("minbft-crash", "minbft", minbft_crash_run, &GOLDEN_MINBFT_CRASH);
}

#[test]
fn hybrid_primary_crash_matches_golden() {
    assert_pinned("hybrid-crash", "pbft", hybrid_crash_run, &GOLDEN_HYBRID_CRASH);
}

/// The digest itself is reproducible: two identical runs fold to the
/// same value, and a different seed folds to a different one.
#[test]
fn trace_digest_is_seed_sensitive() {
    let run = |seed| {
        let mut net = pbft_net(4, seed);
        net.inject(0, 0, PbftMsg::Request(1), 1);
        net.run_until(20_000);
        net.trace_digest()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

/// The storage layer is passive too: running the healthy PBFT golden
/// scenario with every replica wired to a real (fault-injecting)
/// `pbc-store` — checkpoints, WAL appends, and fsyncs included — must
/// reproduce the golden digest bit-for-bit. Disk I/O happens strictly
/// between simulation events and draws nothing from the network RNG; a
/// regression here means persistence started leaking into the schedule,
/// which would silently fork durable experiments from their seeds.
#[test]
fn durable_store_does_not_perturb_golden_schedule() {
    use pbc_consensus::{DurableNet, OrderingCluster, OverNetwork};
    let actors: Vec<PbftReplica<u64>> =
        (0..4).map(|_| PbftReplica::new(PbftConfig::new(4))).collect();
    let stores = (0..4u64)
        .map(|i| {
            let vfs = pbc_store::FaultFs::new(0xB117 ^ (i * 0x9E37));
            let (store, _) =
                pbc_store::NodeStore::open(Box::new(vfs), pbc_store::StoreConfig::default())
                    .expect("fresh store opens clean");
            store
        })
        .collect();
    let mut c =
        DurableNet::new(actors, NetworkConfig { seed: 0xB117, ..Default::default() }, stores);
    for i in 0..10u64 {
        c.network_mut().inject(0, 0, PbftMsg::Request(100 + i), 1 + i);
    }
    c.network_mut().run_until(40_000);
    assert!(
        c.network().actors().all(|r| r.log.delivered().len() == 10),
        "scenario must decide all requests before the deadline"
    );
    c.persist(); // disk writes after the run don't touch the digest either
    let digest = c.network().trace_digest();
    assert_eq!(
        digest, GOLDEN_PBFT_HEALTHY,
        "wiring replicas to real stores changed the delivery schedule \
         (digest {digest:#018x})"
    );
    for node in 0..4 {
        let cold = c.cold_decided(node).expect("durable cluster cold-reads");
        assert_eq!(cold.len(), 10, "node {node}: all decided blocks hit the disk");
    }
}

/// Observability is passive: running every golden scenario with a trace
/// sink installed produces the exact same schedule digests as running
/// without one. A regression here means some emission site started
/// drawing RNG, reordering sends, or otherwise leaking into the
/// simulation — exactly the failure mode that would silently corrupt
/// seeded experiments whenever someone turns metrics on.
#[test]
fn trace_sink_does_not_perturb_golden_schedules() {
    type Scenario = (&'static str, fn() -> u64, u64);
    let scenarios: [Scenario; 6] = [
        ("pbft-healthy", pbft_healthy_digest, GOLDEN_PBFT_HEALTHY),
        ("pbft-faults", pbft_faults_digest, GOLDEN_PBFT_FAULTS),
        ("raft-crash", raft_crash_digest, GOLDEN_RAFT_CRASH),
        ("ibft-crash", || ibft_crash_run().0, GOLDEN_IBFT_CRASH.digest),
        ("minbft-crash", || minbft_crash_run().0, GOLDEN_MINBFT_CRASH.digest),
        ("hybrid-crash", || hybrid_crash_run().0, GOLDEN_HYBRID_CRASH.digest),
    ];
    for (name, run, golden) in scenarios {
        pbc_trace::install(pbc_trace::TraceSink::new(1024));
        let with_sink = run();
        let sink = pbc_trace::uninstall().expect("sink installed above");
        assert!(sink.total() > 0, "{name}: the sink must actually observe events");
        assert_eq!(
            with_sink, golden,
            "{name}: installing a trace sink changed the delivery schedule \
             (digest {with_sink:#018x})"
        );
    }
}
