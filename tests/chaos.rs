//! Nemesis chaos suite: every consensus protocol is driven through
//! seeded, randomized fault timelines — partitions, crash-stop,
//! crash-recovery with amnesia, link-level loss/duplication/reordering —
//! with safety invariants (pairwise agreement, no history rewrite)
//! checked after every step, and the quorum guard making eventual
//! progress a valid expectation.
//!
//! Any failure here reproduces exactly from its seed: the schedule is a
//! pure function of `(n, NemesisConfig)` and the simulator replays the
//! same event order for the same network seed.

use pbc_consensus::hotstuff::{HotStuffConfig, HotStuffReplica};
use pbc_consensus::minbft::{MinBftConfig, MinBftMsg, MinBftReplica};
use pbc_consensus::paxos::{PaxosConfig, PaxosNode};
use pbc_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use pbc_consensus::raft::{RaftConfig, RaftMsg, RaftNode, VolatileRaft};
use pbc_consensus::tendermint::{TendermintConfig, TendermintNode};
use pbc_consensus::{DurableNet, OrderingActor, OrderingCluster, Payload};
use pbc_sim::{
    violation_report, Adversary, Attack, Durable, InvariantChecker, Nemesis, NemesisConfig,
    NemesisOp, Network, NetworkConfig, Violation,
};

/// Nemesis seeds every protocol is exercised with.
const SEEDS: [u64; 3] = [11, 23, 47];

/// Trace window embedded in post-mortem dumps. Wide enough to reach past
/// steady-state heartbeat noise back to the decision/crash events that
/// actually explain a violation (the checker observes every ~500k ticks,
/// so a few thousand network events can pile up after the fatal commit).
const POSTMORTEM_WINDOW: usize = 4096;

/// Writes the violation post-mortem (the last trace events leading up to
/// the failure) to `target/postmortems/` and panics with both the
/// violation and the dump path — the file is the debugging artifact a
/// failed chaos run leaves behind.
fn postmortem_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortems");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn dump_and_panic(what: &str, seed: u64, v: &Violation) -> ! {
    let report = violation_report(v, POSTMORTEM_WINDOW);
    let path = postmortem_dir().join(format!("chaos-{what}-seed{seed}.txt"));
    std::fs::write(&path, &report).expect("write post-mortem dump");
    panic!("chaos seed {seed} {what}: {v}\npost-mortem dump: {}", path.display());
}

/// Simulated time between nemesis ops: generous multiples of every
/// protocol's progress timeout so view changes / elections can complete
/// inside one window.
const OP_GAP: u64 = 400_000;

/// Runs replicas built by `make` through one seeded nemesis timeline per
/// seed in [`SEEDS`], amnesia crashes included, checking agreement and
/// rewrite invariants after every op, then asserts at least one slot
/// decided by the end (liveness under the quorum guard).
fn chaos_run<A: OrderingActor<Payload = u64> + Durable>(make: impl Fn() -> Vec<A>) {
    let submit = |net: &mut Network<A>, p: u64| {
        for i in 0..net.len() {
            net.inject(0, i, A::request_msg(p), 1);
        }
    };
    let views = |net: &Network<A>| log_views(net.actors().map(|a| a.log()));
    for seed in SEEDS {
        let actors = make();
        let n = actors.len();
        // A bounded trace ring: if an invariant trips, the dump shows what
        // the network did in the run-up.
        pbc_trace::install(pbc_trace::TraceSink::new(4096));
        let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
        net.start();
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        net.run_until(600_000);
        let mut checker = InvariantChecker::new(n);
        checker.observe(&views(&net)).expect("pre-chaos safety");

        let nemesis = Nemesis::generate(n, &NemesisConfig::new(seed).with_steps(12).with_amnesia());
        nemesis
            .drive(&mut net, OP_GAP, &mut checker, &views)
            .unwrap_or_else(|v| dump_and_panic("violated-safety", seed, &v));

        // The schedule ended fully healed: new requests must still decide.
        for p in 6..=7u64 {
            submit(&mut net, p);
        }
        net.run_until(net.now() + 4_000_000);
        checker.observe(&views(&net)).expect("post-chaos safety");
        checker.check_progress(1).unwrap_or_else(|v| dump_and_panic("stalled", seed, &v));
        pbc_trace::uninstall();
    }
}

/// `(seq, digest)` views straight from a replica's decided log.
fn log_views<'a, I, P: Payload + 'a>(logs: I) -> Vec<Vec<(u64, u64)>>
where
    I: Iterator<Item = &'a pbc_consensus::DecidedLog<P>>,
{
    logs.map(|log| log.delivered().iter().map(|(s, p, _)| (*s, p.digest_u64())).collect()).collect()
}

#[test]
fn chaos_pbft() {
    let cfg = PbftConfig::new(4);
    chaos_run(|| (0..4).map(|_| PbftReplica::<u64>::new(cfg.clone())).collect());
}

#[test]
fn chaos_ibft() {
    let cfg = PbftConfig::ibft(4);
    chaos_run(|| (0..4).map(|_| PbftReplica::<u64>::new(cfg.clone())).collect());
}

#[test]
fn chaos_raft() {
    let cfg = RaftConfig::new(5);
    chaos_run(|| (0..5).map(|i| RaftNode::<u64>::new(cfg.clone(), i)).collect());
}

#[test]
fn chaos_minbft() {
    let cfg = MinBftConfig::new(3);
    chaos_run(|| (0..3).map(|i| MinBftReplica::<u64>::new(cfg.clone(), i)).collect());
}

#[test]
fn chaos_hotstuff() {
    let cfg = HotStuffConfig::new(4);
    chaos_run(|| (0..4).map(|_| HotStuffReplica::<u64>::new(cfg.clone())).collect());
}

#[test]
fn chaos_tendermint() {
    let cfg = TendermintConfig::equal(4);
    chaos_run(|| (0..4).map(|_| TendermintNode::<u64>::new(cfg.clone())).collect());
}

#[test]
fn chaos_paxos() {
    let cfg = PaxosConfig::new(3);
    chaos_run(|| (0..3).map(|i| PaxosNode::<u64>::new(cfg.clone(), i)).collect());
}

// ---------------------------------------------------------------------
// Crash-recovery with amnesia: durability is load-bearing.
// ---------------------------------------------------------------------

/// Drives the amnesia scenario: elect, commit payload 1 everywhere,
/// crash the leader plus one follower with memory loss, restart them,
/// submit payload 2, and report the first safety violation (if any).
fn raft_amnesia_scenario<A>(
    mut net: Network<A>,
    views: impl Fn(&Network<A>) -> Vec<Vec<(u64, u64)>>,
    is_leader: impl Fn(&A) -> bool,
    log_len: impl Fn(&A) -> usize,
    submit: impl Fn(&mut Network<A>, u64),
) -> Result<(), Violation>
where
    A: Durable,
{
    net.start();
    net.run_until(300_000);
    let leader = (0..net.len()).find(|&i| is_leader(net.actor(i))).expect("initial leader");
    submit(&mut net, 1);
    assert!(net.run_until_all(5_000_000, |a| log_len(a) >= 1), "payload 1 must commit");

    let mut checker = InvariantChecker::new(net.len());
    checker.observe(&views(&net))?;

    // A majority (leader + one follower) loses its memory.
    let follower = (0..net.len()).find(|&i| i != leader).unwrap();
    net.crash_and_lose_memory(leader);
    net.crash_and_lose_memory(follower);
    net.restart(leader);
    net.restart(follower);

    submit(&mut net, 2);
    // Observe repeatedly while the cluster re-elects and commits.
    for _ in 0..20 {
        net.run_until(net.now() + 500_000);
        checker.observe(&views(&net))?;
    }
    // Converged without violation: the surviving entry must still be
    // everyone's slot 0.
    checker.check_progress(1)?;
    Ok(())
}

#[test]
fn volatile_raft_amnesia_violates_safety() {
    // The deliberately non-durable variant: a majority crashing with
    // amnesia re-elects with empty logs and re-decides slot 0
    // differently — the checker must catch the rewrite/divergence.
    let mut violations = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        pbc_trace::install(pbc_trace::TraceSink::new(4096));
        let cfg = RaftConfig::new(3);
        let actors = (0..3).map(|i| VolatileRaft::<u64>::new(cfg.clone(), i)).collect();
        let net: Network<VolatileRaft<u64>> =
            Network::new(actors, NetworkConfig { seed, ..Default::default() });
        let result = raft_amnesia_scenario(
            net,
            |net| log_views(net.actors().map(|a| &a.0.log)),
            |a| a.0.role() == pbc_consensus::raft::Role::Leader,
            |a| a.0.log.len(),
            |net, p| {
                for i in 0..net.len() {
                    net.inject(0, i, RaftMsg::Request(p), 1);
                }
            },
        );
        if let Err(v) = result {
            assert!(
                matches!(v, Violation::Rewrite { .. } | Violation::Disagreement { .. }),
                "expected a safety violation, got {v}"
            );
            // This violation is *expected* — the dump it leaves behind is
            // the worked post-mortem example in EXPERIMENTS.md (E13).
            let report = violation_report(&v, POSTMORTEM_WINDOW);
            assert!(report.contains("post-mortem"), "report must embed the trace window");
            let path = postmortem_dir().join(format!("volatile-raft-amnesia-seed{seed}.txt"));
            std::fs::write(&path, &report).expect("write post-mortem dump");
            assert!(path.exists(), "violation must leave a dump file behind");
            violations += 1;
        }
        pbc_trace::uninstall();
    }
    assert!(
        violations > 0,
        "losing un-persisted Raft state must violate safety in at least one run"
    );
}

#[test]
fn durable_raft_amnesia_preserves_safety() {
    // Same scenario, real persistence: no seed may produce a violation.
    for seed in [1u64, 2, 3, 4, 5] {
        let cfg = RaftConfig::new(3);
        let actors = (0..3).map(|i| RaftNode::<u64>::new(cfg.clone(), i)).collect();
        let net: Network<RaftNode<u64>> =
            Network::new(actors, NetworkConfig { seed, ..Default::default() });
        raft_amnesia_scenario(
            net,
            |net| log_views(net.actors().map(|a| &a.log)),
            |a| a.role() == pbc_consensus::raft::Role::Leader,
            |a| a.log.len(),
            |net, p| {
                for i in 0..net.len() {
                    net.inject(0, i, RaftMsg::Request(p), 1);
                }
            },
        )
        .unwrap_or_else(|v| panic!("durable raft violated safety at seed {seed}: {v}"));
    }
}

#[test]
fn durable_pbft_survives_amnesia_crash() {
    let cfg = PbftConfig::new(4);
    let actors = (0..4).map(|_| PbftReplica::<u64>::new(cfg.clone())).collect();
    let mut net: Network<PbftReplica<u64>> =
        Network::new(actors, NetworkConfig { seed: 13, ..Default::default() });
    for i in 0..4 {
        net.inject(0, i, PbftMsg::Request(1), 1);
    }
    net.run_to_quiescence(1_000_000);
    assert!(net.actor(2).log.len() == 1);
    net.crash_and_lose_memory(2);
    assert_eq!(net.actor(2).log.len(), 1, "decision persisted through the crash");
    net.restart(2);
    for i in 0..4 {
        net.inject(0, i, PbftMsg::Request(2), 1);
    }
    net.run_to_quiescence(2_000_000);
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert_eq!(reference, vec![1, 2]);
    let restored: Vec<u64> = net.actor(2).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert_eq!(restored, reference, "restored replica stays consistent");
}

#[test]
fn durable_minbft_usig_counter_never_rewinds() {
    let cfg = MinBftConfig::new(3);
    let actors = (0..3).map(|i| MinBftReplica::<u64>::new(cfg.clone(), i)).collect();
    let mut net: Network<MinBftReplica<u64>> =
        Network::new(actors, NetworkConfig { seed: 14, ..Default::default() });
    for i in 0..3 {
        net.inject(0, i, MinBftMsg::Request(1), 1);
    }
    net.run_to_quiescence(1_000_000);
    assert_eq!(net.actor(0).log.len(), 1);
    // Crash the primary with amnesia; its trusted counter must survive.
    net.crash_and_lose_memory(0);
    net.restart(0);
    for i in 0..3 {
        net.inject(0, i, MinBftMsg::Request(2), 1);
    }
    net.run_to_quiescence(3_000_000);
    // The recovered primary proposes with fresh counters; replicas
    // accept, and nobody ever sees a reused counter (which verify_fresh
    // would reject, stalling the slot).
    let reference: Vec<u64> = net.actor(1).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert!(reference.contains(&2), "post-recovery proposal must decide: {reference:?}");
    for i in [0usize, 2] {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i}");
    }
}

// ---------------------------------------------------------------------
// Disk faults against real (simulated) stores: torn writes, bit rot,
// crash-during-recovery. RAM checkpoints above survive because the
// simulator hands them back; here every byte round-trips through a
// pbc-store WAL + segment store over a fault-injecting filesystem.
// ---------------------------------------------------------------------

/// One fault-injecting store per node, deterministically seeded.
fn fault_stores(n: usize, seed: u64) -> Vec<pbc_store::NodeStore> {
    (0..n)
        .map(|i| {
            let vfs = pbc_store::FaultFs::new(seed ^ (i as u64 * 0x9E37));
            let (store, _) =
                pbc_store::NodeStore::open(Box::new(vfs), pbc_store::StoreConfig::default())
                    .expect("fresh store opens clean");
            store
        })
        .collect()
}

fn raft_durable_net(
    n: usize,
    seed: u64,
    cfg_store: pbc_store::StoreConfig,
) -> DurableNet<RaftNode<u64>> {
    let cfg = RaftConfig::new(n);
    let actors = (0..n).map(|i| RaftNode::<u64>::new(cfg.clone(), i)).collect();
    let stores = (0..n)
        .map(|i| {
            let vfs = pbc_store::FaultFs::new(seed ^ (i as u64 * 0x9E37));
            let (store, _) = pbc_store::NodeStore::open(Box::new(vfs), cfg_store)
                .expect("fresh store opens clean");
            store
        })
        .collect();
    DurableNet::new(actors, NetworkConfig { seed, ..Default::default() }, stores)
}

/// The torn-write acceptance scenario: a WAL write torn mid-record
/// between a total crash and the restart. Staged recovery must truncate
/// the torn tail, fall back cleanly (checkpoint gone, segment blocks
/// intact), and the cluster must converge with a green cold audit.
///
/// This test is deliberately load-bearing on
/// `StoreConfig::truncate_torn_tail`: with truncation deleted, `reopen`
/// refuses the torn WAL outright, no staged recovery happens, and the
/// `wal_torn_tail` / `blocks` assertions below fail (see the companion
/// test for that configuration).
#[test]
fn torn_wal_write_recovers_and_cold_audit_stays_green() {
    let mut c = raft_durable_net(3, 0x70A1, pbc_store::StoreConfig::default());
    for p in 1..=3u64 {
        c.submit(p);
    }
    assert!(c.run_until_decided(3, 20_000_000), "pre-fault decisions");
    let reference: Vec<(u64, u64)> = c.decided(0).iter().map(|(s, p, _)| (*s, *p)).collect();

    // Total crash flushes a checkpoint + the decided blocks, then the
    // WAL tail is torn before the node comes back.
    c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 1 });
    c.apply_nemesis(&NemesisOp::CorruptWalTail { node: 1 });
    c.apply_nemesis(&NemesisOp::Restart { node: 1 });

    let rec = c
        .recoveries()
        .iter()
        .rev()
        .find(|(n, _)| *n == 1)
        .map(|(_, r)| r)
        .expect("restart must stage a disk recovery");
    assert!(rec.wal_torn_tail, "the schedule must actually tear the WAL tail");
    assert!(
        rec.checkpoint.is_none(),
        "the only checkpoint record was the torn one — recovery must not invent it"
    );
    assert_eq!(rec.blocks.len(), 3, "segment blocks are untouched by a torn WAL");

    // The node booted with a blank consensus state but its block store
    // intact; the leader re-teaches it and the cluster converges.
    assert!(c.run_until_decided(3, 20_000_000), "post-recovery convergence");
    let recovered: Vec<(u64, u64)> = c.decided(1).iter().map(|(s, p, _)| (*s, *p)).collect();
    assert_eq!(recovered, reference, "no rewrite through the torn-write crash");

    // Cold audit: reopen every store from disk and check what actually
    // survived against the decided history.
    c.persist();
    for node in 0..3 {
        let cold = c.cold_decided(node).expect("durable cluster cold-reads");
        assert_eq!(cold, reference, "node {node}: cold ledger matches decided history");
    }
}

/// The same torn-write schedule with torn-tail truncation *disabled*:
/// recovery must refuse the WAL (fail-stop on ambiguous bytes), the
/// node boots blank instead of staging a recovery, and cold reads stay
/// impossible until an operator intervenes. Documents exactly what the
/// truncation stage buys.
#[test]
fn torn_wal_without_truncation_is_fail_stop() {
    let cfg_store = pbc_store::StoreConfig { truncate_torn_tail: false, ..Default::default() };
    let mut c = raft_durable_net(3, 0x70A1, cfg_store);
    for p in 1..=3u64 {
        c.submit(p);
    }
    assert!(c.run_until_decided(3, 20_000_000));
    let reference: Vec<(u64, u64)> = c.decided(0).iter().map(|(s, p, _)| (*s, *p)).collect();

    c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 1 });
    c.apply_nemesis(&NemesisOp::CorruptWalTail { node: 1 });
    c.apply_nemesis(&NemesisOp::Restart { node: 1 });

    assert!(
        !c.recoveries().iter().any(|(n, _)| *n == 1),
        "without truncation the torn WAL is unrecoverable — no staged recovery"
    );
    assert_eq!(c.cold_decided(1), None, "cold reads refuse the torn WAL too");
    // Fresh boot, not a halt: the blank node is re-taught by the leader
    // and the cluster still converges — durability degraded to safety.
    assert!(c.run_until_decided(3, 20_000_000), "blank reboot must not stall the cluster");
    let recovered: Vec<(u64, u64)> = c.decided(1).iter().map(|(s, p, _)| (*s, *p)).collect();
    assert_eq!(recovered, reference);
}

/// Crash-during-recovery: the node loses power again immediately after
/// its staged replay, before processing a single message, with the WAL
/// tail torn a second time in between. Staged recovery is idempotent —
/// the second pass must land in the same state as the first.
#[test]
fn double_fault_crash_again_mid_replay() {
    let mut c = raft_durable_net(3, 0xD0B1, pbc_store::StoreConfig::default());
    for p in 1..=3u64 {
        c.submit(p);
    }
    assert!(c.run_until_decided(3, 20_000_000));
    let reference: Vec<(u64, u64)> = c.decided(0).iter().map(|(s, p, _)| (*s, *p)).collect();

    c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
    c.apply_nemesis(&NemesisOp::CorruptWalTail { node: 2 });
    c.apply_nemesis(&NemesisOp::Restart { node: 2 });
    // ...and the power fails again before the replica does anything.
    c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
    c.apply_nemesis(&NemesisOp::CorruptWalTail { node: 2 });
    c.apply_nemesis(&NemesisOp::Restart { node: 2 });

    let recoveries: Vec<_> = c.recoveries().iter().filter(|(n, _)| *n == 2).collect();
    assert_eq!(recoveries.len(), 2, "both restarts staged a recovery");

    assert!(c.run_until_decided(3, 20_000_000), "double-fault convergence");
    let recovered: Vec<(u64, u64)> = c.decided(2).iter().map(|(s, p, _)| (*s, *p)).collect();
    assert_eq!(recovered, reference, "no rewrite through two crash/recover cycles");
    c.persist();
    let cold = c.cold_decided(2).expect("cold read after double fault");
    assert_eq!(cold, reference);
}

/// A seeded storm of every disk fault — failed fsyncs, bit rot on cold
/// segments, torn WAL tails — interleaved with total crashes, across
/// multiple seeds. Safety must hold throughout and the cold ledger must
/// never contradict the decided history.
#[test]
fn disk_fault_storm_never_rewrites_history() {
    for seed in SEEDS {
        let mut c = raft_durable_net(3, seed, pbc_store::StoreConfig::default());
        for p in 1..=3u64 {
            c.submit(p);
        }
        assert!(c.run_until_decided(3, 20_000_000), "seed {seed}: pre-storm decisions");
        let reference: Vec<(u64, u64)> = c.decided(0).iter().map(|(s, p, _)| (*s, *p)).collect();
        c.persist();

        let storm = [
            NemesisOp::FailSyncs { node: 1, count: 4 },
            NemesisOp::BitRot { node: 2 },
            NemesisOp::CrashAmnesia { node: 1 },
            NemesisOp::CorruptWalTail { node: 1 },
            NemesisOp::Restart { node: 1 },
            NemesisOp::BitRot { node: 1 },
            NemesisOp::CrashAmnesia { node: 2 },
            NemesisOp::Restart { node: 2 },
        ];
        let mut checker = InvariantChecker::new(3);
        let views = |c: &DurableNet<RaftNode<u64>>| -> Vec<Vec<(u64, u64)>> {
            (0..3)
                .map(|i| c.decided(i).iter().map(|(s, p, _)| (*s, p.digest_u64())).collect())
                .collect()
        };
        checker.observe(&views(&c)).expect("pre-storm safety");
        for op in &storm {
            c.apply_nemesis(op);
            checker
                .observe(&views(&c))
                .unwrap_or_else(|v| panic!("seed {seed}: disk storm violated safety: {v}"));
        }
        c.submit(4);
        assert!(c.run_until_decided(4, 30_000_000), "seed {seed}: post-storm liveness");
        checker.observe(&views(&c)).expect("post-storm safety");

        // Cold audit: whatever survived the storm on disk must be a
        // subset of the decided history, never a contradiction.
        c.persist();
        let hot: std::collections::HashMap<u64, u64> = c
            .decided(0)
            .iter()
            .map(|(s, p, _)| (*s, *p))
            .chain(reference.iter().cloned())
            .collect();
        for node in 0..3 {
            if let Some(cold) = c.cold_decided(node) {
                for (seq, payload) in cold {
                    assert_eq!(
                        hot.get(&seq),
                        Some(&payload),
                        "seed {seed}: node {node} disk holds a block the cluster never decided"
                    );
                }
            }
        }
    }
}

/// The shrinker against `VolatileRaft` *with a healthy disk attached*:
/// the store faithfully persists the empty state the broken protocol
/// hands it, so the amnesia violation still reproduces, and ddmin must
/// strip all the disk-fault noise (which is harmless to a node that
/// persists nothing) down to the same crash-a-majority kernel.
#[test]
fn shrinker_strips_disk_noise_from_volatile_raft_on_disk() {
    fn violation(seed: u64, ops: &[NemesisOp]) -> Option<Violation> {
        let cfg = RaftConfig::new(3);
        let actors: Vec<VolatileRaft<u64>> =
            (0..3).map(|i| VolatileRaft::new(cfg.clone(), i)).collect();
        let mut c = DurableNet::new(
            actors,
            NetworkConfig { seed, ..Default::default() },
            fault_stores(3, seed),
        );
        let views = |c: &DurableNet<VolatileRaft<u64>>| -> Vec<Vec<(u64, u64)>> {
            (0..3)
                .map(|i| c.decided(i).iter().map(|(s, p, _)| (*s, p.digest_u64())).collect())
                .collect()
        };
        while c.now() < 300_000 && c.step() {}
        c.submit(1);
        if !c.run_until_decided(1, 5_000_000) {
            return None;
        }
        let mut checker = InvariantChecker::new(3);
        if let Err(v) = checker.observe(&views(&c)) {
            return Some(v);
        }
        for op in ops {
            c.apply_nemesis(op);
            if let Err(v) = checker.observe(&views(&c)) {
                return Some(v);
            }
        }
        c.submit(2);
        for _ in 0..8 {
            let deadline = c.now() + 500_000;
            while c.now() < deadline && c.step() {}
            if let Err(v) = checker.observe(&views(&c)) {
                return Some(v);
            }
        }
        None
    }

    // The amnesia kernel buried in disk-fault noise.
    let kernel = [
        NemesisOp::CrashAmnesia { node: 0 },
        NemesisOp::CrashAmnesia { node: 1 },
        NemesisOp::Restart { node: 0 },
        NemesisOp::Restart { node: 1 },
    ];
    let noise = [
        NemesisOp::FailSyncs { node: 2, count: 3 },
        NemesisOp::BitRot { node: 2 },
        NemesisOp::CorruptWalTail { node: 0 },
        NemesisOp::BitRot { node: 0 },
        NemesisOp::FailSyncs { node: 1, count: 2 },
        NemesisOp::BitRot { node: 1 },
    ];
    let mut padded = Vec::new();
    let mut noise_iter = noise.iter().cloned();
    for k in kernel {
        padded.extend(noise_iter.by_ref().take(1));
        padded.push(k);
    }
    padded.extend(noise_iter);
    assert_eq!(padded.len(), 10);

    // The violation needs the initial leader inside the amnesiac
    // majority {0, 1}; pick the first seed where the padded schedule
    // reproduces (deterministic given the code).
    let seed = (1..32u64)
        .find(|&s| violation(s, &padded).is_some())
        .expect("some seed must elect the initial leader inside {0, 1}");

    let out = pbc_audit::shrink_schedule(&padded, |s| violation(seed, s))
        .expect("padded schedule violates at the chosen seed");
    assert!(
        !out.minimized.iter().any(|op| matches!(
            op,
            NemesisOp::FailSyncs { .. }
                | NemesisOp::CorruptWalTail { .. }
                | NemesisOp::BitRot { .. }
        )),
        "disk faults are noise to a node that persists nothing; ddmin must strip them: {:?}",
        out.minimized
    );
    let amnesia_crashes =
        out.minimized.iter().filter(|op| matches!(op, NemesisOp::CrashAmnesia { .. })).count();
    assert_eq!(amnesia_crashes, 2, "the kernel is still losing a majority's memory");
    assert!(out.minimized.len() <= 4, "kernel is at most the 4-op amnesia sequence");
}

// ---------------------------------------------------------------------
// Byzantine adversary wrapper over an unmodified protocol.
// ---------------------------------------------------------------------

#[test]
fn pbft_equivocating_adversary_cannot_split_honest_replicas() {
    // Node 0 (primary of view 0) is wrapped in the generic Adversary
    // with the Equivocate attack: its PrePrepare for payload 7 reaches
    // half the cluster forked to payload 8 (via Payload::forked). The
    // protocol code is completely unchanged.
    let cfg = PbftConfig::new(4);
    let actors: Vec<Adversary<PbftReplica<u64>>> = (0..4)
        .map(|i| {
            let replica = PbftReplica::new(cfg.clone());
            if i == 0 {
                Adversary::new(replica, vec![Attack::Equivocate])
            } else {
                Adversary::honest(replica)
            }
        })
        .collect();
    let mut net = Network::new(actors, NetworkConfig { seed: 15, ..Default::default() });
    for i in 0..4 {
        net.inject(0, i, PbftMsg::Request(7), 1);
    }
    net.run_to_quiescence(10_000_000);
    // Neither fork gathers a 2f+1 quorum; the view change elects an
    // honest primary which re-proposes the real request. All honest
    // replicas decide the same single log containing 7 and no fork.
    let mut logs = Vec::new();
    for i in 1..4 {
        let log: Vec<u64> =
            net.actor(i).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert!(!log.contains(&8), "node {i} decided the forked payload: {log:?}");
        assert!(log.contains(&7), "node {i} must decide the honest request: {log:?}");
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    assert!(net.actor(1).inner().view() >= 1, "equivocation must force a view change");
}

#[test]
fn pbft_mute_leader_adversary_recovers_via_view_change() {
    // A mute primary (receives but never sends) is indistinguishable
    // from a slow one; the progress timer must route around it.
    let cfg = PbftConfig::new(4);
    let actors: Vec<Adversary<PbftReplica<u64>>> = (0..4)
        .map(|i| {
            let replica = PbftReplica::new(cfg.clone());
            if i == 0 {
                Adversary::new(replica, vec![Attack::Mute])
            } else {
                Adversary::honest(replica)
            }
        })
        .collect();
    let mut net = Network::new(actors, NetworkConfig { seed: 16, ..Default::default() });
    for i in 0..4 {
        net.inject(0, i, PbftMsg::Request(9), 1);
    }
    net.run_to_quiescence(10_000_000);
    for i in 1..4 {
        let log: Vec<u64> =
            net.actor(i).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![9], "node {i} must decide despite the mute primary");
        assert!(net.actor(i).inner().view() >= 1, "node {i} must have changed view");
    }
}

#[test]
fn raft_delaying_adversary_only_slows_the_cluster() {
    // A Delay adversary on one follower is just asymmetric latency:
    // safety and liveness must hold, merely later.
    let cfg = RaftConfig::new(3);
    let actors: Vec<Adversary<RaftNode<u64>>> = (0..3)
        .map(|i| {
            let node = RaftNode::new(cfg.clone(), i);
            if i == 2 {
                Adversary::new(node, vec![Attack::Delay(5_000)])
            } else {
                Adversary::honest(node)
            }
        })
        .collect();
    let mut net = Network::new(actors, NetworkConfig { seed: 17, ..Default::default() });
    net.start();
    net.run_until(400_000);
    for p in 1..=3u64 {
        for i in 0..3 {
            net.inject(0, i, RaftMsg::Request(p), 1);
        }
    }
    let ok = net.run_until_all(10_000_000, |a| a.inner().log.len() >= 3);
    assert!(ok, "delayed follower must not block commitment");
    let reference: Vec<u64> =
        net.actor(0).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 1..3 {
        let log: Vec<u64> =
            net.actor(i).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i}");
    }
}

#[test]
fn minbft_replay_adversary_is_harmless() {
    // The USIG freshness check was built exactly for this: a backup
    // that replays old attested prepares and commits changes nothing.
    let cfg = MinBftConfig::new(3);
    let actors: Vec<Adversary<MinBftReplica<u64>>> = (0..3)
        .map(|i| {
            let replica = MinBftReplica::new(cfg.clone(), i);
            if i == 2 {
                Adversary::new(replica, vec![Attack::Replay])
            } else {
                Adversary::honest(replica)
            }
        })
        .collect();
    let mut net = Network::new(actors, NetworkConfig { seed: 18, ..Default::default() });
    for p in 1..=5u64 {
        for i in 0..3 {
            net.inject(0, i, MinBftMsg::Request(p), 1);
        }
    }
    net.run_to_quiescence(5_000_000);
    let reference: Vec<u64> =
        net.actor(0).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert_eq!(reference.len(), 5, "all requests decide despite replays");
    for i in 1..3 {
        let log: Vec<u64> =
            net.actor(i).inner().log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i}");
    }
}

#[test]
fn shrinker_reduces_amnesia_schedule_to_minimal_kernel() {
    // The full loop the auditor crate exists for: a seeded chaos
    // schedule that violates VolatileRaft safety is delta-debugged down
    // to a 1-minimal kernel, and the kernel ships as a self-contained
    // replay artifact next to the post-mortem dumps.
    use pbc_audit::harness::{
        padded_amnesia_schedule, volatile_raft_violation, NODES, PINNED_SEED,
    };

    let padded = padded_amnesia_schedule(7);
    assert!(padded.len() >= 10, "regression input must bury the kernel in noise");
    let out = pbc_audit::shrink_schedule(&padded, |s| volatile_raft_violation(PINNED_SEED, s))
        .expect("padded amnesia schedule must violate safety");

    assert!(
        out.minimized.len() <= 10,
        "shrinker left {} ops, expected a kernel of at most 10",
        out.minimized.len()
    );
    let amnesia_crashes = out
        .minimized
        .iter()
        .filter(|op| matches!(op, pbc_sim::NemesisOp::CrashAmnesia { .. }))
        .count();
    assert_eq!(amnesia_crashes, 2, "the kernel is losing a majority's memory");

    // 1-minimality: dropping any single remaining op kills the repro.
    for i in 0..out.minimized.len() {
        let mut fewer = out.minimized.clone();
        fewer.remove(i);
        assert!(
            volatile_raft_violation(PINNED_SEED, &fewer).is_none(),
            "op {i} of the minimized schedule is redundant"
        );
    }

    // Replay the kernel once more under tracing and write the artifact.
    pbc_trace::install(pbc_trace::TraceSink::new(POSTMORTEM_WINDOW));
    let v = volatile_raft_violation(PINNED_SEED, &out.minimized)
        .expect("minimized schedule must still reproduce the violation");
    let report = violation_report(&v, POSTMORTEM_WINDOW);
    pbc_trace::uninstall();
    let artifact =
        pbc_audit::ReplayArtifact::from_shrink("volatile-raft-amnesia", PINNED_SEED, NODES, &out)
            .with_postmortem(report);
    let path = artifact.write_to(&postmortem_dir()).expect("write replay artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact back");
    assert!(text.contains("crash-amnesia"), "artifact lists the kernel ops");
    assert!(text.contains("post-mortem"), "artifact embeds the trace window");
}
