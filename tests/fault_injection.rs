//! Fault-injection tests: partitions and message loss against the
//! consensus substrate (§2.2's asynchronous, unreliable network).

use pbc_consensus::hotstuff::{HotStuffConfig, HotStuffReplica, HsMsg};
use pbc_consensus::minbft::{MinBftConfig, MinBftMsg, MinBftReplica};
use pbc_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use pbc_consensus::raft::{RaftConfig, RaftMsg, RaftNode, Role};
use pbc_consensus::tendermint::{TendermintConfig, TendermintNode, TmMsg};
use pbc_sim::{LatencyModel, Network, NetworkConfig};

fn pbft_cluster(n: usize, seed: u64) -> Network<PbftReplica<u64>> {
    let cfg = PbftConfig::new(n);
    let actors = (0..n).map(|_| PbftReplica::new(cfg.clone())).collect();
    Network::new(actors, NetworkConfig { seed, ..Default::default() })
}

fn raft_cluster(n: usize, seed: u64, drop_rate: f64) -> Network<RaftNode<u64>> {
    let cfg = RaftConfig::new(n);
    let actors = (0..n).map(|i| RaftNode::new(cfg.clone(), i)).collect();
    let mut net =
        Network::new(actors, NetworkConfig { seed, drop_rate, latency: LatencyModel::lan() });
    net.start();
    net
}

fn submit_pbft(net: &mut Network<PbftReplica<u64>>, p: u64) {
    for i in 0..net.len() {
        net.inject(0, i, PbftMsg::Request(p), 1);
    }
}

fn submit_raft(net: &mut Network<RaftNode<u64>>, p: u64) {
    for i in 0..net.len() {
        net.inject(0, i, RaftMsg::Request(p), 1);
    }
}

#[test]
fn pbft_minority_partition_cannot_decide() {
    let mut net = pbft_cluster(4, 1);
    // Node 0 (the primary) is cut off; {1,2,3} has a 2f+1 quorum.
    net.partition(&[vec![0], vec![1, 2, 3]]);
    submit_pbft(&mut net, 7);
    net.run_to_quiescence(3_000_000);
    // The majority side view-changed away from the unreachable primary
    // and decided; the isolated node decided nothing.
    assert_eq!(net.actor(0).log.len(), 0, "isolated node must not decide");
    for i in 1..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![7], "majority node {i}");
        assert!(net.actor(i).view() >= 1, "majority must have changed view");
    }
}

#[test]
fn pbft_split_brain_is_impossible() {
    // Split 4 nodes 2-2: neither side holds a quorum of 3, so *nothing*
    // decides — the classic safety argument, observed.
    let mut net = pbft_cluster(4, 2);
    net.partition(&[vec![0, 1], vec![2, 3]]);
    submit_pbft(&mut net, 9);
    net.run_until(2_000_000); // bounded: view-change timers fire forever
    for i in 0..4 {
        assert_eq!(net.actor(i).log.len(), 0, "node {i} decided in a split brain");
    }
}

#[test]
fn pbft_survives_moderate_message_loss() {
    // 2% loss: three-phase exchanges occasionally break; view changes
    // re-propose until everything decides.
    let cfg = PbftConfig::new(4);
    let actors = (0..4).map(|_| PbftReplica::new(cfg.clone())).collect();
    let mut net: Network<PbftReplica<u64>> =
        Network::new(actors, NetworkConfig { seed: 3, drop_rate: 0.02, ..Default::default() });
    for p in 1..=5u64 {
        submit_pbft(&mut net, p);
    }
    let ok = net.run_until_all(5_000_000, |r| r.log.len() >= 5);
    assert!(ok, "all replicas must eventually deliver all 5 requests");
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 1..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i} diverged under loss");
    }
}

/// Every pair of crashed replicas at n = 7 (f = 2; a pair may name one
/// replica twice) under 40 seeds: the survivors decide all three
/// requests and agree on their order.
#[test]
fn pbft_survives_every_crash_pair() {
    for seed in 0..40u64 {
        for ca in 0..7 {
            for cb in 0..7 {
                let mut net = pbft_cluster(7, seed);
                net.crash(ca);
                net.crash(cb);
                for p in [5u64, 9, 13] {
                    submit_pbft(&mut net, p);
                }
                assert!(
                    net.run_until_all(3_000_000, |r| r.log.len() >= 3),
                    "liveness: seed={seed} crashes=({ca},{cb})"
                );
                let alive: Vec<usize> = (0..7).filter(|&i| !net.is_crashed(i)).collect();
                let log = |i: usize| -> Vec<u64> {
                    net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect()
                };
                for &i in &alive[1..] {
                    assert_eq!(
                        log(i),
                        log(alive[0]),
                        "agreement: seed={seed} crashes=({ca},{cb}) node {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn raft_partitioned_leader_steps_down_and_cluster_heals() {
    let mut net = raft_cluster(5, 4, 0.0);
    net.run_until(200_000);
    let old_leader = (0..5).find(|&i| net.actor(i).role() == Role::Leader).expect("leader");
    submit_raft(&mut net, 1);
    let ok = net.run_until_all(5_000_000, |n| !n.log.is_empty());
    assert!(ok);

    // Cut the leader (with one follower) away from the majority.
    let minority_peer = (0..5).find(|&i| i != old_leader).unwrap();
    let majority: Vec<usize> = (0..5).filter(|&i| i != old_leader && i != minority_peer).collect();
    net.partition(&[vec![old_leader, minority_peer], majority.clone()]);
    submit_raft(&mut net, 2);
    // Majority elects a new leader and commits request 2.
    let deadline = net.now() + 10_000_000;
    loop {
        let done = majority.iter().all(|&i| net.actor(i).log.len() >= 2);
        if done || net.now() > deadline || !net.step() {
            break;
        }
    }
    for &i in &majority {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![1, 2], "majority node {i}");
    }
    // The stale leader never committed request 2 on its side.
    assert!(net.actor(old_leader).log.len() <= 1);

    // Heal: heartbeats from the new leader force the old one to step
    // down and replicate the missed entry (Raft's log repair).
    net.heal_partition();
    let ok = net.run_until_all(8_000_000, |n| n.log.len() >= 2);
    assert!(ok, "all nodes must converge after healing");
    let reference: Vec<u64> =
        net.actor(majority[0]).log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 0..5 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i} after heal");
    }
    assert_ne!(net.actor(old_leader).role(), Role::Leader, "stale leader stepped down");
}

#[test]
fn raft_commits_through_lossy_links() {
    // 5% loss: heartbeat retransmission and next_index backtracking
    // repair everything.
    let mut net = raft_cluster(3, 5, 0.05);
    net.run_until(300_000);
    for p in 1..=10u64 {
        submit_raft(&mut net, p);
    }
    let ok = net.run_until_all(8_000_000, |n| n.log.len() >= 10);
    assert!(ok, "raft must push all 10 entries through a lossy network");
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert_eq!(reference.len(), 10);
    for i in 1..3 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i}");
    }
}

#[test]
fn pbft_no_conflicting_decisions_across_partition_cycle() {
    // Partition, let each side try, heal, continue. At no point may two
    // nodes decide different payloads for the same sequence number.
    let mut net = pbft_cluster(4, 6);
    submit_pbft(&mut net, 1);
    net.run_to_quiescence(5_000_000);
    net.partition(&[vec![0, 1], vec![2, 3]]);
    submit_pbft(&mut net, 2);
    net.run_until(net.now() + 1_000_000);
    net.heal_partition();
    submit_pbft(&mut net, 3);
    net.run_to_quiescence(5_000_000);
    // Collect per-seq decisions across nodes; they must never conflict.
    let mut by_seq: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for i in 0..4 {
        for (seq, payload, _) in net.actor(i).log.delivered() {
            if let Some(existing) = by_seq.insert(*seq, *payload) {
                assert_eq!(existing, *payload, "conflicting decision at seq {seq}");
            }
        }
    }
    // And request 1 decided everywhere before the partition.
    for i in 0..4 {
        assert!(!net.actor(i).log.is_empty(), "node {i}");
    }
}

// ---------------------------------------------------------------------
// The same adversarial conditions against the remaining BFT/CFT family.
// ---------------------------------------------------------------------

fn hotstuff_cluster(n: usize, seed: u64, drop_rate: f64) -> Network<HotStuffReplica<u64>> {
    let cfg = HotStuffConfig::new(n);
    let actors = (0..n).map(|_| HotStuffReplica::new(cfg.clone())).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, drop_rate, ..Default::default() });
    net.start();
    net
}

fn tendermint_cluster(n: usize, seed: u64, drop_rate: f64) -> Network<TendermintNode<u64>> {
    let cfg = TendermintConfig::equal(n);
    let actors = (0..n).map(|_| TendermintNode::new(cfg.clone())).collect();
    Network::new(actors, NetworkConfig { seed, drop_rate, ..Default::default() })
}

fn minbft_cluster(n: usize, seed: u64, drop_rate: f64) -> Network<MinBftReplica<u64>> {
    let cfg = MinBftConfig::new(n);
    let actors = (0..n).map(|i| MinBftReplica::new(cfg.clone(), i)).collect();
    Network::new(actors, NetworkConfig { seed, drop_rate, ..Default::default() })
}

#[test]
fn hotstuff_isolated_replica_cannot_decide_majority_continues() {
    let mut net = hotstuff_cluster(4, 21, 0.0);
    net.partition(&[vec![0], vec![1, 2, 3]]);
    for i in 0..4 {
        net.inject(0, i, HsMsg::Request(5), 1);
    }
    net.run_until(5_000_000);
    assert_eq!(net.actor(0).log.len(), 0, "isolated replica must not decide");
    // {1,2,3} is exactly the 2f+1 quorum; views led by node 0 time out
    // and the chain forms across the live leaders.
    for i in 1..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![5], "majority node {i}");
    }
    // After healing, the quorum keeps deciding. The straggler missed
    // block 5's proposal, so it refuses to commit descendants of the
    // gap (committing them would mis-number its log): it stays behind,
    // but its log remains a strict prefix — never a divergent history.
    net.heal_partition();
    for i in 0..4 {
        net.inject(0, i, HsMsg::Request(6), 1);
    }
    let deadline = net.now() + 10_000_000;
    while net.now() < deadline {
        if (1..4).all(|i| net.actor(i).log.len() >= 2) || !net.step() {
            break;
        }
    }
    let reference: Vec<u64> = net.actor(1).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert_eq!(reference, vec![5, 6], "quorum decides past the heal");
    let straggler: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    assert!(
        reference.starts_with(&straggler),
        "straggler log {straggler:?} must be a prefix of {reference:?}"
    );
}

#[test]
fn hotstuff_survives_moderate_message_loss() {
    let mut net = hotstuff_cluster(4, 22, 0.02);
    for p in 1..=5u64 {
        for i in 0..4 {
            net.inject(0, i, HsMsg::Request(p), 1);
        }
    }
    let ok = net.run_until_all(20_000_000, |r| r.log.len() >= 5);
    assert!(ok, "all replicas must deliver all 5 requests under 2% loss");
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 1..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i} diverged under loss");
    }
}

#[test]
fn tendermint_split_vote_partition_is_safe() {
    // 2-2 split: neither side has >2/3 voting power, nothing decides.
    let mut net = tendermint_cluster(4, 23, 0.0);
    net.partition(&[vec![0, 1], vec![2, 3]]);
    for i in 0..4 {
        net.inject(0, i, TmMsg::Request(9), 1);
    }
    net.run_until(3_000_000); // bounded: round timers fire forever
    for i in 0..4 {
        assert_eq!(net.actor(i).log.len(), 0, "node {i} decided in a split vote");
    }
    // Heal: rounds converge and the request decides everywhere.
    net.heal_partition();
    let ok = net.run_until_all(20_000_000, |v| !v.log.is_empty());
    assert!(ok, "healed cluster must decide");
    for i in 0..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![9], "node {i}");
    }
}

#[test]
fn tendermint_survives_moderate_message_loss() {
    let mut net = tendermint_cluster(4, 24, 0.02);
    for p in 1..=5u64 {
        for i in 0..4 {
            net.inject(0, i, TmMsg::Request(p), 1);
        }
    }
    let ok = net.run_until_all(20_000_000, |v| v.log.len() >= 5);
    assert!(ok, "all validators must deliver all 5 requests under 2% loss");
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 1..4 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i} diverged under loss");
    }
}

#[test]
fn minbft_isolated_primary_is_replaced() {
    // n=3 tolerates f=1 with a commit quorum of just f+1=2 (the A2M
    // advantage): the two live backups view-change and keep deciding.
    let mut net = minbft_cluster(3, 25, 0.0);
    net.partition(&[vec![0], vec![1, 2]]);
    for i in 0..3 {
        net.inject(0, i, MinBftMsg::Request(4), 1);
    }
    net.run_until(5_000_000);
    assert_eq!(net.actor(0).log.len(), 0, "isolated primary must not decide");
    for i in 1..3 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![4], "backup {i}");
        assert!(net.actor(i).view() >= 1, "backup {i} must have changed view");
    }
}

#[test]
fn minbft_survives_moderate_message_loss() {
    let mut net = minbft_cluster(3, 26, 0.02);
    for p in 1..=5u64 {
        for i in 0..3 {
            net.inject(0, i, MinBftMsg::Request(p), 1);
        }
    }
    let ok = net.run_until_all(20_000_000, |r| r.log.len() >= 5);
    assert!(ok, "all replicas must deliver all 5 requests under 2% loss");
    let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
    for i in 1..3 {
        let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, reference, "node {i} diverged under loss");
    }
}
