//! Nemesis chaos over the **composed** stack: seeded fault schedules —
//! crash/restart, partitions, link degradation — plus Byzantine replicas
//! applied to a full [`BlockchainNetwork`] (consensus × execution
//! pipeline), not bare protocol actors. PR 1 could only torture the
//! ordering layer in isolation; the generic ordering layer's fault
//! passthroughs make the whole stack a chaos target.
//!
//! Invariants:
//! * **Agreement** — no two nodes ever decide different batches for the
//!   same slot ([`InvariantChecker`] over per-node decided views), and
//!   nodes that applied equally many batches share a ledger head.
//! * **Progress** — once the schedule heals (every generated schedule
//!   ends fully healed), the stack commits the backlog and new work.

use pbc_core::{ArchKind, BlockchainNetwork, ConsensusKind, NetworkBuilder};
use pbc_sim::{Attack, InvariantChecker, Nemesis, NemesisConfig, NemesisOp};
use pbc_workload::PaymentWorkload;

/// Checks agreement across every node's decided view, panicking with the
/// violation when two nodes disagree on a slot.
fn assert_agreement(chain: &BlockchainNetwork, context: &str) {
    let views = chain.decided_views();
    let mut checker = InvariantChecker::new(chain.len());
    if let Err(v) = checker.observe(&views) {
        panic!("{context}: agreement violated: {v}");
    }
}

fn build(
    consensus: ConsensusKind,
    n: usize,
    byzantine: Option<(usize, Vec<Attack>)>,
) -> BlockchainNetwork {
    let w = PaymentWorkload { accounts: 48, ..Default::default() };
    let mut b = NetworkBuilder::new(n)
        .consensus(consensus)
        .architecture(ArchKind::Xov)
        .initial_state(w.initial_state())
        .batch_size(4)
        .seed(0xC405)
        .with_audit();
    if let Some((node, attacks)) = byzantine {
        b = b.byzantine(node, attacks);
    }
    b.build()
}

/// Drives a seeded nemesis schedule over the composed stack: work is
/// submitted between ops, agreement is checked after every op, and the
/// healed end-state must have made progress.
fn chaos_schedule(consensus: ConsensusKind, nemesis_seed: u64) {
    let n = 4;
    let chaos = Nemesis::generate(n, &NemesisConfig::new(nemesis_seed).with_steps(8));
    let w = PaymentWorkload { accounts: 48, ..Default::default() };
    let mut chain = build(consensus, n, None);

    let mut batches = 0;
    for (step, op) in chaos.ops().iter().enumerate() {
        chain.apply_nemesis(op);
        chain.submit_all(w.generate(1000 + step as u64 * 100, 4));
        batches += 1;
        // Under active faults the round may stall — that's allowed; only
        // safety must hold unconditionally.
        let r = chain.run_to_completion();
        assert!(!r.diverged, "{consensus:?} step {step} ({}): heads forked", op.label());
        assert_agreement(&chain, &format!("{consensus:?} step {step} ({})", op.label()));
    }

    // Every generated schedule ends healed; restart any straggler the
    // schedule crashed last and flush the backlog.
    for i in 0..n {
        if chain.is_crashed(i) {
            chain.restart(i);
        }
    }
    chain.submit_all(w.generate(9000, 4));
    batches += 1;
    let r = chain.run_to_completion();
    assert!(!r.diverged, "{consensus:?}: healed heads forked");
    assert_agreement(&chain, &format!("{consensus:?} final"));
    // Progress: the healed stack decides the whole backlog, including
    // the batch submitted after the last fault. (A permanent laggard is
    // allowed — HotStuff laggards deliberately stay safely behind an
    // ancestry gap — so measure the *system's* progress, not the
    // slowest replica's.)
    let max_decided = chain.decided_views().iter().map(|v| v.len()).max().unwrap();
    assert_eq!(max_decided, batches, "{consensus:?}: healed stack must decide the backlog");
    if r.consensus_complete {
        assert!(chain.replicas_identical(), "{consensus:?}: fully drained replicas converge");
    }
    // Chaos must not be able to smuggle a wrong commit past the
    // differential auditor: every height that *did* commit, on every
    // node (laggards included), replays clean against the reference.
    let audit = pbc_audit::audit_network(&chain)
        .unwrap_or_else(|e| panic!("{consensus:?}: post-chaos audit failed: {e}"));
    assert!(audit.heights_checked > 0, "{consensus:?}: audit covered nothing");
}

#[test]
fn pbft_composed_stack_survives_nemesis_schedule() {
    chaos_schedule(ConsensusKind::Pbft, 31);
}

#[test]
fn raft_composed_stack_survives_nemesis_schedule() {
    chaos_schedule(ConsensusKind::Raft, 17);
}

#[test]
fn hotstuff_composed_stack_survives_nemesis_schedule() {
    chaos_schedule(ConsensusKind::HotStuff, 53);
}

/// The full gauntlet: durable replicas (real fault-injecting stores)
/// under a seeded nemesis schedule that includes amnesia crashes and
/// disk faults (failed fsyncs, torn WAL tails, bit rot). Safety, healed
/// progress, the cold ledger and the differential audit must all stay
/// green while the nemesis is hitting the disks underneath the stack.
#[test]
fn composed_chaos_with_disk_faults_stays_green() {
    let n = 4;
    let w = PaymentWorkload { accounts: 48, ..Default::default() };
    let stores = (0..n as u64)
        .map(|i| {
            let vfs = pbc_store::FaultFs::new(0xC405 ^ (i * 0x9E37));
            pbc_store::NodeStore::open(Box::new(vfs), pbc_store::StoreConfig::default())
                .expect("fresh store opens clean")
                .0
        })
        .collect();
    let mut chain = NetworkBuilder::new(n)
        .consensus(ConsensusKind::Raft)
        .architecture(ArchKind::Xov)
        .initial_state(w.initial_state())
        .batch_size(4)
        .seed(0xC405)
        .durable(stores)
        .with_audit()
        .build();

    let cfg = NemesisConfig::new(0x5EED).with_steps(10).with_amnesia().with_disk_faults();
    let chaos = Nemesis::generate(n, &cfg);
    let mut batches = 0;
    for (step, op) in chaos.ops().iter().enumerate() {
        chain.apply_nemesis(op);
        chain.submit_all(w.generate(1000 + step as u64 * 100, 4));
        batches += 1;
        let r = chain.run_to_completion();
        assert!(!r.diverged, "step {step} ({}): heads forked", op.label());
        assert_agreement(&chain, &format!("step {step} ({})", op.label()));
    }

    // Restart any straggler through the nemesis path (amnesiac nodes
    // must recover from staged disk replay, not resume RAM) and flush
    // the backlog.
    for i in 0..n {
        if chain.is_crashed(i) {
            chain.apply_nemesis(&NemesisOp::Restart { node: i });
        }
    }
    chain.submit_all(w.generate(9000, 4));
    batches += 1;
    let r = chain.run_to_completion();
    assert!(!r.diverged, "healed heads forked");
    assert_agreement(&chain, "final");
    let max_decided = chain.decided_views().iter().map(|v| v.len()).max().unwrap();
    assert_eq!(max_decided, batches, "healed stack must decide the backlog");

    // The differential auditor replays every committed height clean...
    let audit =
        pbc_audit::audit_network(&chain).unwrap_or_else(|e| panic!("post-chaos audit failed: {e}"));
    assert!(audit.heights_checked > 0, "audit covered nothing");
    // ...and whatever survived on the (faulted) disks never contradicts
    // the decided history.
    chain.persist();
    for node in 0..n {
        assert_eq!(
            chain.verify_cold_ledger(node),
            Some(true),
            "node {node} cold ledger contradicts decided history"
        );
    }
}

#[test]
fn byzantine_replica_cannot_break_composed_agreement() {
    // n = 4 tolerates f = 1: a mute + delaying replica slows the stack
    // but honest nodes keep committing convergent ledgers.
    let w = PaymentWorkload { accounts: 48, ..Default::default() };
    for attacks in [vec![Attack::Mute], vec![Attack::Delay(50_000)], vec![Attack::Replay]] {
        let mut chain = build(ConsensusKind::Pbft, 4, Some((3, attacks.clone())));
        chain.submit_all(w.generate(0, 16));
        let r = chain.run_to_completion();
        assert!(r.consensus_complete, "{attacks:?}: f=1 Byzantine must not stop progress");
        assert!(!r.diverged, "{attacks:?}: Byzantine node forked the honest ledgers");
        assert_agreement(&chain, &format!("byzantine {attacks:?}"));
        assert!(r.committed > 0, "{attacks:?}: no progress");
    }
}

#[test]
fn byzantine_plus_crash_within_tolerance_budget() {
    // An equivocating replica *and* a crashed replica exceed f = 1 for
    // n = 4, so run n = 7 (f = 2): one of each stays within budget.
    let w = PaymentWorkload { accounts: 48, ..Default::default() };
    let mut chain = NetworkBuilder::new(7)
        .consensus(ConsensusKind::Pbft)
        .architecture(ArchKind::Ox)
        .initial_state(w.initial_state())
        .batch_size(4)
        .seed(0xBADF)
        .byzantine(6, vec![Attack::Equivocate])
        .build();
    chain.apply_nemesis(&NemesisOp::Crash { node: 5 });
    chain.submit_all(w.generate(0, 8));
    let r = chain.run_to_completion();
    assert!(r.consensus_complete, "f=2 budget covers one Byzantine + one crash");
    assert!(!r.diverged);
    assert_agreement(&chain, "byzantine + crash");
    assert_eq!(r.committed, 8);
}
