//! Cross-crate integration tests: the full consensus × architecture
//! matrix, ledger verification, and serializability of integrated runs.

use pbc_core::{ArchKind, ConsensusKind, NetworkBuilder};
use pbc_ledger::StateStore;
use pbc_types::Transaction;
use pbc_workload::PaymentWorkload;

const ALL_ARCH: [ArchKind; 8] = [
    ArchKind::Ox,
    ArchKind::Oxii,
    ArchKind::Xov,
    ArchKind::XovFabricPp,
    ArchKind::XovFabricSharp,
    ArchKind::Xox,
    ArchKind::FastFabric,
    ArchKind::XovEndorsed,
];

fn nodes_for(kind: ConsensusKind) -> usize {
    // MinBFT needs only 2f+1; everything else gets 4 (f=1 for BFT).
    if kind == ConsensusKind::MinBft {
        3
    } else {
        4
    }
}

fn run_chain(
    consensus: ConsensusKind,
    arch: ArchKind,
    txs: Vec<Transaction>,
    initial: StateStore,
) -> (pbc_core::BlockchainNetwork, pbc_core::RunReport) {
    let mut chain = NetworkBuilder::new(nodes_for(consensus))
        .consensus(consensus)
        .architecture(arch)
        .initial_state(initial)
        .batch_size(8)
        .seed(7)
        .build();
    chain.submit_all(txs);
    let report = chain.run_to_completion();
    (chain, report)
}

#[test]
fn full_matrix_replicas_identical() {
    let w = PaymentWorkload { accounts: 64, theta: 0.4, ..Default::default() };
    for consensus in ConsensusKind::ALL {
        for arch in ALL_ARCH {
            let (chain, report) = run_chain(consensus, arch, w.generate(0, 16), w.initial_state());
            assert!(report.consensus_complete, "{consensus:?}/{arch:?} stalled");
            assert_eq!(
                report.committed + report.aborted,
                16,
                "{consensus:?}/{arch:?} lost transactions"
            );
            assert!(chain.replicas_identical(), "{consensus:?}/{arch:?} replicas diverged");
            for node in 0..chain.len() {
                chain.node_ledger(node).verify().unwrap();
            }
        }
    }
}

#[test]
fn committed_outcome_is_serializable_for_every_arch() {
    // Whatever the architecture commits must match some serial execution
    // of the committed transactions — checked by replay.
    let w = PaymentWorkload { accounts: 16, theta: 1.0, ..Default::default() };
    for arch in ALL_ARCH {
        let txs = w.generate(0, 32);
        let initial = w.initial_state();
        let (chain, report) = run_chain(ConsensusKind::Pbft, arch, txs.clone(), initial.clone());
        assert!(report.consensus_complete);
        // Total balance is conserved regardless of commits/aborts.
        let total: u64 = (0..16)
            .map(|i| {
                pbc_types::tx::balance_of(
                    chain.node_state(0).get(&pbc_workload::payments::account_key(i)),
                )
            })
            .sum();
        assert_eq!(total, 16 * 1_000_000, "{arch:?} violated conservation");
    }
}

#[test]
fn ox_never_aborts_under_total_contention() {
    // The paper's claim: pessimistic OX handles contention without
    // concurrency aborts.
    let w = PaymentWorkload { accounts: 2, theta: 0.0, ..Default::default() };
    let (_, report) =
        run_chain(ConsensusKind::Pbft, ArchKind::Ox, w.generate(0, 24), w.initial_state());
    assert_eq!(report.committed, 24);
    assert_eq!(report.aborted, 0);
}

#[test]
fn oxii_matches_ox_exactly() {
    let w = PaymentWorkload { accounts: 8, theta: 0.9, ..Default::default() };
    let (ox_chain, ox_report) =
        run_chain(ConsensusKind::Pbft, ArchKind::Ox, w.generate(0, 32), w.initial_state());
    let (oxii_chain, oxii_report) =
        run_chain(ConsensusKind::Pbft, ArchKind::Oxii, w.generate(0, 32), w.initial_state());
    assert_eq!(ox_report.committed, oxii_report.committed);
    assert_eq!(
        ox_chain.node_state(0).state_digest(),
        oxii_chain.node_state(0).state_digest(),
        "OXII must produce exactly OX's state"
    );
}

#[test]
fn xov_aborts_under_contention_and_xox_recovers() {
    // §2.3.3 Discussion: XOV disregards conflicting transactions; XOX's
    // post-order step re-executes them.
    let w = PaymentWorkload { accounts: 2, theta: 0.0, ..Default::default() };
    let (_, xov) =
        run_chain(ConsensusKind::Pbft, ArchKind::Xov, w.generate(0, 24), w.initial_state());
    let (_, xox) =
        run_chain(ConsensusKind::Pbft, ArchKind::Xox, w.generate(0, 24), w.initial_state());
    assert!(xov.aborted > 0, "hot-key workload must abort under plain XOV");
    assert!(xox.committed > xov.committed, "XOX must salvage invalidated txs");
    assert_eq!(xox.aborted, 0, "funded hot-key transfers all commit under XOX");
}

#[test]
fn reordering_reduces_xov_aborts() {
    let w = PaymentWorkload { accounts: 6, theta: 1.1, seed: 3, ..Default::default() };
    let (_, plain) =
        run_chain(ConsensusKind::Pbft, ArchKind::Xov, w.generate(0, 48), w.initial_state());
    let (_, sharp) = run_chain(
        ConsensusKind::Pbft,
        ArchKind::XovFabricSharp,
        w.generate(0, 48),
        w.initial_state(),
    );
    assert!(
        sharp.committed >= plain.committed,
        "FabricSharp ({}) must commit at least plain XOV ({})",
        sharp.committed,
        plain.committed
    );
}

#[test]
fn bft_consensus_sends_more_bytes_than_cft() {
    let w = PaymentWorkload { accounts: 32, ..Default::default() };
    let (_, pbft) =
        run_chain(ConsensusKind::Pbft, ArchKind::Ox, w.generate(0, 8), w.initial_state());
    let (_, raft) =
        run_chain(ConsensusKind::Raft, ArchKind::Ox, w.generate(0, 8), w.initial_state());
    assert!(
        pbft.msgs_sent > raft.msgs_sent,
        "PBFT {} should out-message Raft {}",
        pbft.msgs_sent,
        raft.msgs_sent
    );
}

#[test]
fn crash_below_threshold_preserves_liveness_and_agreement() {
    let w = PaymentWorkload { accounts: 32, ..Default::default() };
    for consensus in [ConsensusKind::Pbft, ConsensusKind::HotStuff, ConsensusKind::MinBft] {
        let mut chain = NetworkBuilder::new(nodes_for(consensus))
            .consensus(consensus)
            .architecture(ArchKind::Oxii)
            .initial_state(w.initial_state())
            .batch_size(4)
            .build();
        chain.crash(nodes_for(consensus) - 1); // a backup
        chain.submit_all(w.generate(0, 8));
        let report = chain.run_to_completion();
        assert!(report.consensus_complete, "{consensus:?} lost liveness");
        assert_eq!(report.committed + report.aborted, 8);
        assert!(chain.replicas_identical(), "{consensus:?}");
    }
}

#[test]
fn multi_round_submission_grows_one_chain() {
    let w = PaymentWorkload { accounts: 64, ..Default::default() };
    let mut chain = NetworkBuilder::new(4)
        .architecture(ArchKind::FastFabric)
        .initial_state(w.initial_state())
        .batch_size(8)
        .build();
    for round in 0..4u64 {
        chain.submit_all(w.generate(round * 100, 8));
        let report = chain.run_to_completion();
        assert!(report.consensus_complete, "round {round}");
    }
    assert_eq!(chain.node_ledger(0).height().0, 4);
    assert!(chain.replicas_identical());
    chain.node_ledger(0).verify().unwrap();
}
