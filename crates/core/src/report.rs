//! Backend-neutral commit reporting.
//!
//! The simulator (`pbc-sim` under [`BlockchainNetwork`]) and the TCP
//! deployment runtime (`pbc-net`) run the same ordering actors, so a
//! run of each from the same seed must agree on everything consensus
//! determines: the committed batch sequence and the consensus-level
//! seal metadata. This module holds the extraction both backends share
//! so the sim-vs-TCP cross-check (`tests/real_net.rs`) compares like
//! with like:
//!
//! * [`seal_proposer`] — the one rule assigning a proposer to a slot,
//!   used by the simulator's seal pinning and by the deployment-side
//!   row builder;
//! * [`commit_rows`] — a decided log flattened to comparable
//!   [`CommitRow`]s (decide *times* are excluded on purpose: logical
//!   ticks and wall-clock elapsed time never match, and any check
//!   relying on them would be vacuous or flaky);
//! * [`sealed_head`] — replays a committed sequence through a fresh
//!   pipeline, so the TCP run's commit order can be proven to produce
//!   the simulator's ledger head, seals and all.
//!
//! [`BlockchainNetwork`]: crate::network::BlockchainNetwork

use crate::batch::Batch;
use crate::network::ArchKind;
use pbc_arch::BlockSeal;
use pbc_consensus::{ConsensusKind, Payload};
use pbc_crypto::Hash;
use pbc_ledger::StateStore;
use pbc_sim::SimTime;

/// One committed slot, reduced to the fields every backend must agree
/// on. Two runs of the same protocol/seed/workload are equivalent iff
/// their row vectors are equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRow {
    /// Consensus slot.
    pub seq: u64,
    /// The committed batch's client-assigned id.
    pub batch_id: u64,
    /// The committed batch's payload digest.
    pub digest: u64,
    /// The proposer the seal pins for this slot.
    pub proposer: u32,
}

/// The proposer responsible for slot `seq` under `protocol` in an
/// `n`-node cluster: rotating protocols rotate it, fixed-leader
/// protocols pin node 0. This is the single source of truth for seal
/// proposers — the network driver's seal pinning and the deployment
/// cross-check both call it.
pub fn seal_proposer(protocol: &str, n: usize, seq: u64) -> u32 {
    let rotating = ConsensusKind::from_name(protocol).is_some_and(|kind| kind.rotating());
    if rotating {
        (seq as usize % n) as u32
    } else {
        0
    }
}

/// Flattens a decided log (any backend's) into comparable rows.
pub fn commit_rows(protocol: &str, n: usize, decided: &[(u64, Batch, SimTime)]) -> Vec<CommitRow> {
    decided
        .iter()
        .map(|(seq, batch, _)| CommitRow {
            seq: *seq,
            batch_id: batch.id,
            digest: batch.digest_u64(),
            proposer: seal_proposer(protocol, n, *seq),
        })
        .collect()
}

/// Replays an already-ordered block sequence through a fresh pipeline
/// of `arch` over `initial_state` and returns the resulting ledger
/// head. Feeding the TCP backend's committed batches with the
/// simulator's seals must reproduce the simulator's head exactly —
/// execution is deterministic once consensus has fixed order and
/// seals.
pub fn sealed_head(
    arch: ArchKind,
    initial_state: StateStore,
    blocks: &[(Batch, BlockSeal)],
) -> Hash {
    let mut pipeline = arch.make_pipeline(initial_state);
    for (batch, seal) in blocks {
        pipeline.process_block_sealed(batch.txs.clone(), *seal);
    }
    pipeline.ledger().head_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::NodeId;

    #[test]
    fn proposer_rule_matches_protocol_rotation() {
        // ibft rotates per height; pbft pins its fixed primary.
        assert_eq!(seal_proposer("pbft", 4, 7), 0);
        assert_eq!(seal_proposer("ibft", 4, 7), 3);
        assert_eq!(seal_proposer("ibft", 4, 8), 0);
        // Unknown protocols default to the fixed-leader rule.
        assert_eq!(seal_proposer("not-a-protocol", 4, 7), 0);
    }

    #[test]
    fn rows_carry_slot_batch_digest_proposer() {
        let decided =
            vec![(0u64, Batch::new(0, vec![]), 10u64), (1u64, Batch::new(1, vec![]), 20u64)];
        let rows = commit_rows("ibft", 4, &decided);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seq, 0);
        assert_eq!(rows[0].batch_id, 0);
        assert_eq!(rows[0].proposer, 0);
        assert_eq!(rows[1].proposer, 1);
        assert_eq!(rows[0].digest, Batch::new(0, vec![]).digest_u64());
    }

    #[test]
    fn sealed_head_is_deterministic_in_order_and_seals() {
        let blocks: Vec<(Batch, BlockSeal)> = (0..3)
            .map(|i| (Batch::new(i, vec![]), BlockSeal { proposer: NodeId(0), time: 10 * (i + 1) }))
            .collect();
        let a = sealed_head(ArchKind::Ox, StateStore::new(), &blocks);
        let b = sealed_head(ArchKind::Ox, StateStore::new(), &blocks);
        assert_eq!(a, b, "same blocks, same seals, same head");
        // A different seal time is a different block — heads diverge.
        let mut other = blocks.clone();
        other[2].1.time += 1;
        let c = sealed_head(ArchKind::Ox, StateStore::new(), &other);
        assert_ne!(a, c, "seals are part of the block identity");
    }
}
