//! The replay oracle: cross-checks a whole network run after the fact.
//!
//! [`audit_network`] takes a finished (or paused) run of a
//! [`BlockchainNetwork`] built with
//! [`with_audit`](pbc_core::NetworkBuilder::with_audit) and verifies,
//! for **every node**, that the recorded commit claims are exactly what
//! an independent auditor can re-derive from the genesis state and the
//! block stream alone:
//!
//! 1. **Chain walk** — heights are dense, every header's `prev` equals
//!    the predecessor's hash, and every transaction Merkle root matches
//!    a root recomputed from the block body (§2.2).
//! 2. **Replay oracle** — per height, a sequential
//!    [`ReferenceExecutor`] re-derives the commit/abort verdicts and the
//!    post-block state digest; in parallel, the *claimed* commit order
//!    is replayed serially from genesis and must reproduce the same
//!    digest (serializability of the committed schedule).
//! 3. **Verifiability audit** (§2.3.2) — sampled transactions get their
//!    inclusion proofs checked against the header roots, and sampled
//!    keys of the final state get inclusion + absence proofs checked
//!    against a state root built once per node via [`ProofBatch`].
//! 4. **Cross-replica agreement** — any two nodes' records at a common
//!    height must be identical claims.
//!
//! Any mismatch is an [`AuditError`] naming the node, the height, and
//! which oracle disagreed.

use crate::reference::ReferenceExecutor;
use pbc_core::BlockchainNetwork;
use pbc_crypto::merkle::{verify_inclusion, MerkleTree};
use pbc_ledger::{
    execute_and_apply, prove_absent, verify_absent, verify_key, ProofBatch, StateStore, Version,
};
use pbc_types::{encode::CanonicalEncode, Height, TxId};

/// Where and how an audited run contradicted its own records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// The network was not built with
    /// [`with_audit`](pbc_core::NetworkBuilder::with_audit), so there is
    /// nothing to cross-check.
    NoTrail,
    /// A node's chain fails the structural walk (height gap, broken
    /// hash link, genesis malformed).
    BrokenChain {
        /// The offending node.
        node: usize,
        /// Height at which the walk broke.
        height: u64,
        /// What exactly was wrong.
        reason: String,
    },
    /// A header's transaction Merkle root does not match the root
    /// recomputed from the block body.
    TxRootMismatch {
        /// The offending node.
        node: usize,
        /// The block whose root lies.
        height: u64,
    },
    /// The audit trail and the chain disagree on how many blocks exist.
    TrailLengthMismatch {
        /// The offending node.
        node: usize,
        /// Blocks the trail recorded.
        trail: u64,
        /// Blocks the chain holds (excluding genesis).
        chain: u64,
    },
    /// A record's committed + aborted sets are not a partition of the
    /// block's transactions (lost, duplicated, or invented ids).
    TxPartitionMismatch {
        /// The offending node.
        node: usize,
        /// The height whose record is malformed.
        height: u64,
    },
    /// The sequential reference disagrees with the pipeline about which
    /// transactions commit at a height.
    VerdictMismatch {
        /// The offending node.
        node: usize,
        /// The contested height.
        height: u64,
        /// Commits the reference derives.
        expected_committed: usize,
        /// Commits the pipeline claimed.
        claimed_committed: usize,
    },
    /// A state digest re-derived by an oracle differs from the recorded
    /// one.
    DigestMismatch {
        /// The offending node.
        node: usize,
        /// The height after which digests diverge.
        height: u64,
        /// Which oracle disagreed: `"reference"` (sequential
        /// re-execution of the architecture) or `"serial-replay"`
        /// (serializability replay of the claimed commit order).
        oracle: &'static str,
    },
    /// A transaction the pipeline claims committed fails when replayed
    /// serially in the claimed order — the claimed schedule is not
    /// serializable.
    SerialReplayFailed {
        /// The offending node.
        node: usize,
        /// The height being replayed.
        height: u64,
        /// The transaction that failed.
        tx: TxId,
    },
    /// A transaction's execution consumed more gas than its own
    /// declared `gas_limit` — the VM's charge-before-execute metering
    /// invariant was violated (gas conservation, §gas metering).
    GasOverrun {
        /// The offending node.
        node: usize,
        /// The height whose block contains the overrun.
        height: u64,
        /// The transaction that overspent.
        tx: TxId,
    },
    /// Two replicas recorded different claims for the same height.
    ReplicaDisagreement {
        /// First node.
        node_a: usize,
        /// Second node.
        node_b: usize,
        /// The contested height.
        height: u64,
    },
    /// A Merkle inclusion or absence proof failed to verify.
    ProofFailed {
        /// The offending node.
        node: usize,
        /// What failed.
        reason: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::NoTrail => {
                write!(f, "network was built without audit trails (NetworkBuilder::with_audit)")
            }
            AuditError::BrokenChain { node, height, reason } => {
                write!(f, "node {node}: chain broken at height {height}: {reason}")
            }
            AuditError::TxRootMismatch { node, height } => {
                write!(f, "node {node}: tx merkle root mismatch in block {height}")
            }
            AuditError::TrailLengthMismatch { node, trail, chain } => {
                write!(f, "node {node}: trail records {trail} blocks but chain holds {chain}")
            }
            AuditError::TxPartitionMismatch { node, height } => {
                write!(
                    f,
                    "node {node}: height {height} committed+aborted do not partition the block"
                )
            }
            AuditError::VerdictMismatch { node, height, expected_committed, claimed_committed } => {
                write!(
                    f,
                    "node {node}: height {height} reference commits {expected_committed} \
                     but pipeline claimed {claimed_committed}"
                )
            }
            AuditError::DigestMismatch { node, height, oracle } => {
                write!(f, "node {node}: state digest diverges from {oracle} after height {height}")
            }
            AuditError::SerialReplayFailed { node, height, tx } => {
                write!(
                    f,
                    "node {node}: claimed-committed tx {tx:?} fails serial replay at height {height}"
                )
            }
            AuditError::GasOverrun { node, height, tx } => {
                write!(f, "node {node}: tx {tx:?} at height {height} spent more gas than its limit")
            }
            AuditError::ReplicaDisagreement { node_a, node_b, height } => {
                write!(
                    f,
                    "nodes {node_a} and {node_b} recorded different claims at height {height}"
                )
            }
            AuditError::ProofFailed { node, reason } => {
                write!(f, "node {node}: proof audit failed: {reason}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Counters describing how much work a successful audit actually did —
/// a green audit that checked nothing would be worse than none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Nodes whose full trail + chain were audited.
    pub nodes_audited: usize,
    /// Per-node block heights cross-checked by both replay oracles.
    pub heights_checked: usize,
    /// Committed transactions re-executed by the serial replay.
    pub txs_replayed: usize,
    /// Merkle inclusion/absence proofs verified (tx and state).
    pub proofs_checked: usize,
}

/// How many items a per-node sample draws from an ordered population
/// (first, last, and evenly spaced interior points).
const SAMPLE: usize = 8;

/// Evenly spaced sample indices over `len` items (deterministic — the
/// auditor must be reproducible).
fn sample_indices(len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let step = len.div_ceil(SAMPLE).max(1);
    let mut idx: Vec<usize> = (0..len).step_by(step).collect();
    if *idx.last().expect("non-empty") != len - 1 {
        idx.push(len - 1);
    }
    idx
}

/// Audits every node of a finished run. See the module docs for the
/// four oracle families; returns the first contradiction found.
pub fn audit_network(chain: &BlockchainNetwork) -> Result<AuditReport, AuditError> {
    let mut report = AuditReport::default();
    for node in 0..chain.len() {
        if chain.audit_trail(node).is_none() {
            return Err(AuditError::NoTrail);
        }
        audit_node(chain, node, &mut report)?;
        report.nodes_audited += 1;
    }
    // Cross-replica agreement on every common height. Replicas may have
    // applied different prefixes (laggards), but where their histories
    // overlap the claims must be bit-identical.
    for a in 0..chain.len() {
        for b in a + 1..chain.len() {
            let (ta, tb) = (
                chain.audit_trail(a).expect("checked above"),
                chain.audit_trail(b).expect("checked above"),
            );
            for h in 1..=(ta.len().min(tb.len()) as u64) {
                if ta.at_height(h) != tb.at_height(h) {
                    return Err(AuditError::ReplicaDisagreement {
                        node_a: a,
                        node_b: b,
                        height: h,
                    });
                }
            }
        }
    }
    Ok(report)
}

fn audit_node(
    chain: &BlockchainNetwork,
    node: usize,
    report: &mut AuditReport,
) -> Result<(), AuditError> {
    let ledger = chain.node_ledger(node);
    let trail = chain.audit_trail(node).expect("caller checked");
    let blocks = ledger.blocks();

    // 1. Structural chain walk, independent of ChainLedger::verify.
    let genesis = &blocks[0];
    if genesis.header.height.0 != 0 || !genesis.header.prev.is_zero() {
        return Err(AuditError::BrokenChain {
            node,
            height: 0,
            reason: "genesis must sit at height 0 with a zero prev pointer".into(),
        });
    }
    for pair in blocks.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        if cur.header.height.0 != prev.header.height.0 + 1 {
            return Err(AuditError::BrokenChain {
                node,
                height: cur.header.height.0,
                reason: format!("height gap after {}", prev.header.height.0),
            });
        }
        if cur.header.prev != prev.hash() {
            return Err(AuditError::BrokenChain {
                node,
                height: cur.header.height.0,
                reason: "prev pointer does not match predecessor hash".into(),
            });
        }
    }
    for block in blocks {
        if !block.verify_tx_root() {
            return Err(AuditError::TxRootMismatch { node, height: block.header.height.0 });
        }
    }

    // 2. Replay oracles over the trail.
    let chain_blocks = ledger.height().0;
    if trail.len() as u64 != chain_blocks {
        return Err(AuditError::TrailLengthMismatch {
            node,
            trail: trail.len() as u64,
            chain: chain_blocks,
        });
    }
    let mut reference = ReferenceExecutor::new(chain.arch_kind(), chain.initial_state().clone());
    let mut serial: StateStore = chain.initial_state().clone();
    for record in trail.iter() {
        let block = ledger.block_at(Height(record.height)).ok_or(AuditError::BrokenChain {
            node,
            height: record.height,
            reason: "trail records a height the chain does not hold".into(),
        })?;

        // The record must partition the block exactly.
        let mut claimed: Vec<TxId> =
            record.committed.iter().chain(&record.aborted).copied().collect();
        claimed.sort_unstable();
        let mut in_block: Vec<TxId> = block.txs.iter().map(|t| t.id).collect();
        in_block.sort_unstable();
        if claimed != in_block {
            return Err(AuditError::TxPartitionMismatch { node, height: record.height });
        }

        // Oracle A: the sequential reference re-derives the verdicts and
        // the state digest — and, for dynamic (VM) transactions, checks
        // gas conservation: no execution may spend past its own limit.
        let expected = reference.apply_block(&block.txs, record.height);
        if let Some(&tx) = expected.gas_overruns.first() {
            return Err(AuditError::GasOverrun { node, height: record.height, tx });
        }
        let mut ec = expected.committed.clone();
        ec.sort_unstable();
        let mut cc = record.committed.clone();
        cc.sort_unstable();
        if ec != cc {
            return Err(AuditError::VerdictMismatch {
                node,
                height: record.height,
                expected_committed: ec.len(),
                claimed_committed: cc.len(),
            });
        }
        if reference.state().value_digest() != record.value_digest {
            return Err(AuditError::DigestMismatch {
                node,
                height: record.height,
                oracle: "reference",
            });
        }

        // Oracle B: serializability — the *claimed* commit order,
        // replayed one transaction at a time from the previous state,
        // must succeed throughout and land on the same digest.
        for (pos, id) in record.committed.iter().enumerate() {
            let tx = block.txs.iter().find(|t| t.id == *id).expect("partition checked");
            let r = execute_and_apply(tx, &mut serial, Version::new(record.height, pos as u32));
            if !r.is_success() {
                return Err(AuditError::SerialReplayFailed {
                    node,
                    height: record.height,
                    tx: *id,
                });
            }
            if tx.gas_limit().is_some_and(|limit| r.gas_used > limit) {
                return Err(AuditError::GasOverrun { node, height: record.height, tx: *id });
            }
            report.txs_replayed += 1;
        }
        if serial.value_digest() != record.value_digest {
            return Err(AuditError::DigestMismatch {
                node,
                height: record.height,
                oracle: "serial-replay",
            });
        }
        report.heights_checked += 1;
    }

    // 3. Verifiability audit (§2.3.2): sampled tx inclusion proofs
    // against header roots...
    for block in blocks.iter().filter(|b| !b.txs.is_empty()) {
        // Re-encoded and re-hashed here, never `Transaction::leaf_hash()`:
        // a wrong memo must not be able to vouch for itself.
        let leaves: Vec<Vec<u8>> = block.txs.iter().map(|t| t.canonical_bytes()).collect();
        let tree = MerkleTree::build(&leaves);
        if tree.root() != block.header.tx_root {
            return Err(AuditError::TxRootMismatch { node, height: block.header.height.0 });
        }
        for i in sample_indices(block.txs.len()) {
            let proof = tree.prove(i).ok_or_else(|| AuditError::ProofFailed {
                node,
                reason: format!("no tx proof at index {i} of block {}", block.header.height.0),
            })?;
            if !verify_inclusion(&block.header.tx_root, &leaves[i], &proof) {
                return Err(AuditError::ProofFailed {
                    node,
                    reason: format!(
                        "tx inclusion proof {i} of block {} rejected",
                        block.header.height.0
                    ),
                });
            }
            report.proofs_checked += 1;
        }
    }

    // ...and sampled state proofs against one shared root build.
    let state = chain.node_state(node);
    let batch = ProofBatch::new(state);
    if !batch.shares_build(&ProofBatch::new(state)) {
        return Err(AuditError::ProofFailed {
            node,
            reason: "proof batches over an unchanged state must share one tree build".into(),
        });
    }
    let root = batch.root();
    // Sampled by key order: the store iterates in an order that depends
    // on interned key ids, which differ from process to process.
    let mut keys: Vec<&str> = state.iter().map(|(k, _, _)| k.as_str()).collect();
    keys.sort_unstable();
    for i in sample_indices(keys.len()) {
        let key = keys[i];
        let proof = batch.prove_key(key).ok_or_else(|| AuditError::ProofFailed {
            node,
            reason: format!("no inclusion proof for present key {key:?}"),
        })?;
        if proof.value.as_ref() != state.get(key).expect("key sampled from live set").as_ref() {
            return Err(AuditError::ProofFailed {
                node,
                reason: format!("state inclusion proof for {key:?} claims a stale value"),
            });
        }
        if !verify_key(&root, &proof) {
            return Err(AuditError::ProofFailed {
                node,
                reason: format!("state inclusion proof for {key:?} rejected"),
            });
        }
        report.proofs_checked += 1;
    }
    for i in sample_indices(keys.len()) {
        let key = &keys[i];
        // A key that hashes between this one and its neighbour: present
        // keys never contain NUL, so `key\0` is guaranteed absent and
        // adjacent in sort order — the sharpest absence case.
        let absent = format!("{key}\0");
        if state.get(&absent).is_none() {
            let ap = prove_absent(state, &absent).ok_or_else(|| AuditError::ProofFailed {
                node,
                reason: format!("no absence proof for {absent:?}"),
            })?;
            if !verify_absent(&root, &ap) {
                return Err(AuditError::ProofFailed {
                    node,
                    reason: format!("absence proof for {absent:?} rejected"),
                });
            }
            report.proofs_checked += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_core::{ArchKind, ConsensusKind, NetworkBuilder};
    use pbc_workload::PaymentWorkload;

    fn audited_run(arch: ArchKind) -> BlockchainNetwork {
        let w = PaymentWorkload { accounts: 24, ..Default::default() };
        let mut chain = NetworkBuilder::new(4)
            .consensus(ConsensusKind::Pbft)
            .architecture(arch)
            .initial_state(w.initial_state())
            .batch_size(5)
            .with_audit()
            .build();
        chain.submit_all(w.generate(0, 15));
        let report = chain.run_to_completion();
        assert!(report.consensus_complete);
        chain
    }

    #[test]
    fn honest_run_audits_green() {
        let chain = audited_run(ArchKind::Xov);
        let report = audit_network(&chain).expect("honest run must audit clean");
        assert_eq!(report.nodes_audited, 4);
        assert_eq!(report.heights_checked, 4 * 3, "3 blocks on each of 4 nodes");
        assert!(report.txs_replayed > 0);
        assert!(report.proofs_checked > 0);
    }

    #[test]
    fn unaudited_run_reports_no_trail() {
        let w = PaymentWorkload { accounts: 24, ..Default::default() };
        let mut chain = NetworkBuilder::new(4).initial_state(w.initial_state()).build();
        chain.submit_all(w.generate(0, 5));
        chain.run_to_completion();
        assert_eq!(audit_network(&chain), Err(AuditError::NoTrail));
    }

    #[test]
    fn sample_indices_cover_edges() {
        assert!(sample_indices(0).is_empty());
        assert_eq!(sample_indices(1), vec![0]);
        let s = sample_indices(100);
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 99);
        assert!(s.len() <= SAMPLE + 1);
    }

    #[test]
    fn audit_runs_incrementally() {
        // Two run_to_completion rounds extend the same trail; the audit
        // still replays the whole history from genesis.
        let w = PaymentWorkload { accounts: 24, ..Default::default() };
        let mut chain = NetworkBuilder::new(4)
            .architecture(ArchKind::Xox)
            .initial_state(w.initial_state())
            .batch_size(4)
            .with_audit()
            .build();
        chain.submit_all(w.generate(0, 8));
        chain.run_to_completion();
        chain.submit_all(w.generate(500, 4));
        chain.run_to_completion();
        let report = audit_network(&chain).expect("incremental run audits clean");
        assert_eq!(report.heights_checked, 4 * 3);
    }
}
