//! Blocks and block headers for the hash-chained ledger of §2.2.
//!
//! Each block batches transactions; the total order of blocks is captured
//! by chaining — every header carries the cryptographic hash of its
//! predecessor, exactly as Figure 1 of the paper illustrates.

use crate::encode::{CanonicalEncode, Encoder};
use crate::ids::{Height, NodeId};
use crate::tx::Transaction;
use pbc_crypto::merkle::MerkleTree;
use pbc_crypto::Hash;
use serde::{Deserialize, Serialize};

/// A block header.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Position in the chain (genesis = 0).
    pub height: Height,
    /// Hash of the previous block's header (`Hash::ZERO` for genesis).
    pub prev: Hash,
    /// Merkle root over the block's transactions.
    pub tx_root: Hash,
    /// The node that proposed/constructed the block.
    pub proposer: NodeId,
    /// Simulated timestamp (logical ticks from `pbc-sim`).
    pub time: u64,
}

impl CanonicalEncode for BlockHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.height.0)
            .bytes(&self.prev.0)
            .bytes(&self.tx_root.0)
            .u32(self.proposer.0)
            .u64(self.time);
    }
}

impl BlockHeader {
    /// The block hash: digest of the canonical header encoding.
    pub fn hash(&self) -> Hash {
        self.digest()
    }
}

/// A block: header plus the batched transactions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The header (chained by hash).
    pub header: BlockHeader,
    /// The ordered transaction batch.
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Builds a block over `txs`, computing the Merkle transaction root.
    pub fn build(
        height: Height,
        prev: Hash,
        proposer: NodeId,
        time: u64,
        txs: Vec<Transaction>,
    ) -> Block {
        let tx_root = Self::tx_root(&txs);
        Block { header: BlockHeader { height, prev, tx_root, proposer, time }, txs }
    }

    /// The genesis block (height 0, no transactions, zero predecessor).
    pub fn genesis() -> Block {
        Block::build(Height(0), Hash::ZERO, NodeId(0), 0, vec![])
    }

    /// Computes the Merkle root over a transaction batch from the
    /// transactions' memoised leaf hashes: only the interior nodes are
    /// hashed when the leaves are already known.
    pub fn tx_root(txs: &[Transaction]) -> Hash {
        MerkleTree::from_leaf_hashes(txs.iter().map(Transaction::leaf_hash).collect()).root()
    }

    /// The block hash (header hash).
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }

    /// Checks internal consistency: the header's root matches the body.
    pub fn verify_tx_root(&self) -> bool {
        Self::tx_root(&self.txs) == self.header.tx_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use crate::tx::Op;

    fn sample_txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::new(TxId(i), ClientId(0), vec![Op::Get { key: format!("k{i}") }]))
            .collect()
    }

    #[test]
    fn genesis_has_zero_prev() {
        let g = Block::genesis();
        assert_eq!(g.header.height, Height(0));
        assert!(g.header.prev.is_zero());
        assert!(g.verify_tx_root());
    }

    #[test]
    fn chaining_changes_hash() {
        let g = Block::genesis();
        let b1 = Block::build(Height(1), g.hash(), NodeId(1), 10, sample_txs(3));
        let b1_alt = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(3));
        assert_ne!(b1.hash(), b1_alt.hash(), "prev pointer must affect the hash");
    }

    #[test]
    fn tx_root_detects_tampering() {
        let mut b = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(3));
        assert!(b.verify_tx_root());
        b.txs[0] = Transaction::new(TxId(99), ClientId(9), vec![]);
        assert!(!b.verify_tx_root());
    }

    #[test]
    fn tx_order_affects_root() {
        let mut txs = sample_txs(2);
        let r1 = Block::tx_root(&txs);
        txs.swap(0, 1);
        let r2 = Block::tx_root(&txs);
        assert_ne!(r1, r2);
    }

    /// The root folded from memoised leaf hashes is the root of the tree
    /// built over the re-encoded leaves: empty, single, odd-node
    /// promotion at one and at several levels, a full block, and VM
    /// payloads.
    #[test]
    fn tx_root_matches_the_tree_over_canonical_leaves() {
        let by_definition = |txs: &[Transaction]| {
            let leaves: Vec<Vec<u8>> = txs.iter().map(|t| t.canonical_bytes()).collect();
            MerkleTree::build(&leaves).root()
        };
        for n in [0, 1, 2, 3, 5, 128] {
            let txs = sample_txs(n);
            assert_eq!(Block::tx_root(&txs), by_definition(&txs), "n={n}");
            assert_eq!(Block::tx_root(&txs), by_definition(&txs), "n={n}, leaves now memoised");
        }
        assert_eq!(Block::tx_root(&[]), Hash::ZERO);
        let invokes: Vec<Transaction> = (0..5u64)
            .map(|i| {
                let call = crate::tx::VmCall {
                    bytecode: bytes::Bytes::from(vec![i as u8; 40]),
                    args: vec![i, i + 1],
                    gas_limit: 1_000 + i,
                    declared_reads: vec![format!("r{i}")],
                    declared_writes: vec![format!("w{i}"), "shared".into()],
                };
                Transaction::invoke(TxId(i), ClientId(1), call)
            })
            .collect();
        assert_eq!(Block::tx_root(&invokes), by_definition(&invokes));
    }

    /// What `n` replicas do with one decided batch — each builds the
    /// block and each ledger re-verifies its root on append — hashes
    /// every transaction once, not 2·n times.
    #[test]
    fn replicas_sealing_the_same_transactions_hash_each_leaf_once() {
        let computed = crate::tx::leaf_hashes_computed;
        let decided = sample_txs(64);
        let before = computed();
        let roots: Vec<Hash> = (0..4)
            .map(|replica| {
                let block =
                    Block::build(Height(1), Hash::ZERO, NodeId(replica), 10, decided.clone());
                assert!(block.verify_tx_root());
                block.header.tx_root
            })
            .collect();
        assert_eq!(computed() - before, 64);
        assert!(roots.iter().all(|r| *r == roots[0]));
    }

    #[test]
    fn identical_content_identical_hash() {
        let a = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(2));
        let b = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(2));
        assert_eq!(a.hash(), b.hash());
    }
}
