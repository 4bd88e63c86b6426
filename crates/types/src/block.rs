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
use std::sync::{Arc, OnceLock};

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

/// A block body: the ordered transaction list, as an immutable shared
/// value.
///
/// A handle to one `Arc`-shared list, read as a `[Transaction]` through
/// `Deref`. Cloning bumps a reference count, and the Merkle root over the
/// list is computed once, on first use, for every clone — so the n
/// replicas sealing one decided batch fold its interior nodes once, not
/// twice each. A different list is a different body with a cold memo.
/// See DESIGN.md §7.
#[derive(Clone, Serialize, Deserialize)]
pub struct BlockBody(Arc<BodyInner>);

struct BodyInner {
    txs: Vec<Transaction>,
    /// `Block::tx_root(&txs)`. Lazy: building a body hashes nothing, so
    /// batches that are never sealed (or are built inside a timed set-up
    /// section) cost an allocation and no SHA-256.
    root: OnceLock<Hash>,
}

#[cfg(test)]
thread_local! {
    static ROOTS_COMPUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Body roots computed on this thread so far (the memo's misses).
#[cfg(test)]
pub(crate) fn roots_computed() -> u64 {
    ROOTS_COMPUTED.with(|c| c.get())
}

impl BlockBody {
    /// The Merkle root over the transactions: [`Block::tx_root`] of the
    /// list, computed on first use and shared by every clone.
    pub fn root(&self) -> Hash {
        *self.0.root.get_or_init(|| {
            #[cfg(test)]
            ROOTS_COMPUTED.with(|c| c.set(c.get() + 1));
            Block::tx_root(&self.0.txs)
        })
    }
}

impl From<Vec<Transaction>> for BlockBody {
    fn from(txs: Vec<Transaction>) -> Self {
        BlockBody(Arc::new(BodyInner { txs, root: OnceLock::new() }))
    }
}

impl std::ops::Deref for BlockBody {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        &self.0.txs
    }
}

impl<'a> IntoIterator for &'a BlockBody {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.txs.iter()
    }
}

impl PartialEq for BlockBody {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.txs == other.0.txs
    }
}

impl Eq for BlockBody {}

/// Prints the list exactly as the `Vec<Transaction>` it replaced did.
impl std::fmt::Debug for BlockBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.txs.fmt(f)
    }
}

/// A block: header plus the batched transactions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The header (chained by hash).
    pub header: BlockHeader,
    /// The ordered transaction batch.
    pub txs: BlockBody,
}

impl Block {
    /// Builds a block over `txs`, taking the Merkle transaction root from
    /// the body's memo.
    pub fn build(
        height: Height,
        prev: Hash,
        proposer: NodeId,
        time: u64,
        txs: impl Into<BlockBody>,
    ) -> Block {
        let txs = txs.into();
        let tx_root = txs.root();
        Block { header: BlockHeader { height, prev, tx_root, proposer, time }, txs }
    }

    /// The genesis block (height 0, no transactions, zero predecessor).
    pub fn genesis() -> Block {
        Block::build(Height(0), Hash::ZERO, NodeId(0), 0, vec![])
    }

    /// Computes the Merkle root over a transaction batch from the
    /// transactions' memoised leaf hashes: only the interior nodes are
    /// hashed when the leaves are already known. The definition the body
    /// memo ([`BlockBody::root`]) caches.
    pub fn tx_root(txs: &[Transaction]) -> Hash {
        MerkleTree::from_leaf_hashes(txs.iter().map(Transaction::leaf_hash).collect()).root()
    }

    /// The block hash (header hash).
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }

    /// Checks internal consistency: the header's root matches the body's.
    pub fn verify_tx_root(&self) -> bool {
        self.txs.root() == self.header.tx_root
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

    /// A body cannot be edited in place: tampering swaps in a different
    /// body, whose cold memo is folded from its own transactions.
    #[test]
    fn tx_root_detects_tampering() {
        let mut b = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(3));
        assert!(b.verify_tx_root());
        let mut txs = b.txs.to_vec();
        txs[0] = Transaction::new(TxId(99), ClientId(9), vec![]);
        b.txs = txs.into();
        assert!(!b.verify_tx_root());
    }

    /// The other half of the check: the body's memo is warm, and it is
    /// the header that changed.
    #[test]
    fn tx_root_detects_an_edited_header_root() {
        let mut b = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(3));
        assert!(b.verify_tx_root());
        b.header.tx_root = Block::tx_root(&sample_txs(2));
        assert!(!b.verify_tx_root());
        b.header.tx_root = Hash::ZERO;
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

    /// The root folded from memoised leaf hashes, and the body's memo of
    /// it, are the root of the tree built over the re-encoded leaves:
    /// empty, single, odd-node promotion at one and at several levels, a
    /// full block, and VM payloads.
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
            assert_eq!(BlockBody::from(txs.clone()).root(), by_definition(&txs), "n={n}, body");
        }
        assert_eq!(Block::tx_root(&[]), Hash::ZERO);
        assert_eq!(BlockBody::from(vec![]).root(), Hash::ZERO);
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
        assert_eq!(BlockBody::from(invokes.clone()).root(), by_definition(&invokes));
    }

    /// What `n` replicas do with one decided batch — each builds the
    /// block and each ledger re-verifies its root on append — hashes
    /// every transaction once and folds the interior once, not 2·n
    /// times, when they share the batch's body.
    #[test]
    fn replicas_sealing_the_same_transactions_hash_each_leaf_once() {
        let (leaves, roots) = (crate::tx::leaf_hashes_computed, roots_computed);
        let decided: BlockBody = sample_txs(64).into();
        let (leaves_before, roots_before) = (leaves(), roots());
        let sealed: Vec<Hash> = (0..4)
            .map(|replica| {
                let block =
                    Block::build(Height(1), Hash::ZERO, NodeId(replica), 10, decided.clone());
                assert!(block.verify_tx_root());
                block.header.tx_root
            })
            .collect();
        assert_eq!(leaves() - leaves_before, 64);
        assert_eq!(roots() - roots_before, 1, "the first replica's root serves all four");
        assert!(sealed.iter().all(|r| *r == sealed[0]));
    }

    /// Building a body hashes nothing; its root is computed by the first
    /// caller and shared by every clone.
    #[test]
    fn body_root_is_lazy_and_shared_by_clones() {
        let before = roots_computed();
        let body = BlockBody::from(sample_txs(5));
        let separate = BlockBody::from(sample_txs(5));
        let clone = body.clone();
        assert_eq!(roots_computed(), before, "building and cloning fold nothing");
        assert!(body.0.root.get().is_none());

        let root = clone.root();
        assert_eq!(roots_computed(), before + 1);
        assert_eq!(body.0.root.get(), Some(&root), "the clone's root is ours");
        assert_eq!(body.root(), root);
        assert_eq!(roots_computed(), before + 1, "asked again: no new fold");

        assert!(separate.0.root.get().is_none(), "a separate body has its own memo");
        assert_eq!(separate.root(), root);
        assert_eq!(roots_computed(), before + 2);
    }

    #[test]
    fn body_equality_is_by_value() {
        let a = BlockBody::from(sample_txs(3));
        assert_eq!(a, a.clone());
        let b = BlockBody::from(sample_txs(3));
        a.root();
        assert_eq!(a, b, "separately built, one memo warm and one cold");
        assert_ne!(a, BlockBody::from(sample_txs(2)), "a transaction is missing");
        let mut swapped = sample_txs(3);
        swapped.swap(0, 2);
        assert_ne!(a, BlockBody::from(swapped), "order differs");
        assert_eq!(&a[..], &sample_txs(3)[..], "reads as the slice it holds");
        assert_eq!((&a).into_iter().count(), 3);
    }

    #[test]
    fn bodies_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BlockBody>();
    }

    /// Blocks and batches print their bodies in post-mortem dumps: the
    /// output is byte-equal to the `Vec` the body holds, memo or not.
    #[test]
    fn body_debug_output_is_the_vec_one() {
        let txs = sample_txs(2);
        let body = BlockBody::from(txs.clone());
        assert_eq!(format!("{body:?}"), format!("{txs:?}"));
        body.root();
        assert_eq!(format!("{body:#?}"), format!("{txs:#?}"));
        assert_eq!(format!("{:?}", BlockBody::from(vec![])), "[]");
    }

    #[test]
    fn identical_content_identical_hash() {
        let a = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(2));
        let b = Block::build(Height(1), Hash::ZERO, NodeId(1), 10, sample_txs(2));
        assert_eq!(a.hash(), b.hash());
    }
}
