//! The append-only, hash-chained block ledger (Figure 1 of the paper).

use pbc_crypto::Hash;
use pbc_types::{Block, Height};

/// Errors from appending to or verifying a chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The block's height is not exactly head height + 1.
    WrongHeight {
        /// Height the chain expected.
        expected: Height,
        /// Height the block carried.
        got: Height,
    },
    /// The block's `prev` pointer doesn't match the head's hash (or, from
    /// [`ChainLedger::verify`], the head hash the ledger keeps doesn't
    /// match its head's header).
    BrokenLink {
        /// Hash of the current head.
        expected: Hash,
        /// The block's `prev` field.
        got: Hash,
    },
    /// The block's transaction Merkle root doesn't match its body.
    BadTxRoot,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::WrongHeight { expected, got } => {
                write!(f, "wrong height: expected {expected}, got {got}")
            }
            ChainError::BrokenLink { .. } => write!(f, "prev pointer does not match head hash"),
            ChainError::BadTxRoot => write!(f, "tx merkle root mismatch"),
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only chain of blocks starting at genesis.
#[derive(Clone, Debug)]
pub struct ChainLedger {
    blocks: Vec<Block>,
    /// The head's header hash, computed once when the head was appended.
    head_hash: Hash,
}

impl Default for ChainLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainLedger {
    /// A fresh ledger holding only the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        ChainLedger { head_hash: genesis.hash(), blocks: vec![genesis] }
    }

    /// The current head block.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("chain always has genesis")
    }

    /// The hash of the head block, kept since it was appended.
    pub fn head_hash(&self) -> Hash {
        self.head_hash
    }

    /// Height of the head block.
    pub fn height(&self) -> Height {
        self.head().header.height
    }

    /// Number of blocks including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Always false — a chain has at least genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The block at `height`, if present.
    pub fn block_at(&self, height: Height) -> Option<&Block> {
        self.blocks.get(height.0 as usize)
    }

    /// All blocks, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total committed transactions across all blocks.
    pub fn total_txs(&self) -> usize {
        self.blocks.iter().map(|b| b.txs.len()).sum()
    }

    /// Validates and appends a block.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        let expected_height = self.height().next();
        if block.header.height != expected_height {
            return Err(ChainError::WrongHeight {
                expected: expected_height,
                got: block.header.height,
            });
        }
        if block.header.prev != self.head_hash {
            return Err(ChainError::BrokenLink {
                expected: self.head_hash,
                got: block.header.prev,
            });
        }
        if !block.verify_tx_root() {
            return Err(ChainError::BadTxRoot);
        }
        self.head_hash = block.hash();
        self.blocks.push(block);
        Ok(())
    }

    /// Re-verifies the entire chain from genesis (hash links, heights,
    /// transaction roots), re-hashing every header rather than trusting
    /// the kept head hash. Used by auditors and in tests.
    pub fn verify(&self) -> Result<(), ChainError> {
        for i in 1..self.blocks.len() {
            let prev = &self.blocks[i - 1];
            let cur = &self.blocks[i];
            if cur.header.height != prev.header.height.next() {
                return Err(ChainError::WrongHeight {
                    expected: prev.header.height.next(),
                    got: cur.header.height,
                });
            }
            if cur.header.prev != prev.hash() {
                return Err(ChainError::BrokenLink { expected: prev.hash(), got: cur.header.prev });
            }
            if !cur.verify_tx_root() {
                return Err(ChainError::BadTxRoot);
            }
        }
        let head = self.head().hash();
        if head != self.head_hash {
            return Err(ChainError::BrokenLink { expected: head, got: self.head_hash });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::{ClientId, NodeId, Op, Transaction, TxId};

    fn block_on(ledger: &ChainLedger, txs: Vec<Transaction>) -> Block {
        Block::build(ledger.height().next(), ledger.head_hash(), NodeId(0), 1, txs)
    }

    fn some_tx(i: u64) -> Transaction {
        Transaction::new(TxId(i), ClientId(0), vec![Op::Get { key: format!("k{i}") }])
    }

    #[test]
    fn append_and_verify() {
        let mut l = ChainLedger::new();
        for i in 0..5 {
            let b = block_on(&l, vec![some_tx(i)]);
            l.append(b).unwrap();
        }
        assert_eq!(l.len(), 6);
        assert_eq!(l.total_txs(), 5);
        l.verify().unwrap();
    }

    #[test]
    fn wrong_height_rejected() {
        let mut l = ChainLedger::new();
        let b = Block::build(Height(5), l.head_hash(), NodeId(0), 1, vec![]);
        assert!(matches!(l.append(b), Err(ChainError::WrongHeight { .. })));
    }

    #[test]
    fn broken_link_rejected() {
        let mut l = ChainLedger::new();
        let b = Block::build(l.height().next(), Hash::ZERO, NodeId(0), 1, vec![some_tx(1)]);
        // genesis hash != ZERO, so prev=ZERO is a broken link
        assert!(matches!(l.append(b), Err(ChainError::BrokenLink { .. })));
    }

    /// A body swapped after the block was built carries a root the
    /// header never committed to.
    #[test]
    fn tampered_body_rejected() {
        let mut l = ChainLedger::new();
        let mut b = block_on(&l, vec![some_tx(1)]);
        b.txs = vec![some_tx(2)].into(); // header root now stale
        assert_eq!(l.append(b), Err(ChainError::BadTxRoot));
    }

    #[test]
    fn verify_detects_post_hoc_tampering() {
        let mut l = ChainLedger::new();
        l.append(block_on(&l, vec![some_tx(1)])).unwrap();
        l.append(block_on(&l, vec![some_tx(2)])).unwrap();
        l.verify().unwrap();
        // Tamper with a middle block's body.
        l.blocks[1].txs = vec![some_tx(9)].into();
        assert!(l.verify().is_err());
    }

    /// Nothing links to the head yet, so only the kept head hash can
    /// catch an edit to the head's header; `verify()` re-hashes it.
    #[test]
    fn verify_detects_an_edited_head_header() {
        let mut l = ChainLedger::new();
        l.append(block_on(&l, vec![some_tx(1)])).unwrap();
        l.append(block_on(&l, vec![some_tx(2)])).unwrap();
        l.verify().unwrap();
        l.blocks[2].header.time += 1;
        assert!(matches!(l.verify(), Err(ChainError::BrokenLink { .. })));
    }

    /// The kept head hash is the head's header hash after every append,
    /// survives a clone, and does not move when an append is rejected.
    #[test]
    fn head_hash_is_kept_and_rejections_leave_it() {
        let mut l = ChainLedger::new();
        assert_eq!(l.head_hash(), l.head().hash());
        for i in 0..16 {
            l.append(block_on(&l, vec![some_tx(i), some_tx(100 + i)])).unwrap();
            assert_eq!(l.head_hash(), l.head().hash(), "after append {i}");
        }
        let kept = l.head_hash();
        let wrong_height = Block::build(Height(99), kept, NodeId(0), 1, vec![some_tx(1)]);
        assert!(matches!(l.append(wrong_height), Err(ChainError::WrongHeight { .. })));
        let broken = Block::build(l.height().next(), Hash::ZERO, NodeId(0), 1, vec![some_tx(1)]);
        assert!(matches!(l.append(broken), Err(ChainError::BrokenLink { .. })));
        let mut bad_root = block_on(&l, vec![some_tx(1)]);
        bad_root.txs = vec![some_tx(2)].into();
        assert_eq!(l.append(bad_root), Err(ChainError::BadTxRoot));
        assert_eq!(l.head_hash(), kept, "rejected appends leave the head alone");
        assert_eq!(l.len(), 17);
        let clone = l.clone();
        assert_eq!(clone.head_hash(), kept);
        assert_eq!(clone.head_hash(), clone.head().hash());
        l.verify().unwrap();
    }

    #[test]
    fn block_at_lookup() {
        let mut l = ChainLedger::new();
        l.append(block_on(&l, vec![some_tx(1)])).unwrap();
        assert_eq!(l.block_at(Height(1)).unwrap().txs.len(), 1);
        assert!(l.block_at(Height(9)).is_none());
    }
}
