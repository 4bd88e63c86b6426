//! The consensus payload: an ordered batch of client transactions.
//!
//! A [`Batch`] is an immutable shared value: cloning bumps a reference
//! count, and the digest and wire size are computed once, on first use,
//! for every clone on every simulated node. Its transactions are a
//! [`BlockBody`], the body every replica seals, so the block's Merkle
//! root is computed once too. See DESIGN.md §7.

use pbc_consensus::{Payload, PersistPayload};
use pbc_types::encode::{CanonicalEncode, Decoder, Encoder};
use pbc_types::{BlockBody, Transaction};
use std::sync::{Arc, OnceLock};

/// A transaction batch proposed to consensus (one batch = one block).
///
/// A handle to one shared [`BatchInner`]; the fields `id` and `txs` are
/// read through `Deref`.
#[derive(Clone)]
pub struct Batch(Arc<BatchInner>);

/// The shared body of a [`Batch`].
pub struct BatchInner {
    /// Batch sequence number assigned by the submitting client layer.
    pub id: u64,
    /// The transactions, in client-submission order: the body each
    /// replica's block is sealed over.
    pub txs: BlockBody,
    /// `(digest_u64, wire_size)`, both read off one canonical encoding.
    /// Lazy: constructors and decoders hash nothing, so building batches
    /// that are never ordered (or building them inside a timed set-up
    /// section) costs an allocation and no SHA-256.
    memo: OnceLock<(u64, usize)>,
}

impl Batch {
    /// Creates a batch.
    pub fn new(id: u64, txs: Vec<Transaction>) -> Self {
        Batch(Arc::new(BatchInner { id, txs: txs.into(), memo: OnceLock::new() }))
    }

    fn memo(&self) -> (u64, usize) {
        *self.0.memo.get_or_init(|| {
            let mut enc = Encoder::new();
            enc.u64(self.id);
            for tx in &self.txs {
                tx.encode(&mut enc);
            }
            let bytes = enc.as_slice();
            // Wire size: a 16-byte header plus the transactions' canonical
            // bytes, i.e. everything encoded above except the 8-byte id.
            (pbc_crypto::sha256(bytes).prefix_u64(), 16 + bytes.len() - 8)
        })
    }
}

impl std::ops::Deref for Batch {
    type Target = BatchInner;

    fn deref(&self) -> &BatchInner {
        &self.0
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || (self.id == other.id && self.txs == other.txs)
    }
}

impl Eq for Batch {}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch").field("id", &self.id).field("txs", &self.txs).finish()
    }
}

impl Payload for Batch {
    fn digest_u64(&self) -> u64 {
        self.memo().0
    }

    fn wire_size(&self) -> usize {
        self.memo().1
    }
}

impl PersistPayload for Batch {
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.id).u64(self.txs.len() as u64);
        for tx in &self.txs {
            tx.encode(&mut e);
        }
        e.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut d = Decoder::new(bytes);
        let id = d.u64()?;
        let n = d.u64()? as usize;
        let mut txs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            txs.push(Transaction::decode(&mut d)?);
        }
        d.is_empty().then(|| Batch::new(id, txs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::{ClientId, Op, TxId};

    fn tx(i: u64) -> Transaction {
        Transaction::new(TxId(i), ClientId(0), vec![Op::Get { key: format!("k{i}") }])
    }

    #[test]
    fn digest_depends_on_content_and_id() {
        let a = Batch::new(1, vec![tx(1)]);
        let b = Batch::new(1, vec![tx(1)]);
        let c = Batch::new(2, vec![tx(1)]);
        let d = Batch::new(1, vec![tx(2)]);
        assert_eq!(a.digest_u64(), b.digest_u64());
        assert_ne!(a.digest_u64(), c.digest_u64());
        assert_ne!(a.digest_u64(), d.digest_u64());
    }

    /// The memo can never drift from the definition: SHA-256 over the id
    /// and the transactions' canonical bytes; 16 bytes of header plus
    /// each transaction's canonical length.
    #[test]
    fn digest_and_wire_size_match_the_definition() {
        for n in [0u64, 1, 8, 33] {
            let batch = Batch::new(n + 3, (0..n).map(tx).collect());
            let mut id = Encoder::new();
            id.u64(n + 3);
            let mut bytes = id.finish();
            let mut wire = 16;
            for t in &batch.txs {
                let canonical = t.canonical_bytes();
                wire += canonical.len();
                bytes.extend(canonical);
            }
            assert_eq!(batch.digest_u64(), pbc_crypto::sha256(&bytes).prefix_u64(), "n={n}");
            assert_eq!(batch.wire_size(), wire, "n={n}");
            // Asked again, and asked of a clone: same answers.
            assert_eq!(batch.clone().digest_u64(), batch.digest_u64());
            assert_eq!(batch.clone().wire_size(), wire);
        }
    }

    #[test]
    fn clones_share_one_body_and_one_memo() {
        let batch = Batch::new(5, vec![tx(1), tx(2)]);
        let clone = batch.clone();
        assert!(Arc::ptr_eq(&batch.0, &clone.0));
        assert!(batch.memo.get().is_none(), "nothing is hashed before first use");
        let digest = clone.digest_u64();
        assert_eq!(batch.memo.get().map(|m| m.0), Some(digest), "the clone's hash is ours");
        let decoded = Batch::from_bytes(&batch.to_bytes()).expect("roundtrip");
        assert!(decoded.memo.get().is_none(), "decoding hashes nothing");
    }

    #[test]
    fn equality_is_by_value() {
        let a = Batch::new(1, vec![tx(1), tx(2)]);
        assert_eq!(a, a.clone());
        assert_eq!(a, Batch::new(1, vec![tx(1), tx(2)]), "separately built, no pointer shortcut");
        assert_ne!(a, Batch::new(2, vec![tx(1), tx(2)]), "id differs");
        assert_ne!(a, Batch::new(1, vec![tx(1), tx(3)]), "a transaction differs");
        assert_ne!(a, Batch::new(1, vec![tx(1)]), "a transaction is missing");
    }

    #[test]
    fn batches_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Batch>();
    }

    #[test]
    fn persist_codec_roundtrips_and_rejects_malformation() {
        let batch = Batch::new(7, vec![tx(1), tx(2), tx(3)]);
        let bytes = batch.to_bytes();
        let decoded = Batch::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(decoded, batch);
        assert_eq!(decoded.digest_u64(), batch.digest_u64());
        // Truncation at any boundary must degrade to None, never panic:
        // the bytes may have come off a torn WAL tail.
        assert_eq!(Batch::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Batch::from_bytes(&[]), None);
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(Batch::from_bytes(&padded), None, "trailing garbage rejected");
    }

    #[test]
    fn wire_size_grows_with_transactions() {
        let small = Batch::new(1, vec![tx(1)]);
        let big = Batch::new(1, (0..10).map(tx).collect());
        assert!(big.wire_size() > small.wire_size());
    }
}
