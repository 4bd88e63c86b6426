//! The commit audit trail: what each node's pipeline claims it did.
//!
//! The paper's verifiability axis (§2.3.2) demands that a run be
//! *checkable after the fact* by a party that does not trust the system
//! under test. [`BlockchainNetwork`](crate::BlockchainNetwork) can
//! record, per node and per applied block, a [`CommitRecord`] — which
//! transactions the pipeline claims to have committed and aborted, in
//! application order, plus a digest of the observable state after the
//! block. The `pbc-audit` crate treats these records as *untrusted
//! claims* and cross-checks every one of them against an independent
//! sequential replay.
//!
//! Recording is opt-in (`NetworkBuilder::with_audit`) so benchmark hot
//! paths pay nothing; tests (`tests/matrix.rs` over every combo) turn it
//! on.

use pbc_crypto::Hash;
use pbc_types::TxId;

/// One applied block, as the pipeline reports it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Consensus sequence number of the decided batch.
    pub seq: u64,
    /// Ledger height the block landed at on this node.
    pub height: u64,
    /// Committed transactions *in application order* — the order whose
    /// serial replay must reproduce `value_digest`.
    pub committed: Vec<TxId>,
    /// Aborted transactions (stale reads, failed execution, rejected
    /// endorsements).
    pub aborted: Vec<TxId>,
    /// [`StateStore::value_digest`](pbc_ledger::StateStore::value_digest)
    /// of the node's state immediately after applying this block.
    pub value_digest: Hash,
}

/// The per-node sequence of [`CommitRecord`]s, indexed by height.
#[derive(Clone, Debug, Default)]
pub struct AuditTrail {
    /// Records in application order; `records[i].height == i + 1`.
    records: Vec<CommitRecord>,
}

impl AuditTrail {
    /// An empty trail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record. Heights must arrive densely and in order (each
    /// node applies every block exactly once): a gap or repeat panics,
    /// because it would mean the *driver* is broken, not the pipeline.
    pub fn record(&mut self, record: CommitRecord) {
        assert_eq!(
            record.height,
            self.records.len() as u64 + 1,
            "audit trail heights must be dense and in order"
        );
        self.records.push(record);
    }

    /// The record for `height` (1-based, as ledger heights are).
    pub fn at_height(&self, height: u64) -> Option<&CommitRecord> {
        height.checked_sub(1).and_then(|i| self.records.get(i as usize))
    }

    /// Number of recorded blocks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates records in height order.
    pub fn iter(&self) -> impl Iterator<Item = &CommitRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(height: u64) -> CommitRecord {
        CommitRecord {
            seq: height - 1,
            height,
            committed: vec![TxId(height * 10)],
            aborted: vec![],
            value_digest: Hash::ZERO,
        }
    }

    #[test]
    fn records_index_by_height() {
        let mut t = AuditTrail::new();
        t.record(rec(1));
        t.record(rec(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.at_height(1).unwrap().committed, vec![TxId(10)]);
        assert_eq!(t.at_height(2).unwrap().committed, vec![TxId(20)]);
        assert!(t.at_height(0).is_none());
        assert!(t.at_height(3).is_none());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn height_gap_panics() {
        let mut t = AuditTrail::new();
        t.record(rec(2));
    }
}
