//! XOV read-write validation (Fabric's last pipeline step, §2.3.3).
//!
//! An endorsed transaction carries the versions it read at execution
//! (endorsement) time. At validation time — after ordering — each
//! transaction in block order is checked against the *current* state: if
//! any read version is stale (a previously validated transaction or an
//! earlier block wrote the key since), the transaction is invalidated.
//! This is exactly why Fabric "has to disregard the effects of
//! conflicting transactions" under contention.

use pbc_ledger::{ExecResult, StateStore, Version};
use pbc_types::KeyId;

/// The verdict for one transaction at validation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationVerdict {
    /// All read versions current: the write set may be applied.
    Valid,
    /// A read was stale.
    Stale {
        /// The conflicting key.
        key: KeyId,
        /// Version observed at endorsement time.
        read: Version,
        /// Version current at validation time.
        current: Version,
    },
    /// The transaction already aborted during execution (e.g.
    /// insufficient funds); it is recorded but has no effects.
    ExecutionFailed,
}

impl ValidationVerdict {
    /// True if the transaction commits.
    pub fn is_valid(&self) -> bool {
        matches!(self, ValidationVerdict::Valid)
    }
}

/// Validates a single endorsement against the current state.
pub fn validate_read_set(result: &ExecResult, state: &StateStore) -> ValidationVerdict {
    if !result.is_success() {
        return ValidationVerdict::ExecutionFailed;
    }
    for &(key, read) in &result.read_set {
        let current = state.version(&key);
        if current != read {
            return ValidationVerdict::Stale { key, read, current };
        }
    }
    ValidationVerdict::Valid
}

/// Validates a whole ordered block of endorsements, applying each valid
/// transaction's writes before validating the next (serial MVCC
/// validation, as Fabric's committer does). Returns per-transaction
/// verdicts.
pub fn validate_block(
    results: &[ExecResult],
    state: &mut StateStore,
    height: u64,
) -> Vec<ValidationVerdict> {
    let mut verdicts = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let verdict = validate_read_set(r, state);
        if verdict.is_valid() {
            state.apply_writes(&r.write_set, Version::new(height, i as u32));
        }
        verdicts.push(verdict);
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_ledger::execute;
    use pbc_types::tx::balance_value;
    use pbc_types::{ClientId, Op, Transaction, TxId};

    fn seeded() -> StateStore {
        let mut s = StateStore::new();
        s.put("a", balance_value(100), Version::new(1, 0));
        s.put("b", balance_value(100), Version::new(1, 1));
        s
    }

    fn transfer(id: u64, from: &str, to: &str, amount: u64) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Transfer { from: from.into(), to: to.into(), amount }],
        )
    }

    #[test]
    fn fresh_read_is_valid() {
        let mut state = seeded();
        let r = execute(&transfer(1, "a", "b", 10), &state);
        let v = validate_block(&[r], &mut state, 2);
        assert_eq!(v, vec![ValidationVerdict::Valid]);
    }

    #[test]
    fn second_conflicting_endorsement_goes_stale() {
        let mut state = seeded();
        // Both executed against the same snapshot (parallel endorsement).
        let r1 = execute(&transfer(1, "a", "b", 10), &state);
        let r2 = execute(&transfer(2, "a", "b", 10), &state);
        let v = validate_block(&[r1, r2], &mut state, 2);
        assert!(v[0].is_valid());
        match &v[1] {
            ValidationVerdict::Stale { key, .. } => assert_eq!(key.as_str(), "a"),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn non_conflicting_parallel_endorsements_both_commit() {
        let mut state = seeded();
        state.put("c", balance_value(100), Version::new(1, 2));
        state.put("d", balance_value(100), Version::new(1, 3));
        let r1 = execute(&transfer(1, "a", "b", 10), &state);
        let r2 = execute(&transfer(2, "c", "d", 10), &state);
        let v = validate_block(&[r1, r2], &mut state, 2);
        assert!(v.iter().all(|x| x.is_valid()));
    }

    #[test]
    fn execution_failure_recorded_without_effects() {
        let mut state = seeded();
        let r = execute(&transfer(1, "a", "b", 10_000), &state);
        let digest_before = state.state_digest();
        let v = validate_block(&[r], &mut state, 2);
        assert_eq!(v, vec![ValidationVerdict::ExecutionFailed]);
        assert_eq!(state.state_digest(), digest_before);
    }

    #[test]
    fn stale_read_of_missing_key_detected() {
        let mut state = StateStore::new();
        let t = Transaction::new(TxId(1), ClientId(0), vec![Op::Get { key: "ghost".into() }]);
        let r = execute(&t, &state);
        // Another tx creates the key before validation.
        state.put("ghost", balance_value(1), Version::new(2, 0));
        assert!(matches!(validate_read_set(&r, &state), ValidationVerdict::Stale { .. }));
    }

    #[test]
    fn read_of_deleted_key_detected_as_stale() {
        // The bug tombstones exist to fix: endorse a read of a live key,
        // then a delete commits before validation. Without a tombstone
        // the deleted key would read as GENESIS — indistinguishable from
        // never-written — and the conflict would be silently missed.
        let mut state = seeded();
        let t = Transaction::new(TxId(1), ClientId(0), vec![Op::Get { key: "a".into() }]);
        let r = execute(&t, &state);
        state.delete("a", Version::new(2, 0));
        match validate_read_set(&r, &state) {
            ValidationVerdict::Stale { key, read, current } => {
                assert_eq!(key.as_str(), "a");
                assert_eq!(read, Version::new(1, 0));
                assert_eq!(current, Version::new(2, 0));
            }
            other => panic!("read of deleted key must be stale, got {other:?}"),
        }
    }

    #[test]
    fn delete_conflicts_propagate_through_block_validation() {
        // Two parallel endorsements: tx1 deletes "a", tx2 read "a" at its
        // endorsed version. Serial MVCC validation commits the delete and
        // must invalidate the read.
        let mut state = seeded();
        let del = Transaction::new(TxId(1), ClientId(0), vec![Op::Delete { key: "a".into() }]);
        let read = Transaction::new(
            TxId(2),
            ClientId(0),
            vec![
                Op::Get { key: "a".into() },
                Op::Put { key: "out".into(), value: balance_value(1) },
            ],
        );
        let r1 = execute(&del, &state);
        let r2 = execute(&read, &state);
        let v = validate_block(&[r1, r2], &mut state, 2);
        assert!(v[0].is_valid());
        assert!(matches!(&v[1], ValidationVerdict::Stale { key, .. } if key.as_str() == "a"));
        assert!(state.get("a").is_none());
        assert!(state.get("out").is_none(), "stale tx's writes must not apply");
    }

    #[test]
    fn valid_tx_writes_are_visible_to_later_blocks() {
        let mut state = seeded();
        let r1 = execute(&transfer(1, "a", "b", 50), &state);
        validate_block(&[r1], &mut state, 2);
        assert_eq!(pbc_types::tx::balance_of(state.get("a")), 50);
        assert_eq!(state.version("a"), Version::new(2, 0));
    }
}
