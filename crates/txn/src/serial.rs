//! Serializability checking by replay.
//!
//! The pipelines in `pbc-arch` execute transactions in parallel and in
//! various orders. Their correctness criterion is *serializability*: the
//! committed effects must equal sequential execution of the committed
//! transactions in their commit order. This module provides that oracle
//! for tests, property tests, and benches.

use pbc_ledger::{execute_and_apply, StateStore, Version};
use pbc_types::Transaction;

/// Replays `txs` sequentially against a clone of `initial`, committing
/// every successful transaction, and returns the resulting state.
pub fn replay_serial(txs: &[&Transaction], initial: &StateStore, base_height: u64) -> StateStore {
    let mut state = initial.clone();
    for (i, tx) in txs.iter().enumerate() {
        execute_and_apply(tx, &mut state, Version::new(base_height, i as u32));
    }
    state
}

/// True if `observed` equals the state produced by serially executing the
/// committed transactions in order from `initial`.
///
/// Version metadata is ignored (different pipelines stamp different
/// versions); only key/value content is compared.
pub fn equivalent_to_serial(
    committed_in_order: &[&Transaction],
    initial: &StateStore,
    observed: &StateStore,
) -> bool {
    let serial = replay_serial(committed_in_order, initial, 1);
    values_equal(&serial, observed)
}

/// Compares two stores on key/value content only.
pub fn values_equal(a: &StateStore, b: &StateStore) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().all(|(k, v, _)| b.get(&k) == Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::tx::{balance_of, balance_value};
    use pbc_types::{ClientId, Op, Transaction, TxId};

    fn transfer(id: u64, from: &str, to: &str, amount: u64) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Transfer { from: from.into(), to: to.into(), amount }],
        )
    }

    fn seeded() -> StateStore {
        let mut s = StateStore::new();
        s.put("a", balance_value(100), Version::new(1, 0));
        s.put("b", balance_value(100), Version::new(1, 1));
        s
    }

    #[test]
    fn replay_applies_in_order() {
        let s = seeded();
        let t1 = transfer(1, "a", "b", 60);
        let t2 = transfer(2, "a", "b", 60); // fails after t1 (only 40 left)
        let out = replay_serial(&[&t1, &t2], &s, 2);
        assert_eq!(balance_of(out.get("a")), 40);
        assert_eq!(balance_of(out.get("b")), 160);
    }

    #[test]
    fn order_matters_for_equivalence() {
        let s = seeded();
        let t1 = transfer(1, "a", "b", 60);
        let t2 = transfer(2, "b", "a", 150); // only succeeds after t1
        let order_a = replay_serial(&[&t1, &t2], &s, 2);
        let order_b = replay_serial(&[&t2, &t1], &s, 2);
        assert!(!values_equal(&order_a, &order_b));
    }

    #[test]
    fn equivalence_ignores_versions() {
        let s = seeded();
        let t1 = transfer(1, "a", "b", 10);
        let mut observed = s.clone();
        // Apply the same effects at a wild version.
        pbc_ledger::execute_and_apply(&t1, &mut observed, Version::new(77, 9));
        assert!(equivalent_to_serial(&[&t1], &s, &observed));
    }

    #[test]
    fn detects_divergence() {
        let s = seeded();
        let t1 = transfer(1, "a", "b", 10);
        let mut observed = s.clone();
        observed.put("a", balance_value(1), Version::new(2, 0));
        assert!(!equivalent_to_serial(&[&t1], &s, &observed));
    }

    #[test]
    fn detects_missing_key() {
        let s = seeded();
        let mut bigger = s.clone();
        bigger.put("c", balance_value(1), Version::new(2, 0));
        assert!(!values_equal(&s, &bigger));
        assert!(!values_equal(&bigger, &s));
    }
}
