//! XOX Fabric (Gorenflo et al., §2.3.3): XOV plus a **post-order
//! execution step** that re-executes transactions invalidated by
//! read-write conflicts instead of discarding them.
//!
//! The pre-order step is Fabric's speculative endorsement; the post-order
//! step runs after validation, sequentially, against the now-current
//! state — so a transaction that lost the first-committer-wins race still
//! commits with fresh reads (unless it fails intrinsically, e.g.
//! insufficient funds).

use crate::pipeline::{
    execute_parallel, seal_block, trace_stage, BlockOutcome, BlockSeal, ExecutionPipeline,
};
use pbc_ledger::{execute_and_apply, ChainLedger, StateStore, Version};
use pbc_txn::validate::{validate_read_set, ValidationVerdict};
use pbc_types::BlockBody;

/// The XOX pipeline.
#[derive(Debug, Default)]
pub struct XoxPipeline {
    state: StateStore,
    ledger: ChainLedger,
}

impl XoxPipeline {
    /// A fresh pipeline with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pipeline starting from pre-seeded state.
    pub fn with_state(state: StateStore) -> Self {
        XoxPipeline { state, ledger: ChainLedger::new() }
    }
}

impl ExecutionPipeline for XoxPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        // Pre-order execution (endorsement).
        let results = execute_parallel(&txs, &self.state);
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        let mut outcome = BlockOutcome { sequential_steps: 1, ..Default::default() };

        // Validate; collect invalidated transactions for re-execution.
        let mut retry: Vec<usize> = Vec::new();
        for (i, r) in results.iter().enumerate() {
            match validate_read_set(r, &self.state) {
                ValidationVerdict::Valid => {
                    self.state.apply_writes(&r.write_set, Version::new(height, i as u32));
                    outcome.committed.push(txs[i].id);
                }
                ValidationVerdict::Stale { .. } => retry.push(i),
                ValidationVerdict::ExecutionFailed => outcome.record_exec_abort(r),
            }
        }

        // Post-order execution: serial, against current state.
        for i in retry {
            outcome.sequential_steps += 1;
            let r = execute_and_apply(
                &txs[i],
                &mut self.state,
                Version::new(height, (txs.len() + i) as u32),
            );
            if r.is_success() {
                outcome.committed.push(txs[i].id);
                outcome.reexecuted.push(txs[i].id);
            } else {
                outcome.record_exec_abort(&r);
            }
        }
        trace_stage("xox", "validate-reexecute", seal, height, outcome.sequential_steps);
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        "XOX"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xov::XovPipeline;
    use pbc_types::tx::{balance_of, balance_value};
    use pbc_types::{ClientId, Op, Transaction, TxId};

    fn transfer(id: u64, from: &str, to: &str, amount: u64) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Transfer { from: from.into(), to: to.into(), amount }],
        )
    }

    fn seeded(accounts: usize, balance: u64) -> StateStore {
        let mut s = StateStore::new();
        for i in 0..accounts {
            s.put(format!("acc{i}"), balance_value(balance), Version::new(0, i as u32));
        }
        s
    }

    #[test]
    fn invalidated_transactions_are_salvaged() {
        let mut p = XoxPipeline::with_state(seeded(2, 100));
        // Under plain XOV only the first commits; XOX re-executes the rest.
        let txs: Vec<Transaction> = (0..5).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 5);
        assert_eq!(outcome.reexecuted.len(), 4);
        assert_eq!(balance_of(p.state().get("acc0")), 50);
        assert_eq!(balance_of(p.state().get("acc1")), 150);
    }

    #[test]
    fn xox_commits_more_than_xov_under_contention() {
        let initial = seeded(2, 100);
        let txs: Vec<Transaction> = (0..6).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let mut xov = XovPipeline::with_state(initial.clone());
        let mut xox = XoxPipeline::with_state(initial);
        let xov_out = xov.process_block(txs.clone());
        let xox_out = xox.process_block(txs);
        assert!(xox_out.committed.len() > xov_out.committed.len());
    }

    #[test]
    fn intrinsic_failures_still_abort() {
        let mut p = XoxPipeline::with_state(seeded(2, 25));
        // Three transfers of 10 against a balance of 25: the third fails
        // even after re-execution.
        let txs: Vec<Transaction> = (0..3).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 2);
        assert_eq!(outcome.aborted, vec![TxId(2)]);
        assert_eq!(balance_of(p.state().get("acc0")), 5);
    }

    #[test]
    fn conflict_free_block_needs_no_reexecution() {
        let mut p = XoxPipeline::with_state(seeded(8, 100));
        let txs: Vec<Transaction> = (0..4)
            .map(|i| transfer(i, &format!("acc{}", 2 * i), &format!("acc{}", 2 * i + 1), 10))
            .collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 4);
        assert!(outcome.reexecuted.is_empty());
        assert_eq!(outcome.sequential_steps, 1);
    }

    #[test]
    fn state_is_conserved() {
        let mut p = XoxPipeline::with_state(seeded(3, 100));
        let txs: Vec<Transaction> = (0..9)
            .map(|i| transfer(i, &format!("acc{}", i % 3), &format!("acc{}", (i + 1) % 3), 7))
            .collect();
        p.process_block(txs);
        let total: u64 = (0..3).map(|i| balance_of(p.state().get(&format!("acc{i}")))).sum();
        assert_eq!(total, 300, "transfers must conserve total balance");
    }
}
