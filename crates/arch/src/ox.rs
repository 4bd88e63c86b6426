//! The order-execute (OX) architecture (§2.3.3, pessimistic).
//!
//! The baseline used by Tendermint, Quorum, Multichain, Chain Core,
//! Hyperledger Iroha, and Corda: transactions are first ordered (here the
//! input batch order stands in for the consensus output, which
//! `pbc-consensus` produces in the integrated stack), then **executed
//! sequentially in that order** by every executor. No transaction ever
//! aborts for concurrency reasons — at the price of zero execution
//! parallelism, the weakness E2 measures.

use crate::pipeline::{seal_block, trace_stage, BlockOutcome, BlockSeal, ExecutionPipeline};
use pbc_ledger::{execute_and_apply, ChainLedger, StateStore, Version};
use pbc_types::BlockBody;

/// The order-execute pipeline.
#[derive(Debug, Default)]
pub struct OxPipeline {
    state: StateStore,
    ledger: ChainLedger,
}

impl OxPipeline {
    /// A fresh pipeline with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pipeline starting from pre-seeded state.
    pub fn with_state(state: StateStore) -> Self {
        OxPipeline { state, ledger: ChainLedger::new() }
    }
}

impl ExecutionPipeline for OxPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        let mut outcome = BlockOutcome { sequential_steps: txs.len(), ..Default::default() };
        for (i, tx) in txs.iter().enumerate() {
            let r = execute_and_apply(tx, &mut self.state, Version::new(height, i as u32));
            if r.is_success() {
                outcome.committed.push(tx.id);
            } else {
                // Only intrinsic failures (insufficient funds, VM aborts,
                // out-of-gas) abort under OX — never concurrency.
                outcome.record_exec_abort(&r);
            }
        }
        trace_stage("ox", "execute-sequential", seal, height, outcome.sequential_steps);
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        "OX"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_ledger::Version;
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
        s.put("a", balance_value(100), Version::new(0, 0));
        s.put("b", balance_value(0), Version::new(0, 1));
        s
    }

    #[test]
    fn sequential_execution_handles_total_contention() {
        // Ten transfers all touching the same account: OX commits all.
        let mut p = OxPipeline::with_state(seeded());
        let txs: Vec<Transaction> = (0..10).map(|i| transfer(i, "a", "b", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 10);
        assert_eq!(outcome.aborted.len(), 0);
        assert_eq!(balance_of(p.state().get("a")), 0);
        assert_eq!(balance_of(p.state().get("b")), 100);
    }

    #[test]
    fn intrinsic_failure_aborts() {
        let mut p = OxPipeline::with_state(seeded());
        let outcome = p.process_block(vec![transfer(1, "a", "b", 500)]);
        assert_eq!(outcome.aborted, vec![TxId(1)]);
        assert_eq!(balance_of(p.state().get("a")), 100);
    }

    #[test]
    fn blocks_chain_on_ledger() {
        let mut p = OxPipeline::with_state(seeded());
        p.process_block(vec![transfer(1, "a", "b", 1)]);
        p.process_block(vec![transfer(2, "a", "b", 1)]);
        assert_eq!(p.ledger().len(), 3); // genesis + 2
        p.ledger().verify().unwrap();
    }

    #[test]
    fn sequential_steps_equal_block_size() {
        let mut p = OxPipeline::with_state(seeded());
        let outcome = p.process_block((0..7).map(|i| transfer(i, "a", "b", 1)).collect());
        assert_eq!(outcome.sequential_steps, 7);
    }

    #[test]
    fn matches_serial_oracle() {
        let initial = seeded();
        let mut p = OxPipeline::with_state(initial.clone());
        let txs: Vec<Transaction> = (0..6).map(|i| transfer(i, "a", "b", 30)).collect();
        let outcome = p.process_block(txs.clone());
        let committed: Vec<&Transaction> =
            outcome.committed.iter().map(|id| txs.iter().find(|t| t.id == *id).unwrap()).collect();
        assert!(pbc_txn::serial::equivalent_to_serial(&committed, &initial, p.state()));
    }
}
