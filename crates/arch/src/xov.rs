//! The execute-order-validate (XOV) architecture — Hyperledger Fabric
//! (§2.3.3, optimistic; first introduced by Eve in the SMR context).
//!
//! 1. **Execute** (endorse): all transactions run in parallel against the
//!    last committed state, recording versioned read sets and buffered
//!    write sets.
//! 2. **Order**: the batch is sequenced (batch order here; the real
//!    ordering service is `pbc-consensus`, wired up in `pbc-core`).
//! 3. **Validate**: in order, each transaction's read versions are
//!    checked against current state; stale reads abort ("disregard the
//!    effects of conflicting transactions" — the contention weakness E2
//!    measures).
//!
//! [`ReorderPolicy`] interposes Fabric++ or FabricSharp in-block
//! reordering between steps 2 and 3 (E3).

use crate::pipeline::{
    execute_parallel, seal_block, trace_stage, BlockOutcome, BlockSeal, ExecutionPipeline,
};
use pbc_ledger::{ChainLedger, StateStore, Version};
use pbc_txn::validate::{validate_read_set, ValidationVerdict};
use pbc_txn::{fabric_pp_reorder, fabric_sharp_reorder};
use pbc_types::BlockBody;

/// Which in-block reordering runs before validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReorderPolicy {
    /// Plain Fabric: validate in arrival order.
    #[default]
    None,
    /// Fabric++: strict-serializability reorder + greedy cycle abort.
    FabricPP,
    /// FabricSharp: early filter + minimal-abort reorder.
    FabricSharp,
}

/// The Fabric-style pipeline.
#[derive(Debug, Default)]
pub struct XovPipeline {
    state: StateStore,
    ledger: ChainLedger,
    /// Active reorder policy.
    pub reorder: ReorderPolicy,
    /// Simulated per-transaction validation cost (endorsement-signature
    /// verification; dominates real Fabric's committer). Serial here —
    /// FastFabric's whole point is parallelizing it.
    pub validation_work: u32,
}

impl XovPipeline {
    /// Plain Fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pipeline starting from pre-seeded state.
    pub fn with_state(state: StateStore) -> Self {
        XovPipeline {
            state,
            ledger: ChainLedger::new(),
            reorder: ReorderPolicy::None,
            validation_work: 0,
        }
    }

    /// Sets the reorder policy (builder style).
    pub fn with_reorder(mut self, policy: ReorderPolicy) -> Self {
        self.reorder = policy;
        self
    }

    /// Sets the simulated per-transaction validation cost (builder style).
    pub fn with_validation_work(mut self, work: u32) -> Self {
        self.validation_work = work;
        self
    }
}

impl ExecutionPipeline for XovPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        // 1. Execute/endorse in parallel against the committed snapshot.
        let results = execute_parallel(&txs, &self.state);
        // 2. Order: seal the block in batch order.
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        let mut outcome = BlockOutcome { sequential_steps: 1, ..Default::default() };

        // 2.5 Optional reordering.
        let (order, pre_aborted): (Vec<usize>, Vec<usize>) = match self.reorder {
            ReorderPolicy::None => ((0..txs.len()).collect(), Vec::new()),
            ReorderPolicy::FabricPP => {
                let o = fabric_pp_reorder(&results);
                (o.order, o.aborted)
            }
            ReorderPolicy::FabricSharp => {
                let o = fabric_sharp_reorder(&results, &self.state);
                (o.order, o.aborted)
            }
        };
        for &i in &pre_aborted {
            outcome.record_exec_abort(&results[i]);
        }

        // 3. Validate serially in (possibly reordered) order.
        for (pos, &i) in order.iter().enumerate() {
            crate::pipeline::spin(self.validation_work);
            let verdict = validate_read_set(&results[i], &self.state);
            if verdict == ValidationVerdict::Valid {
                self.state.apply_writes(&results[i].write_set, Version::new(height, pos as u32));
                outcome.committed.push(txs[i].id);
            } else {
                outcome.record_exec_abort(&results[i]);
            }
        }
        trace_stage("xov", "validate-serial", seal, height, order.len());
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        match self.reorder {
            ReorderPolicy::None => "XOV",
            ReorderPolicy::FabricPP => "XOV+Fabric++",
            ReorderPolicy::FabricSharp => "XOV+FabricSharp",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::tx::{balance_of, balance_value};
    use pbc_types::{ClientId, Op, Transaction, TxId};
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
    fn conflict_free_block_commits_fully() {
        let mut p = XovPipeline::with_state(seeded(8, 100));
        let txs: Vec<Transaction> = (0..4)
            .map(|i| transfer(i, &format!("acc{}", 2 * i), &format!("acc{}", 2 * i + 1), 10))
            .collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 4);
        assert!(outcome.aborted.is_empty());
    }

    #[test]
    fn contention_causes_first_committer_wins() {
        let mut p = XovPipeline::with_state(seeded(2, 100));
        // All endorsed against the same snapshot; only the first validates.
        let txs: Vec<Transaction> = (0..5).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed, vec![TxId(0)]);
        assert_eq!(outcome.aborted.len(), 4);
        assert_eq!(balance_of(p.state().get("acc0")), 90, "only one transfer applied");
    }

    #[test]
    fn aborted_effects_never_leak() {
        let mut p = XovPipeline::with_state(seeded(2, 100));
        let txs: Vec<Transaction> = (0..3).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        p.process_block(txs);
        // acc0 + acc1 must still sum to 200.
        let total = balance_of(p.state().get("acc0")) + balance_of(p.state().get("acc1"));
        assert_eq!(total, 200);
    }

    #[test]
    fn committed_prefix_is_serializable() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let initial = seeded(5, 200);
            let txs: Vec<Transaction> = (0..15)
                .map(|i| {
                    let a = rng.gen_range(0..5);
                    let b = rng.gen_range(0..5);
                    transfer(i, &format!("acc{a}"), &format!("acc{b}"), rng.gen_range(1..20))
                })
                .collect();
            let mut p = XovPipeline::with_state(initial.clone());
            let outcome = p.process_block(txs.clone());
            let committed: Vec<&Transaction> = outcome
                .committed
                .iter()
                .map(|id| txs.iter().find(|t| t.id == *id).unwrap())
                .collect();
            assert!(
                pbc_txn::serial::equivalent_to_serial(&committed, &initial, p.state()),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn reordering_improves_commit_rate_under_contention() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut plain_total = 0usize;
        let mut sharp_total = 0usize;
        for _ in 0..10 {
            let initial = seeded(4, 1000);
            let txs: Vec<Transaction> = (0..12)
                .map(|i| {
                    let a = rng.gen_range(0..4);
                    let b = rng.gen_range(0..4);
                    transfer(i, &format!("acc{a}"), &format!("acc{b}"), 1)
                })
                .collect();
            let mut plain = XovPipeline::with_state(initial.clone());
            let mut sharp =
                XovPipeline::with_state(initial).with_reorder(ReorderPolicy::FabricSharp);
            plain_total += plain.process_block(txs.clone()).committed.len();
            sharp_total += sharp.process_block(txs).committed.len();
        }
        assert!(
            sharp_total >= plain_total,
            "sharp {sharp_total} must commit at least plain {plain_total}"
        );
    }

    #[test]
    fn fabric_pp_also_serializable() {
        let mut rng = StdRng::seed_from_u64(13);
        let initial = seeded(4, 500);
        let txs: Vec<Transaction> = (0..12)
            .map(|i| {
                let a = rng.gen_range(0..4);
                let b = rng.gen_range(0..4);
                transfer(i, &format!("acc{a}"), &format!("acc{b}"), 3)
            })
            .collect();
        let mut p = XovPipeline::with_state(initial.clone()).with_reorder(ReorderPolicy::FabricPP);
        let outcome = p.process_block(txs.clone());
        // Committed set replayed in the *reordered* commit order.
        let committed: Vec<&Transaction> =
            outcome.committed.iter().map(|id| txs.iter().find(|t| t.id == *id).unwrap()).collect();
        assert!(pbc_txn::serial::equivalent_to_serial(&committed, &initial, p.state()));
    }

    #[test]
    fn name_reflects_policy() {
        assert_eq!(XovPipeline::new().name(), "XOV");
        assert_eq!(
            XovPipeline::new().with_reorder(ReorderPolicy::FabricSharp).name(),
            "XOV+FabricSharp"
        );
    }
}
