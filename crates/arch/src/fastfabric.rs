//! FastFabric (Gorenflo et al., §2.3.3): Fabric's XOV with the
//! **validation pipeline parallelized**, targeting conflict-free
//! workloads ("scaling Hyperledger Fabric to 20,000 tx/s").
//!
//! Plain Fabric validates a block's transactions one at a time. FastFabric
//! observes that validation (read-version checks) of *mutually
//! non-conflicting* transactions is embarrassingly parallel: this
//! pipeline groups a block into conflict-free layers and runs each
//! layer's version checks across worker threads, applying write sets
//! between layers. On a conflict-free workload the whole block validates
//! in one parallel step (E4); under contention it degrades gracefully to
//! Fabric's serial behaviour and identical verdicts (tested below).

use crate::pipeline::{
    execute_parallel, par_map, seal_block, spin, trace_stage, BlockOutcome, BlockSeal,
    ExecutionPipeline,
};
use pbc_ledger::{ChainLedger, StateStore, Version};
use pbc_txn::validate::{validate_read_set, ValidationVerdict};
use pbc_txn::DependencyGraph;
use pbc_types::BlockBody;

/// The FastFabric-style pipeline.
#[derive(Debug, Default)]
pub struct FastFabricPipeline {
    state: StateStore,
    ledger: ChainLedger,
    /// Simulated per-transaction validation cost (endorsement-signature
    /// verification) — executed **in parallel** across the layer's
    /// worker threads, which is FastFabric's headline optimization.
    pub validation_work: u32,
}

impl FastFabricPipeline {
    /// A fresh pipeline with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pipeline starting from pre-seeded state.
    pub fn with_state(state: StateStore) -> Self {
        FastFabricPipeline { state, ledger: ChainLedger::new(), validation_work: 0 }
    }

    /// Sets the simulated per-transaction validation cost (builder style).
    pub fn with_validation_work(mut self, work: u32) -> Self {
        self.validation_work = work;
        self
    }
}

impl ExecutionPipeline for FastFabricPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        // Endorse in parallel (same as XOV).
        let results = execute_parallel(&txs, &self.state);
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        // Group the block into conflict-free layers.
        let graph = DependencyGraph::build(txs);
        let layers = graph.layers();
        let mut outcome = BlockOutcome { sequential_steps: layers.len(), ..Default::default() };
        for layer in layers {
            // One conflict-free layer: version checks (and the simulated
            // signature work) run in parallel against the pre-layer state.
            let verdicts = par_map(&layer, |&i| {
                spin(self.validation_work);
                validate_read_set(&results[i], &self.state)
            });
            for (&i, verdict) in layer.iter().zip(verdicts) {
                // The layers were built from *declared* footprints. When a
                // dynamic (VM) transaction under-declared, two genuinely
                // conflicting transactions can share a layer — both would
                // pass the parallel check against the same pre-layer
                // state. The cheap serial re-check below (no simulated
                // crypto cost: that was already paid in parallel) closes
                // the hole; versions never revert, so a parallel `Stale`
                // verdict can never flip back to `Valid` and needs no
                // second look. With correct declarations the re-check
                // never fires and verdicts equal plain Fabric's exactly.
                if verdict == ValidationVerdict::Valid {
                    if validate_read_set(&results[i], &self.state) == ValidationVerdict::Valid {
                        self.state
                            .apply_writes(&results[i].write_set, Version::new(height, i as u32));
                        outcome.committed.push(txs[i].id);
                    } else {
                        outcome.aborted.push(txs[i].id);
                    }
                } else {
                    outcome.record_exec_abort(&results[i]);
                }
            }
        }
        trace_stage("fastfabric", "validate-layers", seal, height, outcome.sequential_steps);
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        "FastFabric"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xov::XovPipeline;
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
    fn conflict_free_block_validates_in_one_step() {
        let mut p = FastFabricPipeline::with_state(seeded(40, 100));
        let txs: Vec<Transaction> = (0..20)
            .map(|i| transfer(i, &format!("acc{}", 2 * i), &format!("acc{}", 2 * i + 1), 1))
            .collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.sequential_steps, 1);
        assert_eq!(outcome.committed.len(), 20);
    }

    #[test]
    fn verdicts_match_plain_xov() {
        // Same commits/aborts as serial Fabric validation, any workload.
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let initial = seeded(5, 300);
            let txs: Vec<Transaction> = (0..16)
                .map(|i| {
                    let a = rng.gen_range(0..5);
                    let b = rng.gen_range(0..5);
                    transfer(i, &format!("acc{a}"), &format!("acc{b}"), rng.gen_range(1..10))
                })
                .collect();
            let mut xov = XovPipeline::with_state(initial.clone());
            let mut ff = FastFabricPipeline::with_state(initial);
            let xo = xov.process_block(txs.clone());
            let fo = ff.process_block(txs);
            let mut xc = xo.committed.clone();
            let mut fc = fo.committed.clone();
            xc.sort_unstable();
            fc.sort_unstable();
            assert_eq!(xc, fc, "trial {trial}: commit sets diverge");
            assert!(
                pbc_txn::serial::values_equal(xov.state(), ff.state()),
                "trial {trial}: state diverged"
            );
        }
    }

    #[test]
    fn contention_still_first_committer_wins() {
        let mut p = FastFabricPipeline::with_state(seeded(2, 100));
        let txs: Vec<Transaction> = (0..4).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed, vec![TxId(0)]);
        assert_eq!(outcome.aborted.len(), 3);
    }

    #[test]
    fn under_declared_vm_txs_match_plain_xov() {
        // Two VM transfers from acc0 that both *declare* disjoint decoy
        // footprints land in the same conflict-free layer. The parallel
        // check sees both as Valid against pre-layer state; the serial
        // re-check must restore Fabric's first-committer-wins verdicts.
        let vm_transfer = |id: u64, from: &str, to: &str, amount: u64, decoy: &str| {
            let ops = [Op::Transfer { from: from.into(), to: to.into(), amount }];
            let prog = pbc_vm::compile_ops(&ops);
            Transaction::invoke(
                TxId(id),
                ClientId(0),
                pbc_types::VmCall {
                    bytecode: bytes::Bytes::from(prog.to_bytes()),
                    args: vec![],
                    gas_limit: 1_000,
                    declared_reads: vec![decoy.into()],
                    declared_writes: vec![decoy.into()],
                },
            )
        };
        let initial = seeded(3, 100);
        let txs = vec![
            vm_transfer(0, "acc0", "acc1", 60, "decoy_a"),
            vm_transfer(1, "acc0", "acc2", 60, "decoy_b"),
        ];
        let mut ff = FastFabricPipeline::with_state(initial.clone());
        let fo = ff.process_block(txs.clone());
        // Both in one layer (decoys don't conflict) …
        assert_eq!(fo.sequential_steps, 1);
        // … yet only the first commits, exactly like serial Fabric.
        let mut xov = XovPipeline::with_state(initial);
        let xo = xov.process_block(txs);
        assert_eq!(fo.committed, xo.committed);
        assert_eq!(fo.aborted, xo.aborted);
        assert!(pbc_txn::serial::values_equal(ff.state(), xov.state()));
        assert_eq!(balance_of(ff.state().get("acc0")), 40);
    }

    #[test]
    fn ledger_stays_verifiable() {
        let mut p = FastFabricPipeline::with_state(seeded(4, 100));
        for b in 0..3 {
            let txs: Vec<Transaction> =
                (0..4).map(|i| transfer(b * 4 + i, "acc0", "acc1", 1)).collect();
            p.process_block(txs);
        }
        p.ledger().verify().unwrap();
        assert_eq!(p.ledger().len(), 4);
    }
}
