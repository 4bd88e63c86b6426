//! The order-parallel-execute (OXII) architecture — ParBlockchain
//! (§2.3.3, pessimistic with parallelism).
//!
//! After ordering, the orderer constructs a **dependency graph** for the
//! block (`pbc_txn::DependencyGraph`); executors then execute the block
//! layer by layer: all transactions in a topological layer are mutually
//! non-conflicting and run in parallel, and each layer observes the
//! writes of the layers before it. The result is bit-identical to
//! sequential execution (the property tests assert this) while contended
//! blocks still extract whatever parallelism the conflict structure
//! allows — the paper's "supports contentious workloads" claim (E2).

use crate::pipeline::{
    par_map, seal_block, trace_stage, BlockOutcome, BlockSeal, ExecutionPipeline,
};
use pbc_ledger::{ChainLedger, StateStore, Version};
use pbc_txn::DependencyGraph;
use pbc_types::BlockBody;

/// The ParBlockchain-style pipeline.
#[derive(Debug, Default)]
pub struct OxiiPipeline {
    state: StateStore,
    ledger: ChainLedger,
}

impl OxiiPipeline {
    /// A fresh pipeline with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pipeline starting from pre-seeded state.
    pub fn with_state(state: StateStore) -> Self {
        OxiiPipeline { state, ledger: ChainLedger::new() }
    }
}

impl ExecutionPipeline for OxiiPipeline {
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome {
        let (height, txs) = seal_block(&mut self.ledger, seal, txs);
        // Orderer side: dependency graph over the ordered block.
        let graph = DependencyGraph::build(txs);
        let layers = graph.layers();
        let mut outcome = BlockOutcome { sequential_steps: layers.len(), ..Default::default() };
        // Executor side: parallel within a layer, barrier between layers.
        //
        // The graph is built from *declared* footprints, which dynamic
        // (VM) transactions may get wrong — so the layer's speculative
        // results must be validated before they commit. A result is a
        // *mispredict* when any recorded read's version no longer
        // matches the state the commit pass sees (an undeclared
        // conflict with an earlier transaction of the same layer);
        // ParBlockchain's remedy is serial re-execution in block order.
        // With correct declarations layers are conflict-free, no read
        // is ever stale, and this path reduces bit-for-bit to the
        // original commit loop.
        for layer in layers {
            // `layer` holds block positions in ascending order, so the
            // commit pass below runs in block order.
            let results = par_map(&layer, |&i| pbc_ledger::execute(&txs[i], &self.state));
            for (&idx, result) in layer.iter().zip(results) {
                let tx = &txs[idx];
                let stale =
                    result.read_set.iter().any(|(key, seen)| self.state.version(key) != *seen);
                if stale {
                    // Speculation lost: re-execute against current state
                    // at the tx's block position (same stamp it would
                    // have received had the prediction been right).
                    let r = pbc_ledger::execute_and_apply(
                        tx,
                        &mut self.state,
                        Version::new(height, idx as u32),
                    );
                    outcome.mispredicted.push(tx.id);
                    if r.is_success() {
                        outcome.committed.push(tx.id);
                    } else {
                        outcome.record_exec_abort(&r);
                    }
                } else if result.is_success() {
                    // Version stamps use the tx's position in the block.
                    self.state.apply_writes(&result.write_set, Version::new(height, idx as u32));
                    outcome.committed.push(tx.id);
                } else {
                    outcome.record_exec_abort(&result);
                }
            }
        }
        trace_stage("oxii", "execute-layers", seal, height, outcome.sequential_steps);
        outcome
    }

    fn state(&self) -> &StateStore {
        &self.state
    }

    fn ledger(&self) -> &ChainLedger {
        &self.ledger
    }

    fn name(&self) -> &'static str {
        "OXII"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ox::OxPipeline;
    use pbc_types::tx::balance_value;
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
    fn disjoint_block_runs_in_one_layer() {
        let mut p = OxiiPipeline::with_state(seeded(8, 100));
        let txs: Vec<Transaction> = (0..4)
            .map(|i| transfer(i, &format!("acc{}", 2 * i), &format!("acc{}", 2 * i + 1), 10))
            .collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.sequential_steps, 1);
        assert_eq!(outcome.committed.len(), 4);
    }

    #[test]
    fn contended_block_serializes_correctly() {
        let mut p = OxiiPipeline::with_state(seeded(2, 100));
        // All touch acc0 → fully serial layers.
        let txs: Vec<Transaction> = (0..5).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.sequential_steps, 5);
        assert_eq!(outcome.committed.len(), 5);
        assert_eq!(
            pbc_types::tx::balance_of(p.state().get("acc0")),
            50,
            "all five transfers applied"
        );
    }

    #[test]
    fn oxii_equals_ox_on_random_workloads() {
        // The load-bearing property: OXII's parallel schedule produces
        // exactly the state OX's serial schedule produces.
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..10 {
            let initial = seeded(6, 100);
            let txs: Vec<Transaction> = (0..20)
                .map(|i| {
                    let a = rng.gen_range(0..6);
                    let b = rng.gen_range(0..6);
                    transfer(i, &format!("acc{a}"), &format!("acc{b}"), rng.gen_range(1..30))
                })
                .collect();
            let mut ox = OxPipeline::with_state(initial.clone());
            let mut oxii = OxiiPipeline::with_state(initial);
            let ox_out = ox.process_block(txs.clone());
            let oxii_out = oxii.process_block(txs);
            // OXII reports commits in layer order; compare as sets.
            let mut a = ox_out.committed.clone();
            let mut b = oxii_out.committed.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "trial {trial}");
            assert!(
                pbc_txn::serial::values_equal(ox.state(), oxii.state()),
                "trial {trial}: state diverged"
            );
            assert!(oxii_out.sequential_steps <= ox_out.sequential_steps);
        }
    }

    #[test]
    fn parallelism_beats_serial_steps_at_low_contention() {
        let mut p = OxiiPipeline::with_state(seeded(40, 100));
        let txs: Vec<Transaction> = (0..20)
            .map(|i| transfer(i, &format!("acc{}", 2 * i), &format!("acc{}", 2 * i + 1), 1))
            .collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.sequential_steps, 1, "disjoint block: single layer");
    }

    #[test]
    fn intrinsic_failures_abort_in_order_position() {
        let mut p = OxiiPipeline::with_state(seeded(2, 25));
        // First two succeed (10+10 ≤ 25), third fails (only 5 left).
        let txs: Vec<Transaction> = (0..3).map(|i| transfer(i, "acc0", "acc1", 10)).collect();
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed, vec![TxId(0), TxId(1)]);
        assert_eq!(outcome.aborted, vec![TxId(2)]);
    }

    /// A VM transfer whose *declared* footprint is whatever the caller
    /// says — the tool for manufacturing wrong predictions.
    fn vm_transfer(
        id: u64,
        from: &str,
        to: &str,
        amount: u64,
        declared: (&[&str], &[&str]),
    ) -> Transaction {
        let p = pbc_vm::compile_ops(&[Op::Transfer { from: from.into(), to: to.into(), amount }]);
        Transaction::invoke(
            TxId(id),
            ClientId(0),
            pbc_types::VmCall {
                bytecode: bytes::Bytes::from(p.to_bytes()),
                args: vec![],
                gas_limit: p.straight_line_gas(),
                declared_reads: declared.0.iter().map(|s| s.to_string()).collect(),
                declared_writes: declared.1.iter().map(|s| s.to_string()).collect(),
            },
        )
    }

    #[test]
    fn correct_declarations_never_mispredict() {
        let mut p = OxiiPipeline::with_state(seeded(2, 100));
        let txs = vec![
            transfer(0, "acc0", "acc1", 10),
            vm_transfer(1, "acc0", "acc1", 10, (&["acc0", "acc1"], &["acc0", "acc1"])),
        ];
        let outcome = p.process_block(txs);
        assert_eq!(outcome.committed.len(), 2);
        assert!(outcome.mispredicted.is_empty());
        assert_eq!(pbc_types::tx::balance_of(p.state().get("acc0")), 80);
    }

    #[test]
    fn wrong_declaration_is_caught_and_salvaged() {
        // tx1 claims it touches only "decoy", so the depgraph schedules
        // it alongside tx0 — but it actually drains acc0. The layer's
        // speculative read of acc0 goes stale when tx0 applies; OXII
        // must detect the mispredict and re-execute serially, landing
        // on the same state OX produces.
        let initial = seeded(2, 100);
        let mut oxii = OxiiPipeline::with_state(initial.clone());
        let txs = vec![
            transfer(0, "acc0", "acc1", 10),
            vm_transfer(1, "acc0", "acc1", 10, (&["decoy"], &["decoy"])),
        ];
        let outcome = oxii.process_block(txs.clone());
        assert_eq!(outcome.sequential_steps, 1, "declared footprints put both in one layer");
        assert_eq!(outcome.mispredicted, vec![TxId(1)]);
        assert_eq!(outcome.committed.len(), 2);
        let mut ox = crate::ox::OxPipeline::with_state(initial);
        ox.process_block(txs);
        assert!(
            pbc_txn::serial::values_equal(ox.state(), oxii.state()),
            "salvaged schedule must equal serial execution"
        );
        assert_eq!(pbc_types::tx::balance_of(oxii.state().get("acc0")), 80);
    }

    #[test]
    fn mispredicted_out_of_gas_lands_in_both_buckets() {
        // A program that reads acc0 (undeclared!) and then burns past
        // its budget: the stale read makes it a mispredict, and the
        // serial re-execution exhausts gas again — the abort must land
        // in `aborted`, `out_of_gas`, *and* `mispredicted`.
        let mut p = OxiiPipeline::with_state(seeded(2, 100));
        let prog = pbc_vm::Program {
            code: vec![
                pbc_vm::Instr::Push(0),
                pbc_vm::Instr::Get,
                pbc_vm::Instr::Pop,
                pbc_vm::Instr::Burn(1000),
            ],
            keys: vec!["acc0".into()],
            consts: vec![],
        };
        let starving = Transaction::invoke(
            TxId(1),
            ClientId(0),
            pbc_types::VmCall {
                bytecode: bytes::Bytes::from(prog.to_bytes()),
                args: vec![],
                // Enough for the read (1+10+1 gas), nowhere near the
                // 1001-gas burn.
                gas_limit: 15,
                declared_reads: vec!["decoy".into()],
                declared_writes: vec!["decoy".into()],
            },
        );
        let txs = vec![transfer(0, "acc0", "acc1", 10), starving];
        let outcome = p.process_block(txs);
        assert_eq!(outcome.aborted, vec![TxId(1)]);
        assert_eq!(outcome.out_of_gas, vec![TxId(1)]);
        assert_eq!(outcome.mispredicted, vec![TxId(1)]);
        assert_eq!(outcome.committed, vec![TxId(0)]);
    }

    #[test]
    fn multiple_blocks_accumulate_state() {
        let mut p = OxiiPipeline::with_state(seeded(2, 100));
        p.process_block(vec![transfer(1, "acc0", "acc1", 10)]);
        p.process_block(vec![transfer(2, "acc0", "acc1", 10)]);
        assert_eq!(pbc_types::tx::balance_of(p.state().get("acc1")), 120);
        p.ledger().verify().unwrap();
    }
}
