//! The common pipeline interface and parallel-execution helpers.

use pbc_ledger::{ChainLedger, ExecResult, StateStore};
use pbc_types::{Block, BlockBody, NodeId, Transaction, TxId};
use std::sync::OnceLock;

/// Per-block accounting every pipeline reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Transactions whose effects were committed.
    pub committed: Vec<TxId>,
    /// Transactions aborted (stale reads, conflicts, execution failures).
    pub aborted: Vec<TxId>,
    /// Transactions salvaged by re-execution (XOX only).
    pub reexecuted: Vec<TxId>,
    /// Transactions whose *declared* footprint proved wrong: OXII
    /// scheduled them from the prediction, caught the stale speculative
    /// read after the layer ran, and re-executed them serially. A
    /// subset of `committed`/`aborted`, disjoint from `reexecuted`.
    pub mispredicted: Vec<TxId>,
    /// Transactions aborted specifically because a VM program exhausted
    /// its gas budget. Always a subset of `aborted`; tracked separately
    /// so the ingress conservation identity can account for it.
    pub out_of_gas: Vec<TxId>,
    /// Sequential execution steps the block needed (OXII: layer count;
    /// OX: transaction count; XOV: 1 endorsement round).
    pub sequential_steps: usize,
}

impl BlockOutcome {
    /// Commit rate over the block.
    pub fn commit_rate(&self) -> f64 {
        let total = self.committed.len() + self.aborted.len();
        if total == 0 {
            1.0
        } else {
            self.committed.len() as f64 / total as f64
        }
    }

    /// Records an execution-failure abort, classifying out-of-gas into
    /// its dedicated bucket (single chokepoint so no pipeline forgets).
    pub fn record_exec_abort(&mut self, result: &ExecResult) {
        self.aborted.push(result.tx_id);
        if result.status.is_out_of_gas() {
            self.out_of_gas.push(result.tx_id);
        }
    }
}

/// Metadata the consensus layer binds into a sealed block's header: who
/// proposed the batch and when it was decided. Every replica must use
/// the *same* seal for the same sequence number, or their head hashes
/// diverge even though they executed identical transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSeal {
    /// The node that proposed/led the batch's decision.
    pub proposer: NodeId,
    /// The decision timestamp (logical simulation ticks).
    pub time: u64,
}

impl BlockSeal {
    /// The seal standalone (consensus-less) pipeline runs use: proposer 0
    /// and the block height as the timestamp — deterministic without any
    /// consensus context.
    pub fn standalone(height: u64) -> BlockSeal {
        BlockSeal { proposer: NodeId(0), time: height }
    }
}

/// A transaction-processing architecture: consumes ordered client
/// batches, commits blocks to a ledger, maintains the state.
pub trait ExecutionPipeline {
    /// Processes one block's worth of transactions, sealing the block
    /// with consensus-provided metadata. The body is sealed as given, so
    /// replicas handed clones of one decided body share its Merkle root.
    fn process_block_sealed(&mut self, txs: BlockBody, seal: BlockSeal) -> BlockOutcome;

    /// Processes one block with a [`BlockSeal::standalone`] seal —
    /// the path for benchmarks and single-node pipeline tests that run
    /// without a consensus layer.
    fn process_block(&mut self, txs: Vec<Transaction>) -> BlockOutcome {
        let seal = BlockSeal::standalone(self.ledger().height().next().0);
        self.process_block_sealed(txs.into(), seal)
    }

    /// The committed state.
    fn state(&self) -> &StateStore;

    /// The block ledger.
    fn ledger(&self) -> &ChainLedger;

    /// Architecture name for reports.
    fn name(&self) -> &'static str;
}

/// Records a completed pipeline stage in the trace layer (a no-op unless
/// a [`pbc_trace`] sink is installed). The event is stamped with the
/// block's seal time — the consensus decision tick in integrated runs,
/// the height in standalone runs — so Chrome-trace exports line stages up
/// against the consensus events that produced them.
#[inline]
pub fn trace_stage(
    pipeline: &'static str,
    stage: &'static str,
    seal: BlockSeal,
    height: u64,
    steps: usize,
) {
    pbc_trace::emit(seal.time, || pbc_trace::TraceEvent::Stage {
        pipeline,
        stage,
        height,
        steps: steps as u64,
    });
}

/// Fewest items each worker thread must receive before [`par_map`]
/// spawns any. Spawn + join costs about a dozen items of the cheapest
/// work the pipelines hand over (a ≈6 µs `pbc_ledger::execute`); at this
/// many per worker threads win on that work by a clear margin, measured
/// by the crossover rows of `e12_block_path` (EXPERIMENTS.md E20).
const MIN_CHUNK: usize = 32;

/// Maps `f` over `items`, preserving input order in the results. Runs on
/// the calling thread unless every worker would receive at least
/// [`MIN_CHUNK`] items; otherwise splits the slice evenly across scoped
/// threads, the caller taking the first chunk itself.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    // Read once: the lookup is a syscall plus cgroup file reads.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let workers = cores.min(items.len() / MIN_CHUNK);
    if workers < 2 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("at least two chunks");
    std::thread::scope(|s| {
        let handles: Vec<_> =
            chunks.map(|chunk| s.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())).collect();
        let mut results = Vec::with_capacity(items.len());
        results.extend(first.iter().map(f));
        for h in handles {
            results.extend(h.join().expect("par_map worker panicked"));
        }
        results
    })
}

/// Executes `txs` against a shared read-only state snapshot, preserving
/// input order in the results; on worker threads when the batch is large
/// enough to be worth spawning them.
pub fn execute_parallel(txs: &[Transaction], state: &StateStore) -> Vec<ExecResult> {
    par_map(txs, |tx| pbc_ledger::execute(tx, state))
}

/// Burns `work` abstract units of CPU (the simulated cost of a
/// per-transaction cryptographic check, e.g. endorsement-signature
/// verification during validation). One unit ≈ a few nanoseconds.
pub fn spin(work: u32) {
    let mut x = 0x9e3779b97f4a7c15u64 ^ (work as u64);
    for _ in 0..work {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

/// Appends a block of `txs` to `ledger` under `seal` (helper shared by
/// pipelines) and returns its height and the sealed transactions, which
/// the caller borrows from the ledger instead of keeping a copy. The
/// seal's proposer and timestamp are hashed into the header, so replicas
/// must agree on the seal to agree on the chain; the transaction root
/// comes from the body's memo.
pub fn seal_block(
    ledger: &mut ChainLedger,
    seal: BlockSeal,
    txs: impl Into<BlockBody>,
) -> (u64, &[Transaction]) {
    let height = ledger.height().next();
    let block = Block::build(height, ledger.head_hash(), seal.proposer, seal.time, txs);
    ledger.append(block).expect("pipeline-built blocks are always valid");
    (height.0, &ledger.head().txs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_ledger::Version;
    use pbc_types::tx::balance_value;
    use pbc_types::{ClientId, Op};

    fn seeded(n: usize) -> StateStore {
        let mut s = StateStore::new();
        for i in 0..n {
            s.put(format!("k{i}"), balance_value(1000), Version::new(1, i as u32));
        }
        s
    }

    fn get_tx(id: u64, key: &str) -> Transaction {
        Transaction::new(TxId(id), ClientId(0), vec![Op::Get { key: key.into() }])
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let state = seeded(32);
        let txs: Vec<Transaction> = (0..32).map(|i| get_tx(i, &format!("k{i}"))).collect();
        let par = execute_parallel(&txs, &state);
        let seq: Vec<_> = txs.iter().map(|t| pbc_ledger::execute(t, &state)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_small_batch_inline_path() {
        let state = seeded(2);
        let txs = vec![get_tx(0, "k0"), get_tx(1, "k1")];
        assert_eq!(execute_parallel(&txs, &state).len(), 2);
        // Below the minimum chunk per worker nothing is spawned: empty,
        // single-item and just-too-small inputs all run on the caller.
        let caller = std::thread::current().id();
        for n in [0, 1, MIN_CHUNK, 2 * MIN_CHUNK - 1] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map(&items, |&i| (i, std::thread::current().id()));
            let expected: Vec<_> = items.iter().map(|&i| (i, caller)).collect();
            assert_eq!(out, expected, "n={n}");
        }
    }

    #[test]
    fn parallel_preserves_order() {
        let state = seeded(100);
        let txs: Vec<Transaction> = (0..100).map(|i| get_tx(i, &format!("k{}", i % 10))).collect();
        let results = execute_parallel(&txs, &state);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.tx_id, TxId(i as u64));
        }
        // At the minimum chunk per worker the work is spread over
        // threads, the caller among them, and still comes back in order.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 2 {
            let items: Vec<usize> = (0..4 * MIN_CHUNK + 3).collect();
            let out = par_map(&items, |&i| (i, std::thread::current().id()));
            assert!(out.iter().map(|(i, _)| *i).eq(items.iter().copied()));
            let ids: std::collections::HashSet<_> = out.iter().map(|(_, id)| *id).collect();
            assert!(ids.len() >= 2, "cores={cores}: {} thread(s)", ids.len());
            assert!(ids.contains(&std::thread::current().id()));
        }
    }

    #[test]
    fn seal_block_chains() {
        let mut ledger = ChainLedger::new();
        let h1 = seal_block(&mut ledger, BlockSeal::standalone(1), vec![get_tx(1, "a")]).0;
        let h2 = seal_block(&mut ledger, BlockSeal::standalone(2), vec![get_tx(2, "b")]).0;
        assert_eq!(h1, 1);
        assert_eq!(h2, 2);
        ledger.verify().unwrap();
    }

    #[test]
    fn seal_metadata_lands_in_header_and_hash() {
        let mut a = ChainLedger::new();
        let mut b = ChainLedger::new();
        seal_block(&mut a, BlockSeal { proposer: NodeId(3), time: 777 }, vec![get_tx(1, "a")]);
        seal_block(&mut b, BlockSeal { proposer: NodeId(4), time: 777 }, vec![get_tx(1, "a")]);
        let ha = a.block_at(pbc_types::Height(1)).unwrap().header.clone();
        assert_eq!(ha.proposer, NodeId(3));
        assert_eq!(ha.time, 777);
        assert_ne!(a.head_hash(), b.head_hash(), "the proposer must be covered by the block hash");
    }

    #[test]
    fn parallel_lower_bound_more_workers_than_keys() {
        // Just past the threshold (threaded on two cores), with fewer
        // distinct keys than worker threads and an uneven last chunk: the
        // chunking math must still cover every slot exactly once, in order.
        let state = seeded(2);
        let n = 2 * MIN_CHUNK + 1;
        let txs: Vec<Transaction> =
            (0..n).map(|i| get_tx(i as u64, &format!("k{}", i % 2))).collect();
        let seq: Vec<_> = txs.iter().map(|t| pbc_ledger::execute(t, &state)).collect();
        assert_eq!(execute_parallel(&txs, &state), seq);
    }

    #[test]
    fn commit_rate() {
        let o = BlockOutcome {
            committed: vec![TxId(1), TxId(2), TxId(3)],
            aborted: vec![TxId(4)],
            ..Default::default()
        };
        assert!((o.commit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(BlockOutcome::default().commit_rate(), 1.0);
    }
}
