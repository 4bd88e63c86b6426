//! OXII dependency graphs (ParBlockchain, §2.3.3).
//!
//! Given a block's *already-ordered* transactions, the orderer builds a
//! dependency graph with an edge `i → j` (for `i < j` in block order)
//! whenever the two transactions conflict on any key. The graph is a DAG
//! by construction and gives executors a partial order: transactions in
//! the same topological layer can run in parallel.

use fxhash::FxHashMap;
use pbc_ledger::tx_keys;
use pbc_types::{KeyId, Transaction};

/// A dependency DAG over one block's transactions.
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    n: usize,
    /// `succ[i]` = indices that must wait for `i`.
    succ: Vec<Vec<usize>>,
    /// Number of predecessors per node.
    indegree: Vec<usize>,
    edge_count: usize,
}

impl DependencyGraph {
    /// Builds the graph from an ordered batch.
    ///
    /// Conflict detection is key-granular: `i → j` iff `i < j` and the
    /// write set of one intersects the read or write set of the other.
    /// Runs in `O(total ops)` using per-key last-reader/last-writer
    /// tracking rather than the quadratic pairwise check, on each
    /// transaction's interned declared keys ([`tx_keys`]). The order
    /// keys are visited in within one transaction does not change the
    /// graph: every edge it adds ends at that transaction.
    pub fn build(txs: &[Transaction]) -> Self {
        let n = txs.len();
        let mut succ = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        let mut edge_count = 0;

        // Per key: the last writer, and the readers since it as a list
        // threaded through one arena for the whole block (no allocation
        // per key).
        const NONE: u32 = u32::MAX;
        struct KeyState {
            last_writer: Option<usize>,
            readers: u32,
        }
        let mut readers: Vec<(usize, u32)> = Vec::new();
        // Fx-hashed: this map is rebuilt per block and probed once per
        // key operation, so hashing cost is the dominant term.
        let mut keys: FxHashMap<KeyId, KeyState> = FxHashMap::default();
        // Every edge added while visiting `to` ends at `to`, and `to`
        // only grows, so `succ[from]` is sorted and a repeat of the edge
        // can only be its last entry.
        let mut add_edge = |from: usize, to: usize| {
            debug_assert!(from < to);
            if succ[from].last() != Some(&to) {
                succ[from].push(to);
                indegree[to] += 1;
                edge_count += 1;
            }
        };

        for (j, tx) in txs.iter().enumerate() {
            let tk = tx_keys(tx);
            for &k in tk.reads() {
                let st = keys.entry(k).or_insert(KeyState { last_writer: None, readers: NONE });
                if let Some(w) = st.last_writer {
                    if w != j {
                        add_edge(w, j);
                    }
                }
                readers.push((j, st.readers));
                st.readers = (readers.len() - 1) as u32;
            }
            for &k in tk.writes() {
                let st = keys.entry(k).or_insert(KeyState { last_writer: None, readers: NONE });
                if let Some(w) = st.last_writer {
                    if w != j {
                        add_edge(w, j);
                    }
                }
                let mut r = st.readers;
                while r != NONE {
                    let (reader, next) = readers[r as usize];
                    if reader != j {
                        add_edge(reader, j);
                    }
                    r = next;
                }
                st.last_writer = Some(j);
                st.readers = NONE;
            }
        }
        DependencyGraph { n, succ, indegree, edge_count }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Direct successors of `i`.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// Topological layers: transactions in the same layer are mutually
    /// non-conflicting and can execute in parallel; layer `k+1` may only
    /// start after layer `k`. (Kahn's algorithm by levels.)
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let mut indeg = self.indegree.clone();
        let mut layers = Vec::new();
        let mut current: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while !current.is_empty() {
            seen += current.len();
            let mut next = Vec::new();
            for &i in &current {
                for &j in &self.succ[i] {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            layers.push(std::mem::replace(&mut current, next));
        }
        debug_assert_eq!(seen, self.n, "graph must be acyclic by construction");
        layers
    }

    /// The critical-path length (number of layers): the lower bound on
    /// sequential steps OXII needs for this block.
    pub fn depth(&self) -> usize {
        self.layers().len()
    }

    /// Maximum achievable parallelism: size of the largest layer.
    pub fn max_parallelism(&self) -> usize {
        self.layers().iter().map(|l| l.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::{ClientId, Op, TxId};

    fn transfer(id: u64, from: &str, to: &str) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Transfer { from: from.into(), to: to.into(), amount: 1 }],
        )
    }

    fn get(id: u64, key: &str) -> Transaction {
        Transaction::new(TxId(id), ClientId(0), vec![Op::Get { key: key.into() }])
    }

    fn put(id: u64, key: &str) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![Op::Put { key: key.into(), value: bytes::Bytes::new() }],
        )
    }

    #[test]
    fn disjoint_txs_form_one_layer() {
        let txs = vec![transfer(1, "a", "b"), transfer(2, "c", "d"), transfer(3, "e", "f")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.layers(), vec![vec![0, 1, 2]]);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.max_parallelism(), 3);
    }

    #[test]
    fn chained_conflicts_serialize() {
        let txs = vec![transfer(1, "a", "b"), transfer(2, "b", "c"), transfer(3, "c", "d")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.depth(), 3);
        assert_eq!(g.layers(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn read_read_does_not_conflict() {
        let txs = vec![get(1, "k"), get(2, "k"), get(3, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.depth(), 1);
    }

    #[test]
    fn write_then_read_creates_edge() {
        let txs = vec![put(1, "k"), get(2, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn read_then_write_creates_antidependency_edge() {
        let txs = vec![get(1, "k"), put(2, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    fn write_write_creates_edge() {
        let txs = vec![put(1, "k"), put(2, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.successors(0), &[1]);
    }

    #[test]
    fn mixed_workload_layers_respect_order() {
        // t0 writes k; t1 and t2 read k (parallel); t3 writes k again.
        let txs = vec![put(0, "k"), get(1, "k"), get(2, "k"), put(3, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.layers(), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn edges_deduplicated() {
        // Two ops touching the same key within a tx must not double-count.
        let t0 = Transaction::new(
            TxId(0),
            ClientId(0),
            vec![
                Op::Put { key: "k".into(), value: bytes::Bytes::new() },
                Op::Incr { key: "k".into(), delta: 1 },
            ],
        );
        let txs = vec![t0, get(1, "k")];
        let g = DependencyGraph::build(&txs);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn empty_block() {
        let g = DependencyGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.depth(), 0);
        assert_eq!(g.max_parallelism(), 0);
    }

    #[test]
    fn layers_cover_all_transactions_exactly_once() {
        let txs: Vec<Transaction> = (0..20)
            .map(|i| transfer(i, &format!("a{}", i % 4), &format!("a{}", (i + 1) % 4)))
            .collect();
        let g = DependencyGraph::build(&txs);
        let mut all: Vec<usize> = g.layers().concat();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }
}
