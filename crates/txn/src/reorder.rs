//! In-block transaction reordering (Fabric++ and FabricSharp, §2.3.3).
//!
//! Under XOV, a transaction that *reads* key `k` commits only if no
//! transaction validated before it *wrote* `k` since its endorsement. So
//! within one block the committable orders are exactly those where every
//! reader of a key precedes every writer of that key. Both reorderers
//! build that must-precede graph and break its cycles by aborting
//! transactions; they differ in how much they constrain and how much they
//! abort:
//!
//! * [`fabric_pp_reorder`] (Fabric++) enforces **strict serializability**:
//!   it additionally orders write-write pairs by their arrival order,
//!   which creates more cycles, and breaks cycles greedily by aborting
//!   the highest-degree transaction. The paper notes these stronger
//!   guarantees cause "unnecessary aborts".
//! * [`fabric_sharp_reorder`] (FabricSharp) first **filters out
//!   transactions that can never be reordered into validity** (reads
//!   already stale against the committed state), then uses only the
//!   validation-relevant read→write edges and a per-SCC greedy feedback
//!   vertex set, committing a superset of Fabric++'s transactions.

use pbc_ledger::{ExecResult, StateStore};
use pbc_types::KeyId;
use std::collections::HashMap;

/// The result of reordering one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReorderOutcome {
    /// Indices of kept transactions, in the order they should be
    /// validated/committed.
    pub order: Vec<usize>,
    /// Indices of early-aborted transactions.
    pub aborted: Vec<usize>,
}

impl ReorderOutcome {
    /// Fraction of the block that survived reordering.
    pub fn keep_rate(&self) -> f64 {
        let total = self.order.len() + self.aborted.len();
        if total == 0 {
            1.0
        } else {
            self.order.len() as f64 / total as f64
        }
    }
}

/// Directed graph over transaction indices.
struct Graph {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph { n, adj: vec![Vec::new(); n] }
    }

    fn add_edge(&mut self, u: usize, v: usize) {
        if u != v && !self.adj[u].contains(&v) {
            self.adj[u].push(v);
        }
    }

    /// Tarjan strongly connected components. Returns `comp[v]` ids.
    fn sccs(&self, alive: &[bool]) -> Vec<Vec<usize>> {
        struct St<'a> {
            g: &'a Graph,
            alive: &'a [bool],
            index: Vec<Option<usize>>,
            low: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next: usize,
            out: Vec<Vec<usize>>,
        }
        // Iterative Tarjan to avoid recursion depth limits on big blocks.
        fn visit(st: &mut St, root: usize) {
            let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
            st.index[root] = Some(st.next);
            st.low[root] = st.next;
            st.next += 1;
            st.stack.push(root);
            st.on_stack[root] = true;
            while let Some(&mut (v, ref mut ei)) = call_stack.last_mut() {
                if *ei < st.g.adj[v].len() {
                    let w = st.g.adj[v][*ei];
                    *ei += 1;
                    if !st.alive[w] {
                        continue;
                    }
                    if st.index[w].is_none() {
                        st.index[w] = Some(st.next);
                        st.low[w] = st.next;
                        st.next += 1;
                        st.stack.push(w);
                        st.on_stack[w] = true;
                        call_stack.push((w, 0));
                    } else if st.on_stack[w] {
                        st.low[v] = st.low[v].min(st.index[w].unwrap());
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        st.low[parent] = st.low[parent].min(st.low[v]);
                    }
                    if st.low[v] == st.index[v].unwrap() {
                        let mut comp = Vec::new();
                        loop {
                            let w = st.stack.pop().unwrap();
                            st.on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        st.out.push(comp);
                    }
                }
            }
        }
        let mut st = St {
            g: self,
            alive,
            index: vec![None; self.n],
            low: vec![0; self.n],
            on_stack: vec![false; self.n],
            stack: Vec::new(),
            next: 0,
            out: Vec::new(),
        };
        for (v, &is_alive) in alive.iter().enumerate() {
            if is_alive && st.index[v].is_none() {
                visit(&mut st, v);
            }
        }
        st.out
    }

    /// Kahn topological sort of alive nodes, smallest original index first
    /// (stable, deterministic).
    fn topo(&self, alive: &[bool]) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            if !alive[u] {
                continue;
            }
            for &v in &self.adj[u] {
                if alive[v] {
                    indeg[v] += 1;
                }
            }
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
            (0..self.n).filter(|&i| alive[i] && indeg[i] == 0).map(std::cmp::Reverse).collect();
        let alive_count = alive.iter().filter(|&&a| a).count();
        let mut out = Vec::with_capacity(alive_count);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            out.push(u);
            for &v in &self.adj[u] {
                if alive[v] {
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        ready.push(std::cmp::Reverse(v));
                    }
                }
            }
        }
        (out.len() == alive_count).then_some(out)
    }

    /// Degree (in + out) among alive nodes.
    fn degree(&self, v: usize, alive: &[bool]) -> usize {
        let out = self.adj[v].iter().filter(|&&w| alive[w]).count();
        let inc = self
            .adj
            .iter()
            .zip(alive)
            .filter(|(_, &a)| a)
            .map(|(adj, _)| adj.iter().filter(|&&w| w == v).count())
            .sum::<usize>();
        out + inc
    }
}

/// Builds per-key reader/writer lists from endorsements.
fn index_keys(results: &[ExecResult]) -> HashMap<KeyId, (Vec<usize>, Vec<usize>)> {
    let mut keys: HashMap<KeyId, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (i, r) in results.iter().enumerate() {
        for &(k, _) in &r.read_set {
            keys.entry(k).or_default().0.push(i);
        }
        for &(k, _) in &r.write_set {
            keys.entry(k).or_default().1.push(i);
        }
    }
    keys
}

/// Adds the validation-relevant edges: every reader of `k` must precede
/// every writer of `k`.
fn add_read_before_write_edges(g: &mut Graph, results: &[ExecResult]) {
    for (_, (readers, writers)) in index_keys(results) {
        for &r in &readers {
            for &w in &writers {
                g.add_edge(r, w);
            }
        }
    }
}

/// Repeatedly aborts the highest-degree transaction inside cyclic SCCs
/// until the graph is acyclic. Returns the aborted set.
fn break_cycles_greedy(g: &Graph, alive: &mut [bool]) -> Vec<usize> {
    let mut aborted = Vec::new();
    loop {
        let cyclic: Vec<Vec<usize>> = g.sccs(alive).into_iter().filter(|c| c.len() > 1).collect();
        if cyclic.is_empty() {
            return aborted;
        }
        for comp in cyclic {
            // Abort the max-degree member (ties: larger index, i.e. the
            // younger transaction, matching abort-youngest intuition).
            let victim = *comp
                .iter()
                .max_by_key(|&&v| (g.degree(v, alive), v))
                .expect("non-empty component");
            alive[victim] = false;
            aborted.push(victim);
        }
    }
}

/// Fabric++-style reorder: strict-serializability edges (read→write plus
/// arrival-ordered write→write), greedy global cycle breaking.
pub fn fabric_pp_reorder(results: &[ExecResult]) -> ReorderOutcome {
    let n = results.len();
    let mut g = Graph::new(n);
    add_read_before_write_edges(&mut g, results);
    // Strict serializability: also fix write-write pairs in arrival order.
    for (_, (_, writers)) in index_keys(results) {
        for pair in writers.windows(2) {
            g.add_edge(pair[0], pair[1]);
        }
    }
    let mut alive: Vec<bool> = results.iter().map(|r| r.is_success()).collect();
    let mut aborted: Vec<usize> = (0..n).filter(|&i| !results[i].is_success()).collect();
    aborted.extend(break_cycles_greedy(&g, &mut alive));
    let order = g.topo(&alive).expect("graph is acyclic after cycle breaking");
    aborted.sort_unstable();
    ReorderOutcome { order, aborted }
}

/// FabricSharp-style reorder: early-filters transactions whose reads are
/// already stale against the committed `state` (no order can save them),
/// then uses only read→write edges and per-SCC greedy feedback vertex
/// sets.
pub fn fabric_sharp_reorder(results: &[ExecResult], state: &StateStore) -> ReorderOutcome {
    let n = results.len();
    let mut alive = vec![true; n];
    let mut aborted = Vec::new();
    // Filter: execution failures and reads stale w.r.t. committed state.
    for (i, r) in results.iter().enumerate() {
        let doomed = !r.is_success() || r.read_set.iter().any(|(k, v)| state.version(k) != *v);
        if doomed {
            alive[i] = false;
            aborted.push(i);
        }
    }
    let mut g = Graph::new(n);
    add_read_before_write_edges(&mut g, results);
    aborted.extend(break_cycles_greedy(&g, &mut alive));
    let order = g.topo(&alive).expect("graph is acyclic after cycle breaking");
    aborted.sort_unstable();
    ReorderOutcome { order, aborted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_ledger::{execute, StateStore, Version};
    use pbc_types::tx::balance_value;
    use pbc_types::{ClientId, Op, Transaction, TxId};

    fn seeded(keys: &[&str]) -> StateStore {
        let mut s = StateStore::new();
        for (i, k) in keys.iter().enumerate() {
            s.put(*k, balance_value(1000), Version::new(1, i as u32));
        }
        s
    }

    fn rw(id: u64, read: &str, write: &str) -> Transaction {
        Transaction::new(
            TxId(id),
            ClientId(0),
            vec![
                Op::Get { key: read.into() },
                Op::Put { key: write.into(), value: balance_value(id) },
            ],
        )
    }

    /// Applies the outcome through real validation and counts commits.
    fn committed_count(
        outcome: &ReorderOutcome,
        results: &[ExecResult],
        state: &StateStore,
    ) -> usize {
        let mut s = state.clone();
        let ordered: Vec<ExecResult> = outcome.order.iter().map(|&i| results[i].clone()).collect();
        crate::validate::validate_block(&ordered, &mut s, 2).iter().filter(|v| v.is_valid()).count()
    }

    #[test]
    fn no_conflicts_everything_kept() {
        let state = seeded(&["a", "b", "c", "d"]);
        let txs = [rw(1, "a", "b"), rw(2, "c", "d")];
        let results: Vec<ExecResult> = txs.iter().map(|t| execute(t, &state)).collect();
        let pp = fabric_pp_reorder(&results);
        let sharp = fabric_sharp_reorder(&results, &state);
        assert!(pp.aborted.is_empty());
        assert!(sharp.aborted.is_empty());
        assert_eq!(committed_count(&pp, &results, &state), 2);
        assert_eq!(committed_count(&sharp, &results, &state), 2);
    }

    #[test]
    fn reorder_saves_stale_read_within_block() {
        // Block order: t0 writes k, t1 reads k. Unordered validation would
        // kill t1; reordering (t1 before t0) saves both.
        let state = seeded(&["k", "x"]);
        let t0 = rw(0, "x", "k"); // writes k
        let t1 = rw(1, "k", "x"); // reads k
        let results = vec![execute(&t0, &state), execute(&t1, &state)];
        // Plain Fabric (no reorder) loses one:
        let mut plain_state = state.clone();
        let plain = crate::validate::validate_block(&results, &mut plain_state, 2);
        assert_eq!(plain.iter().filter(|v| v.is_valid()).count(), 1);
        // Both reorderers cannot save both here (t0 reads x which t1
        // writes, and t1 reads k which t0 writes → cycle). But a pure
        // one-directional case must be saved:
        let a = rw(10, "x", "k"); // reads x, writes k
        let b = rw(11, "k", "y"); // reads k, writes y
        let results2 = vec![execute(&a, &state), execute(&b, &state)];
        let sharp = fabric_sharp_reorder(&results2, &state);
        assert!(sharp.aborted.is_empty());
        // Correct order: b (reader of k) before a (writer of k).
        assert_eq!(sharp.order, vec![1, 0]);
        assert_eq!(committed_count(&sharp, &results2, &state), 2);
    }

    #[test]
    fn cycle_forces_abort_of_exactly_one() {
        let state = seeded(&["k", "x"]);
        let t0 = rw(0, "x", "k");
        let t1 = rw(1, "k", "x");
        let results = vec![execute(&t0, &state), execute(&t1, &state)];
        let sharp = fabric_sharp_reorder(&results, &state);
        assert_eq!(sharp.aborted.len(), 1);
        assert_eq!(sharp.order.len(), 1);
        assert_eq!(committed_count(&sharp, &results, &state), 1);
    }

    #[test]
    fn sharp_filters_reads_stale_against_committed_state() {
        let mut state = seeded(&["k"]);
        let t = rw(1, "k", "z");
        let r = execute(&t, &state);
        // Someone commits a newer version of k before this block validates.
        state.put("k", balance_value(7), Version::new(2, 0));
        let sharp = fabric_sharp_reorder(std::slice::from_ref(&r), &state);
        assert_eq!(sharp.aborted, vec![0], "doomed tx must be filtered early");
        // Fabric++ keeps it (no filter), and it then fails validation.
        let pp = fabric_pp_reorder(std::slice::from_ref(&r));
        assert!(pp.aborted.is_empty());
        assert_eq!(committed_count(&pp, &[r], &state), 0);
    }

    #[test]
    fn sharp_commits_at_least_as_much_as_pp() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        let state = seeded(&keys.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let txs: Vec<Transaction> = (0..12)
                .map(|i| {
                    let r = rng.gen_range(0..8);
                    let w = rng.gen_range(0..8);
                    rw(i, &format!("k{r}"), &format!("k{w}"))
                })
                .collect();
            let results: Vec<ExecResult> = txs.iter().map(|t| execute(t, &state)).collect();
            let pp = fabric_pp_reorder(&results);
            let sharp = fabric_sharp_reorder(&results, &state);
            let pp_commits = committed_count(&pp, &results, &state);
            let sharp_commits = committed_count(&sharp, &results, &state);
            assert!(
                sharp_commits >= pp_commits,
                "trial {trial}: sharp {sharp_commits} < pp {pp_commits}"
            );
        }
    }

    #[test]
    fn all_kept_transactions_actually_commit_under_sharp() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let keys: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
        let state = seeded(&keys.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let txs: Vec<Transaction> = (0..10)
                .map(|i| {
                    let r = rng.gen_range(0..6);
                    let w = rng.gen_range(0..6);
                    rw(i, &format!("k{r}"), &format!("k{w}"))
                })
                .collect();
            let results: Vec<ExecResult> = txs.iter().map(|t| execute(t, &state)).collect();
            let sharp = fabric_sharp_reorder(&results, &state);
            // Soundness: every kept transaction commits.
            assert_eq!(committed_count(&sharp, &results, &state), sharp.order.len());
        }
    }

    #[test]
    fn execution_failures_always_aborted() {
        let state = seeded(&["a"]);
        let bad = Transaction::new(
            TxId(9),
            ClientId(0),
            vec![Op::Transfer { from: "ghost".into(), to: "a".into(), amount: 5 }],
        );
        let results = vec![execute(&bad, &state)];
        assert_eq!(fabric_pp_reorder(&results).aborted, vec![0]);
        assert_eq!(fabric_sharp_reorder(&results, &state).aborted, vec![0]);
    }

    #[test]
    fn keep_rate_math() {
        let o = ReorderOutcome { order: vec![0, 1, 2], aborted: vec![3] };
        assert!((o.keep_rate() - 0.75).abs() < 1e-9);
        let empty = ReorderOutcome { order: vec![], aborted: vec![] };
        assert_eq!(empty.keep_rate(), 1.0);
    }
}
