//! Caper (Amiri et al., VLDB'19) — view-based confidentiality over a DAG
//! ledger (§2.3.1).
//!
//! Each enterprise maintains **private data** (keys under `e<N>/…`) and
//! shares **public data** (keys under `pub/…`). Internal transactions are
//! ordered and executed by their enterprise alone — they may read public
//! data but only write private data — while cross-enterprise transactions
//! read/write public data and require global agreement. The global ledger
//! is the DAG of [`pbc_ledger::dag`]; no node stores it whole — each
//! enterprise materializes only its own view.
//!
//! Confidentiality is enforced structurally: scope validation rejects any
//! internal transaction touching another enterprise's keys, and the tests
//! assert that no enterprise's state or view ever contains another's
//! private data.

use crate::cost::CoordCounters;
use pbc_ledger::{execute_and_apply, DagLedger, StateStore, Version};
use pbc_types::{EnterpriseId, Key, Transaction, TxScope};
use std::collections::HashMap;

/// Why Caper rejected a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaperError {
    /// The transaction's scope names an unknown enterprise.
    UnknownEnterprise(EnterpriseId),
    /// An internal transaction touches a key outside its enterprise's
    /// private space or the public space (confidentiality violation).
    ScopeViolation {
        /// The offending key.
        key: Key,
        /// The submitting enterprise.
        enterprise: EnterpriseId,
    },
    /// A cross-enterprise transaction touches private keys.
    CrossTouchesPrivate {
        /// The offending key.
        key: Key,
    },
    /// The transaction failed during execution (e.g. insufficient funds).
    ExecutionFailed,
    /// Scope is `Global`, which Caper doesn't accept (everything is
    /// internal or cross-enterprise here).
    BadScope,
}

impl std::fmt::Display for CaperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaperError::UnknownEnterprise(e) => write!(f, "unknown enterprise {e}"),
            CaperError::ScopeViolation { key, enterprise } => {
                write!(f, "internal tx of {enterprise} touches foreign key {key}")
            }
            CaperError::CrossTouchesPrivate { key } => {
                write!(f, "cross-enterprise tx touches private key {key}")
            }
            CaperError::ExecutionFailed => write!(f, "execution failed"),
            CaperError::BadScope => write!(f, "caper transactions must be internal or cross"),
        }
    }
}

impl std::error::Error for CaperError {}

/// How Caper globally orders cross-enterprise transactions (§2.3.1:
/// "Caper introduces different consensus protocols to globally order
/// cross-enterprise transactions"; the three modes of the CAPER paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalConsensusMode {
    /// A separate ordering service (a disjoint cluster of orderers)
    /// sequences cross-enterprise transactions: one ordering-cluster
    /// round plus a dissemination hop to every enterprise. Cheapest
    /// per transaction, but the orderers see all cross transactions and
    /// must be trusted for liveness.
    SeparateOrderers,
    /// Hierarchical consensus: each enterprise's nodes agree locally,
    /// then enterprise *leaders* run a one-per-enterprise agreement
    /// round. Two stacked rounds.
    Hierarchical,
    /// One-level (flattened) consensus among **all** nodes of all
    /// enterprises — no extra trust, highest message cost.
    OneLevel,
}

/// Returns the enterprise that privately owns `key`, if any.
/// Keys `e<N>/…` are private to enterprise `N`; `pub/…` is public.
pub fn key_owner(key: &str) -> Option<EnterpriseId> {
    let rest = key.strip_prefix('e')?;
    let (num, _) = rest.split_once('/')?;
    num.parse::<u32>().ok().map(EnterpriseId)
}

/// The private key prefix for an enterprise.
pub fn private_prefix(e: EnterpriseId) -> String {
    format!("e{}/", e.0)
}

/// One enterprise's node: its state (own private + public) and counters.
#[derive(Debug)]
pub struct EnterpriseNode {
    /// The owning enterprise.
    pub enterprise: EnterpriseId,
    /// Own private data plus the public data.
    pub state: StateStore,
    next_internal_seq: u64,
}

/// The whole Caper deployment (the test/audit harness holds it; each
/// [`EnterpriseNode`] is what a real node would run).
#[derive(Debug)]
pub struct CaperNetwork {
    nodes: HashMap<EnterpriseId, EnterpriseNode>,
    enterprises: Vec<EnterpriseId>,
    /// The global DAG (audit structure; views are derived from it).
    pub dag: DagLedger,
    /// Coordination accounting for E6.
    pub counters: CoordCounters,
    /// Active global-ordering mode for cross-enterprise transactions.
    pub global_mode: GlobalConsensusMode,
    next_global_seq: u64,
}

impl CaperNetwork {
    /// Creates a network of `n` enterprises.
    pub fn new(n: u32) -> Self {
        let enterprises: Vec<EnterpriseId> = (0..n).map(EnterpriseId).collect();
        let nodes = enterprises
            .iter()
            .map(|&e| {
                (
                    e,
                    EnterpriseNode {
                        enterprise: e,
                        state: StateStore::new(),
                        next_internal_seq: 1,
                    },
                )
            })
            .collect();
        CaperNetwork {
            nodes,
            enterprises: enterprises.clone(),
            dag: DagLedger::new(enterprises),
            counters: CoordCounters::default(),
            global_mode: GlobalConsensusMode::OneLevel,
            next_global_seq: 1,
        }
    }

    /// Selects the global-ordering mode (builder style).
    pub fn with_global_mode(mut self, mode: GlobalConsensusMode) -> Self {
        self.global_mode = mode;
        self
    }

    /// The participating enterprises.
    pub fn enterprises(&self) -> &[EnterpriseId] {
        &self.enterprises
    }

    /// Immutable view of an enterprise node.
    pub fn node(&self, e: EnterpriseId) -> Option<&EnterpriseNode> {
        self.nodes.get(&e)
    }

    /// Seeds a value directly (setup helper; bypasses consensus).
    pub fn seed(&mut self, key: &str, value: pbc_types::Value) {
        match key_owner(key) {
            Some(owner) => {
                if let Some(node) = self.nodes.get_mut(&owner) {
                    node.state.put(key.to_string(), value, Version::GENESIS);
                }
            }
            None => {
                for node in self.nodes.values_mut() {
                    node.state.put(key.to_string(), value.clone(), Version::GENESIS);
                }
            }
        }
    }

    fn check_internal_scope(e: EnterpriseId, tx: &Transaction) -> Result<(), CaperError> {
        let own = private_prefix(e);
        for key in tx.write_keys() {
            // Internal writes must stay in the enterprise's private space.
            if !key.starts_with(&own) {
                return Err(CaperError::ScopeViolation { key: key.to_string(), enterprise: e });
            }
        }
        for key in tx.read_keys() {
            // Reads may touch own private data or public data.
            let foreign = key_owner(key).is_some_and(|owner| owner != e);
            if foreign {
                return Err(CaperError::ScopeViolation { key: key.to_string(), enterprise: e });
            }
        }
        Ok(())
    }

    fn check_cross_scope(tx: &Transaction) -> Result<(), CaperError> {
        for key in tx.read_keys().iter().chain(tx.write_keys().iter()) {
            if key_owner(key).is_some() {
                return Err(CaperError::CrossTouchesPrivate { key: key.to_string() });
            }
        }
        Ok(())
    }

    /// Submits an internal transaction: ordered and executed by its
    /// enterprise alone (one *local* consensus round), appended to that
    /// enterprise's chain in the DAG.
    pub fn submit_internal(&mut self, tx: Transaction) -> Result<(), CaperError> {
        let TxScope::Internal(e) = tx.scope else {
            return Err(CaperError::BadScope);
        };
        if !self.nodes.contains_key(&e) {
            return Err(CaperError::UnknownEnterprise(e));
        }
        Self::check_internal_scope(e, &tx)?;
        self.counters.local_rounds += 1;
        let node = self.nodes.get_mut(&e).expect("checked above");
        let seq = node.next_internal_seq;
        node.next_internal_seq += 1;
        let r = execute_and_apply(&tx, &mut node.state, Version::new(seq, 0));
        if !r.is_success() {
            return Err(CaperError::ExecutionFailed);
        }
        self.dag.append_internal(e, tx);
        Ok(())
    }

    /// Submits a cross-enterprise transaction: globally ordered (one
    /// *global* consensus round) and executed by **every** enterprise on
    /// the public data.
    pub fn submit_cross(&mut self, tx: Transaction) -> Result<(), CaperError> {
        if !matches!(tx.scope, TxScope::CrossEnterprise(_)) {
            return Err(CaperError::BadScope);
        }
        Self::check_cross_scope(&tx)?;
        // Accounting depends on the global-ordering mode.
        match self.global_mode {
            GlobalConsensusMode::SeparateOrderers => {
                // One round inside the ordering cluster + dissemination.
                self.counters.channel_rounds += 1;
            }
            GlobalConsensusMode::Hierarchical => {
                // Local agreement inside every enterprise, then a round
                // among the enterprise leaders.
                self.counters.local_rounds += self.enterprises.len() as u64;
                self.counters.channel_rounds += 1;
            }
            GlobalConsensusMode::OneLevel => {
                self.counters.global_rounds += 1;
            }
        }
        let seq = self.next_global_seq;
        self.next_global_seq += 1;
        // Execute on one node first; if intrinsically invalid, nobody
        // applies it (deterministic execution: all nodes would agree).
        let probe = {
            let any = self.nodes.values().next().expect("non-empty network");
            pbc_ledger::execute(&tx, &any.state)
        };
        if !probe.is_success() {
            return Err(CaperError::ExecutionFailed);
        }
        for node in self.nodes.values_mut() {
            let r = execute_and_apply(&tx, &mut node.state, Version::new(1_000_000 + seq, 0));
            debug_assert!(r.is_success(), "deterministic execution must agree");
        }
        self.dag.append_cross(tx);
        Ok(())
    }

    /// Checks the system-wide confidentiality invariant: no enterprise
    /// state holds another enterprise's private keys.
    pub fn confidentiality_holds(&self) -> bool {
        self.nodes.values().all(|node| {
            node.state.iter().all(|(k, _, _)| match key_owner(k.as_str()) {
                Some(owner) => owner == node.enterprise,
                None => true,
            })
        })
    }

    /// Checks the consistency invariant: every pair of enterprises agrees
    /// on (a) the cross-enterprise transaction sequence in their views and
    /// (b) the public portion of the state.
    pub fn views_consistent(&self) -> bool {
        let mut cross_seqs = Vec::new();
        let mut pub_digests = Vec::new();
        for &e in &self.enterprises {
            cross_seqs.push(self.dag.local_view(e).cross_sequence());
            let node = &self.nodes[&e];
            let mut pub_entries: Vec<(&str, &pbc_types::Value)> = node
                .state
                .iter()
                .map(|(k, v, _)| (k.as_str(), v))
                .filter(|(k, _)| key_owner(k).is_none())
                .collect();
            pub_entries.sort_by(|a, b| a.0.cmp(b.0));
            pub_digests.push(format!("{pub_entries:?}"));
        }
        cross_seqs.windows(2).all(|w| w[0] == w[1]) && pub_digests.windows(2).all(|w| w[0] == w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::tx::{balance_of, balance_value};
    use pbc_types::{ClientId, Op, TxId};

    fn internal(id: u64, e: u32, ops: Vec<Op>) -> Transaction {
        Transaction::with_scope(TxId(id), ClientId(0), TxScope::Internal(EnterpriseId(e)), ops)
    }

    fn cross(id: u64, ops: Vec<Op>) -> Transaction {
        Transaction::with_scope(
            TxId(id),
            ClientId(0),
            TxScope::CrossEnterprise(vec![EnterpriseId(0), EnterpriseId(1)]),
            ops,
        )
    }

    fn put(key: &str, v: u64) -> Op {
        Op::Put { key: key.into(), value: balance_value(v) }
    }

    #[test]
    fn key_owner_parsing() {
        assert_eq!(key_owner("e3/stock"), Some(EnterpriseId(3)));
        assert_eq!(key_owner("pub/orders"), None);
        assert_eq!(key_owner("e/bad"), None);
        assert_eq!(key_owner("exyz/bad"), None);
    }

    #[test]
    fn internal_tx_stays_private() {
        let mut net = CaperNetwork::new(3);
        net.submit_internal(internal(1, 0, vec![put("e0/recipe", 42)])).unwrap();
        assert!(net.node(EnterpriseId(0)).unwrap().state.get("e0/recipe").is_some());
        assert!(net.node(EnterpriseId(1)).unwrap().state.get("e0/recipe").is_none());
        assert!(net.confidentiality_holds());
        assert_eq!(net.counters.local_rounds, 1);
        assert_eq!(net.counters.global_rounds, 0);
    }

    #[test]
    fn cross_tx_visible_everywhere() {
        let mut net = CaperNetwork::new(3);
        net.submit_cross(cross(1, vec![put("pub/order", 7)])).unwrap();
        for e in 0..3 {
            assert_eq!(
                balance_of(net.node(EnterpriseId(e)).unwrap().state.get("pub/order")),
                7,
                "enterprise {e}"
            );
        }
        assert_eq!(net.counters.global_rounds, 1);
    }

    #[test]
    fn internal_writing_foreign_key_rejected() {
        let mut net = CaperNetwork::new(2);
        let err = net.submit_internal(internal(1, 0, vec![put("e1/secret", 1)])).unwrap_err();
        assert!(matches!(err, CaperError::ScopeViolation { .. }));
        assert!(net.confidentiality_holds());
    }

    #[test]
    fn internal_writing_public_rejected() {
        let mut net = CaperNetwork::new(2);
        let err = net.submit_internal(internal(1, 0, vec![put("pub/shared", 1)])).unwrap_err();
        assert!(matches!(err, CaperError::ScopeViolation { .. }));
    }

    #[test]
    fn internal_may_read_public() {
        let mut net = CaperNetwork::new(2);
        net.seed("pub/price", balance_value(10));
        net.submit_internal(internal(
            1,
            0,
            vec![Op::Get { key: "pub/price".into() }, put("e0/cache", 10)],
        ))
        .unwrap();
        assert!(net.confidentiality_holds());
    }

    #[test]
    fn cross_touching_private_rejected() {
        let mut net = CaperNetwork::new(2);
        let err = net.submit_cross(cross(1, vec![put("e0/secret", 1)])).unwrap_err();
        assert!(matches!(err, CaperError::CrossTouchesPrivate { .. }));
    }

    #[test]
    fn views_agree_on_cross_sequence_and_public_state() {
        let mut net = CaperNetwork::new(3);
        net.submit_internal(internal(1, 0, vec![put("e0/a", 1)])).unwrap();
        net.submit_cross(cross(2, vec![put("pub/x", 1)])).unwrap();
        net.submit_internal(internal(3, 1, vec![put("e1/b", 2)])).unwrap();
        net.submit_cross(cross(4, vec![put("pub/y", 2)])).unwrap();
        assert!(net.views_consistent());
        assert!(net.confidentiality_holds());
        assert!(net.dag.verify());
    }

    #[test]
    fn local_views_exclude_foreign_internals() {
        let mut net = CaperNetwork::new(2);
        net.submit_internal(internal(1, 0, vec![put("e0/a", 1)])).unwrap();
        net.submit_internal(internal(2, 1, vec![put("e1/b", 2)])).unwrap();
        let v0 = net.dag.local_view(EnterpriseId(0));
        assert_eq!(v0.internal_sequence().len(), 1);
        let v1 = net.dag.local_view(EnterpriseId(1));
        assert_eq!(v1.internal_sequence().len(), 1);
    }

    #[test]
    fn cross_transfer_on_public_balances() {
        let mut net = CaperNetwork::new(2);
        net.seed("pub/acct-a", balance_value(100));
        net.seed("pub/acct-b", balance_value(0));
        net.submit_cross(cross(
            1,
            vec![Op::Transfer { from: "pub/acct-a".into(), to: "pub/acct-b".into(), amount: 30 }],
        ))
        .unwrap();
        for e in 0..2 {
            let node = net.node(EnterpriseId(e)).unwrap();
            assert_eq!(balance_of(node.state.get("pub/acct-a")), 70);
            assert_eq!(balance_of(node.state.get("pub/acct-b")), 30);
        }
    }

    #[test]
    fn failed_execution_not_recorded() {
        let mut net = CaperNetwork::new(2);
        let err = net
            .submit_cross(cross(
                1,
                vec![Op::Transfer { from: "pub/ghost".into(), to: "pub/b".into(), amount: 5 }],
            ))
            .unwrap_err();
        assert_eq!(err, CaperError::ExecutionFailed);
        assert!(net.dag.is_empty());
    }

    #[test]
    fn global_scope_rejected() {
        let mut net = CaperNetwork::new(2);
        let tx = Transaction::new(TxId(1), ClientId(0), vec![put("pub/x", 1)]);
        assert_eq!(net.submit_internal(tx.clone()).unwrap_err(), CaperError::BadScope);
        assert_eq!(net.submit_cross(tx).unwrap_err(), CaperError::BadScope);
    }

    #[test]
    fn global_modes_change_cost_profile() {
        let run = |mode| {
            let mut net = CaperNetwork::new(4).with_global_mode(mode);
            for i in 0..10 {
                net.submit_cross(cross(i, vec![put(&format!("pub/k{i}"), 1)])).unwrap();
            }
            let model = crate::cost::CostModel::default();
            (net.counters.clone(), model.time(&net.counters))
        };
        let (sep_c, sep_t) = run(GlobalConsensusMode::SeparateOrderers);
        let (hier_c, hier_t) = run(GlobalConsensusMode::Hierarchical);
        let (one_c, one_t) = run(GlobalConsensusMode::OneLevel);
        // Separate orderers: cheapest; hierarchical in between; one-level
        // flattened pays a full global round per transaction.
        assert!(sep_t < hier_t, "{sep_t} < {hier_t}");
        assert!(hier_t < one_t, "{hier_t} < {one_t}");
        assert_eq!(sep_c.global_rounds, 0);
        assert_eq!(hier_c.local_rounds, 40, "4 enterprises × 10 txs agree locally");
        assert_eq!(one_c.global_rounds, 10);
    }

    #[test]
    fn modes_do_not_affect_outcomes() {
        // Whatever the ordering substrate, the same transactions produce
        // the same public state and views.
        let run = |mode| {
            let mut net = CaperNetwork::new(3).with_global_mode(mode);
            net.seed("pub/x", pbc_types::tx::balance_value(100));
            net.submit_cross(cross(1, vec![Op::Incr { key: "pub/x".into(), delta: 5 }])).unwrap();
            net.submit_internal(internal(2, 0, vec![put("e0/y", 1)])).unwrap();
            assert!(net.views_consistent());
            pbc_types::tx::balance_of(net.node(EnterpriseId(1)).unwrap().state.get("pub/x"))
        };
        assert_eq!(run(GlobalConsensusMode::SeparateOrderers), 105);
        assert_eq!(run(GlobalConsensusMode::Hierarchical), 105);
        assert_eq!(run(GlobalConsensusMode::OneLevel), 105);
    }
}
