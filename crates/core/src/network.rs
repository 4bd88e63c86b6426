//! The blockchain network driver: consensus × architecture × simulation.
//!
//! Consensus is composed through the generic ordering layer
//! ([`pbc_consensus::ordering`]): [`ConsensusKind`] resolves to a
//! registry name once at construction, and everything after dispatches
//! through a boxed [`OrderingCluster`] — there is no per-protocol code
//! in this crate. Adding a protocol to the whole stack is an
//! `OrderingActor` impl plus one registry entry in `pbc-consensus`.

use crate::audit::{AuditTrail, CommitRecord};
use crate::batch::Batch;
use pbc_arch::{
    BlockOutcome, BlockSeal, EndorsementPolicy, EndorsingPipeline, ExecutionPipeline,
    FastFabricPipeline, OxPipeline, OxiiPipeline, ReorderPolicy, XovPipeline, XoxPipeline,
};
use pbc_consensus::{cluster_with, durable_cluster_with, OrderingCluster, Payload};
use pbc_ledger::StateStore;
use pbc_sim::fault::LinkFault;
use pbc_sim::{Attack, LatencyModel, NemesisOp, NetStats, NetworkConfig, SimTime};
use pbc_types::Transaction;

/// Which ordering protocol the network runs (§2.2, §2.3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsensusKind {
    /// PBFT with a fixed primary per view.
    Pbft,
    /// IBFT-style PBFT with per-height proposer rotation.
    Ibft,
    /// Basic HotStuff (linear message complexity).
    HotStuff,
    /// Tendermint with equal validator powers.
    Tendermint,
    /// Raft (crash fault tolerant).
    Raft,
    /// Multi-decree Paxos (crash fault tolerant).
    Paxos,
    /// MinBFT with trusted hardware (n = 2f+1).
    MinBft,
}

impl ConsensusKind {
    /// Every protocol the stack can run, in catalogue order.
    pub const ALL: [ConsensusKind; 7] = [
        ConsensusKind::Pbft,
        ConsensusKind::Ibft,
        ConsensusKind::HotStuff,
        ConsensusKind::Tendermint,
        ConsensusKind::Raft,
        ConsensusKind::Paxos,
        ConsensusKind::MinBft,
    ];

    /// The protocol's name in the [`pbc_consensus::ordering`] registry.
    pub fn registry_name(&self) -> &'static str {
        match self {
            ConsensusKind::Pbft => "pbft",
            ConsensusKind::Ibft => "ibft",
            ConsensusKind::HotStuff => "hotstuff",
            ConsensusKind::Tendermint => "tendermint",
            ConsensusKind::Raft => "raft",
            ConsensusKind::Paxos => "paxos",
            ConsensusKind::MinBft => "minbft",
        }
    }

    /// Minimum replica count tolerating one fault under this protocol's
    /// fault model (`3f+1` Byzantine, `2f+1` crash / trusted-hardware).
    pub fn min_nodes(&self) -> usize {
        match self {
            ConsensusKind::Raft | ConsensusKind::Paxos | ConsensusKind::MinBft => 3,
            _ => 4,
        }
    }
}

/// Which execution architecture the nodes run (§2.3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchKind {
    /// Order-execute (sequential execution).
    Ox,
    /// Order-parallel-execute (ParBlockchain).
    Oxii,
    /// Execute-order-validate (Fabric).
    Xov,
    /// XOV with Fabric++ reordering.
    XovFabricPp,
    /// XOV with FabricSharp reordering.
    XovFabricSharp,
    /// XOV with post-order re-execution (XOX Fabric).
    Xox,
    /// XOV with parallel validation (FastFabric).
    FastFabric,
    /// XOV behind a 2-of-3 organization endorsement policy.
    XovEndorsed,
}

impl ArchKind {
    /// Every architecture the stack can run, in catalogue order.
    pub const ALL: [ArchKind; 8] = [
        ArchKind::Ox,
        ArchKind::Oxii,
        ArchKind::Xov,
        ArchKind::XovFabricPp,
        ArchKind::XovFabricSharp,
        ArchKind::Xox,
        ArchKind::FastFabric,
        ArchKind::XovEndorsed,
    ];

    /// Builds a standalone pipeline of this architecture over `state` —
    /// the same construction the network driver uses per node, exposed
    /// so auditors and benches can run an architecture outside a
    /// consensus context.
    pub fn make_pipeline(&self, state: StateStore) -> Box<dyn ExecutionPipeline> {
        match self {
            ArchKind::Ox => Box::new(OxPipeline::with_state(state)),
            ArchKind::Oxii => Box::new(OxiiPipeline::with_state(state)),
            ArchKind::Xov => Box::new(XovPipeline::with_state(state)),
            ArchKind::XovFabricPp => {
                Box::new(XovPipeline::with_state(state).with_reorder(ReorderPolicy::FabricPP))
            }
            ArchKind::XovFabricSharp => {
                Box::new(XovPipeline::with_state(state).with_reorder(ReorderPolicy::FabricSharp))
            }
            ArchKind::Xox => Box::new(XoxPipeline::with_state(state)),
            ArchKind::FastFabric => Box::new(FastFabricPipeline::with_state(state)),
            ArchKind::XovEndorsed => {
                let orgs = (0..3).map(pbc_types::EnterpriseId).collect();
                Box::new(EndorsingPipeline::new(EndorsementPolicy::new(orgs, 2), 0xE5D0, state))
            }
        }
    }
}

/// Configures and builds a [`BlockchainNetwork`].
pub struct NetworkBuilder {
    n: usize,
    consensus: ConsensusKind,
    arch: ArchKind,
    latency: LatencyModel,
    seed: u64,
    batch_size: usize,
    initial_state: StateStore,
    byzantine: Vec<(usize, Vec<Attack>)>,
    audit: bool,
    stores: Option<Vec<pbc_store::NodeStore>>,
}

impl NetworkBuilder {
    /// Starts a builder for `n` nodes with PBFT + OX defaults.
    pub fn new(n: usize) -> Self {
        NetworkBuilder {
            n,
            consensus: ConsensusKind::Pbft,
            arch: ArchKind::Ox,
            latency: LatencyModel::lan(),
            seed: 0,
            batch_size: 32,
            initial_state: StateStore::new(),
            byzantine: Vec::new(),
            audit: false,
            stores: None,
        }
    }

    /// Selects the consensus protocol.
    pub fn consensus(mut self, kind: ConsensusKind) -> Self {
        self.consensus = kind;
        self
    }

    /// Selects the execution architecture.
    pub fn architecture(mut self, kind: ArchKind) -> Self {
        self.arch = kind;
        self
    }

    /// Sets the link latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = model;
        self
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transactions-per-block batch size.
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = size.max(1);
        self
    }

    /// Seeds every node's state store.
    pub fn initial_state(mut self, state: StateStore) -> Self {
        self.initial_state = state;
        self
    }

    /// Makes `node` Byzantine with the given attack set (replicas are
    /// wrapped in [`pbc_sim::Adversary`] by the ordering registry).
    pub fn byzantine(mut self, node: usize, attacks: Vec<Attack>) -> Self {
        self.byzantine.push((node, attacks));
        self
    }

    /// Records a per-node [`AuditTrail`] of commit claims during runs,
    /// enabling the `pbc-audit` differential auditor to replay and
    /// cross-check the whole run afterwards. Off by default: recording
    /// digests the state after every block.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Wires every replica to its own stable [`pbc_store::NodeStore`]
    /// (one per node, in node order): crashes become *total* — RAM is
    /// lost entirely — and restarts recover from staged disk replay.
    /// Enables the disk-fault nemesis ops ([`NemesisOp::FailSyncs`],
    /// [`NemesisOp::CorruptWalTail`], [`NemesisOp::BitRot`]) and the
    /// [`BlockchainNetwork::verify_cold_ledger`] cold re-read check.
    ///
    /// Incompatible with [`byzantine`](NetworkBuilder::byzantine):
    /// `build` panics if both are configured.
    pub fn durable(mut self, stores: Vec<pbc_store::NodeStore>) -> Self {
        self.stores = Some(stores);
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    /// Panics if [`durable`](NetworkBuilder::durable) and
    /// [`byzantine`](NetworkBuilder::byzantine) are both configured, or
    /// if the durable store count differs from `n`.
    pub fn build(self) -> BlockchainNetwork {
        let cfg = NetworkConfig { latency: self.latency, seed: self.seed, drop_rate: 0.0 };
        let ordering = if let Some(stores) = self.stores {
            assert!(
                self.byzantine.is_empty(),
                "durable mode wires plain replicas; byzantine adversaries are not yet persisted"
            );
            durable_cluster_with::<Batch>(self.consensus.registry_name(), self.n, cfg, stores)
                .expect("every ConsensusKind maps to a registered ordering protocol")
        } else {
            cluster_with::<Batch>(self.consensus.registry_name(), self.n, cfg, &self.byzantine)
                .expect("every ConsensusKind maps to a registered ordering protocol")
        };
        let pipelines =
            (0..self.n).map(|_| self.arch.make_pipeline(self.initial_state.clone())).collect();
        BlockchainNetwork {
            ordering,
            pipelines,
            pending: Vec::new(),
            batch_size: self.batch_size,
            next_batch_id: 0,
            applied: vec![0; self.n],
            seals: std::collections::BTreeMap::new(),
            sealed: (0, 0),
            consensus: self.consensus,
            arch: self.arch,
            trails: self.audit.then(|| vec![AuditTrail::new(); self.n]),
            initial_state: self.initial_state,
        }
    }
}

/// The outcome of a [`BlockchainNetwork::run_to_completion`] call.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Transactions committed (per the reference node's pipeline).
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Of `aborted`: transactions whose VM invocation exhausted its gas
    /// budget. Always `<= aborted` — a distinct abort *reason*, not a
    /// separate bucket of the commit/abort partition.
    pub out_of_gas: usize,
    /// Dynamic transactions whose declared footprint proved wrong at
    /// commit time and were salvaged (or aborted) by serial
    /// re-execution. Overlaps freely with both verdict buckets.
    pub mispredicted: usize,
    /// Batches (blocks) decided by consensus.
    pub batches: usize,
    /// Logical time at completion.
    pub sim_time: SimTime,
    /// Messages the consensus layer sent.
    pub msgs_sent: u64,
    /// Bytes the consensus layer sent.
    pub bytes_sent: u64,
    /// Mean decide latency per batch (submission → decision), in ticks.
    pub mean_decide_latency: f64,
    /// True if consensus reached the target (false = stalled).
    pub consensus_complete: bool,
    /// True if two alive nodes that applied the same number of batches
    /// hold different ledger heads — silent replica divergence that a
    /// single node's counters would hide. (A node merely *behind* is
    /// lag, not divergence; lag surfaces as `consensus_complete =
    /// false`.)
    pub diverged: bool,
    /// The reference node's ledger head after this run.
    pub head: Option<pbc_crypto::Hash>,
}

/// A running permissioned blockchain (Figure 1, parameterized).
pub struct BlockchainNetwork {
    pipelines: Vec<Box<dyn ExecutionPipeline>>,
    pending: Vec<Transaction>,
    pub(crate) batch_size: usize,
    pub(crate) next_batch_id: u64,
    /// Per-node count of batches applied to the pipeline, indexed into
    /// that node's own decided log (a recovered laggard resumes where
    /// *it* stopped, not where node 0 is).
    applied: Vec<usize>,
    /// Canonical per-sequence block seals, pinned the first time a
    /// reference node decides the slot and never recomputed — a laggard
    /// replaying the backlog later (possibly against a *different*
    /// reference, if the original crashed) must seal seq `k` exactly as
    /// the nodes that applied it first did, or heads fork.
    seals: std::collections::BTreeMap<u64, BlockSeal>,
    /// `(reference node, entries of its decided log already sealed)`:
    /// sealing visits only what the reference decided since last time.
    sealed: (usize, usize),
    consensus: ConsensusKind,
    arch: ArchKind,
    /// Per-node commit audit trails (`NetworkBuilder::with_audit`).
    trails: Option<Vec<AuditTrail>>,
    /// The genesis state every pipeline started from — the root the
    /// auditor replays from.
    initial_state: StateStore,
    /// Declared last so that it is dropped last: the state tables above
    /// are the large blocks, the cluster is many small ones. Freeing the
    /// large blocks while the small ones still sit above them keeps the
    /// allocator from handing the heap back to the system between two
    /// networks built one after the other (glibc trims on a large free at
    /// the top of the heap; the next `build` then pays the page faults).
    pub(crate) ordering: Box<dyn OrderingCluster<Batch>>,
}

impl BlockchainNetwork {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ordering.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ordering.is_empty()
    }

    /// The configured consensus protocol.
    pub fn consensus_kind(&self) -> ConsensusKind {
        self.consensus
    }

    /// The configured architecture.
    pub fn arch_kind(&self) -> ArchKind {
        self.arch
    }

    /// Queues a transaction for the next batch.
    pub fn submit(&mut self, tx: Transaction) {
        self.pending.push(tx);
    }

    /// Queues many transactions.
    pub fn submit_all(&mut self, txs: Vec<Transaction>) {
        self.pending.extend(txs);
    }

    /// Crashes a node (it stops participating in consensus; its pipeline
    /// stops applying blocks).
    pub fn crash(&mut self, node: usize) {
        self.ordering.crash(node);
    }

    /// Resumes a crashed node with its consensus memory intact; its
    /// pipeline catches up on the next [`run_to_completion`] call.
    ///
    /// [`run_to_completion`]: BlockchainNetwork::run_to_completion
    pub fn recover(&mut self, node: usize) {
        self.ordering.recover(node);
    }

    /// Resumes a crashed node through its `on_start` (re-arms timers).
    pub fn restart(&mut self, node: usize) {
        self.ordering.restart(node);
    }

    /// True if `node` is crashed.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.ordering.is_crashed(node)
    }

    /// Splits the consensus network; cross-group messages drop.
    pub fn partition(&mut self, groups: &[Vec<usize>]) {
        self.ordering.partition(groups);
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        self.ordering.heal_partition();
    }

    /// Installs a fault on one directed consensus link.
    pub fn degrade_link(&mut self, from: usize, to: usize, fault: LinkFault) {
        self.ordering.degrade_link(from, to, fault);
    }

    /// Restores every consensus link to default behaviour.
    pub fn heal_links(&mut self) {
        self.ordering.heal_links();
    }

    /// Applies one nemesis op to the composed stack's consensus layer,
    /// so seeded chaos schedules (PR 1) can torture consensus ×
    /// execution together. On a [`durable`](NetworkBuilder::durable)
    /// network every op is armed, including `CrashAmnesia` (total RAM
    /// loss, recovery from staged disk replay) and the disk faults
    /// (`FailSyncs`, `CorruptWalTail`, `BitRot`). On a plain network
    /// `CrashAmnesia` panics and disk faults are inert no-ops (see
    /// [`OrderingCluster::apply_nemesis`]).
    pub fn apply_nemesis(&mut self, op: &NemesisOp) {
        self.ordering.apply_nemesis(op);
    }

    /// Persists every alive node's consensus state to its stable store
    /// (checkpoint + decided-block WAL append + sync). A no-op on a
    /// network built without [`durable`](NetworkBuilder::durable)
    /// stores. Sync failures injected by [`NemesisOp::FailSyncs`] are
    /// swallowed here — that is the fault model under test.
    pub fn persist(&mut self) {
        self.ordering.persist();
    }

    /// Cold-reads `node`'s ledger straight off its stable store —
    /// re-running staged recovery on the *current* disk image, bypassing
    /// all RAM state — and checks every recovered block against the
    /// reference replica's decided log. `None` on a non-durable network.
    ///
    /// Returns `Some(true)` when every block that survived on disk
    /// matches the digest the cluster decided at that sequence (the disk
    /// may legitimately hold a *prefix* — blocks decided after the last
    /// [`persist`](BlockchainNetwork::persist) are not on it — but it
    /// must never contradict the decided history).
    pub fn verify_cold_ledger(&mut self, node: usize) -> Option<bool> {
        let cold = self.ordering.cold_decided(node)?;
        let reference = (0..self.len()).find(|&i| !self.ordering.is_crashed(i))?;
        let hot: std::collections::HashMap<u64, u64> = self
            .ordering
            .decided(reference)
            .iter()
            .map(|(seq, batch, _)| (*seq, batch.digest_u64()))
            .collect();
        Some(cold.iter().all(|(seq, batch)| hot.get(seq) == Some(&batch.digest_u64())))
    }

    /// The reference (first alive) node's committed sequence as
    /// backend-neutral [`CommitRow`]s — the shape `sweep --real`
    /// compares against a TCP run of the same seed. `None` when every
    /// node is crashed.
    ///
    /// [`CommitRow`]: crate::report::CommitRow
    pub fn commit_rows(&self) -> Option<Vec<crate::report::CommitRow>> {
        let reference = (0..self.len()).find(|&i| !self.ordering.is_crashed(i))?;
        Some(crate::report::commit_rows(
            self.consensus.registry_name(),
            self.len(),
            self.ordering.decided(reference),
        ))
    }

    /// The consensus-pinned block seals so far, in slot order. Together
    /// with the committed batches these determine the ledger head (see
    /// [`sealed_head`](crate::report::sealed_head)).
    pub fn seals(&self) -> Vec<(u64, BlockSeal)> {
        self.seals.iter().map(|(&s, &b)| (s, b)).collect()
    }

    /// The reference node's decided batches in slot order — the block
    /// payloads matching [`seals`](BlockchainNetwork::seals). `None`
    /// when every node is crashed.
    pub fn decided_batches(&self) -> Option<Vec<(u64, Batch)>> {
        let reference = (0..self.len()).find(|&i| !self.ordering.is_crashed(i))?;
        Some(
            self.ordering
                .decided(reference)
                .iter()
                .map(|(seq, batch, _)| (*seq, batch.clone()))
                .collect(),
        )
    }

    /// Every node's decided log as `(seq, payload digest)` pairs — the
    /// shape [`pbc_sim::InvariantChecker::observe`] consumes.
    pub fn decided_views(&self) -> Vec<Vec<(u64, u64)>> {
        (0..self.len())
            .map(|i| {
                self.ordering
                    .decided(i)
                    .iter()
                    .map(|(seq, batch, _)| (*seq, batch.digest_u64()))
                    .collect()
            })
            .collect()
    }

    /// Flushes pending transactions through consensus and executes every
    /// decided batch on every alive node's pipeline.
    pub fn run_to_completion(&mut self) -> RunReport {
        // Batch and inject: each batch is allocated once and fans in to
        // every replica through the Arc-shared broadcast path.
        let mut submitted = 0;
        let pending = std::mem::take(&mut self.pending);
        for chunk in pending.chunks(self.batch_size) {
            let batch = Batch::new(self.next_batch_id, chunk.to_vec());
            self.next_batch_id += 1;
            self.ordering.submit(batch);
            submitted += 1;
        }
        let target = self.next_batch_id as usize;
        // Generous budget: protocols with timers need room for recovery.
        let max_events = 200_000 + 400_000 * submitted as u64;
        let complete = self.ordering.run_until_decided(target, max_events);

        // Apply newly decided batches to every alive pipeline in order.
        let mut report = RunReport {
            consensus_complete: complete,
            sim_time: self.ordering.now(),
            msgs_sent: self.ordering.stats().msgs_sent,
            bytes_sent: self.ordering.stats().bytes_sent,
            ..Default::default()
        };
        let mut latency_sum = 0u64;
        let mut latency_n = 0u64;
        let reference = {
            let RunReport { committed, aborted, out_of_gas, mispredicted, batches, .. } =
                &mut report;
            self.apply_decided(|_seq, _batch, t, outcome| {
                *committed += outcome.committed.len();
                *aborted += outcome.aborted.len();
                *out_of_gas += outcome.out_of_gas.len();
                *mispredicted += outcome.mispredicted.len();
                *batches += 1;
                latency_sum += t;
                latency_n += 1;
            })
        };
        let Some(reference) = reference else {
            return report;
        };
        if latency_n > 0 {
            report.mean_decide_latency = latency_sum as f64 / latency_n as f64;
        }
        report.head = Some(self.pipelines[reference].ledger().head_hash());
        report.diverged = self.check_divergence();
        report
    }

    /// Seals every slot the reference replica has decided, then applies
    /// newly decided batches to every alive node's pipeline in order —
    /// the shared back half of [`run_to_completion`] and the ingress
    /// driver ([`run_ingress`]). `on_reference_batch` fires once per
    /// batch newly applied on the reference node with `(seq, batch,
    /// decide_time, outcome)`; returns the reference node, or `None`
    /// when every node is crashed.
    ///
    /// Seals are pinned with consensus-level metadata taken from the
    /// *reference* replica: the proposer responsible for the sequence
    /// number (rotating protocols rotate it, fixed-leader protocols pin
    /// it to node 0) and the decision time. Every alive node seals seq
    /// `k` identically, so head hashes stay convergent; a node that has
    /// decided further ahead than the reference defers those batches
    /// until the reference catches up and their seals are known.
    ///
    /// [`run_to_completion`]: BlockchainNetwork::run_to_completion
    /// [`run_ingress`]: BlockchainNetwork::run_ingress
    pub(crate) fn apply_decided(
        &mut self,
        mut on_reference_batch: impl FnMut(u64, &Batch, SimTime, &BlockOutcome),
    ) -> Option<usize> {
        let reference = (0..self.len()).find(|&i| !self.ordering.is_crashed(i))?;
        let n = self.len();
        let decided = self.ordering.decided(reference);
        // A different reference (or one whose log was rebuilt shorter
        // after an amnesia crash) is walked from the start; `or_insert`
        // keeps the first pin either way.
        let (sealed_by, sealed_len) = self.sealed;
        let from =
            if sealed_by == reference && sealed_len <= decided.len() { sealed_len } else { 0 };
        for (seq, _, t) in &decided[from..] {
            let proposer = crate::report::seal_proposer(self.consensus.registry_name(), n, *seq);
            self.seals
                .entry(*seq)
                .or_insert(BlockSeal { proposer: pbc_types::NodeId(proposer), time: *t });
        }
        self.sealed = (reference, decided.len());
        for node in 0..n {
            if self.ordering.is_crashed(node) {
                continue;
            }
            let node_decided = self.ordering.decided(node);
            while self.applied[node] < node_decided.len() {
                let (seq, batch, t) = &node_decided[self.applied[node]];
                let Some(&seal) = self.seals.get(seq) else {
                    break; // ahead of every past reference: seal unknown yet
                };
                let outcome = self.pipelines[node].process_block_sealed(batch.txs.clone(), seal);
                self.applied[node] += 1;
                if let Some(trails) = &mut self.trails {
                    trails[node].record(CommitRecord {
                        seq: *seq,
                        height: self.pipelines[node].ledger().height().0,
                        committed: outcome.committed.clone(),
                        aborted: outcome.aborted.clone(),
                        value_digest: self.pipelines[node].state().value_digest(),
                    });
                }
                if node == reference {
                    on_reference_batch(*seq, batch, *t, &outcome);
                }
            }
        }
        Some(reference)
    }

    /// Convergence check across *all* alive nodes, not just node 0's
    /// counters: any two nodes that applied equally many batches must
    /// hold the same ledger head. (A node merely *behind* is lag, not
    /// divergence.)
    pub(crate) fn check_divergence(&self) -> bool {
        let alive: Vec<usize> = (0..self.len()).filter(|&i| !self.ordering.is_crashed(i)).collect();
        for (k, &i) in alive.iter().enumerate() {
            for &j in &alive[k + 1..] {
                if self.applied[i] == self.applied[j]
                    && self.pipelines[i].ledger().head_hash()
                        != self.pipelines[j].ledger().head_hash()
                {
                    return true;
                }
            }
        }
        false
    }

    /// True when all alive nodes hold identical ledgers and states —
    /// the consistency property Figure 1 illustrates.
    pub fn replicas_identical(&self) -> bool {
        let alive: Vec<usize> = (0..self.len()).filter(|&i| !self.ordering.is_crashed(i)).collect();
        let Some(&first) = alive.first() else {
            return true;
        };
        let head = self.pipelines[first].ledger().head_hash();
        let digest = self.pipelines[first].state().state_digest();
        alive.iter().all(|&i| {
            self.pipelines[i].ledger().head_hash() == head
                && self.pipelines[i].state().state_digest() == digest
        })
    }

    /// A node's committed state.
    pub fn node_state(&self, node: usize) -> &StateStore {
        self.pipelines[node].state()
    }

    /// A node's block ledger.
    pub fn node_ledger(&self, node: usize) -> &pbc_ledger::ChainLedger {
        self.pipelines[node].ledger()
    }

    /// Consensus-layer network statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.ordering.stats()
    }

    /// Current logical time of the consensus simulation.
    pub fn now(&self) -> SimTime {
        self.ordering.now()
    }

    /// Digest of the consensus delivery trace so far — the golden-trace
    /// handle determinism tests compare across repeats.
    pub fn trace_digest(&self) -> u64 {
        self.ordering.trace_digest()
    }

    /// The recorded audit trail for `node`, if the network was built
    /// [`with_audit`](NetworkBuilder::with_audit).
    pub fn audit_trail(&self, node: usize) -> Option<&AuditTrail> {
        self.trails.as_ref().map(|t| &t[node])
    }

    /// The genesis state every node's pipeline started from.
    pub fn initial_state(&self) -> &StateStore {
        &self.initial_state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_workload::PaymentWorkload;

    fn run(
        consensus: ConsensusKind,
        arch: ArchKind,
        n: usize,
        txs: usize,
    ) -> (BlockchainNetwork, RunReport) {
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(n)
            .consensus(consensus)
            .architecture(arch)
            .initial_state(w.initial_state())
            .batch_size(8)
            .build();
        chain.submit_all(w.generate(0, txs));
        let report = chain.run_to_completion();
        (chain, report)
    }

    #[test]
    fn figure1_five_nodes_identical_replicas() {
        let (chain, report) = run(ConsensusKind::Pbft, ArchKind::Ox, 5, 24);
        assert!(report.consensus_complete);
        assert_eq!(report.committed, 24);
        assert_eq!(report.batches, 3);
        assert!(chain.replicas_identical());
        // The ledger chains verify on every node.
        for i in 0..5 {
            chain.node_ledger(i).verify().unwrap();
        }
    }

    /// A decided batch's body is one allocation on all n replicas: every
    /// replica's sealed block holds the body the ordering layer decided,
    /// so its Merkle root memo is shared and the leaf-hash memos of the
    /// transactions in it too — each batch is rooted and each distinct
    /// transaction hashed at most once (counted in `pbc-types`' block
    /// tests, where the counters live).
    #[test]
    fn replicas_seal_the_decided_transactions_without_copying_them() {
        let (chain, report) = run(ConsensusKind::Pbft, ArchKind::Oxii, 4, 96);
        assert!(report.consensus_complete);
        let decided = chain.decided_batches().expect("a live reference node");
        assert_eq!(decided.iter().map(|(_, b)| b.txs.len()).sum::<usize>(), 96);
        for node in 0..4 {
            let blocks = &chain.node_ledger(node).blocks()[1..];
            assert_eq!(blocks.len(), decided.len());
            for (block, (_, batch)) in blocks.iter().zip(&decided) {
                assert!(!batch.txs.is_empty());
                // Through `Deref`: the address of the one shared list.
                assert!(std::ptr::eq(&block.txs[..], &batch.txs[..]), "node {node} sealed a copy");
                for (sealed, ordered) in block.txs.iter().zip(&batch.txs) {
                    assert!(std::ptr::eq::<pbc_types::tx::TxInner>(&**sealed, &**ordered));
                }
            }
        }
    }

    #[test]
    fn every_consensus_kind_drives_the_chain() {
        for kind in ConsensusKind::ALL {
            let n = if kind == ConsensusKind::MinBft { 3 } else { 4 };
            let (chain, report) = run(kind, ArchKind::Ox, n, 16);
            assert!(report.consensus_complete, "{kind:?} stalled");
            assert_eq!(report.committed, 16, "{kind:?}");
            assert!(chain.replicas_identical(), "{kind:?} replicas diverged");
            assert!(!report.diverged, "{kind:?} reported divergence");
        }
    }

    #[test]
    fn every_arch_kind_commits_consistently() {
        for arch in [
            ArchKind::Ox,
            ArchKind::Oxii,
            ArchKind::Xov,
            ArchKind::XovFabricPp,
            ArchKind::XovFabricSharp,
            ArchKind::Xox,
            ArchKind::FastFabric,
        ] {
            let (chain, report) = run(ConsensusKind::Pbft, arch, 4, 16);
            assert!(report.consensus_complete, "{arch:?}");
            assert!(report.committed + report.aborted == 16, "{arch:?}");
            assert!(chain.replicas_identical(), "{arch:?} replicas diverged");
        }
    }

    #[test]
    fn incremental_submission_rounds() {
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(4)
            .architecture(ArchKind::Oxii)
            .initial_state(w.initial_state())
            .batch_size(4)
            .build();
        chain.submit_all(w.generate(0, 8));
        let r1 = chain.run_to_completion();
        chain.submit_all(w.generate(100, 8));
        let r2 = chain.run_to_completion();
        assert_eq!(r1.committed + r2.committed, 16);
        assert!(chain.replicas_identical());
        assert_eq!(chain.node_ledger(0).len(), 5); // genesis + 4 blocks
    }

    #[test]
    fn crash_tolerance_end_to_end() {
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(4)
            .consensus(ConsensusKind::Pbft)
            .initial_state(w.initial_state())
            .build();
        chain.crash(2);
        chain.submit_all(w.generate(0, 8));
        let report = chain.run_to_completion();
        assert!(report.consensus_complete);
        assert_eq!(report.committed, 8);
        assert!(chain.replicas_identical(), "alive replicas stay identical");
    }

    #[test]
    fn crashed_node_catches_up_after_recovery() {
        // Raft: the leader replays the whole log to a restarted
        // follower, so the laggard's pipeline has a backlog to apply.
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(3)
            .consensus(ConsensusKind::Raft)
            .initial_state(w.initial_state())
            .batch_size(4)
            .build();
        chain.crash(2);
        chain.submit_all(w.generate(0, 8));
        let r1 = chain.run_to_completion();
        assert!(r1.consensus_complete);
        chain.restart(2); // rejoin: leader heartbeats replicate the backlog
        chain.submit_all(w.generate(100, 4));
        let r2 = chain.run_to_completion();
        assert!(r2.consensus_complete);
        assert!(!r2.diverged, "recovered replica must not fork");
        // The per-node applied counters replay node 2's full backlog.
        assert!(chain.replicas_identical(), "node 2 caught up");
        assert_eq!(r1.committed + r2.committed, 12);
    }

    fn fault_stores(n: usize, seed: u64) -> Vec<pbc_store::NodeStore> {
        (0..n)
            .map(|i| {
                let vfs = pbc_store::FaultFs::new(seed ^ (i as u64 * 0x9E37));
                let (store, _) =
                    pbc_store::NodeStore::open(Box::new(vfs), pbc_store::StoreConfig::default())
                        .expect("fresh in-memory store opens");
                store
            })
            .collect()
    }

    #[test]
    fn durable_network_survives_total_crash_and_cold_read_matches() {
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(4)
            .consensus(ConsensusKind::Pbft)
            .initial_state(w.initial_state())
            .batch_size(4)
            .durable(fault_stores(4, 0xD15C))
            .build();
        chain.submit_all(w.generate(0, 8));
        let r1 = chain.run_to_completion();
        assert!(r1.consensus_complete);
        chain.persist();
        // Total crash: node 2 loses ALL memory, then reboots from disk.
        chain.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
        chain.apply_nemesis(&NemesisOp::Restart { node: 2 });
        chain.submit_all(w.generate(100, 8));
        let r2 = chain.run_to_completion();
        assert!(r2.consensus_complete, "rebooted-from-disk node must not stall the cluster");
        assert!(!r2.diverged, "disk-recovered replica must not fork");
        assert!(chain.replicas_identical());
        chain.persist();
        for node in 0..4 {
            assert_eq!(
                chain.verify_cold_ledger(node),
                Some(true),
                "node {node}: cold re-read off disk must match the decided history"
            );
        }
    }

    #[test]
    fn decided_batch_is_one_allocation_on_every_replica() {
        for (kind, n) in [(ConsensusKind::Pbft, 4), (ConsensusKind::Raft, 3)] {
            let (chain, report) = run(kind, ArchKind::Ox, n, 24);
            assert_eq!(report.batches, 3, "{kind:?}");
            let reference = chain.ordering.decided(0);
            for node in 1..n {
                for ((_, ours, _), (_, theirs, _)) in
                    reference.iter().zip(chain.ordering.decided(node))
                {
                    // Through `Deref`: the address of the shared body.
                    assert!(std::ptr::eq(&**ours, &**theirs), "{kind:?}: node {node} holds a copy");
                }
            }
        }
    }

    #[test]
    fn seals_stay_pinned_when_the_reference_changes_or_its_log_shrinks() {
        let w = PaymentWorkload { accounts: 64, ..Default::default() };
        let mut chain = NetworkBuilder::new(3)
            .consensus(ConsensusKind::Raft)
            .initial_state(w.initial_state())
            .batch_size(4)
            .durable(fault_stores(3, 0x5EA1))
            .build();
        let round = |chain: &mut BlockchainNetwork, first: u64| {
            chain.submit_all(w.generate(first, 8));
            let report = chain.run_to_completion();
            assert!(report.consensus_complete && !report.diverged, "round at {first}");
        };
        round(&mut chain, 0);
        chain.persist();
        let pinned = chain.seals();
        round(&mut chain, 100);
        // Node 0 reboots from disk and is the reference again, with a
        // decided log shorter than what was sealed from it before.
        chain.apply_nemesis(&NemesisOp::CrashAmnesia { node: 0 });
        chain.apply_nemesis(&NemesisOp::Restart { node: 0 });
        assert!(chain.ordering.decided_len(0) < 4);
        assert_eq!(chain.apply_decided(|_, _, _, _| {}), Some(0));
        chain.crash(0);
        round(&mut chain, 200); // sealed from node 1's log
        chain.restart(0);
        round(&mut chain, 300); // and from node 0's again
        assert!(chain.replicas_identical(), "node 0 caught up on the same seals");
        let seals = chain.seals();
        assert_eq!(
            seals.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert_eq!(seals[..pinned.len()], pinned[..], "first pin wins");
    }

    #[test]
    fn plain_network_has_no_cold_ledger() {
        let (mut chain, _) = run(ConsensusKind::Pbft, ArchKind::Ox, 4, 8);
        chain.persist(); // no-op, must not panic
        assert_eq!(chain.verify_cold_ledger(0), None);
    }

    #[test]
    fn report_metrics_populated() {
        let (_, report) = run(ConsensusKind::Pbft, ArchKind::Ox, 4, 8);
        assert!(report.msgs_sent > 0);
        assert!(report.bytes_sent > 0);
        assert!(report.mean_decide_latency > 0.0);
        assert!(report.sim_time > 0);
        assert!(report.head.is_some());
        assert!(!report.diverged);
    }
}
