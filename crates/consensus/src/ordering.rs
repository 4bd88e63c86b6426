//! The generic ordering layer: one trait, one table, any protocol.
//!
//! The paper's design space is a cross-product — ordering (§2.2, §2.3.3)
//! × execution architecture (§2.3.3) × sharding (§2.3.4) — so the
//! composition point must not be a closed enum. This module makes every
//! consensus implementation in the crate interchangeable behind two
//! small interfaces:
//!
//! * [`OrderingActor`] — what a protocol actor must expose to be driven
//!   generically: how to wrap a payload into its client-request message,
//!   and where its in-order [`DecidedLog`] lives. All six protocols
//!   (PBFT/IBFT, HotStuff, Tendermint, Raft, Paxos, MinBFT) implement
//!   it, as does the Byzantine [`Adversary`] wrapper by delegation.
//! * [`OrderingCluster`] — an object-safe view of a whole replica group,
//!   with generic driving helpers: zero-copy request fan-in
//!   ([`OrderingCluster::submit`]), [`OrderingCluster::run_until_decided`],
//!   crash/partition/link-fault controls, and
//!   [`OrderingCluster::apply_nemesis`] for chaos schedules. One impl
//!   provides it for every [`OverNetwork`] group: a plain
//!   `pbc_sim::Network<A>`, and a [`DurableNet`], which overrides only
//!   what a disk changes.
//!
//! The protocol catalogue is one `ordering_registry!` table. Each line
//! names a protocol once — its registry name, its [`ConsensusKind`]
//! variant, whether it rotates the proposer, its minimum replica count,
//! a replica factory, and whether it runs over TCP — and the table
//! generates [`ConsensusKind`], [`cluster_with`], [`durable_cluster_with`]
//! and [`run_real`] from it, all building replicas with the same
//! factory. Adding a protocol is an [`OrderingActor`] impl plus one line.
//!
//! # Example: a new protocol in one impl
//!
//! A (toy) single-broadcast sequencer, made drivable by the whole
//! generic stack with nothing but an [`OrderingActor`] impl:
//!
//! ```
//! use pbc_consensus::ordering::{OrderingActor, OrderingCluster};
//! use pbc_consensus::DecidedLog;
//! use pbc_sim::{Actor, Context, Message, Network, NetworkConfig, NodeIdx};
//!
//! /// Node 0 stamps a sequence number on each request and broadcasts.
//! #[derive(Default)]
//! struct Sequencer {
//!     log: DecidedLog<u64>,
//!     next: u64,
//! }
//!
//! #[derive(Clone, Debug)]
//! enum SeqMsg {
//!     Request(u64),
//!     Decide(u64, u64),
//! }
//! impl Message for SeqMsg {}
//!
//! impl Actor for Sequencer {
//!     type Msg = SeqMsg;
//!     fn on_message(&mut self, _from: NodeIdx, msg: &SeqMsg, ctx: &mut Context<SeqMsg>) {
//!         match msg {
//!             SeqMsg::Request(v) if ctx.self_id == 0 => {
//!                 let seq = self.next;
//!                 self.next += 1;
//!                 ctx.broadcast(SeqMsg::Decide(seq, *v));
//!             }
//!             SeqMsg::Decide(seq, v) => self.log.decide(*seq, *v, ctx.now),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! // The whole integration: one trait impl. (For name-based lookup,
//! // add one `Sequencer => "sequencer", …` line to the
//! // `ordering_registry!` table.)
//! impl OrderingActor for Sequencer {
//!     type Payload = u64;
//!     const PROTOCOL: &'static str = "sequencer";
//!     fn request_msg(payload: u64) -> SeqMsg {
//!         SeqMsg::Request(payload)
//!     }
//!     fn log(&self) -> &DecidedLog<u64> {
//!         &self.log
//!     }
//! }
//!
//! let actors = (0..3).map(|_| Sequencer::default()).collect();
//! let mut cluster: Box<dyn OrderingCluster<u64>> =
//!     Box::new(Network::new(actors, NetworkConfig::default()));
//! cluster.submit(42); // zero-copy fan-in to all three replicas
//! assert!(cluster.run_until_decided(1, 10_000));
//! assert_eq!(cluster.decided(2)[0].1, 42);
//! ```

use crate::common::{DecidedLog, Payload, PersistPayload};
use crate::hotstuff::{HotStuffConfig, HotStuffReplica};
use crate::minbft::{MinBftConfig, MinBftReplica};
use crate::paxos::{PaxosConfig, PaxosNode};
use crate::pbft::{PbftConfig, PbftReplica};
use crate::raft::{RaftConfig, RaftNode};
use crate::tendermint::{TendermintConfig, TendermintNode};
use crate::wire::WireMsg;
use pbc_sim::fault::LinkFault;
use pbc_sim::{Actor, Adversary, Attack, Durable, NemesisOp, NetStats, Network, NetworkConfig};
use pbc_sim::{NodeIdx, SimTime};
use pbc_store::{NodeStore, Recovery};

/// A consensus actor drivable by the generic ordering layer.
///
/// The contract every protocol in this crate satisfies: client requests
/// are ordinary messages built by [`OrderingActor::request_msg`], and
/// decisions surface through an in-order [`DecidedLog`]. That is all the
/// rest of the system needs — `pbc-core` composes execution pipelines on
/// top, `pbc-shard` puts replica groups under shards, and the nemesis
/// engine chaos-tests any of it, without naming a protocol.
pub trait OrderingActor: Actor {
    /// What this actor agrees on.
    type Payload: Payload + 'static;

    /// Metrics label of the protocol (IBFT runs `PbftReplica`, so its
    /// label is `"pbft"`; [`ConsensusKind::registry_name`] tells them
    /// apart).
    const PROTOCOL: &'static str;

    /// Wraps a payload into the protocol's client-request message.
    fn request_msg(payload: Self::Payload) -> Self::Msg;

    /// The actor's in-order decided log.
    fn log(&self) -> &DecidedLog<Self::Payload>;
}

/// The Byzantine wrapper stays drivable: requests and the decided log
/// delegate to the wrapped actor, so a registry-built cluster can host
/// adversarial replicas with no protocol-specific code.
impl<A: OrderingActor> OrderingActor for Adversary<A> {
    type Payload = A::Payload;
    const PROTOCOL: &'static str = A::PROTOCOL;

    fn request_msg(payload: Self::Payload) -> Self::Msg {
        A::request_msg(payload)
    }

    fn log(&self) -> &DecidedLog<Self::Payload> {
        self.inner().log()
    }
}

/// An object-safe replica group running one ordering protocol.
///
/// This is the single vtable point the rest of the workspace dispatches
/// through: every [`OverNetwork`] group implements it, and the
/// [`cluster`] registry hands it out boxed. Callers drive consensus
/// ([`submit`](OrderingCluster::submit),
/// [`run_until_decided`](OrderingCluster::run_until_decided)), read
/// decisions, and inject faults without knowing the protocol.
pub trait OrderingCluster<P: Payload> {
    /// Number of replicas.
    fn len(&self) -> usize;

    /// Protocol label (the [`OrderingActor::PROTOCOL`] of the actors).
    fn protocol(&self) -> &'static str;

    /// Submits a payload for ordering: the client request fans in to
    /// every replica through one shared allocation (zero-copy).
    fn submit(&mut self, payload: P);

    /// Submits a payload whose client request is **scheduled** at the
    /// absolute tick `at` (clamped to `now + 1` if already past): the
    /// ingress path's client-arrival primitive, making arrivals
    /// first-class simulation events.
    fn submit_at(&mut self, payload: P, at: SimTime);

    /// Runs until the event queue drains or logical time exceeds
    /// `deadline`; returns the number of events processed.
    fn run_until_time(&mut self, deadline: SimTime) -> u64;

    /// Digest of the delivery trace so far — the golden-trace handle
    /// e2e determinism tests compare across repeats.
    fn trace_digest(&self) -> u64;

    /// Replica `node`'s in-order decided prefix.
    fn decided(&self, node: NodeIdx) -> &[(u64, P, SimTime)];

    /// Processes one simulation event; `false` when idle.
    fn step(&mut self) -> bool;

    /// Current logical time.
    fn now(&self) -> SimTime;

    /// Network accounting.
    fn stats(&self) -> &NetStats;

    /// True if `node` is crashed.
    fn is_crashed(&self, node: NodeIdx) -> bool;

    /// Crash-stops a replica (RAM intact).
    fn crash(&mut self, node: NodeIdx);

    /// Resumes a crashed replica with its memory intact.
    fn recover(&mut self, node: NodeIdx);

    /// Resumes a crashed replica through its `on_start` (re-arms timers).
    fn restart(&mut self, node: NodeIdx);

    /// Splits the group; cross-group messages drop.
    fn partition(&mut self, groups: &[Vec<NodeIdx>]);

    /// Removes any partition.
    fn heal_partition(&mut self);

    /// Installs a fault on one directed link.
    fn degrade_link(&mut self, from: NodeIdx, to: NodeIdx, fault: LinkFault);

    /// Restores every link to default behaviour.
    fn heal_links(&mut self);

    /// Applies one nemesis op to the group, so seeded chaos schedules
    /// drive the composed stack through the same vtable as everything
    /// else.
    ///
    /// # Panics
    /// Panics on [`NemesisOp::CrashAmnesia`] unless the group owns real
    /// stores ([`DurableNet`]): a plain group has no disk to recover
    /// from. Generate plain-group schedules with `amnesia: false`.
    fn apply_nemesis(&mut self, op: &NemesisOp);

    /// Flushes every alive replica's durable state to its stable store.
    /// A no-op for clusters without real stores.
    fn persist(&mut self);

    /// Re-reads replica `node`'s decided log **from disk** — reopening
    /// its store cold and decoding what actually survived, bypassing all
    /// in-memory state. `None` for clusters without real stores.
    fn cold_decided(&mut self, node: NodeIdx) -> Option<Vec<(u64, P)>>;

    /// True if the group has no replicas.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of replica `node`'s decided prefix.
    fn decided_len(&self, node: NodeIdx) -> usize {
        self.decided(node).len()
    }

    /// Runs until every **alive** replica has decided at least `target`
    /// slots, the simulation idles, or `max_events` elapse. Returns
    /// whether the target was reached.
    fn run_until_decided(&mut self, target: usize, max_events: u64) -> bool {
        let n = self.len();
        let mut events = 0;
        loop {
            let done =
                (0..n).filter(|&i| !self.is_crashed(i)).all(|i| self.decided_len(i) >= target);
            if done {
                return true;
            }
            if events >= max_events || !self.step() {
                return false;
            }
            events += 1;
        }
    }
}

/// A replica group running on one simulated [`Network`]. The single
/// [`OrderingCluster`] impl below forwards to the network; the three
/// defaulted methods are where a group with real stores ([`DurableNet`])
/// changes what a disk changes.
pub trait OverNetwork {
    /// The replicas' actor type.
    type Actor: OrderingActor;

    /// The network the replicas run on.
    fn network(&self) -> &Network<Self::Actor>;

    /// The network, mutably — for harnesses that need raw injection or
    /// time control beyond the [`OrderingCluster`] surface.
    fn network_mut(&mut self) -> &mut Network<Self::Actor>;

    /// Applies `op` if the group's disks change what it does, returning
    /// whether it did; every other op goes to [`NemesisOp::apply`].
    fn apply_disk_op(&mut self, _op: &NemesisOp) -> bool {
        false
    }

    /// [`OrderingCluster::persist`]; nothing to flush by default.
    fn persist_stores(&mut self) {}

    /// [`OrderingCluster::cold_decided`]; no disk to read by default.
    fn read_cold(&mut self, _node: NodeIdx) -> Option<Vec<(u64, PayloadOf<Self>)>> {
        None
    }
}

/// What a group over the network `C` agrees on.
type PayloadOf<C> = <<C as OverNetwork>::Actor as OrderingActor>::Payload;

impl<A: OrderingActor> OverNetwork for Network<A> {
    type Actor = A;

    fn network(&self) -> &Network<A> {
        self
    }

    fn network_mut(&mut self) -> &mut Network<A> {
        self
    }
}

/// Every replica group on a simulated network is an ordering cluster —
/// the generic driving helpers the rest of the workspace builds on.
impl<C: OverNetwork> OrderingCluster<PayloadOf<C>> for C {
    fn len(&self) -> usize {
        self.network().len()
    }

    fn protocol(&self) -> &'static str {
        C::Actor::PROTOCOL
    }

    fn submit(&mut self, payload: PayloadOf<C>) {
        // One allocation for the whole fan-in; clients appear as node 0.
        self.network_mut().inject_all(0, C::Actor::request_msg(payload), 1);
    }

    fn submit_at(&mut self, payload: PayloadOf<C>, at: SimTime) {
        self.network_mut().inject_all_at(0, C::Actor::request_msg(payload), at);
    }

    fn run_until_time(&mut self, deadline: SimTime) -> u64 {
        self.network_mut().run_until(deadline)
    }

    fn trace_digest(&self) -> u64 {
        self.network().trace_digest()
    }

    fn decided(&self, node: NodeIdx) -> &[(u64, PayloadOf<C>, SimTime)] {
        self.network().actor(node).log().delivered()
    }

    fn step(&mut self) -> bool {
        self.network_mut().step()
    }

    fn now(&self) -> SimTime {
        self.network().now()
    }

    fn stats(&self) -> &NetStats {
        self.network().stats()
    }

    fn is_crashed(&self, node: NodeIdx) -> bool {
        self.network().is_crashed(node)
    }

    fn crash(&mut self, node: NodeIdx) {
        self.network_mut().crash(node)
    }

    fn recover(&mut self, node: NodeIdx) {
        self.network_mut().recover(node)
    }

    fn restart(&mut self, node: NodeIdx) {
        self.network_mut().restart(node)
    }

    fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        self.network_mut().partition(groups)
    }

    fn heal_partition(&mut self) {
        self.network_mut().heal_partition()
    }

    fn degrade_link(&mut self, from: NodeIdx, to: NodeIdx, fault: LinkFault) {
        self.network_mut().fault_model_mut().set_link(from, to, fault);
    }

    fn heal_links(&mut self) {
        self.network_mut().fault_model_mut().heal_all();
    }

    fn apply_nemesis(&mut self, op: &NemesisOp) {
        if !self.apply_disk_op(op) {
            op.apply(self.network_mut());
        }
    }

    fn persist(&mut self) {
        self.persist_stores();
    }

    fn cold_decided(&mut self, node: NodeIdx) -> Option<Vec<(u64, PayloadOf<C>)>> {
        self.read_cold(node)
    }
}

/// A replica group whose checkpoints live on **real stable stores**:
/// every node owns a [`pbc_store::NodeStore`] (over a real or
/// fault-injecting filesystem), crashes go through the total-loss path
/// ([`Network::crash_total`]), and restarts recover exclusively from
/// whatever the disk hands back — torn tails truncated, rotted segments
/// quarantined, checkpoints decoded or degraded to a blank boot.
///
/// This is where the [`NemesisOp`] disk faults land: `FailSyncs` arms
/// the node's store to swallow fsyncs, `CorruptWalTail` tears the last
/// WAL record, `BitRot` flips bits in a sealed segment. The store's
/// staged recovery is then on the hook to keep the replica's safety
/// state intact — which `tests/chaos.rs` audits end to end.
pub struct DurableNet<A: OrderingActor + Durable> {
    net: Network<A>,
    stores: Vec<NodeStore>,
    /// What each node's last checkpoint record covers: the next record
    /// says what changed since. Back at the default — and the next
    /// record a snapshot — whenever the store cannot vouch for the
    /// chain ([`NodeStore::can_extend`]).
    marks: Vec<A::Mark>,
    /// Nodes currently down via `CrashAmnesia` (their restart must go
    /// through disk recovery, not plain resume).
    amnesiac: Vec<bool>,
    /// Deterministic seed counter for corruption faults.
    fault_seq: u64,
    recoveries: Vec<(NodeIdx, Recovery)>,
}

impl<A> DurableNet<A>
where
    A: OrderingActor + Durable,
    A::Payload: PersistPayload,
{
    /// Wires `actors` to per-node `stores` and starts the network.
    ///
    /// # Panics
    /// Panics unless `stores.len() == actors.len()`.
    pub fn new(actors: Vec<A>, cfg: NetworkConfig, stores: Vec<NodeStore>) -> Self {
        assert_eq!(actors.len(), stores.len(), "one store per replica");
        let n = actors.len();
        let mut net = Network::new(actors, cfg);
        net.start();
        DurableNet {
            net,
            stores,
            marks: (0..n).map(|_| A::Mark::default()).collect(),
            amnesiac: vec![false; n],
            fault_seq: 0,
            recoveries: Vec::new(),
        }
    }

    /// Flushes one replica's checkpoint and decided blocks to its store:
    /// one checkpoint record saying what changed since the last one (a
    /// snapshot when there is no last one to trust), the decided blocks
    /// the store does not hold yet, one sync.
    ///
    /// Write or sync errors are swallowed deliberately: a failed fsync
    /// leaves the data vulnerable, it does not stop the replica — that
    /// exposure is exactly the fault model the store exists to survive.
    /// The store remembers that it failed, and the next record is a
    /// snapshot.
    fn persist_node(&mut self, node: NodeIdx) {
        let store = &mut self.stores[node];
        let mark = &mut self.marks[node];
        if !store.can_extend() {
            *mark = A::Mark::default();
        }
        let actor = self.net.actor(node);
        // From the default mark a record is the whole state.
        let snapshot = *mark == A::Mark::default();
        let record = actor.encode_since(mark);
        let _ =
            if snapshot { store.put_checkpoint(&record) } else { store.extend_checkpoint(&record) };
        for (seq, payload, _) in actor.log().delivered() {
            if !store.has_block(*seq) {
                let _ = store.append_block(*seq, &payload.to_bytes());
            }
        }
        let _ = store.sync();
    }

    /// The stable state a disk recovery hands to `restore`: the records
    /// that survived, folded in order onto a blank state for as long as
    /// each one applies.
    fn recovered_stable(&self, node: NodeIdx, rec: &Recovery) -> A::Stable {
        let actor = self.net.actor(node);
        let mut stable = A::blank_stable(actor);
        for record in rec.checkpoint.iter().chain(&rec.extensions) {
            if A::apply(actor, &mut stable, record).is_none() {
                break;
            }
        }
        stable
    }

    /// What each disk recovery found and repaired, in the order the
    /// restarts happened.
    pub fn recoveries(&self) -> &[(NodeIdx, Recovery)] {
        &self.recoveries
    }

    /// Direct access to one replica's store (tests, harnesses).
    pub fn store_mut(&mut self, node: NodeIdx) -> &mut NodeStore {
        &mut self.stores[node]
    }
}

impl<A> OverNetwork for DurableNet<A>
where
    A: OrderingActor + Durable,
    A::Payload: PersistPayload,
{
    type Actor = A;

    fn network(&self) -> &Network<A> {
        &self.net
    }

    fn network_mut(&mut self) -> &mut Network<A> {
        &mut self.net
    }

    /// The disk-backed nemesis semantics: amnesia crashes flush then
    /// wipe RAM entirely, restarts of amnesiac nodes recover **only**
    /// from staged disk replay, and the three disk-fault ops arm the
    /// node's store.
    fn apply_disk_op(&mut self, op: &NemesisOp) -> bool {
        let now = self.net.now();
        match *op {
            NemesisOp::CrashAmnesia { node } => {
                op.trace(now);
                // Flush what the replica managed to persist, then drop
                // the in-flight (unsynced) writes and all RAM.
                self.persist_node(node);
                self.stores[node].fault_crash();
                self.net.crash_total(node);
                self.amnesiac[node] = true;
            }
            NemesisOp::Restart { node } if self.amnesiac[node] => {
                op.trace(now);
                self.amnesiac[node] = false;
                let stable = match self.stores[node].reopen() {
                    Ok(rec) => {
                        let stable = self.recovered_stable(node, &rec);
                        self.recoveries.push((node, rec));
                        stable
                    }
                    // An unrecoverable disk is a fresh boot, not a halt.
                    Err(_) => A::blank_stable(self.net.actor(node)),
                };
                self.net.restart_with(node, stable);
            }
            NemesisOp::FailSyncs { node, count } => {
                op.trace(now);
                self.stores[node].fault_fail_syncs(count);
            }
            NemesisOp::CorruptWalTail { node } => {
                op.trace(now);
                self.fault_seq += 1;
                self.stores[node].fault_corrupt_wal_tail(self.fault_seq);
            }
            NemesisOp::BitRot { node } => {
                op.trace(now);
                self.fault_seq += 1;
                self.stores[node].fault_bit_rot(self.fault_seq);
            }
            _ => return false,
        }
        true
    }

    fn persist_stores(&mut self) {
        for node in 0..self.net.len() {
            if !self.net.is_crashed(node) {
                self.persist_node(node);
            }
        }
    }

    fn read_cold(&mut self, node: NodeIdx) -> Option<Vec<(u64, A::Payload)>> {
        // Reopen is idempotent staged replay, so a cold read is just a
        // recovery pass over whatever is on disk right now. Blocks that
        // fail payload decoding are dropped — bit rot that slipped past
        // the checksums must degrade, not panic.
        let rec = self.stores[node].reopen().ok()?;
        Some(
            rec.blocks
                .iter()
                .filter_map(|(seq, bytes)| {
                    <A::Payload as PersistPayload>::from_bytes(bytes).map(|p| (*seq, p))
                })
                .collect(),
        )
    }
}

/// Builds, wires, and starts a cluster over `actors`, wrapping every
/// replica in a Byzantine [`Adversary`] when any attacks are requested.
fn finish<A: OrderingActor + 'static>(
    actors: Vec<A>,
    cfg: NetworkConfig,
    byzantine: &[(NodeIdx, Vec<Attack>)],
) -> Box<dyn OrderingCluster<A::Payload>> {
    if byzantine.is_empty() {
        return started(actors, cfg);
    }
    let wrapped: Vec<Adversary<A>> = actors
        .into_iter()
        .enumerate()
        .map(|(i, a)| match byzantine.iter().find(|(node, _)| *node == i) {
            Some((_, attacks)) => Adversary::new(a, attacks.clone()),
            None => Adversary::honest(a),
        })
        .collect();
    started(wrapped, cfg)
}

/// A started [`Network`] over `actors`, erased to an ordering cluster.
fn started<A: OrderingActor + 'static>(
    actors: Vec<A>,
    cfg: NetworkConfig,
) -> Box<dyn OrderingCluster<A::Payload>> {
    let mut net = Network::new(actors, cfg);
    net.start();
    Box::new(net)
}

/// Replicas `0..n`, each built by `make`.
fn replicas<A>(n: usize, make: impl FnMut(NodeIdx) -> A) -> Vec<A> {
    (0..n).map(make).collect()
}

/// Expands to `Some(runtime.mount(..))` for a TCP-capable table line and
/// to `None` for a simulator-only one (whose messages have no wire codec,
/// so its factory is not even expanded).
macro_rules! mount_if {
    (tcp, $runtime:expr, $kind:expr, $n:expr, $make:expr) => {
        Some($runtime.mount($kind, $n, $make))
    };
    (sim, $($unused:tt)*) => {
        None
    };
}

/// Generates the protocol catalogue from one table: [`ConsensusKind`]
/// with its metadata, and the [`cluster_with`], [`durable_cluster_with`]
/// and [`run_real`] dispatch, each arm calling the line's replica
/// factory. A line reads `Variant => "name", rotating: bool, min_nodes:
/// count, tcp | sim, |n| factory;` where `factory` is an
/// `FnMut(NodeIdx) -> A` for an `n`-replica group.
macro_rules! ordering_registry {
    ($(
        $(#[$doc:meta])*
        $kind:ident => $name:literal, rotating: $rot:literal, min_nodes: $min:literal,
            $transport:ident, $factory:expr;
    )*) => {
        /// Which ordering protocol a cluster runs (§2.2, §2.3.3): one
        /// variant per line of the `ordering_registry!` table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum ConsensusKind {
            $( $(#[$doc])* $kind, )*
        }

        impl ConsensusKind {
            /// Every protocol the stack can run, in table order.
            pub const ALL: [ConsensusKind; [$($name),*].len()] = [$(ConsensusKind::$kind),*];

            /// The protocol's registry name (what [`cluster`] takes).
            pub fn registry_name(&self) -> &'static str {
                match self {
                    $( ConsensusKind::$kind => $name, )*
                }
            }

            /// Minimum replica count tolerating one fault under this
            /// protocol's fault model (`3f+1` Byzantine, `2f+1` crash /
            /// trusted-hardware).
            pub fn min_nodes(&self) -> usize {
                match self {
                    $( ConsensusKind::$kind => $min, )*
                }
            }

            /// True if the protocol rotates its proposer per decided
            /// height (consumers stamp block seals with the rotating
            /// proposer).
            pub fn rotating(&self) -> bool {
                match self {
                    $( ConsensusKind::$kind => $rot, )*
                }
            }

            /// The protocol registered under `name`, if any.
            pub fn from_name(name: &str) -> Option<ConsensusKind> {
                ConsensusKind::ALL.into_iter().find(|kind| kind.registry_name() == name)
            }
        }

        /// Builds a started `proto` cluster of `n` replicas, optionally
        /// wrapping the listed nodes in Byzantine [`Adversary`]s with
        /// the given attack sets. Returns `None` for an unknown name.
        pub fn cluster_with<P: Payload + 'static>(
            proto: &str,
            n: usize,
            cfg: NetworkConfig,
            byzantine: &[(NodeIdx, Vec<Attack>)],
        ) -> Option<Box<dyn OrderingCluster<P>>> {
            Some(match ConsensusKind::from_name(proto)? {
                $( ConsensusKind::$kind => finish(replicas(n, ($factory)(n)), cfg, byzantine), )*
            })
        }

        /// Builds a started `proto` cluster whose `n` replicas are wired
        /// to real per-node stable `stores` (a [`DurableNet`]): crashes
        /// lose RAM entirely and restarts recover from staged disk
        /// replay. Returns `None` for an unknown name.
        ///
        /// # Panics
        /// Panics unless `stores.len() == n`.
        pub fn durable_cluster_with<P: PersistPayload + 'static>(
            proto: &str,
            n: usize,
            cfg: NetworkConfig,
            stores: Vec<NodeStore>,
        ) -> Option<Box<dyn OrderingCluster<P>>> {
            Some(match ConsensusKind::from_name(proto)? {
                $( ConsensusKind::$kind =>
                    Box::new(DurableNet::new(replicas(n, ($factory)(n)), cfg, stores)), )*
            })
        }

        /// [`cluster`]'s real-transport sibling: resolves `proto` to its
        /// replica factory and mounts `n` replicas on `runtime`. Returns
        /// `None` for a protocol that is unknown *or not wire-capable*
        /// (a `sim` line in the table). A protocol becomes wire-capable
        /// by implementing [`WireMsg`] for its message type and marking
        /// its line `tcp`.
        pub fn run_real<P, R>(proto: &str, n: usize, runtime: R) -> Option<R::Output>
        where
            P: PersistPayload + 'static,
            R: RealRuntime<P>,
        {
            match ConsensusKind::from_name(proto)? {
                $( ConsensusKind::$kind =>
                    mount_if!($transport, runtime, ConsensusKind::$kind, n, ($factory)(n)), )*
            }
        }
    };
}

ordering_registry! {
    /// PBFT with a fixed primary per view.
    Pbft => "pbft", rotating: false, min_nodes: 4, tcp,
        |n| { let cfg = PbftConfig::new(n); move |_| PbftReplica::new(cfg.clone()) };
    /// IBFT-style PBFT with per-height proposer rotation.
    Ibft => "ibft", rotating: true, min_nodes: 4, tcp,
        |n| { let cfg = PbftConfig::ibft(n); move |_| PbftReplica::new(cfg.clone()) };
    /// Basic HotStuff (linear message complexity).
    HotStuff => "hotstuff", rotating: true, min_nodes: 4, sim,
        |n| { let cfg = HotStuffConfig::new(n); move |_| HotStuffReplica::new(cfg.clone()) };
    /// Tendermint with equal validator powers.
    Tendermint => "tendermint", rotating: true, min_nodes: 4, sim,
        |n| { let cfg = TendermintConfig::equal(n); move |_| TendermintNode::new(cfg.clone()) };
    /// Raft (crash fault tolerant).
    Raft => "raft", rotating: false, min_nodes: 3, sim,
        |n| { let cfg = RaftConfig::new(n); move |i| RaftNode::new(cfg.clone(), i) };
    /// Multi-decree Paxos (crash fault tolerant).
    Paxos => "paxos", rotating: false, min_nodes: 3, sim,
        |n| { let cfg = PaxosConfig::new(n); move |i| PaxosNode::new(cfg.clone(), i) };
    /// MinBFT with trusted hardware (n = 2f+1).
    MinBft => "minbft", rotating: false, min_nodes: 3, sim,
        |n| { let cfg = MinBftConfig::new(n); move |i| MinBftReplica::new(cfg.clone(), i) };
}

/// [`cluster_with`] without adversaries: the common case.
pub fn cluster<P: Payload + 'static>(
    proto: &str,
    n: usize,
    cfg: NetworkConfig,
) -> Option<Box<dyn OrderingCluster<P>>> {
    cluster_with(proto, n, cfg, &[])
}

/// A runtime that can mount ordering actors on a **real** transport —
/// the callback side of [`run_real`]'s dispatch.
///
/// The simulator's registry can hand back a `Box<dyn OrderingCluster>`
/// because every engine is defined in this crate; a real runtime
/// (pbc-net's TCP cluster) lives downstream, so the registry inverts
/// control instead: [`run_real`] resolves the protocol name to a
/// concrete actor type and calls [`mount`](RealRuntime::mount) with the
/// table line's replica *factory*, keeping the actor generics confined
/// to the runtime while the protocol dispatch stays in the table. The
/// factory (rather than a pre-built `Vec`) lets the runtime re-create a
/// node's actor after a kill/reboot.
pub trait RealRuntime<P: Payload + 'static> {
    /// What mounting yields — typically a running-cluster handle,
    /// erased of the actor type.
    type Output;

    /// Boots a cluster of `n` actors built by `make` on this runtime.
    /// `kind` is the table line being mounted: a runtime that keys
    /// anything on the protocol uses its registry name, not the actor's
    /// label, which two lines can share.
    fn mount<A, F>(self, kind: ConsensusKind, n: usize, make: F) -> Self::Output
    where
        A: OrderingActor<Payload = P> + Send + 'static,
        A::Msg: WireMsg + Send,
        F: FnMut(NodeIdx) -> A + Send + 'static;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn drive(proto: &str, n: usize, requests: u64) -> Box<dyn OrderingCluster<u64>> {
        let cfg = NetworkConfig { seed: 0x0D0E, ..Default::default() };
        let mut c = cluster::<u64>(proto, n, cfg).expect("registered protocol");
        for r in 0..requests {
            c.submit(100 + r);
        }
        assert!(c.run_until_decided(requests as usize, 2_000_000), "{proto} stalled");
        c
    }

    #[test]
    fn every_registered_protocol_orders_and_agrees() {
        for kind in ConsensusKind::ALL {
            let (name, n) = (kind.registry_name(), kind.min_nodes());
            let c = drive(name, n, 3);
            // IBFT is PBFT in rotating mode: same actor, same label.
            let label = if kind == ConsensusKind::Ibft { "pbft" } else { name };
            assert_eq!(c.protocol(), label);
            let reference: Vec<u64> = c.decided(0).iter().map(|(_, p, _)| *p).collect();
            assert_eq!(reference.len(), 3, "{name}");
            for i in 1..n {
                let log: Vec<u64> = c.decided(i).iter().map(|(_, p, _)| *p).collect();
                assert_eq!(log, reference, "{name} node {i} diverged");
            }
        }
    }

    /// A payload that counts, on a counter shared by all its clones, how
    /// often anyone asks for its digest.
    #[derive(Clone, Debug)]
    struct Counted {
        id: u64,
        digest_calls: Arc<AtomicU64>,
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }

    impl Payload for Counted {
        fn digest_u64(&self) -> u64 {
            self.digest_calls.fetch_add(1, Ordering::Relaxed);
            self.id.digest_u64()
        }
    }

    #[test]
    fn digest_calls_per_request_do_not_grow_with_the_log() {
        // A replica may hash a payload twice: when the request arrives
        // and when the proposal carrying it arrives — never per vote, and
        // never again for requests it saw earlier. (Raft used to rescan
        // its whole request buffer: about requests² · (n-1) / 2 calls.)
        const REQUESTS: u64 = 400;
        const WINDOW: u64 = 4;
        for (proto, n) in [("raft", 3usize), ("pbft", 4)] {
            let digest_calls = Arc::new(AtomicU64::new(0));
            let cfg = NetworkConfig { seed: 0xC0_0817, ..Default::default() };
            let mut c = cluster::<Counted>(proto, n, cfg).expect("registered protocol");
            c.run_until_time(100_000); // Raft elects its leader first
            for r in 0..REQUESTS {
                c.submit(Counted { id: r, digest_calls: digest_calls.clone() });
                if (r + 1) % WINDOW == 0 {
                    assert!(c.run_until_decided(r as usize + 1, 2_000_000), "{proto} stalled");
                }
            }
            let calls = digest_calls.load(Ordering::Relaxed);
            assert!(
                calls <= 2 * REQUESTS * n as u64,
                "{proto}: {calls} digest calls for {REQUESTS} requests on {n} replicas"
            );
        }
    }

    #[test]
    fn unknown_protocol_is_none() {
        assert!(cluster::<u64>("zab", 4, NetworkConfig::default()).is_none());
        assert!(ConsensusKind::from_name("zab").is_none());
    }

    #[test]
    fn registry_metadata_matches_rotation_story() {
        use ConsensusKind::*;
        for kind in ConsensusKind::ALL {
            assert_eq!(ConsensusKind::from_name(kind.registry_name()), Some(kind));
            // The three per-height rotating protocols, per §2.3.3.
            assert_eq!(kind.rotating(), matches!(kind, Ibft | HotStuff | Tendermint), "{kind:?}");
            // 2f+1 for crash faults and trusted hardware, 3f+1 otherwise.
            let two_f_plus_one = matches!(kind, Raft | Paxos | MinBft);
            assert_eq!(kind.min_nodes(), if two_f_plus_one { 3 } else { 4 }, "{kind:?}");
        }
    }

    /// A runtime that builds one replica and reports what it was handed.
    struct Probe;

    impl<P: Payload + 'static> RealRuntime<P> for Probe {
        type Output = (ConsensusKind, &'static str);

        fn mount<A, F>(self, kind: ConsensusKind, _n: usize, mut make: F) -> Self::Output
        where
            A: OrderingActor<Payload = P> + Send + 'static,
            A::Msg: WireMsg + Send,
            F: FnMut(NodeIdx) -> A + Send + 'static,
        {
            make(0);
            (kind, A::PROTOCOL)
        }
    }

    #[test]
    fn run_real_mounts_the_tcp_lines_under_their_registry_name() {
        let mounted: Vec<_> = ConsensusKind::ALL
            .iter()
            .filter_map(|kind| run_real::<u64, _>(kind.registry_name(), 4, Probe))
            .collect();
        // IBFT mounts a PBFT actor, but under its own name.
        assert_eq!(mounted, [(ConsensusKind::Pbft, "pbft"), (ConsensusKind::Ibft, "pbft")]);
        assert!(run_real::<u64, _>("zab", 4, Probe).is_none());
    }

    #[test]
    #[should_panic(expected = "CrashAmnesia requires a Durable actor")]
    fn plain_cluster_refuses_amnesia() {
        let mut c = cluster::<u64>("pbft", 4, NetworkConfig::default()).unwrap();
        c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 1 });
    }

    #[test]
    fn erased_cluster_survives_a_crash() {
        let cfg = NetworkConfig { seed: 7, ..Default::default() };
        let mut c = cluster::<u64>("pbft", 4, cfg).unwrap();
        c.apply_nemesis(&NemesisOp::Crash { node: 3 });
        assert!(c.is_crashed(3));
        c.submit(9);
        assert!(c.run_until_decided(1, 2_000_000));
        assert_eq!(c.decided(0)[0].1, 9);
        c.apply_nemesis(&NemesisOp::Recover { node: 3 });
        assert!(!c.is_crashed(3));
    }

    fn fault_stores(n: usize, seed: u64) -> Vec<NodeStore> {
        (0..n)
            .map(|i| {
                let vfs = pbc_store::FaultFs::new(seed ^ (i as u64).wrapping_mul(0x9E37));
                NodeStore::open(Box::new(vfs), pbc_store::StoreConfig::default()).unwrap().0
            })
            .collect()
    }

    #[test]
    fn durable_cluster_recovers_decided_log_from_disk() {
        for kind in ConsensusKind::ALL {
            let (proto, n) = (kind.registry_name(), kind.min_nodes());
            let cfg = NetworkConfig { seed: 0xD15C, ..Default::default() };
            let mut c =
                durable_cluster_with::<u64>(proto, n, cfg, fault_stores(n, 0xD15C)).unwrap();
            for r in 0..3u64 {
                c.submit(100 + r);
            }
            assert!(c.run_until_decided(3, 20_000_000), "{proto} stalled");
            let reference: Vec<u64> = c.decided(0).iter().map(|(_, p, _)| *p).collect();
            c.persist();
            // Total crash: RAM and checkpoint gone; only the disk is left.
            c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 1 });
            c.apply_nemesis(&NemesisOp::Restart { node: 1 });
            // Raft re-derives its decided log from the recovered entries
            // once a leader re-teaches the commit index; others restore
            // it straight off the checkpoint. Either way a short run
            // converges.
            assert!(c.run_until_decided(3, 20_000_000), "{proto}: post-restart convergence");
            let recovered: Vec<u64> = c.decided(1).iter().map(|(_, p, _)| *p).collect();
            assert_eq!(recovered, reference, "{proto}: disk recovery");
            // The cold re-read of node 1's store sees the same blocks.
            let cold = c.cold_decided(1).expect("durable cluster reads cold");
            assert_eq!(
                cold.iter().map(|(_, p)| *p).collect::<Vec<u64>>(),
                reference,
                "{proto}: cold ledger"
            );
        }
    }

    #[test]
    fn erased_cluster_ignores_disk_faults_and_durable_net_arms_them() {
        // Plain clusters: disk ops are no-ops (no store to hurt).
        let mut plain = cluster::<u64>("pbft", 4, NetworkConfig::default()).unwrap();
        plain.apply_nemesis(&NemesisOp::FailSyncs { node: 0, count: 2 });
        plain.apply_nemesis(&NemesisOp::BitRot { node: 0 });
        assert!(plain.cold_decided(0).is_none(), "no store, no cold read");
        // Durable clusters survive an armed sync failure before the crash.
        let cfg = NetworkConfig { seed: 0xFA17, ..Default::default() };
        let mut c = durable_cluster_with::<u64>("raft", 3, cfg, fault_stores(3, 0xFA17)).unwrap();
        c.submit(7);
        assert!(c.run_until_decided(1, 5_000_000));
        c.apply_nemesis(&NemesisOp::FailSyncs { node: 2, count: 8 });
        c.persist(); // syncs swallowed on node 2: appends stay volatile
        c.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
        c.apply_nemesis(&NemesisOp::Restart { node: 2 });
        // Node 2 lost its unsynced writes but must re-join and re-learn
        // the decided prefix from its peers (Raft re-replicates).
        assert!(c.run_until_decided(1, 20_000_000), "node 2 re-learns after data loss");
        assert_eq!(c.decided(2)[0].1, 7);
    }

    #[test]
    fn byzantine_replicas_build_through_the_registry() {
        let cfg = NetworkConfig { seed: 11, ..Default::default() };
        let byz = [(3usize, vec![Attack::Mute])];
        let mut c = cluster_with::<u64>("pbft", 4, cfg, &byz).unwrap();
        c.submit(5);
        assert!(c.run_until_decided(1, 2_000_000), "f=1 tolerates one mute replica");
        for i in 0..3 {
            assert_eq!(c.decided(i)[0].1, 5, "honest node {i}");
        }
    }
}
