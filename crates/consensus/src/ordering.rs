//! The generic ordering layer: one trait, one registry, any protocol.
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
//! * [`OrderingCluster`] — an object-safe view of a whole replica group
//!   (`pbc_sim::Network<A>` implements it for every `A: OrderingActor`),
//!   with generic driving helpers: zero-copy request fan-in
//!   ([`OrderingCluster::submit`]), [`OrderingCluster::run_until_decided`],
//!   crash/partition/link-fault controls, and
//!   [`OrderingCluster::apply_nemesis`] for chaos schedules.
//!
//! The [`cluster`] / [`cluster_with`] constructors replace per-protocol
//! `match` arms everywhere else in the workspace: callers name a
//! protocol (`"pbft"`, `"raft"`, …) and get a boxed cluster generic
//! over any [`Payload`]. The mapping lives in one `ordering_registry!`
//! invocation — adding a protocol is an [`OrderingActor`] impl plus one
//! registry line.
//!
//! # Example: a new protocol in one impl + one registry line
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
//! // add one `"sequencer" => …` line to the `ordering_registry!` list.)
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
use pbc_trace::TraceEvent;

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

    /// Registry / metrics label of the protocol.
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
/// through: `pbc_sim::Network<A>` implements it for every
/// `A: OrderingActor`, and the [`cluster`] registry hands it out boxed.
/// Callers drive consensus ([`submit`](OrderingCluster::submit),
/// [`run_until_decided`](OrderingCluster::run_until_decided)), read
/// decisions, and inject faults without knowing the protocol.
pub trait OrderingCluster<P: Payload> {
    /// Number of replicas.
    fn len(&self) -> usize;

    /// Protocol label (the registry name of the actor type).
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

    /// Applies one nemesis op to the group, so seeded chaos schedules
    /// drive the composed stack through the same vtable as everything
    /// else.
    ///
    /// # Panics
    /// Panics on [`NemesisOp::CrashAmnesia`]: amnesia needs a
    /// [`pbc_sim::Durable`] actor, which the erased view cannot assume.
    /// Generate composed-stack schedules with `amnesia: false`.
    fn apply_nemesis(&mut self, op: &NemesisOp) {
        pbc_trace::emit(self.now(), || TraceEvent::NemesisOp {
            op: op.label(),
            node: op.primary_node(),
        });
        match op {
            NemesisOp::Partition { groups } => self.partition(groups),
            NemesisOp::HealPartition => self.heal_partition(),
            NemesisOp::Crash { node } => self.crash(*node),
            NemesisOp::Recover { node } => self.recover(*node),
            NemesisOp::CrashAmnesia { .. } => {
                panic!("CrashAmnesia needs a Durable actor; erased clusters support plain crashes")
            }
            NemesisOp::Restart { node } => self.restart(*node),
            NemesisOp::DegradeLink { from, to, fault } => self.degrade_link(*from, *to, *fault),
            NemesisOp::HealLinks => self.heal_links(),
            // Disk faults only bite when the cluster owns real stores
            // ([`DurableNet`] overrides this method); a RAM-checkpointed
            // cluster has no disk to hurt.
            NemesisOp::FailSyncs { .. }
            | NemesisOp::CorruptWalTail { .. }
            | NemesisOp::BitRot { .. } => {}
        }
    }

    /// Flushes every alive replica's durable state to its stable store.
    /// A no-op for clusters without real stores (the default).
    fn persist(&mut self) {}

    /// Re-reads replica `node`'s decided log **from disk** — reopening
    /// its store cold and decoding what actually survived, bypassing all
    /// in-memory state. `None` for clusters without real stores.
    fn cold_decided(&mut self, _node: NodeIdx) -> Option<Vec<(u64, P)>> {
        None
    }
}

/// Every simulated network of ordering actors is an ordering cluster —
/// the generic driving helpers the rest of the workspace builds on.
impl<A: OrderingActor> OrderingCluster<A::Payload> for Network<A> {
    fn len(&self) -> usize {
        Network::len(self)
    }

    fn protocol(&self) -> &'static str {
        A::PROTOCOL
    }

    fn submit(&mut self, payload: A::Payload) {
        // One allocation for the whole fan-in (PR 2's shared-payload
        // path); clients appear as node 0, matching the former
        // per-node inject loop tuple-for-tuple.
        self.inject_all(0, A::request_msg(payload), 1);
    }

    fn submit_at(&mut self, payload: A::Payload, at: SimTime) {
        self.inject_all_at(0, A::request_msg(payload), at);
    }

    fn run_until_time(&mut self, deadline: SimTime) -> u64 {
        Network::run_until(self, deadline)
    }

    fn trace_digest(&self) -> u64 {
        Network::trace_digest(self)
    }

    fn decided(&self, node: NodeIdx) -> &[(u64, A::Payload, SimTime)] {
        self.actor(node).log().delivered()
    }

    fn step(&mut self) -> bool {
        Network::step(self)
    }

    fn now(&self) -> SimTime {
        Network::now(self)
    }

    fn stats(&self) -> &NetStats {
        Network::stats(self)
    }

    fn is_crashed(&self, node: NodeIdx) -> bool {
        Network::is_crashed(self, node)
    }

    fn crash(&mut self, node: NodeIdx) {
        Network::crash(self, node)
    }

    fn recover(&mut self, node: NodeIdx) {
        Network::recover(self, node)
    }

    fn restart(&mut self, node: NodeIdx) {
        Network::restart(self, node)
    }

    fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        Network::partition(self, groups)
    }

    fn heal_partition(&mut self) {
        Network::heal_partition(self)
    }

    fn degrade_link(&mut self, from: NodeIdx, to: NodeIdx, fault: LinkFault) {
        self.fault_model_mut().set_link(from, to, fault);
    }

    fn heal_links(&mut self) {
        self.fault_model_mut().heal_all();
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

    /// The underlying network (read access for assertions).
    pub fn network(&self) -> &Network<A> {
        &self.net
    }

    /// The underlying network, mutably — for harnesses that need raw
    /// injection or time control beyond the [`OrderingCluster`] surface
    /// (e.g. replaying a golden scenario event-for-event).
    pub fn network_mut(&mut self) -> &mut Network<A> {
        &mut self.net
    }
}

impl<A> OrderingCluster<A::Payload> for DurableNet<A>
where
    A: OrderingActor + Durable,
    A::Payload: PersistPayload,
{
    fn len(&self) -> usize {
        self.net.len()
    }

    fn protocol(&self) -> &'static str {
        A::PROTOCOL
    }

    fn submit(&mut self, payload: A::Payload) {
        self.net.inject_all(0, A::request_msg(payload), 1);
    }

    fn submit_at(&mut self, payload: A::Payload, at: SimTime) {
        self.net.inject_all_at(0, A::request_msg(payload), at);
    }

    fn run_until_time(&mut self, deadline: SimTime) -> u64 {
        self.net.run_until(deadline)
    }

    fn trace_digest(&self) -> u64 {
        self.net.trace_digest()
    }

    fn decided(&self, node: NodeIdx) -> &[(u64, A::Payload, SimTime)] {
        self.net.actor(node).log().delivered()
    }

    fn step(&mut self) -> bool {
        self.net.step()
    }

    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    fn is_crashed(&self, node: NodeIdx) -> bool {
        self.net.is_crashed(node)
    }

    fn crash(&mut self, node: NodeIdx) {
        self.net.crash(node)
    }

    fn recover(&mut self, node: NodeIdx) {
        self.net.recover(node)
    }

    fn restart(&mut self, node: NodeIdx) {
        self.net.restart(node)
    }

    fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        self.net.partition(groups)
    }

    fn heal_partition(&mut self) {
        self.net.heal_partition()
    }

    fn degrade_link(&mut self, from: NodeIdx, to: NodeIdx, fault: LinkFault) {
        self.net.fault_model_mut().set_link(from, to, fault);
    }

    fn heal_links(&mut self) {
        self.net.fault_model_mut().heal_all();
    }

    /// The disk-backed nemesis semantics: amnesia crashes flush then
    /// wipe RAM entirely, restarts of amnesiac nodes recover **only**
    /// from staged disk replay, and the three disk-fault ops arm the
    /// node's store.
    fn apply_nemesis(&mut self, op: &NemesisOp) {
        pbc_trace::emit(self.net.now(), || TraceEvent::NemesisOp {
            op: op.label(),
            node: op.primary_node(),
        });
        match op {
            NemesisOp::Partition { groups } => self.net.partition(groups),
            NemesisOp::HealPartition => self.net.heal_partition(),
            NemesisOp::Crash { node } => self.net.crash(*node),
            NemesisOp::Recover { node } => self.net.recover(*node),
            NemesisOp::CrashAmnesia { node } => {
                // Flush what the replica managed to persist, then drop
                // the in-flight (unsynced) writes and all RAM.
                self.persist_node(*node);
                self.stores[*node].fault_crash();
                self.net.crash_total(*node);
                self.amnesiac[*node] = true;
            }
            NemesisOp::Restart { node } => {
                if !self.amnesiac[*node] {
                    self.net.restart(*node);
                    return;
                }
                self.amnesiac[*node] = false;
                let stable = match self.stores[*node].reopen() {
                    Ok(rec) => {
                        let stable = self.recovered_stable(*node, &rec);
                        self.recoveries.push((*node, rec));
                        stable
                    }
                    // An unrecoverable disk is a fresh boot, not a halt.
                    Err(_) => A::blank_stable(self.net.actor(*node)),
                };
                self.net.restart_with(*node, stable);
            }
            NemesisOp::DegradeLink { from, to, fault } => {
                self.net.fault_model_mut().set_link(*from, *to, *fault);
            }
            NemesisOp::HealLinks => self.net.fault_model_mut().heal_all(),
            NemesisOp::FailSyncs { node, count } => self.stores[*node].fault_fail_syncs(*count),
            NemesisOp::CorruptWalTail { node } => {
                self.fault_seq += 1;
                self.stores[*node].fault_corrupt_wal_tail(self.fault_seq);
            }
            NemesisOp::BitRot { node } => {
                self.fault_seq += 1;
                self.stores[*node].fault_bit_rot(self.fault_seq);
            }
        }
    }

    fn persist(&mut self) {
        for node in 0..self.net.len() {
            if !self.net.is_crashed(node) {
                self.persist_node(node);
            }
        }
    }

    fn cold_decided(&mut self, node: NodeIdx) -> Option<Vec<(u64, A::Payload)>> {
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

/// Registry metadata for one protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolInfo {
    /// Registry name (what [`cluster`] matches on).
    pub name: &'static str,
    /// True if the protocol rotates its proposer per decided height
    /// (consumers stamp block seals with the rotating proposer).
    pub rotating: bool,
}

/// Looks up a protocol's registry metadata.
pub fn protocol_info(name: &str) -> Option<&'static ProtocolInfo> {
    PROTOCOLS.iter().find(|p| p.name == name)
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

// Uniform per-protocol constructors: each takes a replica count and
// returns the actor vector. These (plus the registry entries below) are
// the only protocol-specific lines in the whole composition story.

fn pbft_actors<P: Payload + 'static>(n: usize) -> Vec<PbftReplica<P>> {
    let cfg = PbftConfig::new(n);
    (0..n).map(|_| PbftReplica::new(cfg.clone())).collect()
}

fn ibft_actors<P: Payload + 'static>(n: usize) -> Vec<PbftReplica<P>> {
    let cfg = PbftConfig::ibft(n);
    (0..n).map(|_| PbftReplica::new(cfg.clone())).collect()
}

fn hotstuff_actors<P: Payload + 'static>(n: usize) -> Vec<HotStuffReplica<P>> {
    let cfg = HotStuffConfig::new(n);
    (0..n).map(|_| HotStuffReplica::new(cfg.clone())).collect()
}

fn tendermint_actors<P: Payload + 'static>(n: usize) -> Vec<TendermintNode<P>> {
    let cfg = TendermintConfig::equal(n);
    (0..n).map(|_| TendermintNode::new(cfg.clone())).collect()
}

fn raft_actors<P: Payload + 'static>(n: usize) -> Vec<RaftNode<P>> {
    let cfg = RaftConfig::new(n);
    (0..n).map(|i| RaftNode::new(cfg.clone(), i)).collect()
}

fn paxos_actors<P: Payload + 'static>(n: usize) -> Vec<PaxosNode<P>> {
    let cfg = PaxosConfig::new(n);
    (0..n).map(|i| PaxosNode::new(cfg.clone(), i)).collect()
}

fn minbft_actors<P: Payload + 'static>(n: usize) -> Vec<MinBftReplica<P>> {
    let cfg = MinBftConfig::new(n);
    (0..n).map(|i| MinBftReplica::new(cfg.clone(), i)).collect()
}

/// Generates the protocol registry: the static metadata table plus the
/// name → constructor dispatch of [`cluster_with`]. One entry per line;
/// this is the single point a new protocol hooks into.
macro_rules! ordering_registry {
    ($( $name:literal => rotating $rot:literal, $builder:path; )*) => {
        /// Every registered protocol, in registry order.
        pub const PROTOCOLS: &[ProtocolInfo] = &[
            $( ProtocolInfo { name: $name, rotating: $rot } ),*
        ];

        /// Builds a started `proto` cluster of `n` replicas, optionally
        /// wrapping the listed nodes in Byzantine [`Adversary`]s with
        /// the given attack sets. Returns `None` for an unknown name.
        pub fn cluster_with<P: Payload + 'static>(
            proto: &str,
            n: usize,
            cfg: NetworkConfig,
            byzantine: &[(NodeIdx, Vec<Attack>)],
        ) -> Option<Box<dyn OrderingCluster<P>>> {
            match proto {
                $( $name => Some(finish($builder(n), cfg, byzantine)), )*
                _ => None,
            }
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
            match proto {
                $( $name => Some(Box::new(DurableNet::new($builder(n), cfg, stores))), )*
                _ => None,
            }
        }
    };
}

ordering_registry! {
    "pbft"       => rotating false, pbft_actors;
    "ibft"       => rotating true,  ibft_actors;
    "hotstuff"   => rotating true,  hotstuff_actors;
    "tendermint" => rotating true,  tendermint_actors;
    "raft"       => rotating false, raft_actors;
    "paxos"      => rotating false, paxos_actors;
    "minbft"     => rotating false, minbft_actors;
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
/// concrete actor type and calls [`mount`](RealRuntime::mount) with a
/// *factory*, keeping the actor generics confined to the runtime while
/// the protocol dispatch stays here, one line per protocol like
/// [`cluster_with`]. The factory (rather than a pre-built `Vec`) lets
/// the runtime re-create a node's actor after a kill/reboot.
pub trait RealRuntime<P: Payload + 'static> {
    /// What mounting yields — typically a running-cluster handle,
    /// erased of the actor type.
    type Output;

    /// Boots a cluster of `n` actors built by `make` on this runtime.
    fn mount<A, F>(self, n: usize, make: F) -> Self::Output
    where
        A: OrderingActor<Payload = P> + Send + 'static,
        A::Msg: WireMsg + Send,
        F: FnMut(NodeIdx) -> A + Send + 'static;
}

/// [`cluster`]'s real-transport sibling: resolves `proto` to its actor
/// constructor and mounts `n` replicas on `runtime`. Returns `None` for
/// a protocol that is unknown *or not yet wire-capable* — a protocol
/// becomes wire-capable by implementing [`WireMsg`] for its message
/// type and adding one arm here. PBFT and IBFT qualify today; that is
/// exactly the pair the §2.3.3 sim-vs-TCP cross-check exercises.
pub fn run_real<P, R>(proto: &str, n: usize, runtime: R) -> Option<R::Output>
where
    P: PersistPayload + 'static,
    R: RealRuntime<P>,
{
    match proto {
        "pbft" => {
            let cfg = PbftConfig::new(n);
            Some(runtime.mount(n, move |_| PbftReplica::new(cfg.clone())))
        }
        "ibft" => {
            let cfg = PbftConfig::ibft(n);
            Some(runtime.mount(n, move |_| PbftReplica::new(cfg.clone())))
        }
        _ => None,
    }
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
        for info in PROTOCOLS {
            let n = if info.name == "minbft" { 3 } else { 4 };
            let c = drive(info.name, n, 3);
            assert_eq!(c.protocol(), protocol_info(info.name).unwrap().name.max(c.protocol()));
            let reference: Vec<u64> = c.decided(0).iter().map(|(_, p, _)| *p).collect();
            assert_eq!(reference.len(), 3, "{}", info.name);
            for i in 1..n {
                let log: Vec<u64> = c.decided(i).iter().map(|(_, p, _)| *p).collect();
                assert_eq!(log, reference, "{} node {i} diverged", info.name);
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
        assert!(protocol_info("zab").is_none());
    }

    #[test]
    fn registry_metadata_matches_rotation_story() {
        // The three per-height rotating protocols, per §2.3.3.
        for (name, rotating) in
            [("pbft", false), ("ibft", true), ("hotstuff", true), ("tendermint", true)]
        {
            assert_eq!(protocol_info(name).unwrap().rotating, rotating, "{name}");
        }
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
        for proto in ["pbft", "raft", "hotstuff", "tendermint", "paxos", "minbft", "ibft"] {
            let n = if proto == "minbft" { 3 } else { 4 };
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
