//! The event loop: queue, delivery, fault injection.

use crate::actor::{Actor, Context, Durable, Effect, Message};
use crate::fault::FaultModel;
use crate::latency::LatencyModel;
use crate::sched::EventQueue;
use crate::stats::NetStats;
use crate::{NodeIdx, SimTime};
use fxhash::FxHashMap;
use pbc_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Link latency model.
    pub latency: LatencyModel,
    /// RNG seed; the same seed reproduces the same run exactly.
    pub seed: u64,
    /// Probability that any message is silently lost.
    pub drop_rate: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig { latency: LatencyModel::lan(), seed: 0, drop_rate: 0.0 }
    }
}

/// An in-flight message body. Unicasts carry the value directly;
/// broadcasts allocate once and every recipient's event shares the same
/// allocation — the zero-copy fan-out path.
enum Payload<M> {
    Owned(M),
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    #[inline]
    fn get(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(a) => a,
        }
    }
}

impl<M: Clone> Clone for Payload<M> {
    fn clone(&self) -> Self {
        match self {
            // A duplicated unicast re-clones the value (rare: link
            // duplication faults only).
            Payload::Owned(m) => Payload::Owned(m.clone()),
            Payload::Shared(a) => Payload::Shared(Arc::clone(a)),
        }
    }
}

enum EventKind<M> {
    Deliver { from: NodeIdx, to: NodeIdx, msg: Payload<M>, sent_at: SimTime },
    // `incarnation` invalidates timers armed before a node lost its
    // memory: a rebuilt actor must not observe the ghost of a timer its
    // previous life set.
    Timer { node: NodeIdx, id: u64, incarnation: u32 },
}

/// The simulated network driving a set of actors.
pub struct Network<A: Actor> {
    actors: Vec<A>,
    queue: EventQueue<EventKind<A::Msg>>,
    time: SimTime,
    seq: u64,
    rng: StdRng,
    config: NetworkConfig,
    crashed: Vec<bool>,
    /// Bumped by `crash_and_lose_memory`; timers from older incarnations
    /// are discarded at fire time.
    incarnation: Vec<u32>,
    /// `partition[i]` = group of node i; messages across groups drop.
    partition: Option<Vec<usize>>,
    faults: FaultModel,
    stats: NetStats,
    /// Running digest over the delivery trace `(at, seq, from, to)`.
    trace: u64,
    /// Cancellation watermarks: `(node, timer id) → seq` such that any
    /// armed timer with an event seq ≤ the watermark is dead. Arming
    /// stays O(1) (this map is only written on cancel); cancelled timers
    /// are skipped when they surface.
    cancelled: FxHashMap<(NodeIdx, u64), u64>,
    /// Reused effect buffer: actors fill it via their `Context`, the
    /// network drains it — one allocation for the whole run instead of
    /// one per event.
    scratch: Vec<Effect<A::Msg>>,
}

/// The initial value of the delivery-trace digest fold.
const TRACE_INIT: u64 = 0x9e3779b97f4a7c15;

/// Folds one delivery record into a running trace digest. The exact
/// mixing function is part of the determinism contract: the golden-trace
/// tests commit digests produced by this fold, so it must never change
/// silently.
fn fold_trace(h: u64, at: SimTime, seq: u64, from: NodeIdx, to: NodeIdx) -> u64 {
    let mut z =
        at ^ seq.rotate_left(17) ^ (from as u64).rotate_left(34) ^ (to as u64).rotate_left(51);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    h.rotate_left(5) ^ (z ^ (z >> 31))
}

impl<A: Actor> Network<A> {
    /// Creates a network over `actors` with the given configuration.
    ///
    /// # Panics
    /// Panics if a matrix latency model is smaller than the node count.
    pub fn new(actors: Vec<A>, config: NetworkConfig) -> Self {
        if let Some(limit) = config.latency.node_limit() {
            assert!(
                limit >= actors.len(),
                "latency matrix covers {limit} nodes but {} actors were given",
                actors.len()
            );
        }
        let n = actors.len();
        let rng = StdRng::seed_from_u64(config.seed);
        // Compat path: the legacy scalar `drop_rate` becomes the uniform
        // default of the link-level fault model.
        let faults = FaultModel::uniform_drop(config.drop_rate);
        Network {
            actors,
            queue: EventQueue::new(),
            time: 0,
            seq: 0,
            rng,
            config,
            crashed: vec![false; n],
            incarnation: vec![0; n],
            partition: None,
            faults,
            stats: NetStats::default(),
            trace: TRACE_INIT,
            cancelled: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// Replaces the link-level fault model wholesale.
    pub fn set_fault_model(&mut self, faults: FaultModel) {
        self.faults = faults;
    }

    /// The link-level fault model currently in effect.
    pub fn fault_model(&self) -> &FaultModel {
        &self.faults
    }

    /// Mutable access to the fault model (degrade or heal links mid-run).
    pub fn fault_model_mut(&mut self) -> &mut FaultModel {
        &mut self.faults
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Network accounting so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Digest of the full delivery trace so far: every delivered message
    /// folds its `(at, seq, from, to)` tuple into this value in delivery
    /// order. Two runs with the same seed and inputs produce the same
    /// digest bit-for-bit — the determinism guarantee the golden-trace
    /// tests pin across scheduler rewrites.
    pub fn trace_digest(&self) -> u64 {
        self.trace
    }

    /// Immutable view of an actor.
    pub fn actor(&self, i: NodeIdx) -> &A {
        &self.actors[i]
    }

    /// Mutable view of an actor (for test instrumentation).
    pub fn actor_mut(&mut self, i: NodeIdx) -> &mut A {
        &mut self.actors[i]
    }

    /// Iterates over all actors.
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        self.actors.iter()
    }

    /// Marks a node crashed: it stops receiving messages and timers.
    pub fn crash(&mut self, node: NodeIdx) {
        self.crashed[node] = true;
        pbc_trace::emit(self.time, || TraceEvent::Crash { node });
    }

    /// Recovers a crashed node (it resumes receiving; protocol-level
    /// state recovery is the actor's business).
    pub fn recover(&mut self, node: NodeIdx) {
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Recover { node });
    }

    /// True if `node` is crashed.
    pub fn is_crashed(&self, node: NodeIdx) -> bool {
        self.crashed[node]
    }

    /// Crashes `node` **losing all volatile state**: the actor is
    /// checkpointed to its simulated stable store ([`Durable`]) and
    /// immediately replaced by an amnesiac rebuilt from that checkpoint
    /// alone. Timers armed by the previous incarnation will never fire.
    /// Call [`Network::restart`] to bring the node back.
    pub fn crash_and_lose_memory(&mut self, node: NodeIdx)
    where
        A: Durable,
    {
        let stable = self.actors[node].checkpoint();
        let amnesiac = A::restore(&self.actors[node], stable);
        self.actors[node] = amnesiac;
        self.crashed[node] = true;
        self.incarnation[node] += 1;
        pbc_trace::emit(self.time, || TraceEvent::CrashAmnesia { node });
    }

    /// Crashes `node` losing **everything volatile, checkpoint
    /// included**: unlike [`Network::crash_and_lose_memory`], no
    /// in-memory checkpoint is taken — the node's only hope of
    /// remembering anything is whatever a real stable store hands back
    /// to [`Network::restart_with`]. This is the crash half of the
    /// disk-backed recovery path (`pbc-store`); on its own it restarts
    /// as a blank fresh boot.
    pub fn crash_total(&mut self, node: NodeIdx)
    where
        A: Durable,
    {
        let blank = A::blank_stable(&self.actors[node]);
        let amnesiac = A::restore(&self.actors[node], blank);
        self.actors[node] = amnesiac;
        self.crashed[node] = true;
        self.incarnation[node] += 1;
        pbc_trace::emit(self.time, || TraceEvent::CrashAmnesia { node });
    }

    /// Restarts a crashed node from an externally recovered checkpoint
    /// (bytes decoded off a real stable store), then re-runs its
    /// `on_start`. The disk-backed counterpart of [`Network::restart`]:
    /// `restart` resumes whatever actor is in place, `restart_with`
    /// first rebuilds it from `stable`.
    pub fn restart_with(&mut self, node: NodeIdx, stable: A::Stable)
    where
        A: Durable,
    {
        self.actors[node] = A::restore(&self.actors[node], stable);
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Restart { node });
        let mut ctx = self.context_for(node);
        self.actors[node].on_start(&mut ctx);
        self.apply_effects(node, &mut ctx);
    }

    /// Recovers a crashed node and re-runs its `on_start` so the (possibly
    /// rebuilt) actor can re-arm timers and re-announce itself. This is
    /// the recovery path matching [`Network::crash_and_lose_memory`];
    /// plain [`Network::recover`] resumes with RAM intact and no restart.
    pub fn restart(&mut self, node: NodeIdx) {
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Restart { node });
        let mut ctx = self.context_for(node);
        self.actors[node].on_start(&mut ctx);
        self.apply_effects(node, &mut ctx);
    }

    /// Splits the network: messages between different groups are dropped.
    ///
    /// # Panics
    /// Panics if the groups don't cover every node exactly once.
    pub fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        let mut assignment = vec![usize::MAX; self.actors.len()];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                assert!(assignment[m] == usize::MAX, "node {m} in two partition groups");
                assignment[m] = g;
            }
        }
        assert!(
            assignment.iter().all(|&g| g != usize::MAX),
            "partition groups must cover all nodes"
        );
        self.partition = Some(assignment);
        pbc_trace::emit(self.time, || TraceEvent::PartitionSet { groups: groups.len() });
    }

    /// Heals any partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
        pbc_trace::emit(self.time, || TraceEvent::PartitionHeal);
    }

    /// Calls every actor's `on_start`.
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            if self.crashed[i] {
                continue;
            }
            let mut ctx = self.context_for(i);
            self.actors[i].on_start(&mut ctx);
            self.apply_effects(i, &mut ctx);
        }
    }

    /// Injects an external message (e.g. a client request) scheduled `delay`
    /// ticks from now, appearing to come from `from`.
    ///
    /// Injection is an *out-of-band* channel: it models a client with a
    /// reliable connection to the node, so it deliberately bypasses link
    /// faults, partitions, and latency sampling. Injected messages are
    /// counted in [`NetStats::msgs_injected`], not `msgs_sent`, so the
    /// drop/delivery ratios describe protocol traffic only. (Delivery to
    /// a *crashed* node still fails, like any delivery.)
    pub fn inject(&mut self, from: NodeIdx, to: NodeIdx, msg: A::Msg, delay: SimTime) {
        self.seq += 1;
        self.queue.push(
            self.time + delay.max(1),
            self.seq,
            EventKind::Deliver { from, to, msg: Payload::Owned(msg), sent_at: self.time },
        );
        self.stats.msgs_injected += 1;
        self.stats.msgs_in_flight += 1;
        pbc_trace::emit(self.time, || TraceEvent::Inject { from, to });
    }

    /// Injects one external message to **every** node at once, sharing a
    /// single allocation across the whole fan-in (the same zero-copy
    /// mechanism broadcasts use). Semantically identical to calling
    /// [`Network::inject`] once per node with the same arguments — the
    /// scheduled `(at, seq, from, to)` tuples, accounting, and trace
    /// events are the same, so seeded runs and golden-trace digests are
    /// unaffected — but the payload is allocated once instead of cloned
    /// per node.
    pub fn inject_all(&mut self, from: NodeIdx, msg: A::Msg, delay: SimTime) {
        let at = self.time + delay.max(1);
        let shared = Arc::new(msg);
        for to in 0..self.actors.len() {
            self.seq += 1;
            self.queue.push(
                at,
                self.seq,
                EventKind::Deliver {
                    from,
                    to,
                    msg: Payload::Shared(Arc::clone(&shared)),
                    sent_at: self.time,
                },
            );
            self.stats.msgs_injected += 1;
            self.stats.msgs_in_flight += 1;
            pbc_trace::emit(self.time, || TraceEvent::Inject { from, to });
        }
    }

    /// Like [`Network::inject_all`], but scheduled at the **absolute**
    /// tick `at` (clamped to `now + 1` if already past) instead of a
    /// relative delay — the form client arrival processes use, where
    /// the arrival timeline is fixed up front and must not depend on
    /// how far the engine happened to run. Accounting and trace events
    /// match `inject_all` exactly.
    pub fn inject_all_at(&mut self, from: NodeIdx, msg: A::Msg, at: SimTime) {
        let at = at.max(self.time + 1);
        let shared = Arc::new(msg);
        for to in 0..self.actors.len() {
            self.seq += 1;
            self.queue.push(
                at,
                self.seq,
                EventKind::Deliver {
                    from,
                    to,
                    msg: Payload::Shared(Arc::clone(&shared)),
                    sent_at: self.time,
                },
            );
            self.stats.msgs_injected += 1;
            self.stats.msgs_in_flight += 1;
            pbc_trace::emit(self.time, || TraceEvent::Inject { from, to });
        }
    }

    /// Routes one message over the `origin → to` link: fault draws,
    /// latency sampling, scheduling. Identical decision order for
    /// unicasts and each recipient of a broadcast, so seeded runs replay
    /// bit-for-bit regardless of how the payload is carried. Every
    /// probability draw is guarded by `> 0.0` so an all-healthy model
    /// consumes no randomness.
    fn route(&mut self, origin: NodeIdx, to: NodeIdx, msg: Payload<A::Msg>, wire: usize) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += wire as u64;
        // Fault decisions are made at send time, per directed link.
        let fault = *self.faults.link(origin, to);
        let crossed_partition = match &self.partition {
            Some(p) => p[origin] != p[to],
            None => false,
        };
        let dropped = crossed_partition || (fault.drop > 0.0 && self.rng.gen_bool(fault.drop));
        if dropped {
            self.stats.msgs_dropped += 1;
            pbc_trace::emit(self.time, || TraceEvent::DropLink {
                from: origin,
                to,
                partition: crossed_partition,
            });
            return;
        }
        let mut latency = self.config.latency.sample(origin, to, &mut self.rng);
        if fault.delay_spike > 0.0 && self.rng.gen_bool(fault.delay_spike) {
            latency += fault.spike;
            self.stats.delay_spikes += 1;
            pbc_trace::emit(self.time, || TraceEvent::DelaySpike {
                from: origin,
                to,
                spike: fault.spike,
            });
        }
        if fault.reorder > 0.0 && self.rng.gen_bool(fault.reorder) {
            // Up to double the sampled latency: later sends on the same
            // link can now overtake this message.
            latency += self.rng.gen_range(0..=latency);
            self.stats.msgs_reordered += 1;
            pbc_trace::emit(self.time, || TraceEvent::Reorder { from: origin, to });
        }
        if fault.duplicate > 0.0 && self.rng.gen_bool(fault.duplicate) {
            let dup_latency = self.config.latency.sample(origin, to, &mut self.rng).max(1);
            // Duplicates the *handle*: for broadcast payloads this is an
            // `Arc` refcount bump, not a message allocation.
            let dup = Payload::clone(&msg);
            self.seq += 1;
            self.queue.push(
                self.time + dup_latency,
                self.seq,
                EventKind::Deliver { from: origin, to, msg: dup, sent_at: self.time },
            );
            self.stats.msgs_duplicated += 1;
            self.stats.msgs_in_flight += 1;
            pbc_trace::emit(self.time, || TraceEvent::Duplicate { from: origin, to });
        }
        self.seq += 1;
        self.queue.push(
            self.time + latency,
            self.seq,
            EventKind::Deliver { from: origin, to, msg, sent_at: self.time },
        );
        self.stats.msgs_in_flight += 1;
    }

    fn apply_effects(&mut self, origin: NodeIdx, ctx: &mut Context<A::Msg>) {
        let mut effects = std::mem::take(&mut ctx.outbox);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let wire = msg.wire_size();
                    self.route(origin, to, Payload::Owned(msg), wire);
                }
                Effect::Broadcast { msg } => {
                    // One allocation for the whole fan-out. Recipient
                    // order (every other node by index, then self) and
                    // per-recipient accounting and fault draws are
                    // identical to n unicasts of the same payload.
                    let wire = msg.wire_size();
                    let shared = Arc::new(msg);
                    for to in 0..self.actors.len() {
                        if to != origin {
                            self.route(origin, to, Payload::Shared(Arc::clone(&shared)), wire);
                        }
                    }
                    self.route(origin, origin, Payload::Shared(shared), wire);
                }
                Effect::Timer { delay, id } => {
                    self.stats.timers_set += 1;
                    self.stats.timers_pending += 1;
                    self.seq += 1;
                    self.queue.push(
                        self.time + delay.max(1),
                        self.seq,
                        EventKind::Timer {
                            node: origin,
                            id,
                            incarnation: self.incarnation[origin],
                        },
                    );
                    pbc_trace::emit(self.time, || TraceEvent::TimerSet {
                        node: origin,
                        id,
                        fire_at: self.time + delay.max(1),
                    });
                }
                Effect::CancelTimer { id } => {
                    // Watermark: every timer armed so far (seq ≤ current)
                    // with this id is dead. O(1) for both cancel and arm.
                    self.cancelled.insert((origin, id), self.seq);
                    pbc_trace::emit(self.time, || TraceEvent::TimerCancel { node: origin, id });
                }
            }
        }
        // Hand the (now empty) buffer back for the next callback.
        self.scratch = effects;
    }

    /// A context whose outbox reuses the network's scratch buffer.
    fn context_for(&mut self, node: NodeIdx) -> Context<A::Msg> {
        Context {
            now: self.time,
            self_id: node,
            n: self.actors.len(),
            outbox: std::mem::take(&mut self.scratch),
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.time, "time must be monotone");
        self.time = event.at;
        match event.item {
            EventKind::Deliver { from, to, msg, sent_at } => {
                self.stats.msgs_in_flight -= 1;
                if self.crashed[to] {
                    self.stats.msgs_dropped += 1;
                    pbc_trace::emit(self.time, || TraceEvent::DropCrashed { from, to });
                    return true;
                }
                self.stats.msgs_delivered += 1;
                self.stats.latency_sum += self.time - sent_at;
                self.stats.latency_histogram.record(self.time - sent_at);
                self.trace = fold_trace(self.trace, event.at, event.seq, from, to);
                pbc_trace::emit(self.time, || TraceEvent::Deliver {
                    from,
                    to,
                    seq: event.seq,
                    sent_at,
                });
                let mut ctx = self.context_for(to);
                self.actors[to].on_message(from, msg.get(), &mut ctx);
                self.apply_effects(to, &mut ctx);
            }
            EventKind::Timer { node, id, incarnation } => {
                self.stats.timers_pending -= 1;
                if incarnation != self.incarnation[node] {
                    self.stats.timers_cancelled += 1;
                    pbc_trace::emit(self.time, || TraceEvent::TimerSkip { node, id });
                    return true;
                }
                if self.cancelled.get(&(node, id)).is_some_and(|&watermark| event.seq <= watermark)
                {
                    self.stats.timers_cancelled += 1;
                    pbc_trace::emit(self.time, || TraceEvent::TimerSkip { node, id });
                    return true;
                }
                if self.crashed[node] {
                    // A crashed node's timer is neither fired nor
                    // cancelled — account it so set == fired +
                    // cancelled + dropped + pending stays an identity.
                    self.stats.timers_dropped += 1;
                    return true;
                }
                self.stats.timers_fired += 1;
                pbc_trace::emit(self.time, || TraceEvent::TimerFire { node, id });
                let mut ctx = self.context_for(node);
                self.actors[node].on_timer(id, &mut ctx);
                self.apply_effects(node, &mut ctx);
            }
        }
        true
    }

    /// Runs until the queue drains or logical time exceeds `deadline`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(at) = self.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        n
    }

    /// Runs until the queue is empty or `max_events` have been processed.
    /// Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until `pred(actor)` holds for all **alive** (non-crashed)
    /// actors, the queue drains, or `max_events` elapse. Returns `true`
    /// if the predicate was reached. Crashed actors are excluded: they
    /// cannot make progress by definition.
    pub fn run_until_all(&mut self, max_events: u64, mut pred: impl FnMut(&A) -> bool) -> bool {
        let mut n = 0;
        loop {
            let done = self
                .actors
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.crashed[*i])
                .all(|(_, a)| pred(a));
            if done {
                return true;
            }
            if n >= max_events || !self.step() {
                return self
                    .actors
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !self.crashed[*i])
                    .all(|(_, a)| pred(a));
            }
            n += 1;
        }
    }

    /// Number of queued, undelivered events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Message;

    /// Gossip actor: floods a token once, remembers the max token seen.
    #[derive(Default)]
    struct Gossip {
        best: u32,
        spread: bool,
    }

    #[derive(Clone, Debug)]
    struct Token(u32);
    impl Message for Token {}

    impl Actor for Gossip {
        type Msg = Token;
        fn on_message(&mut self, _from: NodeIdx, msg: &Token, ctx: &mut Context<Token>) {
            if msg.0 > self.best {
                self.best = msg.0;
                self.spread = true;
                ctx.broadcast(Token(msg.0));
            }
        }
    }

    fn gossip_net(n: usize, seed: u64) -> Network<Gossip> {
        let actors = (0..n).map(|_| Gossip::default()).collect();
        Network::new(actors, NetworkConfig { seed, ..Default::default() })
    }

    #[test]
    fn flood_reaches_everyone() {
        let mut net = gossip_net(5, 1);
        net.inject(0, 0, Token(9), 1);
        net.run_to_quiescence(10_000);
        for i in 0..5 {
            assert_eq!(net.actor(i).best, 9, "node {i}");
        }
        assert!(net.stats().msgs_delivered > 0);
    }

    #[test]
    fn determinism_same_seed_same_time() {
        let run = |seed| {
            let mut net = gossip_net(7, seed);
            net.inject(0, 3, Token(5), 1);
            net.run_to_quiescence(100_000);
            (net.now(), net.stats().msgs_delivered)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut net = gossip_net(4, 2);
        net.crash(2);
        net.inject(0, 0, Token(9), 1);
        net.run_to_quiescence(10_000);
        assert_eq!(net.actor(2).best, 0);
        assert_eq!(net.actor(1).best, 9);
        assert!(net.stats().msgs_dropped > 0);
    }

    #[test]
    fn partition_blocks_cross_group_flow() {
        let mut net = gossip_net(4, 3);
        net.partition(&[vec![0, 1], vec![2, 3]]);
        net.inject(0, 0, Token(9), 1);
        net.run_to_quiescence(10_000);
        assert_eq!(net.actor(0).best, 9);
        assert_eq!(net.actor(1).best, 9);
        assert_eq!(net.actor(2).best, 0);
        assert_eq!(net.actor(3).best, 0);
    }

    #[test]
    fn heal_partition_restores_flow() {
        let mut net = gossip_net(4, 4);
        net.partition(&[vec![0, 1], vec![2, 3]]);
        net.inject(0, 0, Token(9), 1);
        net.run_to_quiescence(10_000);
        assert_eq!(net.actor(3).best, 0);
        net.heal_partition();
        net.inject(0, 0, Token(10), 1);
        net.run_to_quiescence(10_000);
        assert_eq!(net.actor(3).best, 10);
    }

    #[test]
    fn full_drop_rate_loses_all_protocol_traffic() {
        let actors = (0..3).map(|_| Gossip::default()).collect();
        let mut net = Network::new(actors, NetworkConfig { drop_rate: 1.0, ..Default::default() });
        net.inject(0, 0, Token(9), 1); // injection bypasses drops
        net.run_to_quiescence(10_000);
        assert_eq!(net.actor(0).best, 9);
        assert_eq!(net.actor(1).best, 0);
        assert_eq!(net.actor(2).best, 0);
    }

    #[test]
    fn time_is_monotone_and_latency_counted() {
        let mut net = gossip_net(3, 5);
        net.inject(0, 0, Token(1), 1);
        let mut last = 0;
        while net.step() {
            assert!(net.now() >= last);
            last = net.now();
        }
        assert!(net.stats().mean_latency() > 0.0);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net = gossip_net(3, 6);
        net.inject(0, 0, Token(1), 1);
        net.run_until(1); // nothing delivered after t=1 except the injection
        assert!(net.now() <= 1);
    }

    #[test]
    fn run_until_all_predicate() {
        let mut net = gossip_net(5, 7);
        net.inject(0, 0, Token(3), 1);
        let ok = net.run_until_all(100_000, |a| a.best == 3);
        assert!(ok);
    }

    /// The accounting identity `delivered + dropped + in_flight ==
    /// sent + duplicated + injected` must hold at *every* point of a
    /// run, across every path that schedules or retires a delivery:
    /// plain routing, client injection, link faults (drop, duplicate,
    /// spike, reorder), crashes, and partitions.
    #[test]
    fn stats_conserve_messages_under_faults() {
        let actors = (0..6).map(|_| Gossip::default()).collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 0xACC7, ..Default::default() });
        net.set_fault_model(crate::fault::FaultModel::uniform(crate::fault::LinkFault {
            drop: 0.10,
            duplicate: 0.15,
            delay_spike: 0.20,
            spike: 500,
            reorder: 0.10,
        }));
        net.crash(5); // send-to-crashed exercises the late-drop path
        net.partition(&[vec![0, 1, 2, 3, 5], vec![4]]);
        for i in 0..20u32 {
            net.inject(0, (i % 4) as usize, Token(i), 1 + i as u64);
        }
        // Mid-run: step one event at a time and re-check the identity
        // while messages are genuinely in flight.
        let mut saw_in_flight = false;
        for _ in 0..200 {
            if !net.step() {
                break;
            }
            let s = net.stats();
            saw_in_flight |= s.msgs_in_flight > 0;
            assert!(
                s.conserves_messages(),
                "mid-run: delivered {} + dropped {} + in-flight {} != \
                 sent {} + duplicated {} + injected {}",
                s.msgs_delivered,
                s.msgs_dropped,
                s.msgs_in_flight,
                s.msgs_sent,
                s.msgs_duplicated,
                s.msgs_injected
            );
        }
        assert!(saw_in_flight, "the scenario must keep messages in flight mid-run");
        net.heal_partition();
        net.run_to_quiescence(1_000_000);
        let s = net.stats();
        assert!(s.msgs_dropped > 0, "drop paths must exercise");
        assert!(s.msgs_duplicated > 0, "duplicate path must exercise");
        assert!(s.msgs_injected > 0, "inject path must exercise");
        assert!(s.conserves_messages(), "quiescent: {s:?}");
        assert_eq!(s.msgs_in_flight, 0, "quiescence means nothing left in flight");
    }

    /// Timer lifecycle accounting: a timer retired on a crashed node is
    /// *dropped* (not silently vanished), and the conservation identity
    /// `set == fired + cancelled + dropped + pending` holds at every
    /// stage — mid-run with timers pending, and at drain.
    #[test]
    fn timer_conservation_covers_the_crashed_drop_path() {
        /// Arms a timer on every message, then immediately replaces it:
        /// the first arm is guaranteed to surface cancelled, the second
        /// fires (or drops, on a crashed node).
        #[derive(Default)]
        struct Ticker {
            fired: u32,
        }
        impl Actor for Ticker {
            type Msg = Token;
            fn on_message(&mut self, _from: NodeIdx, msg: &Token, ctx: &mut Context<Token>) {
                ctx.set_timer(150, msg.0 as u64);
                ctx.set_timer_replacing(160, msg.0 as u64); // cancels the 150 arm
            }
            fn on_timer(&mut self, _id: u64, _ctx: &mut Context<Token>) {
                self.fired += 1;
            }
        }
        let actors = (0..3).map(|_| Ticker::default()).collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 0x7157, ..Default::default() });
        for node in 0..3 {
            net.inject(0, node, Token(node as u32 + 1), 1);
        }
        net.run_until(120); // deliveries landed at t=1; no timer surfaced yet
        let s = net.stats();
        assert!(s.timers_pending > 0, "timers must be in flight mid-run");
        assert!(s.conserves_timers(), "mid-run: {s:?}");
        net.crash(2); // node 2's pending timers will surface on a corpse
        net.run_to_quiescence(100_000);
        let s = net.stats();
        assert_eq!(s.timers_pending, 0, "drained");
        assert_eq!(s.timers_fired, 2, "nodes 0 and 1 fire their replacement timers");
        assert_eq!(
            s.timers_cancelled, 3,
            "every node's first arm is cancelled (cancellation outranks the crash)"
        );
        assert_eq!(s.timers_dropped, 1, "node 2's replacement timer dropped on the crashed branch");
        assert!(s.conserves_timers(), "at drain: {s:?}");
    }

    /// `inject_all` must be indistinguishable from the per-node inject
    /// loop it replaces: same delivery trace digest, same accounting —
    /// only the allocations differ.
    #[test]
    fn inject_all_matches_per_node_inject_loop() {
        let per_node = {
            let mut net = gossip_net(6, 0x1A11);
            for to in 0..6 {
                net.inject(2, to, Token(7), 3);
            }
            net.run_to_quiescence(100_000);
            (net.trace_digest(), net.stats().msgs_injected, net.stats().msgs_delivered, net.now())
        };
        let fanned = {
            let mut net = gossip_net(6, 0x1A11);
            net.inject_all(2, Token(7), 3);
            net.run_to_quiescence(100_000);
            (net.trace_digest(), net.stats().msgs_injected, net.stats().msgs_delivered, net.now())
        };
        assert_eq!(per_node, fanned);
        assert!(fanned.1 == 6, "one injection counted per recipient");
    }

    #[test]
    #[should_panic(expected = "latency matrix covers")]
    fn undersized_matrix_panics() {
        let actors: Vec<Gossip> = (0..3).map(|_| Gossip::default()).collect();
        let cfg = NetworkConfig {
            latency: LatencyModel::Matrix { base: vec![vec![1; 2]; 2], jitter: 0 },
            ..Default::default()
        };
        let _ = Network::new(actors, cfg);
    }

    #[test]
    #[should_panic(expected = "partition groups must cover")]
    fn incomplete_partition_panics() {
        let mut net = gossip_net(3, 8);
        net.partition(&[vec![0, 1]]);
    }
}
