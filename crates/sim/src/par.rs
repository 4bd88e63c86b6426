//! The multi-lane simulator core: conservative-lookahead parallel
//! discrete-event execution that is **bit-for-bit identical** to the
//! sequential [`Network`] at any lane count.
//!
//! # Why this is possible
//!
//! The sequential engine's determinism contract is a total order: events
//! execute in `(at, seq)` order, the global RNG is consumed at routing
//! time in that order, and the trace digest folds deliveries in that
//! order. A naive parallel engine with per-lane RNGs and sequence
//! counters would produce a *different* (if internally consistent)
//! schedule — the golden-trace digests would change with the lane count.
//!
//! The trick is that handler execution (the expensive part: protocol
//! state machines hashing, verifying, appending) does not touch the
//! RNG, the sequence counter, or the digest. Only *routing* does. So the
//! engine splits every window of simulated time into two phases:
//!
//! * **Phase P (parallel)** — each lane executes its own events for the
//!   window `[T, t_end)`, recording an ordered log of what ran and which
//!   effects it emitted. No RNG, no sequence numbers, no stats.
//! * **Phase C (commit, serial)** — the per-lane logs are k-way merged
//!   back into the exact global `(at, seq)` order and replayed *cheaply*:
//!   stats accounting, trace folds, and effect routing (the only RNG
//!   consumer) happen here, through the **same** `route_one` kernel the
//!   sequential engine uses. Fault-draw order, sequence assignment and
//!   digest folds are therefore identical to the sequential engine, for
//!   any lane count — including 1.
//!
//! # The conservative horizon
//!
//! The window length is [`crate::LatencyModel::min_latency`]: no message sent
//! inside a window can be delivered inside the same window, because
//! every link's latency is at least the global minimum. Lanes therefore
//! never need each other's *sends* mid-window. The one event source that
//! can land in-window is a node-local **timer** with a short delay;
//! timers are lane-local (a node's timers live on the node's lane), so
//! each lane tracks in-window arms in a private *provisional overlay*
//! and executes them at the right local position. Their global sequence
//! numbers are assigned later, during commit, in merge order — which
//! provably reproduces the sequential assignment because
//!
//! * a provisional timer's arming event has a strictly smaller `at`
//!   (delays are clamped to ≥ 1), so the arm always commits before the
//!   fire is needed by the merge frontier, and
//! * all sequence numbers assigned during a window's commit are larger
//!   than every pre-window sequence number, so at equal `at` the
//!   pre-window ("concrete") events sort before the in-window
//!   ("provisional") ones — exactly the order Phase P executed them.
//!
//! Timer **cancellation** is also lane-local: a cancel effect originates
//! from the cancelling node's own handler, which runs on the same lane
//! as the timers it targets. Phase P resolves in-window cancels with a
//! per-lane effect-position counter (a cancel kills a provisional arm
//! iff it was emitted after it, mirroring the sequential watermark),
//! and consults the frozen global watermark map for pre-window cancels.
//!
//! External mutation (crash, recover, partition, fault-model changes,
//! injections) is only permitted *between* run calls, exactly like the
//! sequential engine's public API — so `crashed`, `incarnation`,
//! partitions and fault models are frozen for the duration of a window
//! and can be shared by reference across lane threads.
//!
//! # What is and is not identical
//!
//! Identical at any lane count, and identical to [`Network`]:
//! [`ParNetwork::trace_digest`], all [`NetStats`] counters, [`ParNetwork::now`]
//! after [`ParNetwork::run_until`] or a full drain, and every actor's
//! final state. Different: [`ParNetwork::step`] advances one *window*
//! (not one event), budget limits (`max_events`) are checked at window
//! granularity, and `pbc-trace` sink output — network-level events are
//! emitted in global order during commit, but handler-side protocol
//! emissions happen on worker threads (where per-thread sinks are
//! typically absent) and interleave differently; use the sequential
//! engine or `lanes = 1` when capturing traces for inspection.

use crate::actor::{Actor, Context, Durable, Effect, Message};
use crate::fault::FaultModel;
use crate::network::{
    fold_trace, route_one, EventKind, Network, NetworkConfig, Payload, RouteCtx, TRACE_INIT,
};
use crate::sched::EventQueue;
use crate::stats::NetStats;
use crate::{NodeIdx, SimTime};
use fxhash::FxHashMap;
use pbc_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An in-window timer armed during Phase P, awaiting execution in the
/// same window. Ordered by `(at, arm_pos)`; `arm_pos` is the per-lane
/// effect position of the arming `Effect::Timer`, which Phase C proves
/// equal to eventual global-sequence order within the lane.
struct OverlayEntry {
    at: SimTime,
    arm_pos: u64,
    node: NodeIdx,
    id: u64,
    ovl: u32,
}

impl PartialEq for OverlayEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.arm_pos) == (other.at, other.arm_pos)
    }
}
impl Eq for OverlayEntry {}
impl PartialOrd for OverlayEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OverlayEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.arm_pos).cmp(&(other.at, other.arm_pos))
    }
}

/// The global sort key of an executed event: either a sequence number
/// assigned before the window started, or a provisional overlay id whose
/// sequence number Phase C resolves when the arming effect commits.
#[derive(Clone, Copy)]
enum ExecSeq {
    Concrete(u64),
    Provisional(u32),
}

/// What happened to a timer when it surfaced. Decided in Phase P (the
/// inputs — incarnation, watermarks, crash flags, lane-local cancels —
/// are all frozen or lane-local), accounted in Phase C.
#[derive(Clone, Copy)]
enum TimerDisp {
    Fired,
    Cancelled,
    Dropped,
}

enum ExecKind {
    Deliver { from: NodeIdx, to: NodeIdx, sent_at: SimTime, crashed: bool },
    Timer { node: NodeIdx, id: u64, disp: TimerDisp },
}

/// One executed event: Phase P's record of what ran and what it emitted,
/// replayed by Phase C in global order.
struct Exec<M> {
    at: SimTime,
    seq: ExecSeq,
    kind: ExecKind,
    effects: Vec<Effect<M>>,
}

/// One event lane: a contiguous slice of nodes, their event queue, and
/// the per-window scratch state (provisional overlay, in-window cancels,
/// execution log).
struct Lane<M> {
    queue: EventQueue<EventKind<M>>,
    overlay: BinaryHeap<Reverse<OverlayEntry>>,
    cancels: FxHashMap<(NodeIdx, u64), u64>,
    ovl: u32,
    log: Vec<Exec<M>>,
}

impl<M> Lane<M> {
    fn new() -> Self {
        Lane {
            queue: EventQueue::new(),
            overlay: BinaryHeap::new(),
            cancels: FxHashMap::default(),
            ovl: 0,
            log: Vec::new(),
        }
    }
}

/// The state a lane may read (never write) while executing a window:
/// everything here is only mutated between run calls or during the
/// serial commit phase.
#[derive(Clone, Copy)]
struct Frozen<'a> {
    n_total: usize,
    t_end: SimTime,
    crashed: &'a [bool],
    incarnation: &'a [u32],
    watermarks: &'a FxHashMap<(NodeIdx, u64), u64>,
}

/// Phase P for one lane: execute every event with `at < t_end` from the
/// lane queue and the provisional overlay, in the exact order commit
/// will assign — `(at, seq)` with pre-window events before in-window
/// ones at equal ticks — recording dispositions and effects into
/// `lane.log`.
fn lane_window<A: Actor>(lane: &mut Lane<A::Msg>, actors: &mut [A], base: usize, fz: Frozen<'_>) {
    lane.cancels.clear();
    lane.ovl = 0;
    let mut pos: u64 = 0;
    loop {
        let q_at = lane.queue.next_at().filter(|&at| at < fz.t_end);
        let o_at = lane.overlay.peek().map(|Reverse(e)| e.at);
        let take_overlay = match (q_at, o_at) {
            (None, None) => break,
            (Some(q), Some(o)) => o < q, // tie → concrete first (smaller seq)
            (Some(_), None) => false,
            (None, Some(_)) => true,
        };
        if take_overlay {
            let Reverse(e) = lane.overlay.pop().expect("peeked");
            // A cancel kills a provisional arm iff emitted after it —
            // the in-window analogue of the sequential seq watermark.
            let disp = if lane.cancels.get(&(e.node, e.id)).is_some_and(|&c| c > e.arm_pos) {
                TimerDisp::Cancelled
            } else if fz.crashed[e.node] {
                // Unreachable in practice (a crashed node's handler
                // never ran to arm this), kept for parity.
                TimerDisp::Dropped
            } else {
                TimerDisp::Fired
            };
            let effects = if matches!(disp, TimerDisp::Fired) {
                let mut ctx =
                    Context { now: e.at, self_id: e.node, n: fz.n_total, outbox: Vec::new() };
                actors[e.node - base].on_timer(e.id, &mut ctx);
                let effects = ctx.take_effects();
                scan_effects(lane, &mut pos, e.at, e.node, fz.t_end, &effects);
                effects
            } else {
                Vec::new()
            };
            lane.log.push(Exec {
                at: e.at,
                seq: ExecSeq::Provisional(e.ovl),
                kind: ExecKind::Timer { node: e.node, id: e.id, disp },
                effects,
            });
        } else {
            let ev = lane.queue.pop().expect("peeked");
            match ev.item {
                EventKind::Deliver { from, to, msg, sent_at } => {
                    debug_assert!(
                        (base..base + actors.len()).contains(&to),
                        "delivery routed to the wrong lane"
                    );
                    if fz.crashed[to] {
                        lane.log.push(Exec {
                            at: ev.at,
                            seq: ExecSeq::Concrete(ev.seq),
                            kind: ExecKind::Deliver { from, to, sent_at, crashed: true },
                            effects: Vec::new(),
                        });
                    } else {
                        let mut ctx =
                            Context { now: ev.at, self_id: to, n: fz.n_total, outbox: Vec::new() };
                        actors[to - base].on_message(from, msg.get(), &mut ctx);
                        let effects = ctx.take_effects();
                        scan_effects(lane, &mut pos, ev.at, to, fz.t_end, &effects);
                        lane.log.push(Exec {
                            at: ev.at,
                            seq: ExecSeq::Concrete(ev.seq),
                            kind: ExecKind::Deliver { from, to, sent_at, crashed: false },
                            effects,
                        });
                    }
                }
                EventKind::Timer { node, id, incarnation } => {
                    // Same disposition order as the sequential engine:
                    // incarnation, then cancellation, then crash.
                    let disp = if incarnation != fz.incarnation[node] {
                        TimerDisp::Cancelled
                    } else if fz.watermarks.get(&(node, id)).is_some_and(|&w| ev.seq <= w)
                        || lane.cancels.contains_key(&(node, id))
                    {
                        // Any in-window cancel kills a pre-window arm:
                        // the cancel's eventual watermark seq is larger
                        // than every pre-window seq.
                        TimerDisp::Cancelled
                    } else if fz.crashed[node] {
                        TimerDisp::Dropped
                    } else {
                        TimerDisp::Fired
                    };
                    let effects = if matches!(disp, TimerDisp::Fired) {
                        let mut ctx = Context {
                            now: ev.at,
                            self_id: node,
                            n: fz.n_total,
                            outbox: Vec::new(),
                        };
                        actors[node - base].on_timer(id, &mut ctx);
                        let effects = ctx.take_effects();
                        scan_effects(lane, &mut pos, ev.at, node, fz.t_end, &effects);
                        effects
                    } else {
                        Vec::new()
                    };
                    lane.log.push(Exec {
                        at: ev.at,
                        seq: ExecSeq::Concrete(ev.seq),
                        kind: ExecKind::Timer { node, id, disp },
                        effects,
                    });
                }
            }
        }
    }
}

/// Scans a handler's effects during Phase P, maintaining the per-lane
/// effect position counter, the provisional overlay (in-window timer
/// arms), and the in-window cancel map. Sends are untouched — they
/// cannot land inside the window and are routed at commit time.
fn scan_effects<M>(
    lane: &mut Lane<M>,
    pos: &mut u64,
    now: SimTime,
    origin: NodeIdx,
    t_end: SimTime,
    effects: &[Effect<M>],
) {
    for effect in effects {
        *pos += 1;
        match effect {
            Effect::Timer { delay, id } => {
                let fire = now + (*delay).max(1);
                if fire < t_end {
                    lane.ovl += 1;
                    lane.overlay.push(Reverse(OverlayEntry {
                        at: fire,
                        arm_pos: *pos,
                        node: origin,
                        id: *id,
                        ovl: lane.ovl,
                    }));
                }
            }
            Effect::CancelTimer { id } => {
                // Later cancels supersede earlier ones for the same key.
                lane.cancels.insert((origin, *id), *pos);
            }
            Effect::Send { .. } | Effect::Broadcast { .. } => {}
        }
    }
}

/// A per-lane commit cursor: the lane's Phase P log plus the replayed
/// provisional-sequence assignment (`ovl_ctr` re-counts in-window arms
/// in the same order Phase P numbered them, because a lane's effects
/// commit in lane-log order).
struct LaneCursor<M> {
    iter: std::iter::Peekable<std::vec::IntoIter<Exec<M>>>,
    resolved: FxHashMap<u32, u64>,
    ovl_ctr: u32,
}

/// The multi-lane simulated network. A drop-in engine for workloads
/// built on [`Network`]: same construction inputs, same external API,
/// same digests and counters — but windows of events execute across
/// lanes in parallel (see the module docs for the algorithm and its
/// determinism argument).
///
/// Nodes are split into `config.lanes` contiguous slices; each lane owns
/// its nodes' event queue and executes their handlers. Lane count is a
/// **performance knob**: results are identical at any value.
pub struct ParNetwork<A: Actor> {
    actors: Vec<A>,
    lanes: Vec<Lane<A::Msg>>,
    /// `lane_of[node]` = index of the lane owning `node`.
    lane_of: Vec<usize>,
    /// Lane `l` owns nodes `lane_starts[l] .. lane_starts[l + 1]`.
    lane_starts: Vec<usize>,
    time: SimTime,
    seq: u64,
    rng: StdRng,
    config: NetworkConfig,
    /// The conservative horizon: [`crate::LatencyModel::min_latency`].
    window: SimTime,
    crashed: Vec<bool>,
    incarnation: Vec<u32>,
    partition: Option<Vec<usize>>,
    faults: FaultModel,
    stats: NetStats,
    trace: u64,
    /// Committed cancellation watermarks, exactly as in [`Network`].
    cancelled: FxHashMap<(NodeIdx, u64), u64>,
}

impl<A> ParNetwork<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    /// Creates a multi-lane network over `actors`. `config.lanes` is
    /// clamped to `1 ..= actors.len()`.
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
        let nl = config.lanes.clamp(1, n.max(1));
        let lane_starts: Vec<usize> = (0..=nl).map(|l| l * n / nl).collect();
        let mut lane_of = vec![0usize; n];
        for l in 0..nl {
            lane_of[lane_starts[l]..lane_starts[l + 1]].fill(l);
        }
        let rng = StdRng::seed_from_u64(config.seed);
        let faults = FaultModel::uniform_drop(config.drop_rate);
        let window = config.latency.min_latency();
        ParNetwork {
            lanes: (0..nl).map(|_| Lane::new()).collect(),
            lane_of,
            lane_starts,
            time: 0,
            seq: 0,
            rng,
            window,
            crashed: vec![false; n],
            incarnation: vec![0; n],
            partition: None,
            faults,
            stats: NetStats::default(),
            trace: TRACE_INIT,
            cancelled: FxHashMap::default(),
            config,
            actors,
        }
    }

    /// Number of event lanes (after clamping).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Replaces the link-level fault model wholesale. Fault models only
    /// add latency (spikes, reorders), so the conservative horizon from
    /// the latency model remains a valid lower bound.
    pub fn set_fault_model(&mut self, faults: FaultModel) {
        self.faults = faults;
    }

    /// The link-level fault model currently in effect.
    pub fn fault_model(&self) -> &FaultModel {
        &self.faults
    }

    /// Mutable access to the fault model (degrade or heal links between
    /// run calls).
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

    /// Network accounting so far. Identical to the sequential engine's
    /// after the same run calls.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Digest of the full delivery trace so far — bit-for-bit equal to
    /// [`Network::trace_digest`] for the same seed, inputs and run
    /// calls, at **any** lane count.
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

    /// Number of queued, undelivered events across all lanes.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Marks a node crashed: it stops receiving messages and timers.
    pub fn crash(&mut self, node: NodeIdx) {
        self.crashed[node] = true;
        pbc_trace::emit(self.time, || TraceEvent::Crash { node });
    }

    /// Recovers a crashed node (protocol-level state recovery is the
    /// actor's business).
    pub fn recover(&mut self, node: NodeIdx) {
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Recover { node });
    }

    /// True if `node` is crashed.
    pub fn is_crashed(&self, node: NodeIdx) -> bool {
        self.crashed[node]
    }

    /// Crashes `node` losing all volatile state; see
    /// [`Network::crash_and_lose_memory`].
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

    /// Crashes `node` losing everything volatile, checkpoint included;
    /// see [`Network::crash_total`].
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

    /// Restarts a crashed node from an externally recovered checkpoint;
    /// see [`Network::restart_with`].
    pub fn restart_with(&mut self, node: NodeIdx, stable: A::Stable)
    where
        A: Durable,
    {
        self.actors[node] = A::restore(&self.actors[node], stable);
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Restart { node });
        self.run_on_start(node);
    }

    /// Recovers a crashed node and re-runs its `on_start`; see
    /// [`Network::restart`].
    pub fn restart(&mut self, node: NodeIdx) {
        self.crashed[node] = false;
        pbc_trace::emit(self.time, || TraceEvent::Restart { node });
        self.run_on_start(node);
    }

    /// Splits the network: messages between different groups are
    /// dropped.
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

    /// Calls every alive actor's `on_start`.
    pub fn start(&mut self) {
        for i in 0..self.actors.len() {
            if self.crashed[i] {
                continue;
            }
            self.run_on_start(i);
        }
    }

    /// Runs `node`'s `on_start` and applies its effects through the
    /// commit path (with a degenerate window, so every arm is concrete).
    fn run_on_start(&mut self, node: NodeIdx) {
        let mut ctx =
            Context { now: self.time, self_id: node, n: self.actors.len(), outbox: Vec::new() };
        self.actors[node].on_start(&mut ctx);
        self.apply_external(node, ctx.take_effects());
    }

    /// Applies effects emitted outside any window (start/restart): the
    /// degenerate horizon `t_end = now + 1` forces every timer arm onto
    /// the concrete path and satisfies the routing assertion, making
    /// this byte-identical to the sequential `apply_effects`.
    fn apply_external(&mut self, origin: NodeIdx, effects: Vec<Effect<A::Msg>>) {
        let t_end = self.time + 1;
        let mut resolved = FxHashMap::default();
        let mut ovl_ctr = 0u32;
        self.commit_effects(origin, t_end, effects, &mut resolved, &mut ovl_ctr);
        debug_assert!(resolved.is_empty(), "external effects cannot arm in-window timers");
    }

    /// Injects an external message; see [`Network::inject`].
    pub fn inject(&mut self, from: NodeIdx, to: NodeIdx, msg: A::Msg, delay: SimTime) {
        self.seq += 1;
        self.lanes[self.lane_of[to]].queue.push(
            self.time + delay.max(1),
            self.seq,
            EventKind::Deliver { from, to, msg: Payload::Owned(msg), sent_at: self.time },
        );
        self.stats.msgs_injected += 1;
        self.stats.msgs_in_flight += 1;
        pbc_trace::emit(self.time, || TraceEvent::Inject { from, to });
    }

    /// Injects one external message to every node at once, sharing a
    /// single allocation; see [`Network::inject_all`].
    pub fn inject_all(&mut self, from: NodeIdx, msg: A::Msg, delay: SimTime) {
        let at = self.time + delay.max(1);
        let shared = Arc::new(msg);
        for to in 0..self.actors.len() {
            self.seq += 1;
            self.lanes[self.lane_of[to]].queue.push(
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

    /// Injects one external message to every node at the **absolute**
    /// tick `at`; see [`Network::inject_all_at`]. Lane-safe: each
    /// recipient's event lands in its own lane's queue with a global
    /// sequence number, so digests match the sequential engine at any
    /// lane count.
    pub fn inject_all_at(&mut self, from: NodeIdx, msg: A::Msg, at: SimTime) {
        let at = at.max(self.time + 1);
        let shared = Arc::new(msg);
        for to in 0..self.actors.len() {
            self.seq += 1;
            self.lanes[self.lane_of[to]].queue.push(
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

    /// Earliest pending event time across all lanes.
    fn next_event_at(&self) -> Option<SimTime> {
        self.lanes.iter().filter_map(|l| l.queue.next_at()).min()
    }

    /// Executes one window `[T, t_end)`: Phase P across lanes, then the
    /// serial commit. Returns the number of events committed.
    fn run_window(&mut self, t_end: SimTime) -> u64 {
        self.phase_p(t_end);
        self.commit_window(t_end)
    }

    /// Phase P: every lane with work below `t_end` executes it. Spawns
    /// scoped threads only when two or more lanes are active; a lone
    /// active lane (or `lanes = 1`) runs inline on the caller's thread.
    fn phase_p(&mut self, t_end: SimTime) {
        let Self { actors, lanes, lane_starts, crashed, incarnation, cancelled, .. } = self;
        let fz =
            Frozen { n_total: actors.len(), t_end, crashed, incarnation, watermarks: cancelled };
        let active: Vec<bool> =
            lanes.iter().map(|l| l.queue.next_at().is_some_and(|at| at < t_end)).collect();
        let n_active = active.iter().filter(|&&a| a).count();
        if n_active <= 1 {
            let mut lanes_rest = &mut lanes[..];
            let mut actors_rest = &mut actors[..];
            for (l, &is_active) in active.iter().enumerate() {
                let (lane, lr) = lanes_rest.split_first_mut().expect("lane per entry");
                lanes_rest = lr;
                let width = lane_starts[l + 1] - lane_starts[l];
                let (act, ar) = actors_rest.split_at_mut(width);
                actors_rest = ar;
                if is_active {
                    lane_window(lane, act, lane_starts[l], fz);
                }
            }
        } else {
            std::thread::scope(|s| {
                let mut lanes_rest = &mut lanes[..];
                let mut actors_rest = &mut actors[..];
                for (l, &is_active) in active.iter().enumerate() {
                    let (lane, lr) = lanes_rest.split_first_mut().expect("lane per entry");
                    lanes_rest = lr;
                    let width = lane_starts[l + 1] - lane_starts[l];
                    let (act, ar) = actors_rest.split_at_mut(width);
                    actors_rest = ar;
                    if is_active {
                        let base = lane_starts[l];
                        s.spawn(move || lane_window(lane, act, base, fz));
                    }
                }
            });
        }
    }

    /// Phase C: k-way merges the lane logs back into global `(at, seq)`
    /// order and replays accounting, trace folds and effect routing —
    /// the only place the RNG, the sequence counter and the digest are
    /// touched. Returns the number of events committed.
    fn commit_window(&mut self, t_end: SimTime) -> u64 {
        let mut cursors: Vec<LaneCursor<A::Msg>> = self
            .lanes
            .iter_mut()
            .map(|l| LaneCursor {
                iter: std::mem::take(&mut l.log).into_iter().peekable(),
                resolved: FxHashMap::default(),
                ovl_ctr: 0,
            })
            .collect();
        let mut committed = 0u64;
        loop {
            // Find the lane whose head has the smallest (at, seq). A
            // provisional head's seq is always resolvable: its arming
            // event lives earlier in the same lane's log (strictly
            // smaller `at`), so it has already committed.
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, c) in cursors.iter_mut().enumerate() {
                if let Some(exec) = c.iter.peek() {
                    let seq = match exec.seq {
                        ExecSeq::Concrete(s) => s,
                        ExecSeq::Provisional(o) => *c
                            .resolved
                            .get(&o)
                            .expect("provisional timer committed before its arming event"),
                    };
                    let better = match best {
                        None => true,
                        Some((_, ba, bs)) => (exec.at, seq) < (ba, bs),
                    };
                    if better {
                        best = Some((i, exec.at, seq));
                    }
                }
            }
            let Some((li, at, seq)) = best else { break };
            let Exec { kind, effects, .. } = cursors[li].iter.next().expect("peeked");
            debug_assert!(at >= self.time, "time must be monotone");
            self.time = at;
            committed += 1;
            match kind {
                ExecKind::Deliver { from, to, sent_at, crashed } => {
                    self.stats.msgs_in_flight -= 1;
                    if crashed {
                        self.stats.msgs_dropped += 1;
                        pbc_trace::emit(self.time, || TraceEvent::DropCrashed { from, to });
                    } else {
                        self.stats.msgs_delivered += 1;
                        self.stats.latency_sum += at - sent_at;
                        self.stats.latency_histogram.record(at - sent_at);
                        self.trace = fold_trace(self.trace, at, seq, from, to);
                        pbc_trace::emit(self.time, || TraceEvent::Deliver {
                            from,
                            to,
                            seq,
                            sent_at,
                        });
                        let cur = &mut cursors[li];
                        self.commit_effects(
                            to,
                            t_end,
                            effects,
                            &mut cur.resolved,
                            &mut cur.ovl_ctr,
                        );
                    }
                }
                ExecKind::Timer { node, id, disp } => {
                    self.stats.timers_pending -= 1;
                    match disp {
                        TimerDisp::Cancelled => {
                            self.stats.timers_cancelled += 1;
                            pbc_trace::emit(self.time, || TraceEvent::TimerSkip { node, id });
                        }
                        TimerDisp::Dropped => {
                            self.stats.timers_dropped += 1;
                        }
                        TimerDisp::Fired => {
                            self.stats.timers_fired += 1;
                            pbc_trace::emit(self.time, || TraceEvent::TimerFire { node, id });
                            let cur = &mut cursors[li];
                            self.commit_effects(
                                node,
                                t_end,
                                effects,
                                &mut cur.resolved,
                                &mut cur.ovl_ctr,
                            );
                        }
                    }
                }
            }
        }
        committed
    }

    /// Commits one handler's effects in emission order: sends route
    /// through the shared [`route_one`] kernel (RNG draws and sequence
    /// assignment identical to the sequential engine); timer arms take
    /// a sequence number and either resolve a provisional overlay id
    /// (in-window) or schedule concretely (beyond the window); cancels
    /// write the global watermark map.
    fn commit_effects(
        &mut self,
        origin: NodeIdx,
        t_end: SimTime,
        effects: Vec<Effect<A::Msg>>,
        resolved: &mut FxHashMap<u32, u64>,
        ovl_ctr: &mut u32,
    ) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    let wire = msg.wire_size();
                    self.route_commit(origin, to, Payload::Owned(msg), wire, t_end);
                }
                Effect::Broadcast { msg } => {
                    let wire = msg.wire_size();
                    let shared = Arc::new(msg);
                    let n = self.actors.len();
                    for to in 0..n {
                        if to != origin {
                            self.route_commit(
                                origin,
                                to,
                                Payload::Shared(Arc::clone(&shared)),
                                wire,
                                t_end,
                            );
                        }
                    }
                    self.route_commit(origin, origin, Payload::Shared(shared), wire, t_end);
                }
                Effect::Timer { delay, id } => {
                    self.stats.timers_set += 1;
                    self.stats.timers_pending += 1;
                    self.seq += 1;
                    let fire = self.time + delay.max(1);
                    if fire < t_end {
                        // Phase P already executed this arm as overlay
                        // entry `ovl_ctr + 1`; bind its real seq.
                        *ovl_ctr += 1;
                        resolved.insert(*ovl_ctr, self.seq);
                    } else {
                        self.lanes[self.lane_of[origin]].queue.push(
                            fire,
                            self.seq,
                            EventKind::Timer {
                                node: origin,
                                id,
                                incarnation: self.incarnation[origin],
                            },
                        );
                    }
                    pbc_trace::emit(self.time, || TraceEvent::TimerSet {
                        node: origin,
                        id,
                        fire_at: fire,
                    });
                }
                Effect::CancelTimer { id } => {
                    self.cancelled.insert((origin, id), self.seq);
                    pbc_trace::emit(self.time, || TraceEvent::TimerCancel { node: origin, id });
                }
            }
        }
    }

    /// Routes one committed send into the destination lane's queue,
    /// asserting the conservative horizon held.
    fn route_commit(
        &mut self,
        origin: NodeIdx,
        to: NodeIdx,
        msg: Payload<A::Msg>,
        wire: usize,
        t_end: SimTime,
    ) {
        let Self { rng, seq, stats, faults, partition, config, lanes, lane_of, time, .. } = self;
        let mut ctx = RouteCtx {
            rng,
            seq,
            stats,
            faults,
            partition: partition.as_deref(),
            latency: &config.latency,
            time: *time,
        };
        route_one(&mut ctx, origin, to, msg, wire, &mut |at, s, ev| {
            debug_assert!(
                at >= t_end,
                "conservative horizon violated: delivery at {at} inside window ending {t_end}"
            );
            let dest = match &ev {
                EventKind::Deliver { to, .. } => *to,
                EventKind::Timer { node, .. } => *node,
            };
            lanes[lane_of[dest]].queue.push(at, s, ev);
        });
    }

    /// Runs until the queues drain or logical time exceeds `deadline`.
    /// Returns the number of events processed. Event-for-event identical
    /// to [`Network::run_until`] with the same deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.next_event_at() {
            if t > deadline {
                break;
            }
            // The window never crosses the deadline, so the committed
            // event set matches the sequential engine's exactly; the
            // clamp depends only on global quantities, keeping window
            // boundaries lane-count-invariant.
            let t_end = t.saturating_add(self.window).min(deadline.saturating_add(1));
            n += self.run_window(t_end);
        }
        n
    }

    /// Runs until the queues are empty or at least `max_events` have
    /// been processed. The budget is checked **between windows**, so a
    /// run may overshoot `max_events` by up to one window's worth of
    /// events (the sequential engine stops mid-tick); full drains are
    /// identical to [`Network::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let Some(t) = self.next_event_at() else { break };
            n += self.run_window(t.saturating_add(self.window));
        }
        n
    }

    /// Runs until `pred` holds for all alive actors, the queues drain,
    /// or `max_events` elapse; the predicate is evaluated **between
    /// windows** (the sequential engine checks per event, so the two
    /// engines may stop at different points — use [`ParNetwork::run_until`]
    /// when exact parity matters). Returns `true` if the predicate holds
    /// when the run stops.
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
            if n >= max_events {
                return false;
            }
            let Some(t) = self.next_event_at() else { return false };
            n += self.run_window(t.saturating_add(self.window));
        }
    }

    /// Processes one **window** of events (the parallel engine's unit of
    /// progress, where [`Network::step`] processes one event). Returns
    /// `false` when no events remain.
    pub fn step(&mut self) -> bool {
        match self.next_event_at() {
            Some(t) => {
                self.run_window(t.saturating_add(self.window));
                true
            }
            None => false,
        }
    }
}

/// The common surface of the sequential [`Network`] and the multi-lane
/// [`ParNetwork`]: everything a harness needs to drive a cluster —
/// injection, fault/partition control, crash-recovery, run loops and
/// accounting — without caring which engine executes it.
///
/// Both engines produce identical digests, counters and actor states
/// for the same seed and the same sequence of calls, with two
/// documented granularity differences: [`SimNet::step`] advances one
/// event on the sequential engine but one *window* on the parallel one,
/// and `max_events` budgets are checked per event vs. per window.
pub trait SimNet<A: Actor> {
    /// Number of nodes.
    fn len(&self) -> usize;
    /// True if there are no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Current logical time.
    fn now(&self) -> SimTime;
    /// Network accounting so far.
    fn stats(&self) -> &NetStats;
    /// Digest of the delivery trace so far.
    fn trace_digest(&self) -> u64;
    /// Immutable view of an actor.
    fn actor(&self, i: NodeIdx) -> &A;
    /// Mutable view of an actor.
    fn actor_mut(&mut self, i: NodeIdx) -> &mut A;
    /// True if `node` is crashed.
    fn is_crashed(&self, node: NodeIdx) -> bool;
    /// Marks a node crashed.
    fn crash(&mut self, node: NodeIdx);
    /// Recovers a crashed node without restarting it.
    fn recover(&mut self, node: NodeIdx);
    /// Recovers a crashed node and re-runs its `on_start`.
    fn restart(&mut self, node: NodeIdx);
    /// Splits the network into isolated groups.
    fn partition(&mut self, groups: &[Vec<NodeIdx>]);
    /// Heals any partition.
    fn heal_partition(&mut self);
    /// Replaces the link-level fault model.
    fn set_fault_model(&mut self, faults: FaultModel);
    /// Mutable access to the fault model.
    fn fault_model_mut(&mut self) -> &mut FaultModel;
    /// Injects an external message.
    fn inject(&mut self, from: NodeIdx, to: NodeIdx, msg: A::Msg, delay: SimTime);
    /// Injects one external message to every node.
    fn inject_all(&mut self, from: NodeIdx, msg: A::Msg, delay: SimTime);
    /// Injects one external message to every node at the **absolute**
    /// tick `at` (clamped to `now + 1`); the client-arrival primitive.
    fn inject_all_at(&mut self, from: NodeIdx, msg: A::Msg, at: SimTime);
    /// Calls every alive actor's `on_start`.
    fn start(&mut self);
    /// Advances the simulation by one unit of progress (engine-defined:
    /// one event or one window). Returns `false` when idle.
    fn step(&mut self) -> bool;
    /// Runs until the queues drain or time exceeds `deadline`.
    fn run_until(&mut self, deadline: SimTime) -> u64;
    /// Runs until drained or (roughly) `max_events` processed.
    fn run_to_quiescence(&mut self, max_events: u64) -> u64;
    /// Number of queued, undelivered events.
    fn pending(&self) -> usize;
    /// Crashes `node` losing everything volatile, checkpoint included.
    fn crash_total(&mut self, node: NodeIdx)
    where
        A: Durable;
    /// Restarts a crashed node from an externally recovered checkpoint.
    fn restart_with(&mut self, node: NodeIdx, stable: A::Stable)
    where
        A: Durable;
}

impl<A: Actor> SimNet<A> for Network<A> {
    fn len(&self) -> usize {
        Network::len(self)
    }
    fn now(&self) -> SimTime {
        Network::now(self)
    }
    fn stats(&self) -> &NetStats {
        Network::stats(self)
    }
    fn trace_digest(&self) -> u64 {
        Network::trace_digest(self)
    }
    fn actor(&self, i: NodeIdx) -> &A {
        Network::actor(self, i)
    }
    fn actor_mut(&mut self, i: NodeIdx) -> &mut A {
        Network::actor_mut(self, i)
    }
    fn is_crashed(&self, node: NodeIdx) -> bool {
        Network::is_crashed(self, node)
    }
    fn crash(&mut self, node: NodeIdx) {
        Network::crash(self, node);
    }
    fn recover(&mut self, node: NodeIdx) {
        Network::recover(self, node);
    }
    fn restart(&mut self, node: NodeIdx) {
        Network::restart(self, node);
    }
    fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        Network::partition(self, groups);
    }
    fn heal_partition(&mut self) {
        Network::heal_partition(self);
    }
    fn set_fault_model(&mut self, faults: FaultModel) {
        Network::set_fault_model(self, faults);
    }
    fn fault_model_mut(&mut self) -> &mut FaultModel {
        Network::fault_model_mut(self)
    }
    fn inject(&mut self, from: NodeIdx, to: NodeIdx, msg: A::Msg, delay: SimTime) {
        Network::inject(self, from, to, msg, delay);
    }
    fn inject_all(&mut self, from: NodeIdx, msg: A::Msg, delay: SimTime) {
        Network::inject_all(self, from, msg, delay);
    }
    fn inject_all_at(&mut self, from: NodeIdx, msg: A::Msg, at: SimTime) {
        Network::inject_all_at(self, from, msg, at);
    }
    fn start(&mut self) {
        Network::start(self);
    }
    fn step(&mut self) -> bool {
        Network::step(self)
    }
    fn run_until(&mut self, deadline: SimTime) -> u64 {
        Network::run_until(self, deadline)
    }
    fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        Network::run_to_quiescence(self, max_events)
    }
    fn pending(&self) -> usize {
        Network::pending(self)
    }
    fn crash_total(&mut self, node: NodeIdx)
    where
        A: Durable,
    {
        Network::crash_total(self, node);
    }
    fn restart_with(&mut self, node: NodeIdx, stable: A::Stable)
    where
        A: Durable,
    {
        Network::restart_with(self, node, stable);
    }
}

impl<A> SimNet<A> for ParNetwork<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    fn len(&self) -> usize {
        ParNetwork::len(self)
    }
    fn now(&self) -> SimTime {
        ParNetwork::now(self)
    }
    fn stats(&self) -> &NetStats {
        ParNetwork::stats(self)
    }
    fn trace_digest(&self) -> u64 {
        ParNetwork::trace_digest(self)
    }
    fn actor(&self, i: NodeIdx) -> &A {
        ParNetwork::actor(self, i)
    }
    fn actor_mut(&mut self, i: NodeIdx) -> &mut A {
        ParNetwork::actor_mut(self, i)
    }
    fn is_crashed(&self, node: NodeIdx) -> bool {
        ParNetwork::is_crashed(self, node)
    }
    fn crash(&mut self, node: NodeIdx) {
        ParNetwork::crash(self, node);
    }
    fn recover(&mut self, node: NodeIdx) {
        ParNetwork::recover(self, node);
    }
    fn restart(&mut self, node: NodeIdx) {
        ParNetwork::restart(self, node);
    }
    fn partition(&mut self, groups: &[Vec<NodeIdx>]) {
        ParNetwork::partition(self, groups);
    }
    fn heal_partition(&mut self) {
        ParNetwork::heal_partition(self);
    }
    fn set_fault_model(&mut self, faults: FaultModel) {
        ParNetwork::set_fault_model(self, faults);
    }
    fn fault_model_mut(&mut self) -> &mut FaultModel {
        ParNetwork::fault_model_mut(self)
    }
    fn inject(&mut self, from: NodeIdx, to: NodeIdx, msg: A::Msg, delay: SimTime) {
        ParNetwork::inject(self, from, to, msg, delay);
    }
    fn inject_all(&mut self, from: NodeIdx, msg: A::Msg, delay: SimTime) {
        ParNetwork::inject_all(self, from, msg, delay);
    }
    fn inject_all_at(&mut self, from: NodeIdx, msg: A::Msg, at: SimTime) {
        ParNetwork::inject_all_at(self, from, msg, at);
    }
    fn start(&mut self) {
        ParNetwork::start(self);
    }
    fn step(&mut self) -> bool {
        ParNetwork::step(self)
    }
    fn run_until(&mut self, deadline: SimTime) -> u64 {
        ParNetwork::run_until(self, deadline)
    }
    fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        ParNetwork::run_to_quiescence(self, max_events)
    }
    fn pending(&self) -> usize {
        ParNetwork::pending(self)
    }
    fn crash_total(&mut self, node: NodeIdx)
    where
        A: Durable,
    {
        ParNetwork::crash_total(self, node);
    }
    fn restart_with(&mut self, node: NodeIdx, stable: A::Stable)
    where
        A: Durable,
    {
        ParNetwork::restart_with(self, node, stable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFault;
    use crate::latency::LatencyModel;

    #[derive(Clone, Debug)]
    struct Ping(u32);
    impl Message for Ping {}

    /// A deliberately nasty actor for engine-equivalence testing: deep
    /// chains of *in-window* timers (delays far below the LAN horizon of
    /// 100 ticks), in-window cancels of provisional arms, replacing
    /// re-arms of long (concrete) timers on every message, and message
    /// fan-out from both handlers.
    struct Churner {
        fires: u32,
        msgs: u32,
        limit: u32,
    }

    impl Actor for Churner {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.set_timer(3 + ctx.self_id as u64 % 5, 1);
            ctx.set_timer(250, 2);
        }
        fn on_message(&mut self, from: NodeIdx, msg: &Ping, ctx: &mut Context<Ping>) {
            self.msgs += 1;
            // Heartbeat-reset idiom: cancels the previous (concrete) arm.
            ctx.set_timer_replacing(150 + u64::from(msg.0 % 7), 2);
            // A long uncancellable timer: outlives crash windows, so
            // crashes genuinely drop timers in the chaos scenario.
            ctx.set_timer(900, 3);
            if msg.0 > 0 && !self.msgs.is_multiple_of(3) {
                ctx.send((from + 1) % ctx.n, Ping(msg.0 - 1));
            }
        }
        fn on_timer(&mut self, id: u64, ctx: &mut Context<Ping>) {
            self.fires += 1;
            if self.fires > self.limit {
                return;
            }
            match id {
                1 => {
                    if self.fires.is_multiple_of(5) {
                        // Double-arm, cancel both, arm a survivor: the
                        // cancel-after-arm path on provisional timers.
                        ctx.set_timer(3, 1);
                        ctx.set_timer(4, 1);
                        ctx.cancel_timer(1);
                        ctx.set_timer(6, 1);
                    } else {
                        ctx.set_timer_replacing(3 + u64::from(self.fires % 5), 1);
                    }
                    if self.fires.is_multiple_of(4) {
                        ctx.broadcast(Ping(2));
                    }
                }
                2 => {
                    ctx.set_timer(200, 2);
                    ctx.send((ctx.self_id + 1) % ctx.n, Ping(1));
                }
                3 => {}
                _ => unreachable!("unknown timer id"),
            }
        }
    }

    impl Durable for Churner {
        type Stable = u32;
        type Mark = ();
        fn checkpoint(&self) -> u32 {
            self.limit
        }
        fn restore(_crashed: &Self, stable: u32) -> Self {
            Churner { fires: 0, msgs: 0, limit: stable }
        }
        fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
            self.limit.to_le_bytes().to_vec()
        }
        fn apply(_crashed: &Self, stable: &mut u32, record: &[u8]) -> Option<()> {
            *stable = u32::from_le_bytes(record.try_into().ok()?);
            Some(())
        }
        fn blank_stable(crashed: &Self) -> u32 {
            crashed.limit
        }
    }

    fn churners(n: usize) -> Vec<Churner> {
        (0..n).map(|_| Churner { fires: 0, msgs: 0, limit: 40 }).collect()
    }

    /// Drives any engine through the full external API — faults,
    /// partitions, crash/recover, amnesia, restart — and returns every
    /// observable the determinism contract covers.
    fn churn_scenario<N: SimNet<Churner>>(mut net: N) -> (u64, SimTime, Vec<u64>) {
        net.set_fault_model(FaultModel::uniform(LinkFault {
            drop: 0.02,
            duplicate: 0.03,
            delay_spike: 0.05,
            spike: 700,
            reorder: 0.10,
        }));
        net.start();
        for i in 0..6u32 {
            let to = (i as usize) % net.len();
            net.inject(0, to, Ping(6 + i), 1 + u64::from(i) * 3);
        }
        net.run_until(3_000);
        net.partition(&[vec![0, 1, 2], vec![3, 4]]);
        net.run_until(6_000);
        net.heal_partition();
        // A fresh traffic wave arms long timers on every node just
        // before the crashes — so node 3's pending timer surfaces on a
        // corpse (dropped) and node 1's surfaces as a pre-amnesia ghost
        // (cancelled via incarnation). Deadlines are relative to `now`
        // (identical across engines at this quiescent point) so the
        // crash lands while those timers are genuinely pending.
        let t0 = net.now();
        for i in 0..5u64 {
            net.inject(1, i as usize, Ping(5), 1 + i * 2);
        }
        net.run_until(t0 + 60);
        net.crash(3);
        net.crash_total(1); // incarnation bump: ghost timers must skip
        net.run_until(t0 + 5_000);
        net.recover(3);
        net.restart(1);
        net.run_until(t0 + 40_000);
        net.run_to_quiescence(10_000_000);
        let s = net.stats();
        assert!(s.conserves_messages(), "{s:?}");
        assert!(s.conserves_timers(), "{s:?}");
        assert_eq!(s.msgs_in_flight, 0, "drained");
        assert_eq!(s.timers_pending, 0, "drained");
        (
            net.trace_digest(),
            net.now(),
            vec![
                s.msgs_delivered,
                s.msgs_dropped,
                s.msgs_duplicated,
                s.msgs_reordered,
                s.delay_spikes,
                s.msgs_injected,
                s.timers_set,
                s.timers_fired,
                s.timers_cancelled,
                s.timers_dropped,
                s.latency_sum,
                s.bytes_sent,
            ],
        )
    }

    #[test]
    fn par_matches_sequential_at_every_lane_count() {
        let cfg = |lanes| NetworkConfig { seed: 0x9A12, lanes, ..Default::default() };
        let baseline = churn_scenario(Network::new(churners(5), cfg(1)));
        // The scenario must actually exercise the hard paths, or the
        // equivalence below proves nothing.
        let counters = &baseline.2;
        assert!(counters[2] > 0, "duplicate path unexercised");
        assert!(counters[3] > 0, "reorder path unexercised");
        assert!(counters[8] > 0, "cancellation path unexercised");
        assert!(counters[9] > 0, "crashed-timer drop path unexercised");
        for lanes in [1usize, 2, 3, 5, 8] {
            let par = churn_scenario(ParNetwork::new(churners(5), cfg(lanes)));
            assert_eq!(baseline, par, "engine divergence at lanes={lanes}");
        }
    }

    /// Horizon of one tick (zero-base latency): every timer is concrete,
    /// every window holds a single tick — the degenerate worst case.
    #[test]
    fn par_matches_sequential_with_one_tick_horizon() {
        let cfg = |lanes| NetworkConfig {
            latency: LatencyModel::Uniform { base: 0, jitter: 3 },
            seed: 0x717,
            drop_rate: 0.0,
            lanes,
        };
        let baseline = churn_scenario(Network::new(churners(5), cfg(1)));
        for lanes in [2usize, 5] {
            let par = churn_scenario(ParNetwork::new(churners(5), cfg(lanes)));
            assert_eq!(baseline, par, "engine divergence at lanes={lanes}");
        }
    }

    /// Asymmetric matrix latencies: the horizon is the global minimum
    /// link bound, not any per-lane quantity.
    #[test]
    fn par_matches_sequential_with_matrix_latencies() {
        let base: Vec<Vec<SimTime>> = (0..5)
            .map(|i| {
                (0..5).map(|j| if i == j { 40 } else { 120 + 60 * ((i + j) % 3) as u64 }).collect()
            })
            .collect();
        let cfg = |lanes| NetworkConfig {
            latency: LatencyModel::Matrix { base: base.clone(), jitter: 15 },
            seed: 0x3A71,
            drop_rate: 0.0,
            lanes,
        };
        let baseline = churn_scenario(Network::new(churners(5), cfg(1)));
        for lanes in [2usize, 4] {
            let par = churn_scenario(ParNetwork::new(churners(5), cfg(lanes)));
            assert_eq!(baseline, par, "engine divergence at lanes={lanes}");
        }
    }

    #[test]
    fn lane_count_is_clamped() {
        let net = ParNetwork::new(churners(5), NetworkConfig { lanes: 64, ..Default::default() });
        assert_eq!(net.lane_count(), 5, "at most one lane per node");
        let net = ParNetwork::new(churners(5), NetworkConfig { lanes: 0, ..Default::default() });
        assert_eq!(net.lane_count(), 1, "at least one lane");
    }

    #[test]
    fn empty_network_is_inert() {
        let mut net: ParNetwork<Churner> =
            ParNetwork::new(Vec::new(), NetworkConfig { lanes: 4, ..Default::default() });
        assert!(net.is_empty());
        assert_eq!(net.run_to_quiescence(1000), 0);
        assert!(!net.step());
    }

    #[test]
    fn step_advances_windows_until_idle() {
        let mut net =
            ParNetwork::new(churners(4), NetworkConfig { lanes: 2, ..Default::default() });
        net.start();
        net.inject(0, 1, Ping(2), 1);
        let mut windows = 0u32;
        while net.step() {
            windows += 1;
            assert!(windows < 100_000, "must drain");
        }
        assert!(windows > 1, "multiple windows expected");
        assert_eq!(net.pending(), 0);
        assert!(net.stats().conserves_timers());
    }
}
