//! Simulator-core workloads behind the `e12_simcore` bench.
//!
//! Four workloads exercise the hot paths of the event loop:
//!
//! * **consensus** — any registered protocol ([`ConsensusKind`])
//!   deciding a fixed request load at a given n: the mixed
//!   Deliver/Timer stream every experiment in the repo generates;
//! * **broadcast flood** — a single node broadcasting on a tick timer:
//!   isolates the fan-out path (one send expanding to n deliveries);
//! * **chaos storm** — every node broadcasting under lossy, duplicating,
//!   delay-spiking, reordering links with partition flips: delay spikes
//!   keep *millions* of events in flight, reproducing the queue
//!   population PR 1's nemesis runs grew to millions of entries — the
//!   regime where the scheduler itself dominates the profile;
//! * **leader churn** — Raft through repeated leader-isolating partition
//!   windows: the timer-heavy election churn of the nemesis suite.
//!
//! Every workload is seeded and returns event counts, so the same call
//! measured before and after a scheduler change compares like with
//! like; wall-clock timing is the caller's business.
//!
//! # Example
//!
//! The message-complexity test in this module is this, per protocol:
//! install a trace sink, run a workload, read the per-protocol metrics
//! registry back out of the sink.
//!
//! ```
//! use pbc_bench::simcore::consensus_run;
//! use pbc_consensus::ConsensusKind;
//!
//! pbc_trace::install(pbc_trace::TraceSink::new(4096));
//! let stats = consensus_run(ConsensusKind::Pbft, 4, 0xBA5E, 5);
//! let sink = pbc_trace::uninstall().expect("installed above");
//!
//! assert_eq!(stats.decided, 5);
//! let metrics = sink.metrics();
//! let pbft = metrics.proto("pbft").expect("pbft commits were traced");
//! assert!(pbft.commits >= 5 * 4, "every replica commits every slot");
//! println!("commit latency {}", pbft.commit_latency.summary());
//! ```

use pbc_consensus::raft::{RaftConfig, RaftMsg, RaftNode, Role};
use pbc_consensus::{cluster, ConsensusKind, OrderingCluster};
use pbc_sim::{
    Actor, Context, FaultModel, LinkFault, Message, NetStats, Network, NetworkConfig, NodeIdx,
};

/// What one workload run processed (the "work" side of events/sec).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Events the loop processed (deliveries + timer fires + skips).
    pub events: u64,
    /// Consensus slots decided by every alive node (0 for non-consensus
    /// workloads).
    pub decided: u64,
    /// Final logical time.
    pub sim_now: u64,
    /// Network counters at the end of the run.
    pub net: NetStats,
}

/// Event budget for consensus runs — generous enough that every
/// protocol finishes deciding [`consensus_run`]'s request load first.
const CONSENSUS_EVENT_CAP: u64 = 20_000_000;

/// Drives `kind` at cluster size `n` until `requests` slots are decided
/// everywhere (or the event cap trips), returning the work done. Request
/// `i` (payload `1000 + i`) reaches every node at tick `1 + i * spacing`.
pub fn consensus_run(kind: ConsensusKind, n: usize, seed: u64, requests: u64) -> RunStats {
    let cfg = NetworkConfig { seed, ..Default::default() };
    let mut c = cluster::<u64>(kind.registry_name(), n, cfg).expect("registered protocol");
    // Stagger Raft past its first election so requests find a leader.
    let spacing = if kind == ConsensusKind::Raft { 97 } else { 1 };
    for i in 0..requests {
        c.submit_at(1000 + i, 1 + i * spacing);
    }
    let progress =
        |c: &dyn OrderingCluster<u64>| (0..n).map(|i| c.decided_len(i) as u64).min().unwrap_or(0);
    let mut events = 0u64;
    while events < CONSENSUS_EVENT_CAP && progress(&*c) < requests {
        if !c.step() {
            break;
        }
        events += 1;
    }
    RunStats { events, decided: progress(&*c), sim_now: c.now(), net: c.stats().clone() }
}

/// A node that broadcasts a token every tick, `rounds` times; everyone
/// else just counts. Isolates broadcast fan-out from protocol logic.
pub struct Flooder {
    rounds_left: u64,
    /// Tokens this node has received (all nodes).
    pub received: u64,
}

impl Flooder {
    /// A flooder that will broadcast `rounds` times if it is node 0.
    pub fn new(rounds: u64) -> Self {
        Flooder { rounds_left: rounds, received: 0 }
    }
}

/// 64-byte-ish broadcast payload (default `wire_size`).
#[derive(Clone, Debug)]
pub struct Token(pub u64);
impl Message for Token {}

impl Actor for Flooder {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if ctx.self_id == 0 {
            ctx.set_timer(1, 0);
        }
    }

    fn on_message(&mut self, _from: NodeIdx, _msg: &Token, _ctx: &mut Context<Token>) {
        self.received += 1;
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut Context<Token>) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        ctx.broadcast(Token(self.rounds_left));
        if self.rounds_left > 0 {
            ctx.set_timer(1, 0);
        }
    }
}

/// Floods `rounds` n-recipient broadcasts through an n-node cluster.
pub fn broadcast_flood(n: usize, seed: u64, rounds: u64) -> RunStats {
    let actors = (0..n).map(|_| Flooder::new(rounds)).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
    net.start();
    let events = net.run_to_quiescence(u64::MAX);
    RunStats { events, decided: rounds, sim_now: net.now(), net: net.stats().clone() }
}

/// The chaos-storm workload: all `n` nodes broadcast `rounds` tokens
/// each on staggered tick timers while every link drops, duplicates,
/// delay-spikes and reorders traffic, with two partition flips mid-run.
///
/// The delay spikes are the point: ~30% of deliveries land 60k ticks
/// out, so the standing event population reaches `rate × spike` — on
/// the baseline shape (n = 64, 3000 rounds, ~12M events total) several
/// million in-flight entries. That is the regime PR 1's nemesis runs
/// hit (~12M timer events through the old global heap), where
/// `O(log n)` pops over a cache-hostile megaheap dominate the loop; a
/// calendar queue stays `O(1)` regardless of population.
pub fn chaos_storm(n: usize, seed: u64, rounds: u64) -> RunStats {
    let actors = (0..n).map(|_| StormNode::new(rounds)).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
    net.set_fault_model(FaultModel::uniform(LinkFault {
        drop: 0.02,
        duplicate: 0.05,
        delay_spike: 0.3,
        spike: 60_000,
        reorder: 0.2,
    }));
    net.start();
    // Two partition flips while the storm rages: half the fleet cut off,
    // then healed (chaos schedules always mix partitions with link
    // faults).
    let half: Vec<usize> = (0..n / 2).collect();
    let rest: Vec<usize> = (n / 2..n).collect();
    let mut events = net.run_until(2_000);
    net.partition(&[half, rest]);
    events += net.run_until(4_000);
    net.heal_partition();
    events += net.run_to_quiescence(u64::MAX);
    let decided = (0..n).map(|i| net.actor(i).received).sum();
    RunStats { events, decided, sim_now: net.now(), net: net.stats().clone() }
}

/// A chaos-storm participant: broadcasts every 4 ticks (staggered by
/// node id) until its round budget is spent; counts everything received.
pub struct StormNode {
    rounds_left: u64,
    /// Tokens this node has received.
    pub received: u64,
}

impl StormNode {
    /// A storm node with a budget of `rounds` broadcasts.
    pub fn new(rounds: u64) -> Self {
        StormNode { rounds_left: rounds, received: 0 }
    }
}

impl Actor for StormNode {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Context<Token>) {
        ctx.set_timer(1 + (ctx.self_id as u64 & 3), 0);
    }

    fn on_message(&mut self, _from: NodeIdx, _msg: &Token, _ctx: &mut Context<Token>) {
        self.received += 1;
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut Context<Token>) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        ctx.broadcast(Token(self.rounds_left));
        if self.rounds_left > 0 {
            ctx.set_timer(4, 0);
        }
    }
}

/// The leader-churn workload from PR 1's nemesis runs, distilled: a
/// Raft cluster repeatedly loses its leader behind a partition, so the
/// minority churns elections (timer pile-up) while the majority
/// re-elects and keeps deciding.
pub fn chaos_run(n: usize, seed: u64, windows: u32) -> RunStats {
    let cfg = RaftConfig::new(n);
    let actors = (0..n).map(|i| RaftNode::<u64>::new(cfg.clone(), i)).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
    net.start();
    for i in 0..20u64 {
        net.inject(0, (i % n as u64) as usize, RaftMsg::Request(7000 + i), 1 + i * 31);
    }
    let mut events = net.run_until(60_000);
    for _ in 0..windows {
        let leader = (0..n).find(|&i| net.actor(i).role() == Role::Leader).unwrap_or(0);
        let rest: Vec<usize> = (0..n).filter(|&i| i != leader).collect();
        net.partition(&[vec![leader], rest]);
        events += net.run_until(net.now() + 150_000);
        net.heal_partition();
        events += net.run_until(net.now() + 150_000);
    }
    let decided = (0..n).map(|i| net.actor(i).log.len() as u64).max().unwrap_or(0);
    RunStats { events, decided, sim_now: net.now(), net: net.stats().clone() }
}

/// The timer-*cancellation* microbench: leader churn distilled to its
/// set/cancel pattern. Node 0 broadcasts a heartbeat every few ticks;
/// every follower keeps an election "lease" armed and cancels it early
/// on each heartbeat — so nearly every timer this workload sets is
/// cancelled before firing, the path consensus runs barely touch
/// (their `timers_cancelled` is a rounding error next to fires).
///
/// At drain the run asserts the timer-conservation identity
/// `set == fired + cancelled + dropped + pending` with `pending == 0`,
/// and that cancellations dominate fires — if a scheduler change
/// breaks the cancel path (stale fires, double retirement), this is
/// the workload that notices.
pub fn cancel_churn(n: usize, seed: u64, rounds: u64) -> RunStats {
    assert!(n >= 2, "churn needs a leader and at least one follower");
    let actors = (0..n).map(|_| ChurnNode::new(rounds)).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
    net.start();
    let events = net.run_to_quiescence(u64::MAX);
    let s = net.stats();
    assert!(s.conserves_timers(), "timer conservation violated at drain: {s:?}");
    assert_eq!(s.timers_pending, 0, "drained run must retire every timer: {s:?}");
    assert!(
        s.timers_cancelled > s.timers_fired,
        "cancellation-heavy workload must cancel more than it fires \
         (cancelled {} vs fired {})",
        s.timers_cancelled,
        s.timers_fired,
    );
    let decided = (0..n).map(|i| net.actor(i).leases_cancelled).sum();
    RunStats { events, decided, sim_now: net.now(), net: s.clone() }
}

/// Heartbeat interval of the churn leader (ticks).
const CHURN_BEAT: u64 = 5;
/// Election-lease timeout of churn followers — longer than a beat, so a
/// healthy leader keeps cancelling it first.
const CHURN_LEASE: u64 = 40;
const TIMER_BEAT: u64 = 1;
const TIMER_LEASE: u64 = 2;

/// A [`cancel_churn`] participant. Node 0 is the heartbeating leader;
/// everyone else arms an election lease per heartbeat and cancels the
/// previous one early.
pub struct ChurnNode {
    rounds_left: u64,
    /// Leases this follower cancelled before expiry (the exercised path).
    pub leases_cancelled: u64,
    /// Leases that expired (fired) — the tail after heartbeats stop.
    pub elections: u64,
}

impl ChurnNode {
    /// A churn node with a budget of `rounds` leader heartbeats.
    pub fn new(rounds: u64) -> Self {
        ChurnNode { rounds_left: rounds, leases_cancelled: 0, elections: 0 }
    }
}

impl Actor for ChurnNode {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if ctx.self_id == 0 {
            ctx.set_timer(CHURN_BEAT, TIMER_BEAT);
        } else {
            ctx.set_timer(CHURN_LEASE, TIMER_LEASE);
        }
    }

    fn on_message(&mut self, _from: NodeIdx, _msg: &Token, ctx: &mut Context<Token>) {
        // Heartbeat arrived in time: retire the armed lease *early* and
        // re-arm — the cancellation-heavy path.
        ctx.cancel_timer(TIMER_LEASE);
        self.leases_cancelled += 1;
        ctx.set_timer(CHURN_LEASE, TIMER_LEASE);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<Token>) {
        match id {
            TIMER_BEAT => {
                if self.rounds_left == 0 {
                    return;
                }
                self.rounds_left -= 1;
                ctx.broadcast(Token(self.rounds_left));
                if self.rounds_left > 0 {
                    ctx.set_timer(CHURN_BEAT, TIMER_BEAT);
                }
            }
            _ => {
                // The lease expired un-cancelled: heartbeats stopped
                // (end of run). A real follower would start an election.
                self.elections += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_churn_is_cancellation_heavy_and_conserves_timers() {
        // The assertions live inside cancel_churn; this pins the shape:
        // followers cancel one lease per heartbeat received.
        let stats = cancel_churn(16, 0xC0FE, 200);
        assert!(stats.net.conserves_timers(), "{:?}", stats.net);
        // Fires are one leader beat per round plus the drain-tail
        // elections; cancels are ~one per follower per beat, so the
        // ratio approaches n as rounds grow.
        assert!(
            stats.net.timers_cancelled > 10 * stats.net.timers_fired,
            "cancels must dwarf fires: {:?}",
            stats.net
        );
        assert!(stats.decided > 0, "followers must have cancelled leases");
        // Determinism: same seed, same run.
        let again = cancel_churn(16, 0xC0FE, 200);
        assert_eq!(stats.events, again.events);
        assert_eq!(stats.decided, again.decided);
    }

    /// §2.3.3 at n = 16: every protocol decides every request and traces
    /// its commits under its own registry name, and messages per commit
    /// order Raft < HotStuff < PBFT — all-to-all PBFT is quadratic in n,
    /// HotStuff's votes to the leader linear, Raft's leader-to-followers
    /// replication linear with one phase.
    #[test]
    fn every_protocol_decides_under_its_own_label_and_message_complexity_orders() {
        const N: usize = 16;
        const REQUESTS: u64 = 30;
        let mut msgs_per_commit = Vec::new();
        for kind in ConsensusKind::ALL {
            let name = kind.registry_name();
            pbc_trace::install(pbc_trace::TraceSink::new(64 * 1024));
            let stats = consensus_run(kind, N, 0xBA5E, REQUESTS);
            let metrics = pbc_trace::uninstall().expect("installed above").metrics().clone();
            assert_eq!(stats.decided, REQUESTS, "{name} n={N} must decide every request");
            assert_eq!(metrics.protocols(), [name], "{name} must trace under its own name");
            let commits = metrics.proto(name).expect("label checked above").commits;
            assert!(commits >= REQUESTS * N as u64, "{name}: {commits} commits traced");
            msgs_per_commit.push((name, metrics.msgs_per_commit(name)));
        }
        let of = |p: &str| msgs_per_commit.iter().find(|(q, _)| *q == p).expect("registered").1;
        let (raft, hotstuff, pbft) = (of("raft"), of("hotstuff"), of("pbft"));
        assert!(
            raft < hotstuff && hotstuff < pbft,
            "message complexity shape broken at n={N}: raft {raft:.1}, hotstuff {hotstuff:.1}, \
             pbft {pbft:.1}"
        );
    }
}
