//! Raft (Ongaro & Ousterhout) — the crash-fault-tolerant ordering
//! protocol used by Quorum and by Fabric's ordering service (§2.3.3).
//!
//! `n = 2f + 1` nodes tolerate `f` crashes. A leader is elected with
//! randomized timeouts; client requests are appended to the leader's log
//! and replicated with `AppendEntries`; an entry commits once a majority
//! stores it in the leader's current term. Compared to the BFT protocols
//! in this crate, Raft needs fewer phases and no all-to-all exchange —
//! the CFT-vs-BFT gap experiment E5 quantifies exactly that.

use crate::common::{hooks, quorum, DecidedLog, Payload, Voters};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Raft wire messages.
#[derive(Clone, Debug)]
pub enum RaftMsg<P> {
    /// A client request (injected to every node; only the leader acts).
    Request(P),
    /// Candidate solicitation.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of candidate's last log entry.
        last_log_index: u64,
        /// Term of candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote reply.
    Vote {
        /// Voter's term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of that entry.
        prev_term: u64,
        /// Entries to append (`(term, payload)`).
        entries: Vec<(u64, P)>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Follower's replication acknowledgement.
    AppendReply {
        /// Follower's term.
        term: u64,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the follower.
        match_index: u64,
    },
}

impl<P: Payload> Message for RaftMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            RaftMsg::Request(p) => 24 + p.wire_size(),
            RaftMsg::RequestVote { .. } | RaftMsg::Vote { .. } => 40,
            RaftMsg::AppendEntries { entries, .. } => {
                56 + entries.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            RaftMsg::AppendReply { .. } => 40,
        }
    }
}

/// Raft role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// The elected leader.
    Leader,
}

// Timer ids carry the kind in the low byte and an epoch in the upper
// bits: the simulator cannot cancel timers, so re-arming the election
// timer (which happens on every heartbeat) bumps the epoch and lets
// every previously-armed timer die silently when it fires. Without
// this, stale timers accumulate one per heartbeat and each re-arms
// itself forever — a quadratic event storm.
const TIMER_ELECTION: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
const TIMER_KIND_MASK: u64 = 0xFF;

/// Static Raft configuration.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Cluster size.
    pub n: usize,
    /// Election timeout lower bound (randomized in `[min, 2·min]`).
    pub election_timeout: SimTime,
    /// Heartbeat interval (must be well under the election timeout).
    pub heartbeat: SimTime,
    /// Seed for per-node timeout randomization.
    pub seed: u64,
}

impl RaftConfig {
    /// Sensible defaults for a LAN-latency simulation.
    pub fn new(n: usize) -> Self {
        RaftConfig { n, election_timeout: 10_000, heartbeat: 2_000, seed: 7 }
    }
}

/// A log entry with the payload digest taken once, when it was appended.
#[derive(Debug)]
struct LogEntry<P> {
    term: u64,
    digest: u64,
    payload: P,
}

impl<P: Payload> LogEntry<P> {
    fn new(term: u64, payload: P) -> Self {
        LogEntry { term, digest: payload.digest_u64(), payload }
    }
}

/// Client requests buffered by a non-leader: unique by digest, adopted
/// in arrival order.
#[derive(Debug)]
struct PendingRequests<P> {
    by_arrival: BTreeMap<u64, P>,
    arrival_of: FxHashMap<u64, u64>,
    next_arrival: u64,
}

impl<P> PendingRequests<P> {
    fn new() -> Self {
        PendingRequests {
            by_arrival: BTreeMap::new(),
            arrival_of: Default::default(),
            next_arrival: 0,
        }
    }

    /// Buffers `payload` unless a request with this digest is waiting.
    fn insert(&mut self, digest: u64, payload: P) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.arrival_of.entry(digest) {
            slot.insert(self.next_arrival);
            self.by_arrival.insert(self.next_arrival, payload);
            self.next_arrival += 1;
        }
    }

    fn remove(&mut self, digest: u64) {
        if let Some(arrival) = self.arrival_of.remove(&digest) {
            self.by_arrival.remove(&arrival);
        }
    }

    /// Empties the buffer, yielding the requests in arrival order.
    fn take(&mut self) -> impl Iterator<Item = P> {
        self.arrival_of.clear();
        std::mem::take(&mut self.by_arrival).into_values()
    }
}

/// One Raft node.
#[derive(Debug)]
pub struct RaftNode<P> {
    cfg: RaftConfig,
    id: NodeIdx,
    term: u64,
    voted_for: Option<NodeIdx>,
    role: Role,
    /// 1-indexed log; index 0 is a sentinel.
    log_entries: Vec<LogEntry<P>>,
    log_digests: FxHashSet<u64>,
    commit_index: u64,
    last_applied: u64,
    /// Leader state.
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    votes: Voters,
    /// Requests waiting for a leader. An entry leaves when it is
    /// *applied*, not when it is appended: an appended entry can still be
    /// truncated by a conflicting leader and must then be re-proposable.
    pending: PendingRequests<P>,
    last_heartbeat: SimTime,
    election_epoch: u64,
    rng: StdRng,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// Elections this node has started (observability).
    pub elections_started: u64,
}

impl<P: Payload> RaftNode<P> {
    /// Creates a node; `id` must match its index in the network.
    pub fn new(cfg: RaftConfig, id: NodeIdx) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ (id as u64).wrapping_mul(0x9e3779b9));
        RaftNode {
            id,
            term: 0,
            voted_for: None,
            role: Role::Follower,
            log_entries: Vec::new(),
            log_digests: FxHashSet::default(),
            commit_index: 0,
            last_applied: 0,
            next_index: vec![1; cfg.n],
            match_index: vec![0; cfg.n],
            votes: Voters::default(),
            pending: PendingRequests::new(),
            last_heartbeat: 0,
            election_epoch: 0,
            rng,
            log: DecidedLog::starting_at(0),
            elections_started: 0,
            cfg,
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    fn last_log_index(&self) -> u64 {
        self.log_entries.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log_entries.last().map_or(0, |e| e.term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else {
            self.log_entries.get(index as usize - 1).map_or(0, |e| e.term)
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        let d = self.cfg.election_timeout + self.rng.gen_range(0..self.cfg.election_timeout);
        self.election_epoch += 1;
        ctx.set_timer(d, TIMER_ELECTION | (self.election_epoch << 8));
    }

    fn become_follower(&mut self, term: u64, ctx: &mut Context<RaftMsg<P>>) {
        let was_leader = self.role == Role::Leader;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.role = Role::Follower;
        self.votes.clear();
        if was_leader {
            // Stop issuing heartbeats implicitly (timer checks role).
        }
        self.arm_election_timer(ctx);
    }

    fn start_election(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.elections_started += 1;
        hooks::election("raft", self.id, ctx.now, self.term);
        ctx.broadcast(RaftMsg::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        });
        self.arm_election_timer(ctx);
    }

    fn become_leader(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        self.role = Role::Leader;
        hooks::leader("raft", self.id, ctx.now, self.term);
        self.next_index = vec![self.last_log_index() + 1; self.cfg.n];
        self.match_index = vec![0; self.cfg.n];
        self.match_index[self.id] = self.last_log_index();
        // Adopt buffered client requests (those still in the log are
        // filtered by `append_if_new`).
        for p in self.pending.take() {
            self.append_if_new(p);
        }
        self.replicate_all(ctx);
        ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
    }

    fn append_if_new(&mut self, p: P) {
        let entry = LogEntry::new(self.term, p);
        if self.log_digests.insert(entry.digest) {
            self.log_entries.push(entry);
            self.match_index[self.id] = self.last_log_index();
        }
    }

    /// Appends a leader's entry as a follower.
    fn push_entry(&mut self, term: u64, payload: P) {
        let entry = LogEntry::new(term, payload);
        self.log_digests.insert(entry.digest);
        self.log_entries.push(entry);
    }

    fn replicate_all(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        for peer in 0..self.cfg.n {
            if peer == self.id {
                continue;
            }
            let next = self.next_index[peer];
            let prev_index = next - 1;
            let prev_term = self.term_at(prev_index);
            let entries: Vec<(u64, P)> = self
                .log_entries
                .iter()
                .skip(prev_index as usize)
                .map(|e| (e.term, e.payload.clone()))
                .collect();
            ctx.send(
                peer,
                RaftMsg::AppendEntries {
                    term: self.term,
                    prev_index,
                    prev_term,
                    entries,
                    leader_commit: self.commit_index,
                },
            );
        }
    }

    fn advance_commit(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        let maj = quorum::majority(self.cfg.n);
        for n in (self.commit_index + 1..=self.last_log_index()).rev() {
            if self.term_at(n) != self.term {
                continue;
            }
            let count = self.match_index.iter().filter(|&&m| m >= n).count();
            if count >= maj {
                self.commit_index = n;
                break;
            }
        }
        self.apply_committed(ctx.now);
    }

    fn apply_committed(&mut self, now: SimTime) {
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            let e = &self.log_entries[self.last_applied as usize - 1];
            self.pending.remove(e.digest);
            hooks::commit("raft", self.id, now, self.last_applied - 1, e.digest);
            self.log.decide(self.last_applied - 1, e.payload.clone(), now);
        }
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for RaftNode<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "raft";

    fn request_msg(payload: P) -> RaftMsg<P> {
        RaftMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for RaftNode<P> {
    type Msg = RaftMsg<P>;

    fn on_start(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        self.arm_election_timer(ctx);
    }

    fn on_message(&mut self, from: NodeIdx, msg: &RaftMsg<P>, ctx: &mut Context<RaftMsg<P>>) {
        match msg {
            RaftMsg::Request(p) => {
                if self.role == Role::Leader {
                    self.append_if_new(p.clone());
                    self.replicate_all(ctx);
                } else {
                    let digest = p.digest_u64();
                    if !self.log_digests.contains(&digest) {
                        self.pending.insert(digest, p.clone());
                    }
                }
            }
            RaftMsg::RequestVote { term, last_log_index, last_log_term } => {
                if *term > self.term {
                    self.become_follower(*term, ctx);
                }
                let up_to_date = (*last_log_term, *last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let granted = *term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if granted {
                    self.voted_for = Some(from);
                    self.last_heartbeat = ctx.now; // don't start a rival election
                    self.arm_election_timer(ctx);
                }
                ctx.send(from, RaftMsg::Vote { term: self.term, granted });
            }
            RaftMsg::Vote { term, granted } => {
                if *term > self.term {
                    self.become_follower(*term, ctx);
                    return;
                }
                if self.role == Role::Candidate && *granted && *term == self.term {
                    self.votes.insert(from);
                    if self.votes.len() >= quorum::majority(self.cfg.n) {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::AppendEntries { term, prev_index, prev_term, entries, leader_commit } => {
                if *term < self.term {
                    ctx.send(
                        from,
                        RaftMsg::AppendReply { term: self.term, success: false, match_index: 0 },
                    );
                    return;
                }
                self.become_follower(*term, ctx);
                self.last_heartbeat = ctx.now;
                // Consistency check.
                if *prev_index > self.last_log_index() || self.term_at(*prev_index) != *prev_term {
                    ctx.send(
                        from,
                        RaftMsg::AppendReply {
                            term: self.term,
                            success: false,
                            match_index: self.commit_index,
                        },
                    );
                    return;
                }
                // Truncate conflicts, append new entries.
                let mut idx = *prev_index;
                for (eterm, payload) in entries {
                    idx += 1;
                    if idx <= self.last_log_index() {
                        if self.term_at(idx) != *eterm {
                            for e in self.log_entries.drain(idx as usize - 1..) {
                                self.log_digests.remove(&e.digest);
                            }
                            self.push_entry(*eterm, payload.clone());
                        }
                    } else {
                        self.push_entry(*eterm, payload.clone());
                    }
                }
                if *leader_commit > self.commit_index {
                    self.commit_index = (*leader_commit).min(self.last_log_index());
                    self.apply_committed(ctx.now);
                }
                ctx.send(
                    from,
                    RaftMsg::AppendReply {
                        term: self.term,
                        success: true,
                        match_index: idx.max(self.last_log_index().min(*prev_index)),
                    },
                );
            }
            RaftMsg::AppendReply { term, success, match_index } => {
                if *term > self.term {
                    self.become_follower(*term, ctx);
                    return;
                }
                if self.role != Role::Leader || *term != self.term {
                    return;
                }
                if *success {
                    self.match_index[from] = self.match_index[from].max(*match_index);
                    self.next_index[from] = self.match_index[from] + 1;
                    self.advance_commit(ctx);
                } else {
                    self.next_index[from] = self.next_index[from].saturating_sub(1).max(1);
                }
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<RaftMsg<P>>) {
        match id & TIMER_KIND_MASK {
            TIMER_ELECTION => {
                if id >> 8 != self.election_epoch || self.role == Role::Leader {
                    return;
                }
                let elapsed = ctx.now.saturating_sub(self.last_heartbeat);
                if elapsed >= self.cfg.election_timeout {
                    self.start_election(ctx);
                } else {
                    self.arm_election_timer(ctx);
                }
            }
            TIMER_HEARTBEAT if self.role == Role::Leader => {
                self.replicate_all(ctx);
                ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            }
            _ => {}
        }
    }
}

/// Raft's persistent state, exactly the three fields the paper requires
/// on stable storage before any RPC response: `currentTerm`, `votedFor`
/// and the log.
#[derive(Clone, Debug)]
pub struct RaftStable<P> {
    /// `currentTerm`.
    pub term: u64,
    /// `votedFor` in the current term.
    pub voted_for: Option<NodeIdx>,
    /// The full log (`(term, payload)`, 1-indexed externally).
    pub log_entries: Vec<(u64, P)>,
}

/// What a node's last checkpoint record covers: `(term, digest)` of
/// every log entry it left on disk. A leader creates one entry per
/// index and term, so the entries two logs of one node share are a
/// prefix, found by walking back from the end.
#[derive(Debug, Default, PartialEq)]
pub struct RaftMark {
    entries: Vec<(u64, u64)>,
}

impl<P: crate::common::PersistPayload> Durable for RaftNode<P> {
    type Stable = RaftStable<P>;
    type Mark = RaftMark;

    fn checkpoint(&self) -> RaftStable<P> {
        RaftStable {
            term: self.term,
            voted_for: self.voted_for,
            log_entries: self.log_entries.iter().map(|e| (e.term, e.payload.clone())).collect(),
        }
    }

    fn restore(crashed: &Self, stable: RaftStable<P>) -> Self {
        let mut node = RaftNode::new(crashed.cfg.clone(), crashed.id);
        node.term = stable.term;
        node.voted_for = stable.voted_for;
        for (term, payload) in stable.log_entries {
            node.push_entry(term, payload);
        }
        // commit_index/last_applied restart at 0 (volatile, per the
        // paper); the next AppendEntries re-teaches the commit point and
        // the decided log re-fills identically from the same entries.
        node
    }

    /// The record: term and vote, then the log as "of the entries the
    /// record before left, keep this many, then append these" — a
    /// suffix a new leader rewrote is truncated and replaced.
    fn encode_since(&self, mark: &mut RaftMark) -> Vec<u8> {
        let stamp = |e: &LogEntry<P>| (e.term, e.digest);
        let mut keep = mark.entries.len().min(self.log_entries.len());
        while keep > 0 && mark.entries[keep - 1] != stamp(&self.log_entries[keep - 1]) {
            keep -= 1;
        }
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(self.term);
        match self.voted_for {
            Some(v) => {
                e.tag(1).u64(v as u64);
            }
            None => {
                e.tag(0);
            }
        }
        e.u64(mark.entries.len() as u64).u64(keep as u64);
        e.u64((self.log_entries.len() - keep) as u64);
        for entry in &self.log_entries[keep..] {
            e.u64(entry.term).bytes(&entry.payload.to_bytes());
        }
        mark.entries.truncate(keep);
        mark.entries.extend(self.log_entries[keep..].iter().map(stamp));
        e.finish()
    }

    fn apply(_crashed: &Self, stable: &mut RaftStable<P>, record: &[u8]) -> Option<()> {
        let mut d = pbc_types::encode::Decoder::new(record);
        let term = d.u64()?;
        let voted_for = match d.tag()? {
            0 => None,
            1 => Some(d.u64()? as NodeIdx),
            _ => return None,
        };
        let extends = d.u64()?;
        let keep = d.u64()?;
        if extends != stable.log_entries.len() as u64 || keep > extends {
            return None;
        }
        let n = d.u64()? as usize;
        let mut appended = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let entry_term = d.u64()?;
            let payload = P::from_bytes(d.bytes()?)?;
            appended.push((entry_term, payload));
        }
        if !d.is_empty() {
            return None;
        }
        stable.term = term;
        stable.voted_for = voted_for;
        stable.log_entries.truncate(keep as usize);
        stable.log_entries.extend(appended);
        Some(())
    }

    fn blank_stable(_crashed: &Self) -> RaftStable<P> {
        RaftStable { term: 0, voted_for: None, log_entries: Vec::new() }
    }
}

/// A **deliberately broken** Raft variant that persists *nothing* across
/// an amnesia crash — it rejoins with term 0, no vote memory, and an
/// empty log. Exists to demonstrate, in the chaos tests, that Raft's
/// stable-storage rules are load-bearing: two such nodes crashing and
/// re-forming a quorum can re-elect at a stale term and overwrite
/// committed entries, which [`pbc_sim::InvariantChecker`] flags as a
/// safety violation. Never use outside fault-injection experiments.
#[derive(Debug)]
pub struct VolatileRaft<P>(pub RaftNode<P>);

impl<P: Payload> VolatileRaft<P> {
    /// Wraps a fresh node.
    pub fn new(cfg: RaftConfig, id: NodeIdx) -> Self {
        VolatileRaft(RaftNode::new(cfg, id))
    }
}

impl<P: Payload> Actor for VolatileRaft<P> {
    type Msg = RaftMsg<P>;

    fn on_start(&mut self, ctx: &mut Context<RaftMsg<P>>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeIdx, msg: &RaftMsg<P>, ctx: &mut Context<RaftMsg<P>>) {
        self.0.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<RaftMsg<P>>) {
        self.0.on_timer(id, ctx);
    }
}

/// Drivable by the generic ordering layer, so the chaos suite can put
/// the broken variant under a [`crate::ordering::DurableNet`] too: a
/// node that persists nothing violates safety *even with a perfectly
/// healthy disk attached* — the store faithfully round-trips the empty
/// state it was given.
impl<P: Payload + 'static> crate::ordering::OrderingActor for VolatileRaft<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "volatile-raft";

    fn request_msg(payload: P) -> RaftMsg<P> {
        RaftMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.0.log
    }
}

impl<P: Payload> Durable for VolatileRaft<P> {
    /// Nothing survives — the point of the exercise.
    type Stable = ();
    type Mark = ();

    fn checkpoint(&self) {}

    fn restore(crashed: &Self, _stable: ()) -> Self {
        VolatileRaft(RaftNode::new(crashed.0.cfg.clone(), crashed.0.id))
    }

    fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
        Vec::new()
    }

    fn apply(_crashed: &Self, _stable: &mut (), _record: &[u8]) -> Option<()> {
        Some(())
    }

    fn blank_stable(_crashed: &Self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing;
    use pbc_sim::{Network, NetworkConfig};

    fn cluster(n: usize, seed: u64) -> Network<RaftNode<u64>> {
        let cfg = RaftConfig::new(n);
        let actors = (0..n).map(|i| RaftNode::new(cfg.clone(), i)).collect();
        let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
        net.start();
        net
    }

    fn leader(net: &Network<RaftNode<u64>>) -> Option<NodeIdx> {
        (0..net.len()).find(|&i| !net.is_crashed(i) && net.actor(i).role() == Role::Leader)
    }

    fn submit(net: &mut Network<RaftNode<u64>>, p: u64) {
        for i in 0..net.len() {
            net.inject(0, i, RaftMsg::Request(p), 1);
        }
    }

    /// Heartbeat timers run forever; run until all (alive) logs reach `target`.
    fn run_until_delivered(net: &mut Network<RaftNode<u64>>, target: usize, max_events: u64) {
        let mut events = 0;
        while events < max_events {
            let done = (0..net.len())
                .filter(|&i| !net.is_crashed(i))
                .all(|i| net.actor(i).log.len() >= target);
            if done {
                return;
            }
            if !net.step() {
                return;
            }
            events += 1;
        }
    }

    #[test]
    fn elects_exactly_one_leader() {
        let mut net = cluster(5, 1);
        net.run_until(200_000);
        let leaders: Vec<_> = (0..5).filter(|&i| net.actor(i).role() == Role::Leader).collect();
        assert_eq!(
            leaders.len(),
            1,
            "roles: {:?}",
            (0..5).map(|i| net.actor(i).role()).collect::<Vec<_>>()
        );
        // All on the same term as the leader.
        let lt = net.actor(leaders[0]).term();
        for i in 0..5 {
            assert!(net.actor(i).term() <= lt);
        }
    }

    #[test]
    fn replicates_and_commits() {
        let mut net = cluster(3, 2);
        net.run_until(100_000);
        assert!(leader(&net).is_some());
        for p in 1..=10u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 10, 5_000_000);
        let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(reference.len(), 10);
        for i in 1..3 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, reference, "node {i}");
        }
    }

    #[test]
    fn survives_leader_crash() {
        let mut net = cluster(5, 3);
        net.run_until(200_000);
        let old_leader = leader(&net).expect("initial leader");
        submit(&mut net, 1);
        run_until_delivered(&mut net, 1, 2_000_000);
        net.crash(old_leader);
        submit(&mut net, 2);
        run_until_delivered(&mut net, 2, 20_000_000);
        let new_leader = leader(&net).expect("new leader elected");
        assert_ne!(new_leader, old_leader);
        for i in 0..5 {
            if net.is_crashed(i) {
                continue;
            }
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![1, 2], "node {i}");
        }
    }

    #[test]
    fn tolerates_minority_crashes() {
        let mut net = cluster(5, 4);
        net.run_until(200_000);
        let l = leader(&net).unwrap();
        // Crash two non-leaders.
        let victims: Vec<_> = (0..5).filter(|&i| i != l).take(2).collect();
        for v in victims {
            net.crash(v);
        }
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 5, 5_000_000);
        let log: Vec<u64> = net.actor(l).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn majority_loss_halts_commits() {
        let mut net = cluster(5, 5);
        net.run_until(200_000);
        let l = leader(&net).unwrap();
        // Crash three nodes (a majority), sparing the leader.
        let victims: Vec<_> = (0..5).filter(|&i| i != l).take(3).collect();
        for v in victims {
            net.crash(v);
        }
        submit(&mut net, 9);
        net.run_until(3_000_000);
        assert_eq!(net.actor(l).log.len(), 0, "no commit without a majority");
    }

    #[test]
    fn duplicate_requests_committed_once() {
        let mut net = cluster(3, 6);
        net.run_until(100_000);
        submit(&mut net, 42);
        submit(&mut net, 42);
        run_until_delivered(&mut net, 1, 2_000_000);
        // Give duplicates a chance to (incorrectly) appear.
        net.run_until(net.now() + 100_000);
        for i in 0..3 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![42], "node {i}");
        }
    }

    #[test]
    fn follower_request_buffer_stays_within_the_inflight_window() {
        const WINDOW: u64 = 4;
        let mut net = cluster(3, 8);
        net.run_until(100_000);
        let mut widest = 0;
        for first in (0..400u64).step_by(WINDOW as usize) {
            for p in first..first + WINDOW {
                submit(&mut net, p);
            }
            let target = (first + WINDOW) as usize;
            while (0..3).any(|i| net.actor(i).log.len() < target) {
                assert!(net.step(), "stalled below {target} decisions");
                for i in 0..3 {
                    let pending = &net.actor(i).pending;
                    assert_eq!(pending.by_arrival.len(), pending.arrival_of.len());
                    widest = widest.max(pending.by_arrival.len());
                }
            }
        }
        assert!((1..=WINDOW as usize).contains(&widest), "widest buffer: {widest}");
        for i in 0..3 {
            assert!(net.actor(i).pending.by_arrival.is_empty(), "node {i} drained on apply");
        }
    }

    /// Why the buffer drains on *apply*, not on append: an appended entry
    /// can still be truncated, and only the buffered copy lets the
    /// follower re-propose it when it becomes leader.
    #[test]
    fn truncated_request_is_reproposed_once_by_the_follower_that_buffered_it() {
        let append = |term, payload| RaftMsg::AppendEntries {
            term,
            prev_index: 0,
            prev_term: 0,
            entries: vec![(term, payload)],
            leader_commit: 0,
        };
        let mut f = RaftNode::<u64>::new(RaftConfig::new(3), 2);
        let mut ctx = Context::standalone(0, 2, 3);
        f.on_start(&mut ctx);
        f.on_message(0, &RaftMsg::Request(7), &mut ctx);
        // Leader A (node 0, term 1) replicates 7 but never commits it.
        f.on_message(0, &append(1, 7), &mut ctx);
        assert_eq!(f.log_entries.len(), 1);
        // Leader B (node 1, term 2) never saw 7; its entry conflicts at
        // index 1 and truncates it.
        f.on_message(1, &append(2, 9), &mut ctx);
        assert!(!f.log_digests.contains(&7u64.digest_u64()), "7 was truncated");
        // B goes silent; the follower times out and wins term 3.
        ctx.now = 100_000;
        f.on_timer(TIMER_ELECTION | (f.election_epoch << 8), &mut ctx);
        f.on_message(0, &RaftMsg::Vote { term: f.term(), granted: true }, &mut ctx);
        assert_eq!(f.role(), Role::Leader);
        let log: Vec<u64> = f.log_entries.iter().map(|e| e.payload).collect();
        assert_eq!(log, vec![9, 7], "the buffered request is adopted behind B's entry");
        // A client retransmission is not appended twice.
        f.on_message(0, &RaftMsg::Request(7), &mut ctx);
        assert_eq!(f.log_entries.len(), 2);
        f.on_message(
            0,
            &RaftMsg::AppendReply { term: f.term(), success: true, match_index: 2 },
            &mut ctx,
        );
        assert_eq!(f.log.payloads(), vec![&9, &7], "decided exactly once");
        assert!(f.pending.by_arrival.is_empty());
    }

    #[test]
    fn durable_restore_preserves_term_and_log() {
        let mut net = cluster(3, 11);
        net.run_until(200_000);
        submit(&mut net, 1);
        run_until_delivered(&mut net, 1, 2_000_000);
        let victim = (0..3).find(|&i| net.actor(i).role() != Role::Leader).unwrap();
        let term_before = net.actor(victim).term();
        net.crash_and_lose_memory(victim);
        assert_eq!(net.actor(victim).term(), term_before, "term persisted");
        assert_eq!(net.actor(victim).log.len(), 0, "applied log is volatile");
        net.restart(victim);
        submit(&mut net, 2);
        run_until_delivered(&mut net, 2, 20_000_000);
        let log: Vec<u64> = net.actor(victim).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log, vec![1, 2], "restored node recommits the persisted entry");
    }

    #[test]
    fn volatile_variant_forgets_everything() {
        let cfg = RaftConfig::new(3);
        let actors = (0..3).map(|i| VolatileRaft::<u64>::new(cfg.clone(), i)).collect();
        let mut net: Network<VolatileRaft<u64>> =
            Network::new(actors, NetworkConfig { seed: 12, ..Default::default() });
        net.start();
        net.run_until(200_000);
        let l = (0..3).find(|&i| net.actor(i).0.role() == Role::Leader).unwrap();
        assert!(net.actor(l).0.term() > 0);
        net.crash_and_lose_memory(l);
        assert_eq!(net.actor(l).0.term(), 0, "nothing persisted");
        assert_eq!(net.actor(l).0.role(), Role::Follower);
    }

    #[test]
    fn fewer_messages_than_pbft_per_decision() {
        // E5's qualitative claim: CFT needs less communication than BFT.
        let mut raft = cluster(4, 7);
        raft.run_until(100_000);
        let baseline = raft.stats().msgs_sent;
        submit(&mut raft, 1);
        run_until_delivered(&mut raft, 1, 2_000_000);
        let raft_msgs = raft.stats().msgs_sent - baseline;

        let cfg = crate::pbft::PbftConfig::new(4);
        let actors = (0..4).map(|_| crate::pbft::PbftReplica::new(cfg.clone())).collect();
        let mut pbft: Network<crate::pbft::PbftReplica<u64>> =
            Network::new(actors, NetworkConfig { seed: 7, ..Default::default() });
        for i in 0..4 {
            pbft.inject(0, i, crate::pbft::PbftMsg::Request(1), 1);
        }
        pbft.run_to_quiescence(1_000_000);
        let pbft_msgs = pbft.stats().msgs_sent;
        assert!(
            raft_msgs < pbft_msgs,
            "raft {raft_msgs} should use fewer msgs than pbft {pbft_msgs}"
        );
    }

    #[test]
    fn snapshot_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(3, 31);
        net.run_until(100_000);
        for p in 1..=4u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 4, 2_000_000);
        for i in 0..3 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.log_entries.is_empty(), "node {i} persisted entries");
            // Any strict prefix is malformed, as is trailing garbage.
            let back = testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.term, stable.term);
            assert_eq!(back.voted_for, stable.voted_for);
            assert_eq!(back.log_entries, stable.log_entries);
        }
    }

    /// Records taken along a run, folded in order, are the checkpoint —
    /// and each carries only the entries appended since the one before.
    #[test]
    fn records_fold_to_the_checkpoint_and_carry_only_new_entries() {
        let mut net = cluster(3, 32);
        net.run_until(100_000);
        let mut marks: Vec<RaftMark> = (0..3).map(|_| RaftMark::default()).collect();
        let mut records: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 3];
        for wave in 0..8u64 {
            for p in 0..3 {
                submit(&mut net, 100 + wave * 3 + p);
            }
            run_until_delivered(&mut net, (wave as usize + 1) * 3, 2_000_000);
            for i in 0..3 {
                records[i].push(net.actor(i).encode_since(&mut marks[i]));
                let folded = testing::fold(net.actor(i), &records[i]);
                let stable = net.actor(i).checkpoint();
                assert_eq!(folded.term, stable.term);
                assert_eq!(folded.voted_for, stable.voted_for);
                assert_eq!(folded.log_entries, stable.log_entries, "node {i} wave {wave}");
            }
        }
        for node in &records {
            assert!(node[7].len() <= node[1].len(), "a record does not grow with the log");
            // A record out of order does not apply; the prefix stands.
            let mut stable = RaftNode::blank_stable(net.actor(0));
            RaftNode::apply(net.actor(0), &mut stable, &node[0]).expect("the snapshot applies");
            assert!(RaftNode::apply(net.actor(0), &mut stable, &node[2]).is_none());
            assert_eq!(stable.log_entries.len(), 3, "a rejected record changes nothing");
        }
    }

    /// A new leader rewrites a suffix between two persists: the second
    /// record truncates what the first one wrote.
    #[test]
    fn a_rewritten_suffix_is_truncated_by_the_next_record() {
        let append = |term, prev_index, prev_term, entries: &[u64]| RaftMsg::AppendEntries {
            term,
            prev_index,
            prev_term,
            entries: entries.iter().map(|p| (term, *p)).collect(),
            leader_commit: 0,
        };
        let mut f = RaftNode::<u64>::new(RaftConfig::new(3), 2);
        let mut ctx = Context::standalone(0, 2, 3);
        f.on_start(&mut ctx);
        let mut mark = RaftMark::default();
        f.on_message(0, &append(1, 0, 0, &[7, 8, 9]), &mut ctx);
        let mut records = vec![f.encode_since(&mut mark)];
        // Leader B (term 2) agrees on entry 1 only; 8 and 9 go. Its
        // first new entry has the payload of the one it replaces.
        f.on_message(1, &append(2, 1, 1, &[8, 5]), &mut ctx);
        let log: Vec<(u64, u64)> = f.log_entries.iter().map(|e| (e.term, e.payload)).collect();
        assert_eq!(log, vec![(1, 7), (2, 8), (2, 5)]);
        records.push(f.encode_since(&mut mark));
        let nothing_new = f.encode_since(&mut mark);
        assert!(nothing_new.len() < records[1].len(), "an unchanged log appends no entry");
        records.push(nothing_new);
        let folded = testing::fold(&f, &records);
        assert_eq!(folded.term, 2);
        assert_eq!(folded.log_entries, log);
        assert_eq!(testing::snapshot(&RaftNode::restore(&f, folded)), testing::snapshot(&f));
    }
}
