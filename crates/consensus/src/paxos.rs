//! Multi-decree Paxos (Lamport) — the classic crash-fault-tolerant
//! protocol the paper cites as the other CFT ordering option (§2.2).
//!
//! A distinguished proposer runs phase 1 (`Prepare`/`Promise`) once per
//! leadership with ballot `b`, learning any previously accepted values it
//! must re-propose; it then drives phase 2 (`Accept`/`Accepted`) per
//! slot. Every node learns a slot once a majority of acceptors accept the
//! same value. Failover: a node holding undecided requests past its
//! timeout claims leadership with a higher ballot.

use crate::common::{hooks, quorum, DecidedLog, Payload, Tally};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// Paxos wire messages.
#[derive(Clone, Debug)]
pub enum PaxosMsg<P> {
    /// Client request (injected to every node).
    Request(P),
    /// Phase-1a: claim leadership at `ballot`.
    Prepare {
        /// Proposer's ballot.
        ballot: u64,
    },
    /// Phase-1b: acknowledge `ballot`, reporting accepted values.
    Promise {
        /// The promised ballot.
        ballot: u64,
        /// Previously accepted `(slot, ballot, value)` triples.
        accepted: Vec<(u64, u64, P)>,
    },
    /// Phase-2a: propose `value` for `slot` at `ballot`.
    Accept {
        /// Proposer's ballot.
        ballot: u64,
        /// Slot being decided.
        slot: u64,
        /// Proposed value.
        value: P,
    },
    /// Phase-2b: acceptance notification (broadcast so everyone learns).
    Accepted {
        /// The accepting ballot.
        ballot: u64,
        /// Slot.
        slot: u64,
        /// Value digest (learners count matching digests).
        digest: u64,
        /// The value itself (so learners can deliver).
        value: P,
    },
}

impl<P: Payload> Message for PaxosMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            PaxosMsg::Request(p) => 24 + p.wire_size(),
            PaxosMsg::Prepare { .. } => 32,
            PaxosMsg::Promise { accepted, .. } => {
                40 + accepted.iter().map(|(_, _, p)| 16 + p.wire_size()).sum::<usize>()
            }
            PaxosMsg::Accept { value, .. } => 48 + value.wire_size(),
            PaxosMsg::Accepted { value, .. } => 56 + value.wire_size(),
        }
    }
}

const TIMER_PROGRESS: u64 = 1;

/// Static configuration.
#[derive(Clone, Debug)]
pub struct PaxosConfig {
    /// Cluster size.
    pub n: usize,
    /// Progress timeout before a node tries to take over leadership.
    pub timeout: SimTime,
}

impl PaxosConfig {
    /// Defaults for LAN simulation.
    pub fn new(n: usize) -> Self {
        PaxosConfig { n, timeout: 30_000 }
    }
}

/// One Paxos node (proposer + acceptor + learner).
#[derive(Debug)]
pub struct PaxosNode<P> {
    cfg: PaxosConfig,
    id: NodeIdx,
    // --- acceptor ---
    promised: u64,
    accepted: BTreeMap<u64, (u64, P)>,
    // --- proposer ---
    ballot: u64,
    leading: bool,
    /// Promises for `ballot` by sender, so the merge reads them in
    /// ascending sender order.
    promises: BTreeMap<NodeIdx, Vec<(u64, u64, P)>>,
    next_slot: u64,
    /// digest → slot proposed (this leadership).
    proposed: FxHashMap<u64, u64>,
    // --- learner ---
    learn_votes: Tally<(u64, u64)>,
    // --- requests ---
    pending: BTreeMap<u64, P>,
    delivered_digests: FxHashSet<u64>,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// Leadership takeover attempts (observability).
    pub takeovers: u64,
}

impl<P: Payload> PaxosNode<P> {
    /// Creates a node; `id` must match its network index. Node 0 assumes
    /// initial leadership.
    pub fn new(cfg: PaxosConfig, id: NodeIdx) -> Self {
        PaxosNode {
            id,
            promised: 0,
            accepted: BTreeMap::new(),
            ballot: 0,
            leading: false,
            promises: BTreeMap::new(),
            next_slot: 0,
            proposed: FxHashMap::default(),
            learn_votes: Tally::default(),
            pending: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            log: DecidedLog::default(),
            takeovers: 0,
            cfg,
        }
    }

    /// Whether this node currently leads.
    pub fn is_leading(&self) -> bool {
        self.leading
    }

    fn ballot_for_round(&self, round: u64) -> u64 {
        round * self.cfg.n as u64 + self.id as u64
    }

    fn claim_leadership(&mut self, ctx: &mut Context<PaxosMsg<P>>) {
        let round = self.promised / self.cfg.n as u64 + 1;
        self.ballot = self.ballot_for_round(round);
        self.leading = false;
        self.promises.clear();
        self.takeovers += 1;
        hooks::election("paxos", ctx.self_id, ctx.now, self.ballot);
        ctx.broadcast(PaxosMsg::Prepare { ballot: self.ballot });
        self.arm_timer(ctx);
    }

    fn arm_timer(&mut self, ctx: &mut Context<PaxosMsg<P>>) {
        if !self.pending.is_empty() {
            ctx.set_timer(self.cfg.timeout, TIMER_PROGRESS);
        }
    }

    fn propose_pending(&mut self, ctx: &mut Context<PaxosMsg<P>>) {
        if !self.leading {
            return;
        }
        let todo: Vec<(u64, P)> = self
            .pending
            .iter()
            .filter(|(d, _)| !self.proposed.contains_key(d))
            .map(|(d, p)| (*d, p.clone()))
            .collect();
        for (digest, value) in todo {
            let slot = self.next_slot;
            self.next_slot += 1;
            self.proposed.insert(digest, slot);
            ctx.broadcast(PaxosMsg::Accept { ballot: self.ballot, slot, value });
        }
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for PaxosNode<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "paxos";

    fn request_msg(payload: P) -> PaxosMsg<P> {
        PaxosMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for PaxosNode<P> {
    type Msg = PaxosMsg<P>;

    fn on_start(&mut self, ctx: &mut Context<PaxosMsg<P>>) {
        if self.id == 0 {
            self.ballot = 0;
            self.promises.clear();
            ctx.broadcast(PaxosMsg::Prepare { ballot: 0 });
        }
    }

    fn on_message(&mut self, from: NodeIdx, msg: &PaxosMsg<P>, ctx: &mut Context<PaxosMsg<P>>) {
        match msg {
            PaxosMsg::Request(p) => {
                let d = p.digest_u64();
                if self.delivered_digests.contains(&d) || self.pending.contains_key(&d) {
                    return;
                }
                self.pending.insert(d, p.clone());
                self.arm_timer(ctx);
                self.propose_pending(ctx);
            }
            PaxosMsg::Prepare { ballot } => {
                if *ballot >= self.promised {
                    self.promised = *ballot;
                    if self.leading && *ballot > self.ballot {
                        self.leading = false;
                    }
                    let accepted: Vec<(u64, u64, P)> =
                        self.accepted.iter().map(|(s, (b, v))| (*s, *b, v.clone())).collect();
                    ctx.send(from, PaxosMsg::Promise { ballot: *ballot, accepted });
                }
            }
            PaxosMsg::Promise { ballot, accepted } => {
                if *ballot != self.ballot || self.leading {
                    return;
                }
                self.promises.insert(from, accepted.clone());
                if self.promises.len() >= quorum::majority(self.cfg.n) {
                    self.leading = true;
                    hooks::leader("paxos", ctx.self_id, ctx.now, self.ballot);
                    self.proposed.clear();
                    // Re-propose the highest-ballot accepted value per slot;
                    // of equal ballots, the lowest sender's.
                    let mut per_slot: BTreeMap<u64, (u64, P)> = BTreeMap::new();
                    for acc in self.promises.values() {
                        for (slot, b, v) in acc {
                            match per_slot.get(slot) {
                                Some((cur, _)) if cur >= b => {}
                                _ => {
                                    per_slot.insert(*slot, (*b, v.clone()));
                                }
                            }
                        }
                    }
                    self.next_slot = self
                        .next_slot
                        .max(per_slot.keys().next_back().map_or(0, |s| s + 1))
                        .max(self.log.next_seq());
                    for (slot, (_, value)) in per_slot {
                        self.proposed.insert(value.digest_u64(), slot);
                        ctx.broadcast(PaxosMsg::Accept { ballot: self.ballot, slot, value });
                    }
                    self.propose_pending(ctx);
                }
            }
            PaxosMsg::Accept { ballot, slot, value } => {
                if *ballot >= self.promised {
                    self.promised = *ballot;
                    self.accepted.insert(*slot, (*ballot, value.clone()));
                    hooks::phase("paxos", ctx.self_id, ctx.now, *ballot, "accepted");
                    ctx.broadcast(PaxosMsg::Accepted {
                        ballot: *ballot,
                        slot: *slot,
                        digest: value.digest_u64(),
                        value: value.clone(),
                    });
                }
            }
            PaxosMsg::Accepted { ballot: _, slot, digest, value } => {
                let votes = self.learn_votes.entry((*slot, *digest)).or_default();
                votes.insert(from);
                if votes.len() >= quorum::majority(self.cfg.n)
                    && !self.delivered_digests.contains(digest)
                {
                    self.delivered_digests.insert(*digest);
                    self.pending.remove(digest);
                    hooks::commit("paxos", ctx.self_id, ctx.now, *slot, *digest);
                    self.log.decide(*slot, value.clone(), ctx.now);
                    self.propose_pending(ctx);
                    self.arm_timer(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<PaxosMsg<P>>) {
        if id == TIMER_PROGRESS && !self.pending.is_empty() {
            self.claim_leadership(ctx);
        }
    }
}

/// Paxos's stable state (opaque): the acceptor's promise and accepted
/// values — the safety-critical pieces; an acceptor that forgot a
/// promise could promise a stale ballot, and one that forgot an
/// accepted value could let a conflicting value win its slot — plus
/// the learner's decided log. Proposer state (ballot, leadership,
/// promise tallies) is volatile: a recovered node simply isn't leading
/// and re-runs phase 1 if its timeout fires.
#[derive(Clone, Debug)]
pub struct PaxosStable<P> {
    promised: u64,
    accepted: BTreeMap<u64, (u64, P)>,
    delivered_digests: FxHashSet<u64>,
    decided: Vec<(u64, P, SimTime)>,
}

impl<P: crate::common::PersistPayload> Durable for PaxosNode<P> {
    type Stable = PaxosStable<P>;
    /// Every record is the whole state.
    type Mark = ();

    fn checkpoint(&self) -> PaxosStable<P> {
        PaxosStable {
            promised: self.promised,
            accepted: self.accepted.clone(),
            delivered_digests: self.delivered_digests.clone(),
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: PaxosStable<P>) -> Self {
        let mut node = PaxosNode::new(crashed.cfg.clone(), crashed.id);
        node.promised = stable.promised;
        node.accepted = stable.accepted;
        node.delivered_digests = stable.delivered_digests;
        node.log = DecidedLog::from_snapshot(0, stable.decided);
        node.next_slot = node.log.next_seq();
        node
    }

    fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
        let stable = self.checkpoint();
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(stable.promised);
        e.u64(stable.accepted.len() as u64);
        for (slot, (ballot, value)) in &stable.accepted {
            e.u64(*slot).u64(*ballot).bytes(&value.to_bytes());
        }
        crate::common::encode_digests(&mut e, &stable.delivered_digests);
        e.u64(stable.decided.len() as u64);
        for (seq, payload, time) in &stable.decided {
            e.u64(*seq).bytes(&payload.to_bytes()).u64(*time);
        }
        e.finish()
    }

    fn apply(_crashed: &Self, stable: &mut PaxosStable<P>, bytes: &[u8]) -> Option<()> {
        let mut d = pbc_types::encode::Decoder::new(bytes);
        let promised = d.u64()?;
        let n_accepted = d.u64()? as usize;
        let mut accepted = BTreeMap::new();
        for _ in 0..n_accepted {
            let slot = d.u64()?;
            let ballot = d.u64()?;
            let value = P::from_bytes(d.bytes()?)?;
            accepted.insert(slot, (ballot, value));
        }
        let delivered_digests = crate::common::decode_digests(&mut d)?;
        let n_decided = d.u64()? as usize;
        let mut decided = Vec::with_capacity(n_decided.min(1024));
        for _ in 0..n_decided {
            let seq = d.u64()?;
            let payload = P::from_bytes(d.bytes()?)?;
            let time = d.u64()?;
            decided.push((seq, payload, time));
        }
        *stable = d.is_empty().then_some(PaxosStable {
            promised,
            accepted,
            delivered_digests,
            decided,
        })?;
        Some(())
    }

    fn blank_stable(_crashed: &Self) -> PaxosStable<P> {
        PaxosStable {
            promised: 0,
            accepted: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            decided: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_sim::actor::Effect;
    use pbc_sim::{Network, NetworkConfig};

    /// Node 0 of three, handed two promises for its ballot that report
    /// conflicting values for slot 0 at one accepted ballot (which only a
    /// faulty acceptor can do), re-proposes the same value in every fresh
    /// node: of equal ballots, the lowest sender's value (666, node 1).
    #[test]
    fn the_promise_merge_is_the_same_in_every_node() {
        let reproposals = || {
            let mut node = PaxosNode::<u64>::new(PaxosConfig::new(3), 0);
            let mut accepts = Vec::new();
            for (from, value) in [(2, 7), (1, 666)] {
                let msg = PaxosMsg::Promise { ballot: 0, accepted: vec![(0, 0, value)] };
                let mut ctx = Context::standalone(1, 0, 3);
                node.on_message(from, &msg, &mut ctx);
                for effect in ctx.take_effects() {
                    if let Effect::Broadcast { msg: PaxosMsg::Accept { slot, value, .. } } = effect
                    {
                        accepts.push((slot, value));
                    }
                }
            }
            accepts
        };
        let first = reproposals();
        assert_eq!(first, vec![(0, 666)]);
        for _ in 1..20 {
            assert_eq!(reproposals(), first);
        }
    }

    fn cluster(n: usize, seed: u64) -> Network<PaxosNode<u64>> {
        let cfg = PaxosConfig::new(n);
        let actors = (0..n).map(|i| PaxosNode::new(cfg.clone(), i)).collect();
        let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
        net.start();
        net
    }

    fn submit(net: &mut Network<PaxosNode<u64>>, p: u64) {
        for i in 0..net.len() {
            net.inject(0, i, PaxosMsg::Request(p), 1);
        }
    }

    fn logs_agree(net: &Network<PaxosNode<u64>>, expected: usize) {
        let reference: Vec<u64> = net
            .actor((0..net.len()).find(|&i| !net.is_crashed(i)).unwrap())
            .log
            .delivered()
            .iter()
            .map(|(_, p, _)| *p)
            .collect();
        assert_eq!(reference.len(), expected);
        for i in 0..net.len() {
            if net.is_crashed(i) {
                continue;
            }
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, reference, "node {i}");
        }
    }

    #[test]
    fn node0_leads_and_decides() {
        let mut net = cluster(3, 1);
        net.run_until(10_000);
        assert!(net.actor(0).is_leading());
        submit(&mut net, 7);
        net.run_to_quiescence(1_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn many_requests_total_order() {
        let mut net = cluster(5, 2);
        net.run_until(10_000);
        for p in 1..=15u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(3_000_000);
        logs_agree(&net, 15);
    }

    #[test]
    fn leader_crash_failover() {
        let mut net = cluster(3, 3);
        net.run_until(10_000);
        submit(&mut net, 1);
        net.run_to_quiescence(1_000_000);
        net.crash(0);
        submit(&mut net, 2);
        net.run_to_quiescence(10_000_000);
        for i in 1..3 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![1, 2], "node {i}");
            assert!(net.actor(i).takeovers <= 3);
        }
    }

    #[test]
    fn no_progress_without_majority() {
        let mut net = cluster(5, 4);
        net.run_until(10_000);
        net.crash(1);
        net.crash(2);
        net.crash(3); // majority gone (leader 0 alive)
        submit(&mut net, 9);
        net.run_until(net.now() + 2_000_000);
        assert_eq!(net.actor(0).log.len(), 0);
    }

    #[test]
    fn duplicates_decided_once() {
        let mut net = cluster(3, 5);
        net.run_until(10_000);
        submit(&mut net, 42);
        submit(&mut net, 42);
        net.run_to_quiescence(1_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn backup_crash_harmless() {
        let mut net = cluster(5, 6);
        net.run_until(10_000);
        net.crash(4);
        net.crash(3);
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(3_000_000);
        logs_agree(&net, 5);
    }

    #[test]
    fn stable_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(3, 31);
        net.run_until(10_000);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        for i in 0..3 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.decided.is_empty(), "node {i} decided something");
            assert!(!stable.accepted.is_empty(), "node {i} accepted values");
            let back = crate::common::testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.promised, stable.promised);
            assert_eq!(back.accepted, stable.accepted);
        }
    }
}
