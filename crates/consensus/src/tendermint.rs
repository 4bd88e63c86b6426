//! Tendermint (Kwon) — the PBFT-derived, proof-of-stake protocol the
//! paper singles out in §2.3.3.
//!
//! Differences from PBFT that the paper highlights, all implemented here:
//!
//! 1. only *validators* participate, each with a **voting power** (bonded
//!    stake); quorums are two-thirds of total *power*, not node count;
//! 2. the proposer **rotates every round** via Tendermint's deterministic
//!    priority algorithm (`priority += power; proposer = argmax;
//!    priority[proposer] -= total`), so proposal frequency is
//!    proportional to stake;
//! 3. heights are decided one at a time with Propose → Prevote →
//!    Precommit rounds, with value **locking** on a polka (> ⅔ prevotes)
//!    for safety across rounds.

use crate::common::{hooks, DecidedLog, Payload, Voters};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// Tendermint wire messages.
#[derive(Clone, Debug)]
pub enum TmMsg<P> {
    /// Client request.
    Request(P),
    /// The round proposer's block proposal.
    Proposal {
        /// Height.
        height: u64,
        /// Round within the height.
        round: u64,
        /// Proposed payload.
        payload: P,
    },
    /// First vote phase (`None` = nil prevote).
    Prevote {
        /// Height.
        height: u64,
        /// Round.
        round: u64,
        /// Voted payload digest, or nil.
        digest: Option<u64>,
    },
    /// Second vote phase (`None` = nil precommit).
    Precommit {
        /// Height.
        height: u64,
        /// Round.
        round: u64,
        /// Voted payload digest, or nil.
        digest: Option<u64>,
    },
}

impl<P: Payload> Message for TmMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            TmMsg::Request(p) => 24 + p.wire_size(),
            TmMsg::Proposal { payload, .. } => 56 + payload.wire_size(),
            TmMsg::Prevote { .. } | TmMsg::Precommit { .. } => 48,
        }
    }
}

/// Static configuration: validator voting powers.
#[derive(Clone, Debug)]
pub struct TendermintConfig {
    /// Voting power per validator (index = node index).
    pub powers: Vec<u64>,
    /// Round timeout.
    pub timeout: SimTime,
}

impl TendermintConfig {
    /// Equal-power validators.
    pub fn equal(n: usize) -> Self {
        TendermintConfig { powers: vec![1; n], timeout: 30_000 }
    }

    /// Weighted validators.
    pub fn weighted(powers: Vec<u64>) -> Self {
        TendermintConfig { powers, timeout: 30_000 }
    }

    /// Total voting power.
    pub fn total_power(&self) -> u64 {
        self.powers.iter().sum()
    }

    /// True if `weight` exceeds two-thirds of total power.
    pub fn is_quorum(&self, weight: u64) -> bool {
        3 * weight > 2 * self.total_power()
    }
}

/// Deterministic proposer schedule via Tendermint's priority algorithm.
///
/// `proposer(step)` replays the algorithm; every validator computes the
/// same schedule. Proposal frequency converges to stake proportion.
#[derive(Clone, Debug)]
pub struct ProposerSchedule {
    powers: Vec<u64>,
    cache: Vec<NodeIdx>,
    priorities: Vec<i128>,
}

impl ProposerSchedule {
    /// Builds a schedule for the given powers.
    pub fn new(powers: Vec<u64>) -> Self {
        let n = powers.len();
        ProposerSchedule { powers, cache: Vec::new(), priorities: vec![0; n] }
    }

    /// The proposer at schedule step `step` (0-based).
    pub fn proposer(&mut self, step: u64) -> NodeIdx {
        while self.cache.len() <= step as usize {
            let total: i128 = self.powers.iter().map(|&p| p as i128).sum();
            for (i, p) in self.powers.iter().enumerate() {
                self.priorities[i] += *p as i128;
            }
            let (best, _) = self
                .priorities
                .iter()
                .enumerate()
                .max_by_key(|(i, &pr)| (pr, std::cmp::Reverse(*i)))
                .expect("non-empty validator set");
            self.priorities[best] -= total;
            self.cache.push(best);
        }
        self.cache[step as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct RoundKey {
    height: u64,
    round: u64,
}

#[derive(Default, Debug)]
struct RoundVotes {
    /// digest option → (voters, accumulated power).
    tallies: fxhash::FxHashMap<Option<u64>, (Voters, u64)>,
}

impl RoundVotes {
    fn add(&mut self, from: NodeIdx, power: u64, digest: Option<u64>) -> u64 {
        let entry = self.tallies.entry(digest).or_default();
        if entry.0.insert(from) {
            entry.1 += power;
        }
        entry.1
    }
}

/// One Tendermint validator.
#[derive(Debug)]
pub struct TendermintNode<P> {
    cfg: TendermintConfig,
    height: u64,
    round: u64,
    schedule: ProposerSchedule,
    /// Proposals seen: (height, round) → payload.
    proposals: FxHashMap<RoundKey, P>,
    /// Payloads by digest (to deliver on decision).
    by_digest: FxHashMap<u64, P>,
    prevotes: FxHashMap<RoundKey, RoundVotes>,
    precommits: FxHashMap<RoundKey, RoundVotes>,
    /// Locked value: (round locked at, digest).
    locked: Option<(u64, u64)>,
    sent_prevote: FxHashSet<RoundKey>,
    sent_precommit: FxHashSet<RoundKey>,
    proposed: FxHashSet<RoundKey>,
    pending: BTreeMap<u64, P>,
    delivered_digests: FxHashSet<u64>,
    /// The in-order decided log (seq = height - 1).
    pub log: DecidedLog<P>,
    /// Rounds beyond 0 entered (observability: rotation/timeout cost).
    pub extra_rounds: u64,
}

impl<P: Payload> TendermintNode<P> {
    /// Creates a validator.
    pub fn new(cfg: TendermintConfig) -> Self {
        let schedule = ProposerSchedule::new(cfg.powers.clone());
        TendermintNode {
            height: 1,
            round: 0,
            schedule,
            proposals: FxHashMap::default(),
            by_digest: FxHashMap::default(),
            prevotes: FxHashMap::default(),
            precommits: FxHashMap::default(),
            locked: None,
            sent_prevote: FxHashSet::default(),
            sent_precommit: FxHashSet::default(),
            proposed: FxHashSet::default(),
            pending: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            log: DecidedLog::default(),
            extra_rounds: 0,
            cfg,
        }
    }

    /// Current height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The proposer of `(height, round)`.
    pub fn proposer_of(&mut self, height: u64, round: u64) -> NodeIdx {
        // Schedule step: heights and rounds both advance the schedule.
        self.schedule.proposer(height + round)
    }

    fn key(&self) -> RoundKey {
        RoundKey { height: self.height, round: self.round }
    }

    fn try_propose(&mut self, ctx: &mut Context<TmMsg<P>>) {
        let key = self.key();
        if self.proposed.contains(&key) {
            return;
        }
        if self.proposer_of(key.height, key.round) != ctx.self_id {
            return;
        }
        // Re-propose the locked value if any, else the oldest pending.
        let payload = if let Some((_, d)) = self.locked {
            self.by_digest.get(&d).cloned()
        } else {
            self.pending.values().next().cloned()
        };
        let Some(payload) = payload else {
            return;
        };
        self.proposed.insert(key);
        hooks::leader("tendermint", ctx.self_id, ctx.now, key.round);
        ctx.broadcast(TmMsg::Proposal { height: key.height, round: key.round, payload });
    }

    fn maybe_prevote(&mut self, ctx: &mut Context<TmMsg<P>>) {
        let key = self.key();
        if self.sent_prevote.contains(&key) {
            return;
        }
        let Some(p) = self.proposals.get(&key) else {
            return;
        };
        let digest = p.digest_u64();
        // Lock rule: if locked, only prevote the locked value.
        let vote = match self.locked {
            Some((_, d)) if d != digest => None, // nil
            _ => Some(digest),
        };
        self.sent_prevote.insert(key);
        hooks::phase("tendermint", ctx.self_id, ctx.now, key.round, "prevote");
        ctx.broadcast(TmMsg::Prevote { height: key.height, round: key.round, digest: vote });
    }

    fn on_polka(&mut self, key: RoundKey, digest: Option<u64>, ctx: &mut Context<TmMsg<P>>) {
        // > 2/3 prevotes for `digest` at `key`.
        if let Some(d) = digest {
            // Lock (or re-lock at a higher round).
            match self.locked {
                Some((r, _)) if r >= key.round => {}
                _ => self.locked = Some((key.round, d)),
            }
        }
        if key == self.key() && !self.sent_precommit.contains(&key) {
            self.sent_precommit.insert(key);
            hooks::phase("tendermint", ctx.self_id, ctx.now, key.round, "precommit");
            ctx.broadcast(TmMsg::Precommit { height: key.height, round: key.round, digest });
        }
    }

    fn advance_round(&mut self, ctx: &mut Context<TmMsg<P>>) {
        self.round += 1;
        self.extra_rounds += 1;
        hooks::view_change("tendermint", ctx.self_id, ctx.now, self.round);
        self.arm_timer(ctx);
        self.try_propose(ctx);
        self.maybe_prevote(ctx);
    }

    fn decide(&mut self, digest: u64, ctx: &mut Context<TmMsg<P>>) {
        let Some(payload) = self.by_digest.get(&digest).cloned() else {
            return;
        };
        if !self.delivered_digests.insert(digest) {
            return;
        }
        self.pending.remove(&digest);
        hooks::commit("tendermint", ctx.self_id, ctx.now, self.height - 1, digest);
        self.log.decide(self.height - 1, payload, ctx.now);
        self.height += 1;
        self.round = 0;
        self.locked = None;
        self.arm_timer(ctx);
        self.try_propose(ctx);
        self.maybe_prevote(ctx);
    }

    fn arm_timer(&mut self, ctx: &mut Context<TmMsg<P>>) {
        if !self.pending.is_empty() {
            // Timer id encodes (height, round).
            ctx.set_timer(self.cfg.timeout, self.height * 1_000 + self.round);
        }
    }

    fn power_of(&self, node: NodeIdx) -> u64 {
        self.cfg.powers.get(node).copied().unwrap_or(0)
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for TendermintNode<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "tendermint";

    fn request_msg(payload: P) -> TmMsg<P> {
        TmMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for TendermintNode<P> {
    type Msg = TmMsg<P>;

    fn on_message(&mut self, from: NodeIdx, msg: &TmMsg<P>, ctx: &mut Context<TmMsg<P>>) {
        match msg {
            TmMsg::Request(p) => {
                let d = p.digest_u64();
                if self.delivered_digests.contains(&d) || self.pending.contains_key(&d) {
                    return;
                }
                self.pending.insert(d, p.clone());
                self.by_digest.insert(d, p.clone());
                self.arm_timer(ctx);
                self.try_propose(ctx);
            }
            TmMsg::Proposal { height, round, payload } => {
                let key = RoundKey { height: *height, round: *round };
                if *height != self.height
                    || self.proposer_of(*height, *round) != from
                    || self.proposals.contains_key(&key)
                {
                    return;
                }
                let digest = payload.digest_u64();
                if self.delivered_digests.contains(&digest) {
                    return;
                }
                self.by_digest.insert(digest, payload.clone());
                self.proposals.insert(key, payload.clone());
                if *round == self.round {
                    self.maybe_prevote(ctx);
                }
            }
            TmMsg::Prevote { height, round, digest } => {
                if *height != self.height {
                    return;
                }
                let key = RoundKey { height: *height, round: *round };
                let power = self.power_of(from);
                let weight = self.prevotes.entry(key).or_default().add(from, power, *digest);
                if self.cfg.is_quorum(weight) {
                    self.on_polka(key, *digest, ctx);
                }
            }
            TmMsg::Precommit { height, round, digest } => {
                if *height != self.height {
                    return;
                }
                let key = RoundKey { height: *height, round: *round };
                let power = self.power_of(from);
                let weight = self.precommits.entry(key).or_default().add(from, power, *digest);
                if self.cfg.is_quorum(weight) {
                    match *digest {
                        Some(d) => self.decide(d, ctx),
                        None => {
                            // > 2/3 nil precommits: the round is dead.
                            if key == self.key() {
                                self.advance_round(ctx);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Context<TmMsg<P>>) {
        let (h, r) = (id / 1_000, id % 1_000);
        if h != self.height || r != self.round || self.pending.is_empty() {
            return;
        }
        // No decision in this round: precommit nil (if we haven't
        // precommitted a value) and move on.
        let key = self.key();
        if !self.sent_precommit.contains(&key) {
            self.sent_precommit.insert(key);
            ctx.broadcast(TmMsg::Precommit { height: key.height, round: key.round, digest: None });
        }
        self.advance_round(ctx);
    }
}

/// Tendermint's stable state (opaque): the current height, the lock —
/// the safety-critical piece; a validator that forgot its lock could
/// prevote a conflicting value in a later round — with the locked
/// payload itself (so a recovered proposer can re-propose it), and the
/// decided log. Round number, vote tallies and pending requests are
/// volatile: the validator rejoins at round 0 of its height and the
/// protocol's nil-precommit timeouts walk it forward.
#[derive(Clone, Debug)]
pub struct TmStable<P> {
    height: u64,
    locked: Option<(u64, u64, P)>,
    delivered_digests: FxHashSet<u64>,
    decided: Vec<(u64, P, SimTime)>,
}

impl<P: crate::common::PersistPayload> Durable for TendermintNode<P> {
    type Stable = TmStable<P>;
    /// Every record is the whole state.
    type Mark = ();

    fn checkpoint(&self) -> TmStable<P> {
        TmStable {
            height: self.height,
            locked: self.locked.and_then(|(round, digest)| {
                self.by_digest.get(&digest).map(|p| (round, digest, p.clone()))
            }),
            delivered_digests: self.delivered_digests.clone(),
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: TmStable<P>) -> Self {
        let mut node = TendermintNode::new(crashed.cfg.clone());
        node.height = stable.height;
        if let Some((round, digest, payload)) = stable.locked {
            node.locked = Some((round, digest));
            node.by_digest.insert(digest, payload);
        }
        node.delivered_digests = stable.delivered_digests;
        node.log = DecidedLog::from_snapshot(0, stable.decided);
        node
    }

    fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
        let stable = self.checkpoint();
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(stable.height);
        match &stable.locked {
            Some((round, digest, payload)) => {
                e.tag(1).u64(*round).u64(*digest).bytes(&payload.to_bytes());
            }
            None => {
                e.tag(0);
            }
        }
        crate::common::encode_digests(&mut e, &stable.delivered_digests);
        e.u64(stable.decided.len() as u64);
        for (seq, payload, time) in &stable.decided {
            e.u64(*seq).bytes(&payload.to_bytes()).u64(*time);
        }
        e.finish()
    }

    fn apply(_crashed: &Self, stable: &mut TmStable<P>, bytes: &[u8]) -> Option<()> {
        let mut d = pbc_types::encode::Decoder::new(bytes);
        let height = d.u64()?;
        let locked = match d.tag()? {
            0 => None,
            1 => {
                let round = d.u64()?;
                let digest = d.u64()?;
                let payload = P::from_bytes(d.bytes()?)?;
                Some((round, digest, payload))
            }
            _ => return None,
        };
        let delivered_digests = crate::common::decode_digests(&mut d)?;
        let n_decided = d.u64()? as usize;
        let mut decided = Vec::with_capacity(n_decided.min(1024));
        for _ in 0..n_decided {
            let seq = d.u64()?;
            let payload = P::from_bytes(d.bytes()?)?;
            let time = d.u64()?;
            decided.push((seq, payload, time));
        }
        *stable =
            d.is_empty().then_some(TmStable { height, locked, delivered_digests, decided })?;
        Some(())
    }

    fn blank_stable(_crashed: &Self) -> TmStable<P> {
        TmStable { height: 1, locked: None, delivered_digests: Default::default(), decided: vec![] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_sim::{Network, NetworkConfig};

    fn cluster(cfg: TendermintConfig, seed: u64) -> Network<TendermintNode<u64>> {
        let n = cfg.powers.len();
        let actors = (0..n).map(|_| TendermintNode::new(cfg.clone())).collect();
        Network::new(actors, NetworkConfig { seed, ..Default::default() })
    }

    fn submit(net: &mut Network<TendermintNode<u64>>, p: u64) {
        for i in 0..net.len() {
            net.inject(0, i, TmMsg::Request(p), 1);
        }
    }

    fn run_until_delivered(net: &mut Network<TendermintNode<u64>>, target: usize, max: u64) {
        let mut events = 0;
        while events < max {
            let done = (0..net.len())
                .filter(|&i| !net.is_crashed(i))
                .all(|i| net.actor(i).log.len() >= target);
            if done || !net.step() {
                return;
            }
            events += 1;
        }
        panic!("exhausted {max} events before delivering {target}");
    }

    fn logs_agree(net: &Network<TendermintNode<u64>>, expected: usize) {
        let first = (0..net.len()).find(|&i| !net.is_crashed(i)).unwrap();
        let reference: Vec<u64> =
            net.actor(first).log.delivered().iter().map(|(_, p, _)| *p).collect();
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
    fn equal_power_decides() {
        let mut net = cluster(TendermintConfig::equal(4), 1);
        submit(&mut net, 42);
        run_until_delivered(&mut net, 1, 2_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn many_heights_agree() {
        let mut net = cluster(TendermintConfig::equal(4), 2);
        for p in 1..=10u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 10, 20_000_000);
        logs_agree(&net, 10);
    }

    #[test]
    fn proposer_schedule_is_stake_proportional() {
        let mut sched = ProposerSchedule::new(vec![3, 1, 1]);
        let mut counts = [0usize; 3];
        for step in 0..5_000u64 {
            counts[sched.proposer(step)] += 1;
        }
        // Validator 0 holds 3/5 of the stake.
        let share = counts[0] as f64 / 5_000.0;
        assert!((share - 0.6).abs() < 0.02, "share {share}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn weighted_quorum_counts_power_not_nodes() {
        // 4 validators; validator 0 holds 70% of power. A quorum without
        // it is impossible: crash it and no height decides.
        let cfg = TendermintConfig::weighted(vec![70, 10, 10, 10]);
        let mut net = cluster(cfg, 3);
        net.crash(0);
        submit(&mut net, 7);
        net.run_until(2_000_000);
        for i in 1..4 {
            assert_eq!(net.actor(i).log.len(), 0, "node {i} must not decide");
        }
    }

    #[test]
    fn small_validator_crash_is_tolerated() {
        let cfg = TendermintConfig::weighted(vec![40, 40, 10, 10]);
        let mut net = cluster(cfg, 4);
        net.crash(3); // 10% of power
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 3, 30_000_000);
        logs_agree(&net, 3);
    }

    #[test]
    fn crashed_proposer_round_advances() {
        let mut net = cluster(TendermintConfig::equal(4), 5);
        // Find the first proposer of (h=1, r=0) and crash it.
        let first = net.actor_mut(0).proposer_of(1, 0);
        net.crash(first);
        submit(&mut net, 9);
        run_until_delivered(&mut net, 1, 30_000_000);
        for i in 0..4 {
            if net.is_crashed(i) {
                continue;
            }
            assert!(net.actor(i).extra_rounds >= 1, "node {i} must have advanced rounds");
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![9]);
        }
    }

    #[test]
    fn duplicates_decided_once() {
        let mut net = cluster(TendermintConfig::equal(4), 6);
        submit(&mut net, 42);
        submit(&mut net, 42);
        run_until_delivered(&mut net, 1, 5_000_000);
        net.run_to_quiescence(5_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn quorum_arithmetic() {
        let cfg = TendermintConfig::weighted(vec![1, 1, 1]);
        assert!(!cfg.is_quorum(2));
        assert!(cfg.is_quorum(3));
        let cfg = TendermintConfig::weighted(vec![70, 10, 10, 10]);
        assert!(!cfg.is_quorum(66));
        assert!(cfg.is_quorum(67));
    }

    #[test]
    fn stable_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(TendermintConfig::equal(4), 31);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 3, 20_000_000);
        for i in 0..4 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.decided.is_empty(), "node {i} decided something");
            let back = crate::common::testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.height, stable.height);
        }
    }
}
