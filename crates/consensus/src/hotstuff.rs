//! HotStuff (Yin et al., PODC'19) — BFT consensus with *linear* message
//! complexity and leader rotation (§2.3.3's modern BFT option).
//!
//! This is the **basic** (non-chained) protocol: the leader of view `v`
//! drives three vote phases — Prepare, PreCommit, Commit — each a
//! leader-broadcast followed by replica-to-leader votes that the leader
//! aggregates into a quorum certificate (QC). Every phase costs `O(n)`
//! messages, versus PBFT's `O(n²)` all-to-all exchange (measured in E5),
//! and a single correct leader suffices to decide its view, so liveness
//! under crash faults needs no consecutive-honest-leader window.
//!
//! Safety follows the HotStuff rules: replicas *lock* on the commit-phase
//! QC and only vote for proposals that extend their locked block or carry
//! a newer justify QC.

use crate::common::{hooks, quorum, DecidedLog, Payload, Tally, Voters};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// A quorum certificate over `(phase, view, digest)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Qc {
    /// The certified view.
    pub view: u64,
    /// The certified block digest.
    pub digest: u64,
}

/// Vote/QC phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Phase 1: accept the proposal.
    Prepare,
    /// Phase 2: the prepare QC exists.
    PreCommit,
    /// Phase 3: the precommit QC exists (replicas lock).
    Commit,
}

/// HotStuff wire messages.
#[derive(Clone, Debug)]
pub enum HsMsg<P> {
    /// Client request.
    Request(P),
    /// Replica → leader(view): enter `view`, carrying the sender's
    /// highest prepare QC.
    NewView {
        /// The view being entered.
        view: u64,
        /// Sender's highest prepare QC.
        justify: Qc,
    },
    /// Leader's proposal for `view`.
    Propose {
        /// Proposal view.
        view: u64,
        /// Digest of the proposed block.
        digest: u64,
        /// Parent block digest (the justify QC's block).
        parent: u64,
        /// QC justifying the extension.
        justify: Qc,
        /// The proposed payload.
        payload: P,
    },
    /// Replica → leader(view): phase vote.
    Vote {
        /// The voted phase.
        phase: Phase,
        /// View.
        view: u64,
        /// Block digest.
        digest: u64,
    },
    /// Leader broadcast: the QC of `phase` formed; proceed.
    PhaseQc {
        /// The phase whose QC formed.
        phase: Phase,
        /// View.
        view: u64,
        /// Block digest.
        digest: u64,
    },
}

impl<P: Payload> Message for HsMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            HsMsg::Request(p) => 24 + p.wire_size(),
            HsMsg::NewView { .. } => 48,
            HsMsg::Propose { payload, .. } => 72 + payload.wire_size(),
            HsMsg::Vote { .. } | HsMsg::PhaseQc { .. } => 48,
        }
    }
}

#[derive(Clone, Debug)]
struct BlockRec<P> {
    parent: u64,
    payload: Option<P>,
    committed: bool,
}

/// Static configuration.
#[derive(Clone, Debug)]
pub struct HotStuffConfig {
    /// Number of replicas (`3f + 1`).
    pub n: usize,
    /// View timeout.
    pub timeout: SimTime,
}

impl HotStuffConfig {
    /// Defaults for LAN simulation.
    pub fn new(n: usize) -> Self {
        HotStuffConfig { n, timeout: 30_000 }
    }

    /// Vote quorum (`2f + 1`).
    pub fn quorum(&self) -> usize {
        quorum::bft_quorum(self.n)
    }

    /// Leader of a view.
    pub fn leader(&self, view: u64) -> NodeIdx {
        (view % self.n as u64) as NodeIdx
    }
}

const GENESIS: u64 = 0;

/// One HotStuff replica.
#[derive(Debug)]
pub struct HotStuffReplica<P> {
    cfg: HotStuffConfig,
    view: u64,
    blocks: FxHashMap<u64, BlockRec<P>>,
    /// Highest prepare QC seen (what new proposals extend).
    prepare_qc: Qc,
    /// Locked QC (set at commit phase).
    locked_qc: Qc,
    /// Leader vote tallies.
    votes: Tally<(Phase, u64, u64)>,
    /// Leader NewView tallies: view → (senders, highest justify).
    new_views: fxhash::FxHashMap<u64, (Voters, Qc)>,
    pending: BTreeMap<u64, P>,
    delivered_digests: FxHashSet<u64>,
    proposed_in_view: FxHashSet<u64>,
    next_commit_seq: u64,
    nonce: u64,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// Timeouts fired (observability).
    pub timeouts: u64,
}

impl<P: Payload> HotStuffReplica<P> {
    /// Creates a replica.
    pub fn new(cfg: HotStuffConfig) -> Self {
        let mut blocks = FxHashMap::default();
        blocks.insert(GENESIS, BlockRec { parent: GENESIS, payload: None, committed: true });
        HotStuffReplica {
            cfg,
            view: 1,
            blocks,
            prepare_qc: Qc { view: 0, digest: GENESIS },
            locked_qc: Qc { view: 0, digest: GENESIS },
            votes: Tally::default(),
            new_views: Default::default(),
            pending: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            proposed_in_view: FxHashSet::default(),
            next_commit_seq: 0,
            nonce: 1,
            log: DecidedLog::default(),
            timeouts: 0,
        }
    }

    /// The replica's current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    fn block_digest(&mut self, view: u64, parent: u64, payload: &P) -> u64 {
        let mut z = view
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(parent.rotate_left(17))
            .wrapping_add(payload.digest_u64().rotate_left(31))
            .wrapping_add(self.nonce);
        self.nonce += 1;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        (z ^ (z >> 27)) | 1 // never collide with GENESIS = 0
    }

    /// True if `descendant`'s parent chain reaches `ancestor`.
    fn extends(&self, mut descendant: u64, ancestor: u64) -> bool {
        loop {
            if descendant == ancestor {
                return true;
            }
            match self.blocks.get(&descendant) {
                Some(b) if b.parent != descendant => descendant = b.parent,
                _ => return false,
            }
        }
    }

    /// Leader: propose if we have a NewView quorum and a payload.
    fn try_propose(&mut self, ctx: &mut Context<HsMsg<P>>) {
        let v = self.view;
        if self.cfg.leader(v) != ctx.self_id || self.proposed_in_view.contains(&v) {
            return;
        }
        let Some((senders, high)) = self.new_views.get(&v) else {
            return;
        };
        if senders.len() < self.cfg.quorum() {
            return;
        }
        let justify = if high.view > self.prepare_qc.view { *high } else { self.prepare_qc };
        let Some((_, payload)) = self
            .pending
            .iter()
            .find(|(d, _)| !self.delivered_digests.contains(d))
            .map(|(d, p)| (*d, p.clone()))
        else {
            return;
        };
        let parent = justify.digest;
        let digest = self.block_digest(v, parent, &payload);
        self.proposed_in_view.insert(v);
        hooks::leader("hotstuff", ctx.self_id, ctx.now, v);
        ctx.broadcast(HsMsg::Propose { view: v, digest, parent, justify, payload });
    }

    fn enter_view(&mut self, view: u64, ctx: &mut Context<HsMsg<P>>) {
        if view <= self.view {
            return;
        }
        self.view = view;
        ctx.send(self.cfg.leader(view), HsMsg::NewView { view, justify: self.prepare_qc });
        self.arm_timer(ctx);
        self.try_propose(ctx);
    }

    fn arm_timer(&mut self, ctx: &mut Context<HsMsg<P>>) {
        if !self.pending.is_empty() {
            ctx.set_timer(self.cfg.timeout, self.view);
        }
    }

    fn commit_block(&mut self, digest: u64, node: NodeIdx, now: SimTime) {
        // Commit the block and any uncommitted ancestors, oldest first.
        let mut chain = Vec::new();
        let mut cur = digest;
        loop {
            if cur == GENESIS {
                break;
            }
            let Some(b) = self.blocks.get(&cur) else {
                // A gap in the ancestry: we were unreachable when this
                // ancestor was proposed. Committing the tip now would
                // assign it the wrong local sequence number and diverge
                // from the quorum's log — stay behind (safe) instead.
                return;
            };
            if b.committed {
                break;
            }
            chain.push(cur);
            if b.parent == cur {
                break;
            }
            cur = b.parent;
        }
        for d in chain.into_iter().rev() {
            let block = self.blocks.get_mut(&d).expect("block exists");
            block.committed = true;
            if let Some(p) = block.payload.clone() {
                let pd = p.digest_u64();
                if self.delivered_digests.insert(pd) {
                    self.pending.remove(&pd);
                    hooks::commit("hotstuff", node, now, self.next_commit_seq, pd);
                    self.log.decide(self.next_commit_seq, p, now);
                    self.next_commit_seq += 1;
                }
            }
        }
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for HotStuffReplica<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "hotstuff";

    fn request_msg(payload: P) -> HsMsg<P> {
        HsMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for HotStuffReplica<P> {
    type Msg = HsMsg<P>;

    fn on_start(&mut self, ctx: &mut Context<HsMsg<P>>) {
        // Everyone announces view 1 to its leader.
        ctx.send(
            self.cfg.leader(self.view),
            HsMsg::NewView { view: self.view, justify: self.prepare_qc },
        );
    }

    fn on_message(&mut self, from: NodeIdx, msg: &HsMsg<P>, ctx: &mut Context<HsMsg<P>>) {
        match msg {
            HsMsg::Request(p) => {
                let d = p.digest_u64();
                if self.delivered_digests.contains(&d) || self.pending.contains_key(&d) {
                    return;
                }
                self.pending.insert(d, p.clone());
                self.arm_timer(ctx);
                self.try_propose(ctx);
            }
            HsMsg::NewView { view, justify } => {
                if *view < self.view {
                    return;
                }
                let entry = self
                    .new_views
                    .entry(*view)
                    .or_insert((Voters::default(), Qc { view: 0, digest: GENESIS }));
                entry.0.insert(from);
                if justify.view > entry.1.view {
                    entry.1 = *justify;
                }
                if *view == self.view {
                    self.try_propose(ctx);
                }
            }
            HsMsg::Propose { view, digest, parent, justify, payload } => {
                if self.cfg.leader(*view) != from || *view < self.view {
                    return;
                }
                if self.delivered_digests.contains(&payload.digest_u64()) {
                    return;
                }
                self.blocks.entry(*digest).or_insert(BlockRec {
                    parent: *parent,
                    payload: Some(payload.clone()),
                    committed: false,
                });
                if *view > self.view {
                    // Catch up to the network's view.
                    self.view = *view;
                    self.arm_timer(ctx);
                }
                // SafeNode rule.
                let safe = self.extends(*parent, self.locked_qc.digest)
                    || justify.view > self.locked_qc.view;
                if safe {
                    ctx.send(
                        from,
                        HsMsg::Vote { phase: Phase::Prepare, view: *view, digest: *digest },
                    );
                }
            }
            HsMsg::Vote { phase, view, digest } => {
                // Only the view's leader tallies.
                if self.cfg.leader(*view) != ctx.self_id {
                    return;
                }
                let voters = self.votes.entry((*phase, *view, *digest)).or_default();
                voters.insert(from);
                if voters.len() == self.cfg.quorum() {
                    ctx.broadcast(HsMsg::PhaseQc { phase: *phase, view: *view, digest: *digest });
                }
            }
            HsMsg::PhaseQc { phase, view, digest } => {
                if self.cfg.leader(*view) != from || *view < self.view {
                    return;
                }
                let (view, digest) = (*view, *digest);
                match phase {
                    Phase::Prepare => {
                        let qc = Qc { view, digest };
                        if qc.view > self.prepare_qc.view {
                            self.prepare_qc = qc;
                            hooks::phase("hotstuff", ctx.self_id, ctx.now, view, "prepared");
                        }
                        ctx.send(from, HsMsg::Vote { phase: Phase::PreCommit, view, digest });
                    }
                    Phase::PreCommit => {
                        let qc = Qc { view, digest };
                        if qc.view > self.locked_qc.view {
                            self.locked_qc = qc;
                            hooks::phase("hotstuff", ctx.self_id, ctx.now, view, "locked");
                        }
                        ctx.send(from, HsMsg::Vote { phase: Phase::Commit, view, digest });
                    }
                    Phase::Commit => {
                        // Decide.
                        self.commit_block(digest, ctx.self_id, ctx.now);
                        self.enter_view(view + 1, ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer_view: u64, ctx: &mut Context<HsMsg<P>>) {
        if timer_view != self.view || self.pending.is_empty() {
            return;
        }
        self.timeouts += 1;
        let next = self.view + 1;
        self.view = next;
        hooks::view_change("hotstuff", ctx.self_id, ctx.now, next);
        ctx.send(self.cfg.leader(next), HsMsg::NewView { view: next, justify: self.prepare_qc });
        self.arm_timer(ctx);
        self.try_propose(ctx);
    }
}

/// HotStuff's stable state (opaque): the block tree with its commit
/// marks, the two safety-critical QCs (`prepare_qc` for liveness,
/// `locked_qc` for safety — a replica that forgot its lock could vote
/// for a conflicting branch), the commit sequence counter, and the
/// decided log. Vote tallies, NewView tallies and pending requests are
/// volatile: leaders re-collect them and clients retransmit.
#[derive(Clone, Debug)]
pub struct HsStable<P> {
    view: u64,
    blocks: Vec<(u64, u64, Option<P>, bool)>,
    prepare_qc: Qc,
    locked_qc: Qc,
    delivered_digests: FxHashSet<u64>,
    next_commit_seq: u64,
    nonce: u64,
    decided: Vec<(u64, P, SimTime)>,
}

impl<P: crate::common::PersistPayload> Durable for HotStuffReplica<P> {
    type Stable = HsStable<P>;
    /// Every record is the whole state.
    type Mark = ();

    fn checkpoint(&self) -> HsStable<P> {
        let mut blocks: Vec<(u64, u64, Option<P>, bool)> = self
            .blocks
            .iter()
            .map(|(d, b)| (*d, b.parent, b.payload.clone(), b.committed))
            .collect();
        blocks.sort_unstable_by_key(|(d, ..)| *d);
        HsStable {
            view: self.view,
            blocks,
            prepare_qc: self.prepare_qc,
            locked_qc: self.locked_qc,
            delivered_digests: self.delivered_digests.clone(),
            next_commit_seq: self.next_commit_seq,
            nonce: self.nonce,
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: HsStable<P>) -> Self {
        let mut r = HotStuffReplica::new(crashed.cfg.clone());
        r.view = r.view.max(stable.view);
        r.blocks = stable
            .blocks
            .into_iter()
            .map(|(d, parent, payload, committed)| (d, BlockRec { parent, payload, committed }))
            .collect();
        r.blocks.entry(GENESIS).or_insert(BlockRec {
            parent: GENESIS,
            payload: None,
            committed: true,
        });
        r.prepare_qc = stable.prepare_qc;
        r.locked_qc = stable.locked_qc;
        r.delivered_digests = stable.delivered_digests;
        r.next_commit_seq = stable.next_commit_seq;
        r.nonce = stable.nonce.max(1);
        r.log = DecidedLog::from_snapshot(0, stable.decided);
        // `on_start` re-announces the current view to its leader, which
        // re-joins the replica into the protocol.
        r
    }

    fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
        let stable = self.checkpoint();
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(stable.view);
        e.u64(stable.blocks.len() as u64);
        for (digest, parent, payload, committed) in &stable.blocks {
            e.u64(*digest).u64(*parent);
            match payload {
                Some(p) => {
                    e.tag(1).bytes(&p.to_bytes());
                }
                None => {
                    e.tag(0);
                }
            }
            e.tag(*committed as u8);
        }
        e.u64(stable.prepare_qc.view).u64(stable.prepare_qc.digest);
        e.u64(stable.locked_qc.view).u64(stable.locked_qc.digest);
        crate::common::encode_digests(&mut e, &stable.delivered_digests);
        e.u64(stable.next_commit_seq).u64(stable.nonce);
        e.u64(stable.decided.len() as u64);
        for (seq, payload, time) in &stable.decided {
            e.u64(*seq).bytes(&payload.to_bytes()).u64(*time);
        }
        e.finish()
    }

    fn apply(_crashed: &Self, stable: &mut HsStable<P>, bytes: &[u8]) -> Option<()> {
        let mut d = pbc_types::encode::Decoder::new(bytes);
        let view = d.u64()?;
        let n_blocks = d.u64()? as usize;
        let mut blocks = Vec::with_capacity(n_blocks.min(1024));
        for _ in 0..n_blocks {
            let digest = d.u64()?;
            let parent = d.u64()?;
            let payload = match d.tag()? {
                0 => None,
                1 => Some(P::from_bytes(d.bytes()?)?),
                _ => return None,
            };
            let committed = crate::common::decode_flag(&mut d)?;
            blocks.push((digest, parent, payload, committed));
        }
        let prepare_qc = Qc { view: d.u64()?, digest: d.u64()? };
        let locked_qc = Qc { view: d.u64()?, digest: d.u64()? };
        let delivered_digests = crate::common::decode_digests(&mut d)?;
        let next_commit_seq = d.u64()?;
        let nonce = d.u64()?;
        let n_decided = d.u64()? as usize;
        let mut decided = Vec::with_capacity(n_decided.min(1024));
        for _ in 0..n_decided {
            let seq = d.u64()?;
            let payload = P::from_bytes(d.bytes()?)?;
            let time = d.u64()?;
            decided.push((seq, payload, time));
        }
        *stable = d.is_empty().then_some(HsStable {
            view,
            blocks,
            prepare_qc,
            locked_qc,
            delivered_digests,
            next_commit_seq,
            nonce,
            decided,
        })?;
        Some(())
    }

    fn blank_stable(_crashed: &Self) -> HsStable<P> {
        HsStable {
            view: 1,
            blocks: vec![(GENESIS, GENESIS, None, true)],
            prepare_qc: Qc { view: 0, digest: GENESIS },
            locked_qc: Qc { view: 0, digest: GENESIS },
            delivered_digests: FxHashSet::default(),
            next_commit_seq: 0,
            nonce: 1,
            decided: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_sim::{Network, NetworkConfig};

    fn cluster(n: usize, seed: u64) -> Network<HotStuffReplica<u64>> {
        let cfg = HotStuffConfig::new(n);
        let actors = (0..n).map(|_| HotStuffReplica::new(cfg.clone())).collect();
        let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });
        net.start();
        net
    }

    fn submit(net: &mut Network<HotStuffReplica<u64>>, p: u64) {
        for i in 0..net.len() {
            net.inject(0, i, HsMsg::Request(p), 1);
        }
    }

    fn run_until_delivered(net: &mut Network<HotStuffReplica<u64>>, target: usize, max: u64) {
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

    fn logs_agree(net: &Network<HotStuffReplica<u64>>, expected: usize) {
        let first = (0..net.len()).find(|&i| !net.is_crashed(i)).unwrap();
        let reference: Vec<u64> =
            net.actor(first).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(reference.len(), expected, "delivered count");
        for i in 0..net.len() {
            if net.is_crashed(i) {
                continue;
            }
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, reference, "node {i}");
        }
    }

    #[test]
    fn single_request_decides() {
        let mut net = cluster(4, 1);
        submit(&mut net, 42);
        run_until_delivered(&mut net, 1, 2_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn many_requests_agree() {
        let mut net = cluster(4, 2);
        for p in 1..=12u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 12, 10_000_000);
        logs_agree(&net, 12);
    }

    #[test]
    fn leaders_rotate_per_view() {
        let mut net = cluster(4, 3);
        for p in 1..=6u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 6, 10_000_000);
        // Six payloads decided → the view advanced at least six times.
        assert!(net.actor(0).view() >= 6);
    }

    #[test]
    fn crashed_leader_timeout_recovers() {
        let mut net = cluster(4, 4);
        net.crash(1); // leader of view 1, the first proposer
        submit(&mut net, 7);
        run_until_delivered(&mut net, 1, 20_000_000);
        for i in [0usize, 2, 3] {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![7], "node {i}");
            assert!(net.actor(i).timeouts >= 1, "node {i} must have timed out");
        }
    }

    #[test]
    fn crashed_backup_is_harmless() {
        let mut net = cluster(7, 5);
        net.crash(3);
        net.crash(5);
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 5, 20_000_000);
        logs_agree(&net, 5);
    }

    #[test]
    fn linear_vs_pbft_message_complexity() {
        // HotStuff messages per decision grow ~linearly in n; the
        // n=16 / n=4 ratio stays well under PBFT's quadratic growth (≈16).
        let msgs = |n: usize| {
            let mut net = cluster(n, 5);
            submit(&mut net, 1);
            run_until_delivered(&mut net, 1, 10_000_000);
            net.stats().msgs_sent as f64
        };
        let m4 = msgs(4);
        let m16 = msgs(16);
        assert!(m16 / m4 < 9.0, "ratio {:.1} too high for linear protocol", m16 / m4);
    }

    #[test]
    fn duplicates_commit_once() {
        let mut net = cluster(4, 7);
        submit(&mut net, 42);
        submit(&mut net, 42);
        run_until_delivered(&mut net, 1, 5_000_000);
        net.run_to_quiescence(5_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn network_quiesces_after_decisions() {
        let mut net = cluster(4, 8);
        submit(&mut net, 5);
        run_until_delivered(&mut net, 1, 5_000_000);
        let steps = net.run_to_quiescence(10_000_000);
        assert!(steps < 10_000_000, "network must quiesce after deciding");
    }

    #[test]
    fn stable_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(4, 31);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        run_until_delivered(&mut net, 3, 10_000_000);
        for i in 0..4 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.decided.is_empty(), "node {i} decided something");
            let back = crate::common::testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.locked_qc, stable.locked_qc, "lock survives");
        }
    }
}
