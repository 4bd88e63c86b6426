//! PBFT (Castro–Liskov) with view changes, plus an IBFT-style
//! rotating-proposer mode.
//!
//! The protocol of §2.2: `n = 3f + 1` replicas, a primary assigns
//! sequence numbers and the replicas run the classic three-phase exchange
//! — `PrePrepare` (primary → all), `Prepare` (all → all), `Commit`
//! (all → all) — deciding a slot once `2f + 1` distinct replicas commit
//! the same `(view, digest)`. Message complexity is `O(n²)` per decision,
//! the baseline HotStuff's linear scheme is measured against (E5).
//!
//! A progress timer guards liveness: replicas that hold undecided client
//! requests past the timeout broadcast `ViewChange` for the next view;
//! the new primary collects `2f + 1` view-change votes, re-proposes every
//! prepared slot (safety) plus all pending requests, and announces them
//! in `NewView`.
//!
//! [`LeaderPolicy::RotatePerHeight`] turns the module into an IBFT-style
//! protocol: the proposer of height `h` is `(h + view) mod n` and heights
//! are decided one at a time.

use crate::common::view_change::{Slots, ViewChangeCore};
use crate::common::{hooks, quorum, DecidedLog, Payload, Tally, Voters};
use fxhash::FxHashSet;
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// Who proposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaderPolicy {
    /// Classic PBFT: primary = `view mod n`, pipelined sequence numbers.
    FixedPerView,
    /// IBFT-style: proposer of height `h` is `(h + view) mod n`; one
    /// height in flight at a time.
    RotatePerHeight,
}

impl LeaderPolicy {
    /// The protocol label a replica's trace events carry: its registry
    /// name, so IBFT's commits are counted as IBFT's and not PBFT's.
    pub const fn label(self) -> &'static str {
        match self {
            LeaderPolicy::FixedPerView => "pbft",
            LeaderPolicy::RotatePerHeight => "ibft",
        }
    }
}

/// Static configuration shared by all replicas.
#[derive(Clone, Debug)]
pub struct PbftConfig {
    /// Number of replicas (`3f + 1` for full Byzantine tolerance;
    /// `2u + r + 1` in hybrid mode).
    pub n: usize,
    /// Progress timeout before starting a view change.
    pub timeout: SimTime,
    /// Leader policy (PBFT vs IBFT mode).
    pub policy: LeaderPolicy,
    /// Vote quorum size.
    quorum_size: usize,
    /// Byzantine-fault bound (drives the view-change join threshold).
    byz_bound: usize,
}

impl PbftConfig {
    /// Classic PBFT with the given replica count (`quorum = 2f + 1`).
    pub fn new(n: usize) -> Self {
        PbftConfig {
            n,
            timeout: 50_000,
            policy: LeaderPolicy::FixedPerView,
            quorum_size: quorum::bft_quorum(n),
            byz_bound: quorum::bft_f(n),
        }
    }

    /// IBFT-style rotating proposer.
    pub fn ibft(n: usize) -> Self {
        PbftConfig { policy: LeaderPolicy::RotatePerHeight, ..Self::new(n) }
    }

    /// Hybrid fault model (SeeMoRe \[14\] / UpRight \[22\], §2.3.3): tolerate
    /// up to `u` total failures of which at most `r` are Byzantine, with
    /// `n = 2u + r + 1` replicas and quorums of `u + r + 1`. Two quorums
    /// intersect in `r + 1` replicas — at least one honest — so safety
    /// holds with fewer replicas than PBFT whenever `r < u` (e.g.
    /// tolerating 2 crashes + 1 Byzantine takes 6 nodes instead of 10).
    ///
    /// # Panics
    /// Panics if `r > u` (the Byzantine bound counts toward `u`).
    pub fn hybrid(u: usize, r: usize) -> Self {
        assert!(r <= u, "byzantine faults count toward the total bound");
        PbftConfig { quorum_size: u + r + 1, byz_bound: r, ..Self::new(2 * u + r + 1) }
    }

    /// Tolerated Byzantine faults (`r` in hybrid mode).
    pub fn f(&self) -> usize {
        self.byz_bound
    }

    /// Quorum size (`2f + 1` classic, `u + r + 1` hybrid).
    pub fn quorum(&self) -> usize {
        self.quorum_size
    }

    /// The proposer of `(view, seq)` under the configured policy.
    pub fn proposer(&self, view: u64, seq: u64) -> NodeIdx {
        match self.policy {
            LeaderPolicy::FixedPerView => (view % self.n as u64) as NodeIdx,
            LeaderPolicy::RotatePerHeight => ((view + seq) % self.n as u64) as NodeIdx,
        }
    }
}

/// PBFT wire messages.
#[derive(Clone, Debug)]
pub enum PbftMsg<P> {
    /// A client request (injected by the harness to every replica).
    Request(P),
    /// Primary's proposal for a slot.
    PrePrepare {
        /// Proposal view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Proposed payload.
        payload: P,
    },
    /// Phase-2 vote.
    Prepare {
        /// Vote view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: u64,
    },
    /// Phase-3 vote.
    Commit {
        /// Vote view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: u64,
    },
    /// Vote to move to `new_view`, carrying the sender's prepared slots.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// Slots the sender prepared (2f+1 prepares) but not decided.
        prepared: Vec<(u64, P)>,
        /// The sender's contiguous delivered watermark (peers ahead of it
        /// respond with `Decided` state transfer).
        delivered: u64,
    },
    /// New primary's announcement re-proposing slots in `view`.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposals `(seq, payload)`.
        proposals: Vec<(u64, P)>,
    },
    /// State-transfer aid: "I decided `payload` at `seq`". A replica
    /// adopts a slot once `f + 1` distinct peers assert the same decision
    /// (at least one of them is honest and only asserts after deciding).
    Decided {
        /// The decided slot.
        seq: u64,
        /// The decided payload.
        payload: P,
    },
}

impl<P: Payload> Message for PbftMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            PbftMsg::Request(p) => 24 + p.wire_size(),
            PbftMsg::PrePrepare { payload, .. } => 48 + payload.wire_size(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 48,
            PbftMsg::ViewChange { prepared, .. } => {
                64 + prepared.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            PbftMsg::NewView { proposals, .. } => {
                64 + proposals.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            PbftMsg::Decided { payload, .. } => 32 + payload.wire_size(),
        }
    }

    /// The only PBFT message a Byzantine sender can usefully fork is the
    /// proposal: same `(view, seq)`, conflicting payload.
    fn equivocate(&self) -> Option<Self> {
        match self {
            PbftMsg::PrePrepare { view, seq, payload } => {
                payload.forked().map(|p| PbftMsg::PrePrepare { view: *view, seq: *seq, payload: p })
            }
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Slot<P> {
    /// The accepted proposal for this slot: (view, digest, payload).
    accepted: Option<(u64, u64, P)>,
    /// Prepare votes keyed by (view, digest).
    prepares: Tally<(u64, u64)>,
    /// Commit votes keyed by (view, digest).
    commits: Tally<(u64, u64)>,
    sent_commit: bool,
    decided: bool,
}

impl<P> Default for Slot<P> {
    fn default() -> Self {
        Slot {
            accepted: None,
            prepares: Tally::default(),
            commits: Tally::default(),
            sent_commit: false,
            decided: false,
        }
    }
}

/// Slots `slots` holds *prepared* (a quorum `q` of prepares) but not
/// decided — the safety cargo of a view-change message.
fn prepared_undecided<P: Clone>(slots: &BTreeMap<u64, Slot<P>>, q: usize) -> Slots<P> {
    slots
        .iter()
        .filter(|(_, s)| !s.decided)
        .filter_map(|(seq, s)| {
            let (v, d, p) = s.accepted.as_ref()?;
            s.prepares.get(&(*v, *d)).is_some_and(|set| set.len() >= q).then(|| (*seq, p.clone()))
        })
        .collect()
}

/// One PBFT replica.
#[derive(Debug)]
pub struct PbftReplica<P> {
    cfg: PbftConfig,
    slots: BTreeMap<u64, Slot<P>>,
    /// View, pending requests, assignments and view-change votes.
    vc: ViewChangeCore<P>,
    /// State-transfer tallies: (seq, digest) → asserting peers.
    decided_certs: Tally<(u64, u64)>,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// Count of view changes this replica has entered (observability).
    pub view_changes: u64,
}

impl<P: Payload> PbftReplica<P> {
    /// Creates a replica with the given configuration.
    pub fn new(cfg: PbftConfig) -> Self {
        PbftReplica {
            vc: ViewChangeCore::new(cfg.policy.label(), cfg.timeout),
            cfg,
            slots: BTreeMap::new(),
            decided_certs: Tally::default(),
            log: DecidedLog::default(),
            view_changes: 0,
        }
    }

    /// The replica's current view.
    pub fn view(&self) -> u64 {
        self.vc.view()
    }

    /// Undecided requests currently known.
    pub fn pending_len(&self) -> usize {
        self.vc.pending.len()
    }

    /// Proposes pending requests if this replica is the proposer.
    fn try_propose(&mut self, ctx: &mut Context<PbftMsg<P>>) {
        match self.cfg.policy {
            LeaderPolicy::FixedPerView => {
                let view = self.vc.view();
                if self.cfg.proposer(view, 0) != ctx.self_id {
                    return;
                }
                for (seq, _, payload) in self.vc.assign_pending() {
                    ctx.broadcast(PbftMsg::PrePrepare { view, seq, payload });
                }
            }
            LeaderPolicy::RotatePerHeight => {
                // One height in flight: the next undelivered slot.
                let (view, h) = (self.vc.view(), self.log.next_seq());
                if self.cfg.proposer(view, h) != ctx.self_id {
                    return;
                }
                // In flight if the slot accepted a proposal in this view
                // or we already assigned a payload to it (our own
                // PrePrepare may still be in transit to ourselves).
                let accepted = self.slots.get(&h).and_then(|s| s.accepted.as_ref());
                let vc = &mut self.vc;
                if accepted.is_some_and(|a| a.0 == view) || vc.assigned.values().any(|&s| s == h) {
                    return;
                }
                let Some((digest, payload)) =
                    vc.pending.iter().find(|(d, _)| !vc.assigned.contains_key(d))
                else {
                    return;
                };
                let payload = payload.clone();
                vc.assigned.insert(*digest, h);
                vc.next_assign = vc.next_assign.max(h + 1);
                ctx.broadcast(PbftMsg::PrePrepare { view, seq: h, payload });
            }
        }
    }

    fn accept_preprepare(
        &mut self,
        from: NodeIdx,
        view: u64,
        seq: u64,
        payload: P,
        ctx: &mut Context<PbftMsg<P>>,
    ) {
        if view != self.vc.view() || self.cfg.proposer(view, seq) != from {
            return;
        }
        let digest = payload.digest_u64();
        if self.vc.delivered_digests.contains(&digest) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.decided {
            return;
        }
        // Equivocation guard: accept only the first proposal per view (a
        // conflicting one or a duplicate is dropped).
        if slot.accepted.as_ref().is_some_and(|(v, _, _)| *v == view) {
            return;
        }
        slot.accepted = Some((view, digest, payload));
        slot.sent_commit = false;
        self.vc.assigned.insert(digest, seq);
        hooks::phase(self.cfg.policy.label(), ctx.self_id, ctx.now, view, "pre-prepared");
        ctx.broadcast(PbftMsg::Prepare { view, seq, digest });
        self.check_progress(seq, ctx);
    }

    fn check_progress(&mut self, seq: u64, ctx: &mut Context<PbftMsg<P>>) {
        let q = self.cfg.quorum();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.decided {
            return;
        }
        // Votes only need the accepted `(view, digest)`; the payload is
        // cloned once, when the slot decides.
        let Some((view, digest, payload)) = slot.accepted.as_ref() else {
            return;
        };
        let (view, digest) = (*view, *digest);
        if !slot.sent_commit && slot.prepares.get(&(view, digest)).is_some_and(|s| s.len() >= q) {
            slot.sent_commit = true;
            hooks::phase(self.cfg.policy.label(), ctx.self_id, ctx.now, view, "prepared");
            ctx.broadcast(PbftMsg::Commit { view, seq, digest });
        }
        let committed = slot.commits.get(&(view, digest)).is_some_and(|s| s.len() >= q);
        if committed {
            slot.decided = true;
            let payload = payload.clone();
            self.vc.decide(&mut self.log, ctx, seq, digest, payload);
            // Rotate mode: the next height's proposer may now act.
            self.try_propose(ctx);
            self.vc.arm_timer(ctx);
        }
    }

    /// Enters `new_view` (on a timeout or by joining), voting for it with
    /// this replica's prepared slots and delivered watermark.
    fn change_view(&mut self, new_view: u64, ctx: &mut Context<PbftMsg<P>>) {
        self.view_changes += 1;
        let prepared = prepared_undecided(&self.slots, self.cfg.quorum());
        let vote = PbftMsg::ViewChange { new_view, prepared, delivered: self.log.next_seq() };
        self.vc.enter_view(new_view, vote, ctx);
    }

    /// As the proposer of `new_view`, announces it once a quorum voted.
    fn maybe_new_view(&mut self, new_view: u64, ctx: &mut Context<PbftMsg<P>>) {
        let next_seq = self.log.next_seq();
        if self.cfg.proposer(new_view, next_seq) != ctx.self_id {
            return;
        }
        let (slots, q) = (&self.slots, self.cfg.quorum());
        let one_height = self.cfg.policy == LeaderPolicy::RotatePerHeight;
        let own = || prepared_undecided(slots, q);
        let Some(proposals) = self.vc.merge(new_view, q, next_seq, one_height, own) else {
            return;
        };
        hooks::leader(self.cfg.policy.label(), ctx.self_id, ctx.now, self.vc.view());
        ctx.broadcast(PbftMsg::NewView { view: self.vc.view(), proposals });
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for PbftReplica<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "pbft";

    fn request_msg(payload: P) -> PbftMsg<P> {
        PbftMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for PbftReplica<P> {
    type Msg = PbftMsg<P>;

    fn on_message(&mut self, from: NodeIdx, msg: &PbftMsg<P>, ctx: &mut Context<PbftMsg<P>>) {
        match msg {
            PbftMsg::Request(p) => {
                if self.vc.admit(p, ctx) {
                    self.try_propose(ctx);
                }
            }
            PbftMsg::PrePrepare { view, seq, payload } => {
                self.accept_preprepare(from, *view, *seq, payload.clone(), ctx);
            }
            PbftMsg::Prepare { view, seq, digest } => {
                let slot = self.slots.entry(*seq).or_default();
                slot.prepares.entry((*view, *digest)).or_default().insert(from);
                self.check_progress(*seq, ctx);
            }
            PbftMsg::Commit { view, seq, digest } => {
                let slot = self.slots.entry(*seq).or_default();
                slot.commits.entry((*view, *digest)).or_default().insert(from);
                self.check_progress(*seq, ctx);
            }
            PbftMsg::ViewChange { new_view, prepared, delivered } => {
                // A view change from a peer that is behind our delivered
                // watermark signals a straggler: assist with our decided
                // slots (PBFT's checkpoint/state transfer, simplified to
                // f+1 matching assertions).
                let decided = self.log.delivered();
                let behind = decided.partition_point(|(seq, _, _)| seq < delivered);
                for (seq, payload, _) in &decided[behind..] {
                    ctx.send(from, PbftMsg::Decided { seq: *seq, payload: payload.clone() });
                }
                if *new_view < self.vc.view() {
                    return;
                }
                // f+1 view changes: join even without timing out ourselves.
                if self.vc.vote(from, *new_view, prepared, self.cfg.f() + 1) {
                    self.change_view(*new_view, ctx);
                }
                self.maybe_new_view(*new_view, ctx);
            }
            PbftMsg::Decided { seq, payload } => {
                let digest = payload.digest_u64();
                if self.vc.delivered_digests.contains(&digest) {
                    return;
                }
                let voters = self.decided_certs.entry((*seq, digest)).or_default();
                voters.insert(from);
                if voters.len() > self.cfg.f() {
                    // f+1 assertions ⇒ at least one honest decider.
                    self.slots.entry(*seq).or_default().decided = true;
                    self.vc.decide(&mut self.log, ctx, *seq, digest, payload.clone());
                    self.vc.arm_timer(ctx);
                }
            }
            PbftMsg::NewView { view, proposals } => {
                if *view < self.vc.view() {
                    return;
                }
                // Only accept from the legitimate new primary. IBFT mode
                // lets any peer pass (ROADMAP item 2).
                if self.cfg.proposer(*view, self.log.next_seq()) != from
                    && self.cfg.policy == LeaderPolicy::FixedPerView
                {
                    return;
                }
                self.vc.install(*view);
                for (seq, payload) in proposals {
                    self.accept_preprepare(from, *view, *seq, payload.clone(), ctx);
                }
                self.vc.arm_timer(ctx);
            }
        }
    }

    fn on_timer(&mut self, timer_view: u64, ctx: &mut Context<PbftMsg<P>>) {
        // Fire only if we are still in the view the timer guarded and
        // requests remain undecided.
        if self.vc.timed_out(timer_view) {
            self.change_view(self.vc.view() + 1, ctx);
        }
    }
}

/// PBFT's stable-storage checkpoint (opaque): the current view plus the
/// message log — accepted proposals with their prepare/commit
/// certificates — and every decision, per Castro–Liskov's requirement
/// that protocol messages hit stable storage before being acted on.
/// Client-request buffers and view-change tallies are volatile (clients
/// retransmit; view changes re-run).
#[derive(Clone, Debug)]
pub struct PbftStable<P> {
    view: u64,
    slots: BTreeMap<u64, Slot<P>>,
    delivered_digests: FxHashSet<u64>,
    decided: Vec<(u64, P, SimTime)>,
}

/// Encodes a `(view, digest) → voters` vote map with deterministic
/// ordering (keys sorted, voters ascending).
fn encode_votes(e: &mut pbc_types::encode::Encoder, votes: &Tally<(u64, u64)>) {
    let mut keys: Vec<&(u64, u64)> = votes.keys().collect();
    keys.sort_unstable();
    e.u64(keys.len() as u64);
    for key in keys {
        e.u64(key.0).u64(key.1);
        votes[key].encode(e);
    }
}

/// Reads what [`encode_votes`] wrote for a cluster of `n`; `None` on a
/// voter outside the cluster or listed twice.
fn decode_votes(d: &mut pbc_types::encode::Decoder<'_>, n: usize) -> Option<Tally<(u64, u64)>> {
    let keys = d.u64()? as usize;
    let mut votes = Tally::default();
    for _ in 0..keys {
        let view = d.u64()?;
        let digest = d.u64()?;
        votes.insert((view, digest), Voters::decode(d, n)?);
    }
    Some(votes)
}

/// What one slot looked like when it was last persisted. Votes are only
/// ever added and an accepted proposal is only replaced by one of a
/// later view, so a slot changed exactly when its stamp did.
#[derive(Clone, Copy, Debug, PartialEq)]
struct SlotStamp {
    /// `(view, digest)` of the accepted proposal.
    accepted: Option<(u64, u64)>,
    prepares: usize,
    commits: usize,
    sent_commit: bool,
    decided: bool,
}

impl SlotStamp {
    fn of<P>(slot: &Slot<P>) -> Self {
        SlotStamp {
            accepted: slot.accepted.as_ref().map(|(view, digest, _)| (*view, *digest)),
            prepares: slot.prepares.values().map(Voters::len).sum(),
            commits: slot.commits.values().map(Voters::len).sum(),
            sent_commit: slot.sent_commit,
            decided: slot.decided,
        }
    }
}

/// What a replica's last checkpoint record covers: enough to tell, from
/// the replica alone and with nothing recorded in its message handlers,
/// which slots were touched and which decisions are new.
#[derive(Debug, Default, PartialEq)]
pub struct PbftMark {
    slots: BTreeMap<u64, SlotStamp>,
    /// Length of the delivered prefix.
    delivered: usize,
    /// Decisions known beyond the delivered prefix, by slot.
    buffered: Vec<u64>,
    /// Size of `delivered_digests`.
    digests: usize,
}

impl<P: crate::common::PersistPayload> Durable for PbftReplica<P> {
    type Stable = PbftStable<P>;
    type Mark = PbftMark;

    fn checkpoint(&self) -> PbftStable<P> {
        PbftStable {
            view: self.vc.view(),
            slots: self.slots.clone(),
            delivered_digests: self.vc.delivered_digests.clone(),
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: PbftStable<P>) -> Self {
        let mut r = PbftReplica::new(crashed.cfg.clone());
        let accepted = stable.slots.iter().map(|(seq, s)| (*seq, s.accepted.as_ref().map(|a| a.1)));
        r.vc.restore(stable.view, stable.delivered_digests, accepted.collect());
        r.slots = stable.slots;
        r.log = DecidedLog::from_snapshot(0, stable.decided);
        r
    }

    /// The record: the view; every slot whose stamp moved since `mark`,
    /// whole except that a proposal the mark already covers is not
    /// repeated; the decisions `mark` does not cover, a payload that is
    /// its slot's accepted proposal by reference — each payload once.
    fn encode_since(&self, mark: &mut PbftMark) -> Vec<u8> {
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(self.vc.view());

        // Slots are never dropped, so the mark's are a subsequence of
        // the replica's and one pass pairs them up.
        let mut touched = Vec::new();
        let mut covered = mark.slots.iter().peekable();
        for (seq, slot) in &self.slots {
            let before = covered.next_if(|(s, _)| *s == seq).map(|(_, stamp)| *stamp);
            let stamp = SlotStamp::of(slot);
            if before != Some(stamp) {
                touched.push((*seq, slot, before, stamp));
            }
        }
        e.u64(touched.len() as u64);
        for (seq, slot, before, stamp) in &touched {
            e.u64(*seq);
            match &slot.accepted {
                None => e.tag(0),
                Some(_) if before.is_some_and(|b| b.accepted == stamp.accepted) => e.tag(2),
                Some((view, digest, payload)) => {
                    e.tag(1).u64(*view).u64(*digest).bytes(&payload.to_bytes())
                }
            };
            encode_votes(&mut e, &slot.prepares);
            encode_votes(&mut e, &slot.commits);
            e.tag(slot.sent_commit as u8).tag(slot.decided as u8);
        }
        mark.slots.extend(touched.iter().map(|(seq, _, _, stamp)| (*seq, *stamp)));

        let delivered = self.log.delivered();
        let fresh: Vec<(u64, &P, SimTime)> = delivered[mark.delivered.min(delivered.len())..]
            .iter()
            .map(|(seq, payload, time)| (*seq, payload, *time))
            .chain(self.log.buffered())
            .filter(|(seq, ..)| !mark.buffered.contains(seq))
            .collect();
        // Every decision adds its digest to `delivered_digests`, so the
        // set is normally implied; when the counts say otherwise (one
        // payload decided in two slots) it is written out whole.
        let mut fresh_digests: Vec<u64> = fresh.iter().map(|(_, p, _)| p.digest_u64()).collect();
        fresh_digests.sort_unstable();
        fresh_digests.dedup();
        let implied = fresh_digests.len() == fresh.len()
            && self.vc.delivered_digests.len() == mark.digests + fresh.len()
            && fresh_digests.iter().all(|d| self.vc.delivered_digests.contains(d));
        if implied {
            e.tag(0);
        } else {
            crate::common::encode_digests(e.tag(1), &self.vc.delivered_digests);
        }
        e.u64((mark.delivered + mark.buffered.len()) as u64);
        e.u64(fresh.len() as u64);
        for (seq, payload, time) in &fresh {
            e.u64(*seq).u64(*time);
            let accepted = self.slots.get(seq).and_then(|slot| slot.accepted.as_ref());
            if accepted.is_some_and(|(_, _, proposal)| proposal == *payload) {
                e.tag(0);
            } else {
                e.tag(1).bytes(&payload.to_bytes());
            }
        }
        mark.delivered = delivered.len();
        mark.buffered = self.log.buffered().map(|(seq, ..)| seq).collect();
        mark.digests = self.vc.delivered_digests.len();
        e.finish()
    }

    fn apply(crashed: &Self, stable: &mut PbftStable<P>, record: &[u8]) -> Option<()> {
        // Decode and check everything first; `stable` changes only once
        // the whole record is known to follow it.
        let mut d = pbc_types::encode::Decoder::new(record);
        let view = d.u64()?;
        let n_slots = d.u64()? as usize;
        let mut slots: BTreeMap<u64, Slot<P>> = BTreeMap::new();
        for _ in 0..n_slots {
            let seq = d.u64()?;
            let accepted = match d.tag()? {
                0 => None,
                1 => {
                    let v = d.u64()?;
                    let digest = d.u64()?;
                    let payload = P::from_bytes(d.bytes()?)?;
                    Some((v, digest, payload))
                }
                2 => Some(stable.slots.get(&seq)?.accepted.clone()?),
                _ => return None,
            };
            let prepares = decode_votes(&mut d, crashed.cfg.n)?;
            let commits = decode_votes(&mut d, crashed.cfg.n)?;
            let sent_commit = crate::common::decode_flag(&mut d)?;
            let decided = crate::common::decode_flag(&mut d)?;
            slots.insert(seq, Slot { accepted, prepares, commits, sent_commit, decided });
        }
        let digests = match d.tag()? {
            0 => None,
            1 => Some(crate::common::decode_digests(&mut d)?),
            _ => return None,
        };
        if d.u64()? != stable.decided.len() as u64 {
            return None;
        }
        let n_decided = d.u64()? as usize;
        let mut decided: Vec<(u64, P, SimTime)> = Vec::with_capacity(n_decided.min(1024));
        let mut decided_digests = Vec::with_capacity(n_decided.min(1024));
        for _ in 0..n_decided {
            let seq = d.u64()?;
            let time = d.u64()?;
            let known = stable.decided.binary_search_by_key(&seq, |(s, ..)| *s).is_ok();
            if known || decided.last().is_some_and(|(last, ..)| *last >= seq) {
                return None;
            }
            let (digest, payload) = match d.tag()? {
                0 => {
                    let slot = slots.get(&seq).or_else(|| stable.slots.get(&seq))?;
                    let (_, digest, payload) = slot.accepted.as_ref()?;
                    (*digest, payload.clone())
                }
                1 => {
                    let payload = P::from_bytes(d.bytes()?)?;
                    (payload.digest_u64(), payload)
                }
                _ => return None,
            };
            decided_digests.push(digest);
            decided.push((seq, payload, time));
        }
        if !d.is_empty() {
            return None;
        }

        stable.view = view;
        stable.slots.extend(slots);
        match digests {
            Some(all) => stable.delivered_digests = all,
            None => stable.delivered_digests.extend(decided_digests),
        }
        for entry in decided {
            let at = stable.decided.partition_point(|(seq, ..)| *seq < entry.0);
            stable.decided.insert(at, entry);
        }
        Some(())
    }

    fn blank_stable(_crashed: &Self) -> PbftStable<P> {
        PbftStable {
            view: 0,
            slots: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            decided: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing;
    use pbc_sim::actor::Effect;
    use pbc_sim::{Network, NetworkConfig};

    fn cluster(n: usize, seed: u64, policy: LeaderPolicy) -> Network<PbftReplica<u64>> {
        let mut cfg = PbftConfig::new(n);
        cfg.policy = policy;
        let actors = (0..n).map(|_| PbftReplica::new(cfg.clone())).collect();
        Network::new(actors, NetworkConfig { seed, ..Default::default() })
    }

    fn submit(net: &mut Network<PbftReplica<u64>>, payload: u64) {
        // Clients broadcast requests to every replica.
        for i in 0..net.len() {
            net.inject(0, i, PbftMsg::Request(payload), 1);
        }
    }

    fn assert_agreement(net: &Network<PbftReplica<u64>>, expected: usize) {
        let reference: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(reference.len(), expected, "node 0 delivered count");
        for i in 1..net.len() {
            if net.is_crashed(i) {
                continue;
            }
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, reference, "node {i} diverged");
        }
    }

    #[test]
    fn four_nodes_decide_one_request() {
        let mut net = cluster(4, 1, LeaderPolicy::FixedPerView);
        submit(&mut net, 42);
        net.run_to_quiescence(100_000);
        assert_agreement(&net, 1);
    }

    #[test]
    fn pipelined_requests_decide_in_order() {
        let mut net = cluster(4, 2, LeaderPolicy::FixedPerView);
        for p in 1..=20u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        assert_agreement(&net, 20);
    }

    #[test]
    fn ibft_mode_rotates_proposers() {
        let mut net = cluster(4, 3, LeaderPolicy::RotatePerHeight);
        for p in 1..=8u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(2_000_000);
        assert_agreement(&net, 8);
        // Heights rotate proposers: the decided log is identical anyway,
        // and no view change was needed.
        assert_eq!(net.actor(0).view_changes, 0);
    }

    #[test]
    fn survives_backup_crash() {
        let mut net = cluster(4, 4, LeaderPolicy::FixedPerView);
        net.crash(2); // backup, not primary (primary of view 0 is node 0)
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 5);
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers() {
        let mut net = cluster(4, 5, LeaderPolicy::FixedPerView);
        net.crash(0); // primary of view 0
        submit(&mut net, 7);
        // Allow timers to fire and the new view to decide.
        net.run_to_quiescence(5_000_000);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![7], "node {i}");
            assert!(net.actor(i).view() >= 1, "node {i} must have changed view");
        }
    }

    #[test]
    fn seven_nodes_tolerate_two_crashes() {
        let mut net = cluster(7, 6, LeaderPolicy::FixedPerView);
        net.crash(3);
        net.crash(5);
        for p in 1..=10u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(2_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 10);
    }

    #[test]
    fn duplicate_requests_decided_once() {
        let mut net = cluster(4, 7, LeaderPolicy::FixedPerView);
        submit(&mut net, 42);
        submit(&mut net, 42);
        submit(&mut net, 42);
        net.run_to_quiescence(500_000);
        assert_agreement(&net, 1);
    }

    #[test]
    fn message_complexity_is_quadratic() {
        // Doubling n should roughly quadruple messages per decision.
        let count = |n: usize| {
            let mut net = cluster(n, 8, LeaderPolicy::FixedPerView);
            submit(&mut net, 1);
            net.run_to_quiescence(1_000_000);
            assert_eq!(net.actor(0).log.len(), 1);
            net.stats().msgs_sent as f64
        };
        let m4 = count(4);
        let m8 = count(8);
        let ratio = m8 / m4;
        assert!(ratio > 2.5, "expected superlinear growth, got {m4} → {m8} (ratio {ratio:.2})");
    }

    /// A Byzantine primary that equivocates: different payloads to
    /// different replicas for the same slot.
    #[allow(clippy::large_enum_variant)]
    enum TestNode {
        Honest(PbftReplica<u64>),
        EquivocatingPrimary { proposed: bool },
    }

    impl Actor for TestNode {
        type Msg = PbftMsg<u64>;
        fn on_message(
            &mut self,
            from: NodeIdx,
            msg: &PbftMsg<u64>,
            ctx: &mut Context<PbftMsg<u64>>,
        ) {
            match self {
                TestNode::Honest(r) => r.on_message(from, msg, ctx),
                TestNode::EquivocatingPrimary { proposed } => {
                    if let PbftMsg::Request(_) = msg {
                        if !*proposed {
                            *proposed = true;
                            // Send conflicting proposals for seq 0.
                            for to in 0..ctx.n {
                                let payload = 1000 + (to % 2) as u64;
                                ctx.send(to, PbftMsg::PrePrepare { view: 0, seq: 0, payload });
                            }
                        }
                    }
                    // Otherwise stay silent (worst case: no progress help).
                }
            }
        }
        fn on_timer(&mut self, id: u64, ctx: &mut Context<PbftMsg<u64>>) {
            if let TestNode::Honest(r) = self {
                r.on_timer(id, ctx);
            }
        }
    }

    #[test]
    fn equivocating_primary_cannot_split_honest_replicas() {
        let cfg = PbftConfig::new(4);
        let actors: Vec<TestNode> = (0..4)
            .map(|i| {
                if i == 0 {
                    TestNode::EquivocatingPrimary { proposed: false }
                } else {
                    TestNode::Honest(PbftReplica::new(cfg.clone()))
                }
            })
            .collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 9, ..Default::default() });
        for i in 0..4 {
            net.inject(0, i, PbftMsg::Request(7), 1);
        }
        net.run_to_quiescence(10_000_000);
        // The equivocation (1000 to half, 1001 to the other half) must not
        // decide; after view change, the honest request 7 decides. All
        // honest logs must agree.
        let mut logs = Vec::new();
        for i in 1..4 {
            if let TestNode::Honest(r) = net.actor(i) {
                let log: Vec<u64> = r.log.delivered().iter().map(|(_, p, _)| *p).collect();
                assert!(
                    !log.contains(&1000) || !log.contains(&1001),
                    "node {i} decided both equivocated payloads"
                );
                logs.push(log);
            }
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        assert!(logs[0].contains(&7), "honest request must eventually decide: {logs:?}");
    }

    #[test]
    fn ibft_survives_proposer_crash() {
        let mut net = cluster(4, 10, LeaderPolicy::RotatePerHeight);
        net.crash(0); // proposer of height 0 in view 0
        submit(&mut net, 5);
        net.run_to_quiescence(5_000_000);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![5], "node {i}");
        }
    }

    #[test]
    fn hybrid_quorum_math() {
        // u=2 total faults, r=1 Byzantine: 6 replicas, quorum 4.
        let cfg = PbftConfig::hybrid(2, 1);
        assert_eq!(cfg.n, 6);
        assert_eq!(cfg.quorum(), 4);
        assert_eq!(cfg.f(), 1);
        // Crash-only hybrid (r=0) degenerates to majority quorums.
        let cft = PbftConfig::hybrid(2, 0);
        assert_eq!(cft.n, 5);
        assert_eq!(cft.quorum(), 3);
    }

    #[test]
    fn hybrid_tolerates_u_crashes_with_fewer_nodes_than_pbft() {
        // Tolerating u=2, r=1 needs n=6 here; classic PBFT would need
        // 3·2+1 = 7 to survive two arbitrary faults. Crash two backups.
        let cfg = PbftConfig::hybrid(2, 1);
        let actors = (0..cfg.n).map(|_| PbftReplica::new(cfg.clone())).collect();
        let mut net: Network<PbftReplica<u64>> =
            Network::new(actors, NetworkConfig { seed: 21, ..Default::default() });
        net.crash(4);
        net.crash(5);
        for p in 1..=6u64 {
            for i in 0..net.len() {
                net.inject(0, i, PbftMsg::Request(p), 1);
            }
        }
        net.run_to_quiescence(2_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 6);
        for i in 1..4 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, log0, "node {i}");
        }
    }

    #[test]
    fn hybrid_equivocating_primary_cannot_split_network() {
        // n=6, quorum=4: two quorums intersect in 2 ≥ r+1 nodes, so an
        // equivocating primary (the one allowed Byzantine fault) cannot
        // get both conflicting payloads decided.
        let cfg = PbftConfig::hybrid(2, 1);
        let actors: Vec<TestNode> = (0..cfg.n)
            .map(|i| {
                if i == 0 {
                    TestNode::EquivocatingPrimary { proposed: false }
                } else {
                    TestNode::Honest(PbftReplica::new(cfg.clone()))
                }
            })
            .collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 22, ..Default::default() });
        for i in 0..6 {
            net.inject(0, i, PbftMsg::Request(7), 1);
        }
        net.run_to_quiescence(10_000_000);
        let mut logs = Vec::new();
        for i in 1..6 {
            if let TestNode::Honest(r) = net.actor(i) {
                let log: Vec<u64> = r.log.delivered().iter().map(|(_, p, _)| *p).collect();
                assert!(
                    !(log.contains(&1000) && log.contains(&1001)),
                    "node {i} decided both equivocated payloads"
                );
                logs.push(log);
            }
        }
        for w in logs.windows(2) {
            assert_eq!(w[0], w[1], "honest replicas diverged");
        }
        assert!(logs[0].contains(&7), "honest request must decide: {logs:?}");
    }

    #[test]
    fn snapshot_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(4, 31, LeaderPolicy::FixedPerView);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        for i in 0..4 {
            let back = testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.decided, net.actor(i).checkpoint().decided, "node {i}");
            assert!(!back.decided.is_empty(), "node {i} decided something");
        }
    }

    /// The checkpoint a replica would take now, as canonical bytes.
    fn checkpoint_bytes(actor: &PbftReplica<u64>) -> Vec<u8> {
        testing::snapshot(actor)
    }

    /// Records taken along a run — through a view change and a replica
    /// that catches up out of order — folded in order, are the
    /// checkpoint; none grows with the log.
    #[test]
    fn records_fold_to_the_checkpoint_and_do_not_grow_with_the_log() {
        for policy in [LeaderPolicy::FixedPerView, LeaderPolicy::RotatePerHeight] {
            let mut net = cluster(4, 33, policy);
            let mut marks: Vec<PbftMark> = (0..4).map(|_| PbftMark::default()).collect();
            let mut records: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 4];
            for wave in 0..24u64 {
                match wave {
                    8 => net.crash(0),    // view change: accepted proposals are replaced
                    12 => net.recover(0), // node 0 catches up by state transfer
                    _ => {}
                }
                for p in 0..2 {
                    submit(&mut net, 1_000 + wave * 2 + p);
                }
                // Stop mid-flight on odd waves: slots persist half-voted.
                net.run_until(net.now() + if wave % 2 == 1 { 700 } else { 400_000 });
                for i in (0..4).filter(|&i| !net.is_crashed(i)) {
                    records[i].push(net.actor(i).encode_since(&mut marks[i]));
                    let folded = testing::fold(net.actor(i), &records[i]);
                    assert_eq!(
                        checkpoint_bytes(&PbftReplica::restore(net.actor(i), folded)),
                        checkpoint_bytes(net.actor(i)),
                        "{policy:?} node {i} wave {wave}"
                    );
                }
            }
            assert!(net.actor(1).view() >= 1, "{policy:?}: the run changed view");
            assert!(net.actor(1).log.len() >= 40, "{policy:?}: {}", net.actor(1).log.len());
            let node = &records[1];
            let (early, late) = (node[2].len() + node[3].len(), node[22].len() + node[23].len());
            assert!(late <= 2 * early, "{policy:?}: records grew with the log: {early} -> {late}");
        }
    }

    #[test]
    fn a_record_that_does_not_follow_the_state_is_rejected_whole() {
        let mut net = cluster(4, 34, LeaderPolicy::FixedPerView);
        let mut mark = PbftMark::default();
        let mut records = Vec::new();
        for p in 1..=3u64 {
            submit(&mut net, p);
            net.run_to_quiescence(1_000_000);
            records.push(net.actor(2).encode_since(&mut mark));
        }
        let actor = net.actor(2);
        // Record 3 onto record 1: its decisions start where record 2's
        // ended, and its unchanged proposals are ones record 2 carried.
        let mut stable = PbftReplica::blank_stable(actor);
        PbftReplica::apply(actor, &mut stable, &records[0]).expect("the snapshot applies");
        let before = checkpoint_bytes(&PbftReplica::restore(actor, stable.clone()));
        assert!(PbftReplica::apply(actor, &mut stable, &records[2]).is_none());
        assert!(PbftReplica::apply(actor, &mut stable, &records[0]).is_none(), "nor twice");
        assert_eq!(checkpoint_bytes(&PbftReplica::restore(actor, stable)), before);
    }

    #[test]
    fn a_payload_is_written_once_per_record() {
        // A decided slot holds its payload twice in memory (the accepted
        // proposal and the decision); a record holds it once.
        #[derive(Clone, Debug, PartialEq)]
        struct Blob(u64);
        impl Payload for Blob {
            fn digest_u64(&self) -> u64 {
                self.0.digest_u64()
            }
        }
        impl crate::common::PersistPayload for Blob {
            fn to_bytes(&self) -> Vec<u8> {
                self.0.to_be_bytes().repeat(128)
            }
            fn from_bytes(bytes: &[u8]) -> Option<Self> {
                (bytes.len() == 1024)
                    .then(|| Blob(u64::from_be_bytes(bytes[..8].try_into().unwrap())))
            }
        }
        let cfg = PbftConfig::new(4);
        let actors = (0..4).map(|_| PbftReplica::<Blob>::new(cfg.clone())).collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 35, ..Default::default() });
        let mut mark = PbftMark::default();
        for wave in 0..3u64 {
            for p in 0..4 {
                net.inject_all(0, PbftMsg::Request(Blob(wave * 4 + p)), 1);
            }
            net.run_to_quiescence(1_000_000);
            let record = net.actor(1).encode_since(&mut mark);
            assert!(
                (4 * 1024..5 * 1024 + 512).contains(&record.len()),
                "wave {wave}: {} bytes for four 1 KiB payloads",
                record.len()
            );
        }
    }

    /// Hands `msg` from `from` to replica 5 of `n`, outside any simulator.
    fn deliver(r: &mut PbftReplica<u64>, n: usize, from: NodeIdx, msg: PbftMsg<u64>, now: SimTime) {
        r.on_message(from, &msg, &mut Context::standalone(now, 5, n));
    }

    const PINNED_N: usize = 70;

    /// Replica 5 of 70 brought to a fixed state by hand-delivered
    /// messages, no scheduling involved: voters on both sides of a
    /// 64-bit word boundary, two `(view, digest)` keys in one slot, a
    /// slot voted on before its proposal, a decision buffered behind an
    /// undecided slot — then the snapshot record and one extension.
    fn pinned_records() -> (PbftReplica<u64>, [Vec<u8>; 2]) {
        let n = PINNED_N;
        let mut r = PbftReplica::new(PbftConfig::new(n));
        let d = |p: u64| p.digest_u64();
        deliver(&mut r, n, 0, PbftMsg::Request(7), 1);
        deliver(&mut r, n, 0, PbftMsg::Request(8), 2);
        deliver(&mut r, n, 0, PbftMsg::PrePrepare { view: 0, seq: 0, payload: 7 }, 3);
        for v in [69, 0, 64, 5, 63] {
            deliver(&mut r, n, v, PbftMsg::Prepare { view: 0, seq: 0, digest: d(7) }, 4);
        }
        deliver(&mut r, n, 1, PbftMsg::Prepare { view: 0, seq: 0, digest: 999 }, 5);
        for v in [64, 1, 0] {
            deliver(&mut r, n, v, PbftMsg::Commit { view: 0, seq: 0, digest: d(7) }, 6);
        }
        deliver(&mut r, n, 66, PbftMsg::Prepare { view: 0, seq: 2, digest: d(9) }, 7);
        let mut mark = PbftMark::default();
        let snapshot = r.encode_since(&mut mark);
        deliver(&mut r, n, 0, PbftMsg::PrePrepare { view: 0, seq: 1, payload: 8 }, 8);
        for v in 40..64 {
            deliver(&mut r, n, v, PbftMsg::Decided { seq: 1, payload: 8 }, 9);
        }
        deliver(&mut r, n, 65, PbftMsg::Commit { view: 0, seq: 0, digest: d(7) }, 10);
        let extension = r.encode_since(&mut mark);
        (r, [snapshot, extension])
    }

    /// The record format is pinned byte for byte: how voters are held in
    /// memory must not change what reaches the disk.
    #[test]
    fn pinned_records_are_byte_identical() {
        let records = pinned_records().1.concat();
        assert_eq!(
            pbc_crypto::sha256(&records).to_hex(),
            "c73b2ccce78d65348481dfee8ab3b21e5199c74e680d879f1798125a1fd25d56",
            "{} bytes",
            records.len()
        );
    }

    /// A record of one empty slot whose prepares for `(0, 42)` are `voters`.
    fn record_with_prepare_voters(voters: &[u64]) -> Vec<u8> {
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(0).u64(1).u64(0).tag(0); // view 0; one slot: seq 0, no proposal
        e.u64(1).u64(0).u64(42).u64(voters.len() as u64);
        for v in voters {
            e.u64(*v);
        }
        e.u64(0).tag(0).tag(0); // no commits, not sent, not decided
        e.tag(0).u64(0).u64(0); // no decisions before, none now
        e.finish()
    }

    #[test]
    fn a_record_naming_a_voter_outside_the_cluster_or_twice_is_refused() {
        let actor = PbftReplica::<u64>::new(PbftConfig::new(4));
        let mut stable = PbftReplica::blank_stable(&actor);
        let valid = record_with_prepare_voters(&[0, 3]);
        PbftReplica::apply(&actor, &mut stable, &valid).expect("voters 0 and 3 of 4 apply");
        let before = checkpoint_bytes(&PbftReplica::restore(&actor, stable.clone()));
        for voters in [&[1, 4][..], &[u64::MAX], &[2, 2]] {
            let record = record_with_prepare_voters(voters);
            assert!(PbftReplica::apply(&actor, &mut stable, &record).is_none(), "{voters:?}");
        }
        assert_eq!(checkpoint_bytes(&PbftReplica::restore(&actor, stable)), before);
    }

    /// The view-1 primary of four, handed two view changes that report
    /// `(slot 0, 7)` and one from node 0 that reports `(slot 0, 666)`,
    /// announces the same `NewView` in every fresh replica: the merge
    /// reads the votes in ascending sender order. The lowest sender's
    /// report wins, so a forger at node 0 still gets 666 re-proposed;
    /// votes that carry prepared certificates (ROADMAP item 2) fix that.
    #[test]
    fn the_new_view_merge_is_the_same_in_every_replica() {
        let new_view = || {
            let mut r = PbftReplica::<u64>::new(PbftConfig::new(4));
            let mut announced = Vec::new();
            for (from, payload) in [(2, 7), (0, 666), (3, 7)] {
                let msg =
                    PbftMsg::ViewChange { new_view: 1, prepared: vec![(0, payload)], delivered: 0 };
                let mut ctx = Context::standalone(1, 1, 4);
                r.on_message(from, &msg, &mut ctx);
                for effect in ctx.take_effects() {
                    if let Effect::Broadcast { msg: PbftMsg::NewView { proposals, .. } } = effect {
                        announced.push(proposals);
                    }
                }
            }
            announced
        };
        let first = new_view();
        assert_eq!(first, vec![vec![(0, 666)]]);
        for _ in 1..20 {
            assert_eq!(new_view(), first);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Damage anywhere in a record never panics `apply`, and a state
        /// it accepts names only replicas as voters.
        #[test]
        fn a_damaged_record_never_admits_a_stranger(
            extension in proptest::prelude::any::<bool>(),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..=255), 1..4),
        ) {
            let (actor, [snapshot, ext]) = pinned_records();
            let mut stable = PbftReplica::blank_stable(&actor);
            let mut record = if extension {
                PbftReplica::apply(&actor, &mut stable, &snapshot).expect("the snapshot applies");
                ext
            } else {
                snapshot
            };
            for (at, mask) in flips {
                let at = at % record.len();
                record[at] ^= mask;
            }
            if PbftReplica::apply(&actor, &mut stable, &record).is_some() {
                let voters = stable.slots.values().flat_map(|s| s.prepares.values().chain(s.commits.values()));
                for set in voters {
                    proptest::prop_assert!(set.iter().all(|v| v < PINNED_N), "{set:?}");
                }
            }
        }
    }
}
