//! MinBFT / A2M-PBFT-EA (Veronese et al. \[59\], Chun et al. \[21\]) — BFT
//! with trusted hardware: `n = 2f + 1` replicas, quorums of `f + 1`,
//! **two** phases instead of PBFT's three.
//!
//! The primary attests every `Prepare` through its [`crate::a2m::Usig`]
//! module; replicas process the primary's prepares in strict counter
//! order, so the attested counter doubles as the slot number and the
//! primary *cannot* equivocate (same counter, different payload) or leave
//! gaps unnoticed. With equivocation gone, the prepare/commit exchange
//! with `f + 1` matching commits suffices — this is the mechanism AHL
//! (§2.3.4) cites for shrinking committees from `3f+1` (and experiment
//! E10's subject).

use crate::a2m::{A2mVerifier, Attestation, Usig};
use crate::common::view_change::{Slots, ViewChangeCore};
use crate::common::{hooks, DecidedLog, Payload, Tally, Voters};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Actor, Context, Durable, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// MinBFT wire messages.
#[derive(Clone, Debug)]
pub enum MinBftMsg<P> {
    /// Client request.
    Request(P),
    /// Primary's attested proposal; `att.counter` orders the slots.
    Prepare {
        /// Proposal view.
        view: u64,
        /// Assigned slot.
        seq: u64,
        /// Proposed payload.
        payload: P,
        /// USIG attestation binding (view, seq, payload digest).
        att: Attestation,
    },
    /// Replica commit vote.
    Commit {
        /// Vote view.
        view: u64,
        /// Slot.
        seq: u64,
        /// Payload digest.
        digest: u64,
    },
    /// Vote to install `new_view`, carrying accepted-but-undecided slots.
    ReqViewChange {
        /// The requested view.
        new_view: u64,
        /// Sender's accepted undecided `(seq, payload)` slots.
        accepted: Vec<(u64, P)>,
    },
    /// New primary's attested view installation.
    NewView {
        /// The installed view.
        view: u64,
        /// Re-proposals for accepted slots plus fresh pending requests.
        proposals: Vec<(u64, P)>,
        /// Attestation over the new-view digest.
        att: Attestation,
    },
    /// State transfer for a replica that missed decided slots: the
    /// sender's decided log, attested as a batch by the sender's USIG.
    /// A receiver installs an entry only once `f + 1` distinct senders
    /// vouch the same `(seq, digest)` — one of them must be honest.
    CatchUp {
        /// Decided `(seq, payload)` entries.
        entries: Vec<(u64, P)>,
        /// Attestation over the batch digest.
        att: Attestation,
    },
}

impl<P: Payload> Message for MinBftMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            MinBftMsg::Request(p) => 24 + p.wire_size(),
            MinBftMsg::Prepare { payload, .. } => 88 + payload.wire_size(),
            MinBftMsg::Commit { .. } => 48,
            MinBftMsg::ReqViewChange { accepted, .. } => {
                48 + accepted.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            MinBftMsg::NewView { proposals, .. } => {
                88 + proposals.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            MinBftMsg::CatchUp { entries, .. } => {
                88 + entries.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
        }
    }
}

/// Static configuration.
#[derive(Clone, Debug)]
pub struct MinBftConfig {
    /// Number of replicas (`2f + 1`).
    pub n: usize,
    /// Progress timeout before a view change.
    pub timeout: SimTime,
    /// Trusted-setup seed for the USIG modules.
    pub a2m_seed: u64,
}

impl MinBftConfig {
    /// Defaults.
    pub fn new(n: usize) -> Self {
        MinBftConfig { n, timeout: 50_000, a2m_seed: 0xA2A2 }
    }

    /// Tolerated faults (`⌊(n-1)/2⌋` — twice PBFT's for the same n).
    pub fn f(&self) -> usize {
        crate::common::quorum::a2m_f(self.n)
    }

    /// Commit quorum (`f + 1`).
    pub fn quorum(&self) -> usize {
        crate::common::quorum::a2m_quorum(self.n)
    }

    /// Primary of a view.
    pub fn primary(&self, view: u64) -> NodeIdx {
        (view % self.n as u64) as NodeIdx
    }
}

fn prepare_digest(view: u64, seq: u64, payload_digest: u64) -> u64 {
    let mut z = view
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(seq.rotate_left(21))
        .wrapping_add(payload_digest.rotate_left(42));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z ^ (z >> 27)
}

#[derive(Clone, Debug)]
struct SlotState<P> {
    payload: Option<P>,
    digest: u64,
    commits: Voters,
    decided: bool,
}

impl<P> Default for SlotState<P> {
    fn default() -> Self {
        SlotState { payload: None, digest: 0, commits: Voters::default(), decided: false }
    }
}

/// Slots `slots` accepted but not decided — the cargo of a view-change
/// request.
fn accepted_undecided<P: Clone>(slots: &BTreeMap<u64, SlotState<P>>) -> Slots<P> {
    slots
        .iter()
        .filter(|(_, s)| !s.decided)
        .filter_map(|(seq, s)| Some((*seq, s.payload.clone()?)))
        .collect()
}

/// The digest a `NewView`'s attestation binds: its view and proposals.
fn new_view_digest<P: Payload>(view: u64, proposals: &[(u64, P)]) -> u64 {
    proposals.iter().fold(view, |acc, (s, p)| acc ^ prepare_digest(view, *s, p.digest_u64()))
}

/// One MinBFT replica (owns its trusted USIG module).
#[derive(Debug)]
pub struct MinBftReplica<P> {
    cfg: MinBftConfig,
    usig: Usig,
    verifier: A2mVerifier,
    slots: BTreeMap<u64, SlotState<P>>,
    /// View, pending requests, assignments and view-change votes.
    vc: ViewChangeCore<P>,
    /// Catch-up vouchers: `(seq, digest)` → senders who attested it as
    /// decided. Volatile bookkeeping; rebuilt from scratch after a crash.
    catchup_votes: Tally<(u64, u64)>,
    /// Payloads carried by catch-up vouchers, keyed by digest.
    catchup_payloads: FxHashMap<u64, P>,
    /// The in-order decided log.
    pub log: DecidedLog<P>,
    /// View changes entered (observability).
    pub view_changes: u64,
}

impl<P: Payload> MinBftReplica<P> {
    /// Creates replica `id` with its provisioned trusted module.
    pub fn new(cfg: MinBftConfig, id: NodeIdx) -> Self {
        let usig = Usig::new(cfg.a2m_seed, id);
        let verifier = A2mVerifier::new(cfg.a2m_seed, cfg.n);
        MinBftReplica {
            usig,
            verifier,
            slots: BTreeMap::new(),
            vc: ViewChangeCore::new("minbft", cfg.timeout),
            catchup_votes: Tally::default(),
            catchup_payloads: FxHashMap::default(),
            log: DecidedLog::default(),
            view_changes: 0,
            cfg,
        }
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.vc.view()
    }

    fn try_propose(&mut self, ctx: &mut Context<MinBftMsg<P>>) {
        let view = self.vc.view();
        if self.cfg.primary(view) != ctx.self_id {
            return;
        }
        let fresh = self.vc.assign_pending();
        if !fresh.is_empty() {
            hooks::leader("minbft", ctx.self_id, ctx.now, view);
        }
        for (seq, digest, payload) in fresh {
            let att = self.usig.attest(prepare_digest(view, seq, digest));
            ctx.broadcast(MinBftMsg::Prepare { view, seq, payload, att });
        }
    }

    /// Accepts `payload` into slot `seq` unless it was delivered or the
    /// slot is taken, and votes to commit it.
    fn accept(&mut self, view: u64, seq: u64, payload: &P, ctx: &mut Context<MinBftMsg<P>>) {
        let pd = payload.digest_u64();
        if self.vc.delivered_digests.contains(&pd) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.decided || slot.payload.is_some() {
            return;
        }
        slot.payload = Some(payload.clone());
        slot.digest = pd;
        self.vc.assigned.insert(pd, seq);
        ctx.broadcast(MinBftMsg::Commit { view, seq, digest: pd });
        self.check_decide(seq, ctx);
    }

    fn check_decide(&mut self, seq: u64, ctx: &Context<MinBftMsg<P>>) {
        let q = self.cfg.quorum();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.decided || slot.payload.is_none() {
            return;
        }
        if slot.commits.len() >= q {
            slot.decided = true;
            let payload = slot.payload.clone().expect("payload set");
            let pd = slot.digest;
            self.vc.decide(&mut self.log, ctx, seq, pd, payload);
        }
    }

    /// Enters `new_view` (on a timeout or by joining), requesting it
    /// with this replica's accepted slots.
    fn change_view(&mut self, new_view: u64, ctx: &mut Context<MinBftMsg<P>>) {
        self.view_changes += 1;
        let vote = MinBftMsg::ReqViewChange { new_view, accepted: accepted_undecided(&self.slots) };
        self.vc.enter_view(new_view, vote, ctx);
    }

    /// As the primary of `new_view`, announces it, attested, once a
    /// quorum requested it. The union of accepted slots across the quorum
    /// covers every slot that could have decided anywhere (f+1 ∩ f+1 ≥ 1
    /// of 2f+1).
    fn maybe_new_view(&mut self, new_view: u64, ctx: &mut Context<MinBftMsg<P>>) {
        if self.cfg.primary(new_view) != ctx.self_id {
            return;
        }
        let slots = &self.slots;
        let own = || accepted_undecided(slots);
        let next_seq = self.log.next_seq();
        let Some(proposals) = self.vc.merge(new_view, self.cfg.quorum(), next_seq, false, own)
        else {
            return;
        };
        let att = self.usig.attest(new_view_digest(new_view, &proposals));
        ctx.broadcast(MinBftMsg::NewView { view: new_view, proposals, att });
    }

    /// Order-independent digest of a catch-up batch. The `u64::MAX`
    /// pseudo-view keeps it disjoint from any real prepare digest.
    fn catchup_batch_digest(entries: &[(u64, P)]) -> u64 {
        entries
            .iter()
            .fold(0xCA7C_4B01, |acc, (s, p)| acc ^ prepare_digest(u64::MAX, *s, p.digest_u64()))
    }

    /// Vouches our decided log to a replica that appears stalled.
    fn send_catchup(&mut self, to: NodeIdx, ctx: &mut Context<MinBftMsg<P>>) {
        let entries: Vec<(u64, P)> =
            self.log.snapshot().into_iter().map(|(s, p, _)| (s, p)).collect();
        if entries.is_empty() {
            return;
        }
        let att = self.usig.attest(Self::catchup_batch_digest(&entries));
        ctx.send(to, MinBftMsg::CatchUp { entries, att });
    }
}

impl<P: Payload + 'static> crate::ordering::OrderingActor for MinBftReplica<P> {
    type Payload = P;
    const PROTOCOL: &'static str = "minbft";

    fn request_msg(payload: P) -> MinBftMsg<P> {
        MinBftMsg::Request(payload)
    }

    fn log(&self) -> &DecidedLog<P> {
        &self.log
    }
}

impl<P: Payload> Actor for MinBftReplica<P> {
    type Msg = MinBftMsg<P>;

    fn on_message(&mut self, from: NodeIdx, msg: &MinBftMsg<P>, ctx: &mut Context<MinBftMsg<P>>) {
        match msg {
            MinBftMsg::Request(p) => {
                if self.vc.admit(p, ctx) {
                    self.try_propose(ctx);
                }
            }
            MinBftMsg::Prepare { view, seq, payload, att } => {
                // Trusted-module check last: MAC valid and counter never
                // seen before. A primary equivocating on `seq` would need
                // to reuse a counter.
                if *view == self.vc.view()
                    && self.cfg.primary(*view) == from
                    && att.node == from
                    && att.digest == prepare_digest(*view, *seq, payload.digest_u64())
                    && self.verifier.verify_fresh(att)
                {
                    self.accept(*view, *seq, payload, ctx);
                }
            }
            MinBftMsg::Commit { view, seq, digest } => {
                if *view != self.vc.view() {
                    return;
                }
                let slot = self.slots.entry(*seq).or_default();
                if slot.payload.is_some() && slot.digest != *digest {
                    return; // conflicting commit for another payload
                }
                slot.commits.insert(from);
                self.check_decide(*seq, ctx);
            }
            MinBftMsg::ReqViewChange { new_view, accepted } => {
                if *new_view < self.vc.view() {
                    return;
                }
                // A replica with nothing in flight won't join the view
                // change — but the requester is usually stalled on slots
                // we already decided (it missed a prepare or the
                // commits). Vouch our decided log so it can catch up;
                // it installs a slot only once f+1 senders agree.
                if *new_view > self.vc.view() && self.vc.pending.is_empty() {
                    self.send_catchup(from, ctx);
                }
                if self.vc.vote(from, *new_view, accepted, self.cfg.quorum()) {
                    self.change_view(*new_view, ctx);
                }
                self.maybe_new_view(*new_view, ctx);
            }
            MinBftMsg::NewView { view, proposals, att } => {
                if *view < self.vc.view() || self.cfg.primary(*view) != from || att.node != from {
                    return;
                }
                if att.digest != new_view_digest(*view, proposals)
                    || !self.verifier.verify_fresh(att)
                {
                    return;
                }
                self.vc.install(*view);
                for (seq, payload) in proposals {
                    // Treat as prepares: accept and commit-vote. (Attested
                    // collectively by the NewView attestation.)
                    self.accept(*view, *seq, payload, ctx);
                }
                self.vc.arm_timer(ctx);
            }
            MinBftMsg::CatchUp { entries, att } => {
                if att.node != from
                    || att.digest != Self::catchup_batch_digest(entries)
                    || !self.verifier.verify_fresh(att)
                {
                    return;
                }
                let q = self.cfg.quorum();
                for (seq, payload) in entries {
                    let pd = payload.digest_u64();
                    if self.vc.delivered_digests.contains(&pd)
                        || self.slots.get(seq).is_some_and(|s| s.decided)
                    {
                        continue;
                    }
                    self.catchup_payloads.entry(pd).or_insert_with(|| payload.clone());
                    let votes = self.catchup_votes.entry((*seq, pd)).or_default();
                    votes.insert(from);
                    if votes.len() >= q {
                        // f+1 vouchers intersect every commit quorum in
                        // at least one honest replica: install as decided.
                        let payload = self.catchup_payloads[&pd].clone();
                        let slot = self.slots.entry(*seq).or_default();
                        slot.payload = Some(payload.clone());
                        slot.digest = pd;
                        slot.decided = true;
                        self.vc.decide(&mut self.log, ctx, *seq, pd, payload);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer_view: u64, ctx: &mut Context<MinBftMsg<P>>) {
        if self.vc.timed_out(timer_view) {
            self.change_view(self.vc.view() + 1, ctx);
        }
    }
}

/// MinBFT's stable state (opaque). Two distinct kinds of durability are
/// bundled here: the replica's *disk* (view, accepted slots, decisions,
/// the verifier's used-counter sets) and the USIG's *tamper-proof
/// counter*, which by the hardware model can never rewind — a crash
/// that forgot it would re-enable the equivocation the module exists to
/// prevent.
#[derive(Clone, Debug)]
pub struct MinBftStable<P> {
    view: u64,
    usig_counter: u64,
    verifier: A2mVerifier,
    slots: BTreeMap<u64, SlotState<P>>,
    delivered_digests: FxHashSet<u64>,
    decided: Vec<(u64, P, SimTime)>,
}

impl<P: crate::common::PersistPayload> Durable for MinBftReplica<P> {
    type Stable = MinBftStable<P>;
    /// Every record is the whole state.
    type Mark = ();

    fn checkpoint(&self) -> MinBftStable<P> {
        MinBftStable {
            view: self.vc.view(),
            usig_counter: self.usig.counter(),
            verifier: self.verifier.clone(),
            slots: self.slots.clone(),
            delivered_digests: self.vc.delivered_digests.clone(),
            decided: self.log.snapshot(),
        }
    }

    fn restore(crashed: &Self, stable: MinBftStable<P>) -> Self {
        let id = crashed.usig.node();
        let mut r = MinBftReplica::new(crashed.cfg.clone(), id);
        let accepted =
            stable.slots.iter().map(|(seq, s)| (*seq, s.payload.is_some().then_some(s.digest)));
        r.vc.restore(stable.view, stable.delivered_digests, accepted.collect());
        r.usig = Usig::resume(crashed.cfg.a2m_seed, id, stable.usig_counter);
        r.verifier = stable.verifier;
        r.slots = stable.slots;
        r.log = DecidedLog::from_snapshot(0, stable.decided);
        r
    }

    fn encode_since(&self, _mark: &mut ()) -> Vec<u8> {
        let stable = self.checkpoint();
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(stable.view).u64(stable.usig_counter);
        // The verifier's keys re-derive from (a2m_seed, n); only the
        // accepted-counter sets need to survive (a forgotten set would
        // re-admit replayed attestations).
        let used = stable.verifier.used_counters();
        e.u64(used.len() as u64);
        for (node, counters) in used {
            e.u64(node as u64).u64(counters.len() as u64);
            for c in counters {
                e.u64(c);
            }
        }
        e.u64(stable.slots.len() as u64);
        for (seq, slot) in &stable.slots {
            e.u64(*seq);
            match &slot.payload {
                Some(p) => {
                    e.tag(1).bytes(&p.to_bytes());
                }
                None => {
                    e.tag(0);
                }
            }
            e.u64(slot.digest);
            slot.commits.encode(&mut e);
            e.tag(slot.decided as u8);
        }
        crate::common::encode_digests(&mut e, &stable.delivered_digests);
        e.u64(stable.decided.len() as u64);
        for (seq, payload, time) in &stable.decided {
            e.u64(*seq).bytes(&payload.to_bytes()).u64(*time);
        }
        e.finish()
    }

    fn apply(crashed: &Self, stable: &mut MinBftStable<P>, bytes: &[u8]) -> Option<()> {
        let mut d = pbc_types::encode::Decoder::new(bytes);
        let view = d.u64()?;
        let usig_counter = d.u64()?;
        let mut verifier = A2mVerifier::new(crashed.cfg.a2m_seed, crashed.cfg.n);
        let n_nodes = d.u64()? as usize;
        for _ in 0..n_nodes {
            let node = d.u64()? as usize;
            let n_counters = d.u64()? as usize;
            for _ in 0..n_counters {
                verifier.mark_used(node, d.u64()?);
            }
        }
        let n_slots = d.u64()? as usize;
        let mut slots = BTreeMap::new();
        for _ in 0..n_slots {
            let seq = d.u64()?;
            let payload = match d.tag()? {
                0 => None,
                1 => Some(P::from_bytes(d.bytes()?)?),
                _ => return None,
            };
            let digest = d.u64()?;
            let commits = Voters::decode(&mut d, crashed.cfg.n)?;
            let decided = crate::common::decode_flag(&mut d)?;
            slots.insert(seq, SlotState { payload, digest, commits, decided });
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
        *stable = d.is_empty().then_some(MinBftStable {
            view,
            usig_counter,
            verifier,
            slots,
            delivered_digests,
            decided,
        })?;
        Some(())
    }

    fn blank_stable(crashed: &Self) -> MinBftStable<P> {
        MinBftStable {
            view: 0,
            // Even a blank disk cannot rewind the USIG: its counter lives
            // in the module's NVRAM, not on the host's disk.
            usig_counter: crashed.usig.counter(),
            verifier: A2mVerifier::new(crashed.cfg.a2m_seed, crashed.cfg.n),
            slots: BTreeMap::new(),
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

    fn cluster(n: usize, seed: u64) -> Network<MinBftReplica<u64>> {
        let cfg = MinBftConfig::new(n);
        let actors = (0..n).map(|i| MinBftReplica::new(cfg.clone(), i)).collect();
        Network::new(actors, NetworkConfig { seed, ..Default::default() })
    }

    fn submit(net: &mut Network<MinBftReplica<u64>>, p: u64) {
        for i in 0..net.len() {
            net.inject(0, i, MinBftMsg::Request(p), 1);
        }
    }

    fn logs_agree(net: &Network<MinBftReplica<u64>>, expected: usize) {
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
    fn three_nodes_decide() {
        // n = 3 = 2f+1 with f = 1: impossible for classic PBFT, fine here.
        let mut net = cluster(3, 1);
        submit(&mut net, 42);
        net.run_to_quiescence(1_000_000);
        logs_agree(&net, 1);
    }

    #[test]
    fn pipelined_requests_in_order() {
        let mut net = cluster(3, 2);
        for p in 1..=15u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(3_000_000);
        logs_agree(&net, 15);
    }

    #[test]
    fn tolerates_one_crash_with_three_nodes() {
        let mut net = cluster(3, 3);
        net.crash(2); // backup
        for p in 1..=5u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(2_000_000);
        let log0: Vec<u64> = net.actor(0).log.delivered().iter().map(|(_, p, _)| *p).collect();
        assert_eq!(log0.len(), 5);
    }

    #[test]
    fn primary_crash_view_change_recovers() {
        let mut net = cluster(3, 4);
        net.crash(0); // primary of view 0
        submit(&mut net, 7);
        net.run_to_quiescence(10_000_000);
        for i in 1..3 {
            let log: Vec<u64> = net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
            assert_eq!(log, vec![7], "node {i}");
            assert!(net.actor(i).view() >= 1);
        }
    }

    #[test]
    fn fewer_messages_than_pbft_same_fault_tolerance() {
        // Tolerating f=1: MinBFT needs n=3, PBFT needs n=4, and MinBFT
        // has one fewer phase → substantially fewer messages (E10).
        let mut minbft = cluster(3, 5);
        submit(&mut minbft, 1);
        minbft.run_to_quiescence(1_000_000);
        assert_eq!(minbft.actor(0).log.len(), 1);
        let minbft_msgs = minbft.stats().msgs_sent;

        let cfg = crate::pbft::PbftConfig::new(4);
        let actors = (0..4).map(|_| crate::pbft::PbftReplica::new(cfg.clone())).collect();
        let mut pbft: Network<crate::pbft::PbftReplica<u64>> =
            Network::new(actors, NetworkConfig { seed: 5, ..Default::default() });
        for i in 0..4 {
            pbft.inject(0, i, crate::pbft::PbftMsg::Request(1), 1);
        }
        pbft.run_to_quiescence(1_000_000);
        let pbft_msgs = pbft.stats().msgs_sent;
        assert!(minbft_msgs < pbft_msgs / 2, "minbft {minbft_msgs} vs pbft {pbft_msgs}");
    }

    /// A Byzantine primary that replays one attestation for two payloads.
    #[allow(clippy::large_enum_variant)]
    enum TestNode {
        Honest(MinBftReplica<u64>),
        ReplayingPrimary { usig: Usig, fired: bool },
    }

    impl Actor for TestNode {
        type Msg = MinBftMsg<u64>;
        fn on_message(
            &mut self,
            from: NodeIdx,
            msg: &MinBftMsg<u64>,
            ctx: &mut Context<MinBftMsg<u64>>,
        ) {
            match self {
                TestNode::Honest(r) => r.on_message(from, msg, ctx),
                TestNode::ReplayingPrimary { usig, fired } => {
                    if let MinBftMsg::Request(_) = msg {
                        if !*fired {
                            *fired = true;
                            // Attest payload 1000 once, then try to reuse
                            // the attestation for payload 1001 on half the
                            // replicas.
                            let att =
                                usig.attest(prepare_digest(0, 0, Payload::digest_u64(&1000u64)));
                            for to in 0..ctx.n {
                                let payload = if to % 2 == 0 { 1000u64 } else { 1001 };
                                ctx.send(to, MinBftMsg::Prepare { view: 0, seq: 0, payload, att });
                            }
                        }
                    }
                }
            }
        }
        fn on_timer(&mut self, id: u64, ctx: &mut Context<MinBftMsg<u64>>) {
            if let TestNode::Honest(r) = self {
                r.on_timer(id, ctx);
            }
        }
    }

    #[test]
    fn attestation_replay_equivocation_rejected() {
        let cfg = MinBftConfig::new(3);
        let actors: Vec<TestNode> = (0..3)
            .map(|i| {
                if i == 0 {
                    TestNode::ReplayingPrimary { usig: Usig::new(cfg.a2m_seed, 0), fired: false }
                } else {
                    TestNode::Honest(MinBftReplica::new(cfg.clone(), i))
                }
            })
            .collect();
        let mut net = Network::new(actors, NetworkConfig { seed: 6, ..Default::default() });
        for i in 0..3 {
            net.inject(0, i, MinBftMsg::Request(7), 1);
        }
        net.run_to_quiescence(10_000_000);
        // Replica 1 (odd) got payload 1001 with an attestation whose
        // digest binds payload 1000 → rejected outright. Replica 2 (even)
        // got the genuine pair. Neither payload can gather f+1 = 2 commits
        // from honest nodes, and the honest request 7 decides after the
        // view change.
        for i in 1..3 {
            if let TestNode::Honest(r) = net.actor(i) {
                let log: Vec<u64> = r.log.delivered().iter().map(|(_, p, _)| *p).collect();
                assert!(!log.contains(&1001), "node {i} accepted a replayed attestation");
                assert!(log.contains(&7), "node {i} must decide the honest request: {log:?}");
            }
        }
    }

    #[test]
    fn stable_codec_roundtrips_and_rejects_truncation() {
        let mut net = cluster(3, 31);
        for p in 1..=3u64 {
            submit(&mut net, p);
        }
        net.run_to_quiescence(1_000_000);
        for i in 0..3 {
            let stable = net.actor(i).checkpoint();
            assert!(!stable.decided.is_empty(), "node {i} decided something");
            let back = crate::common::testing::assert_snapshot_codec(net.actor(i));
            assert_eq!(back.usig_counter, stable.usig_counter, "USIG counter survives");
        }
    }

    const PINNED_N: usize = 70;

    /// Replica 5 of 70 brought to a fixed state by hand-delivered
    /// messages, no scheduling involved: commit voters on both sides of a
    /// 64-bit word boundary, a decided slot, a slot voted on before its
    /// prepare — then its record.
    fn pinned_record() -> (MinBftReplica<u64>, Vec<u8>) {
        let n = PINNED_N;
        let cfg = MinBftConfig::new(n);
        let mut r = MinBftReplica::new(cfg.clone(), 5);
        let mut primary = Usig::new(cfg.a2m_seed, 0);
        let deliver = |r: &mut MinBftReplica<u64>, from: NodeIdx, msg: MinBftMsg<u64>| {
            r.on_message(from, &msg, &mut Context::standalone(1, 5, n));
        };
        let d = |p: u64| Payload::digest_u64(&p);
        deliver(&mut r, 0, MinBftMsg::Request(7));
        for (seq, payload) in [(0, 7u64), (1, 8)] {
            let att = primary.attest(prepare_digest(0, seq, d(payload)));
            deliver(&mut r, 0, MinBftMsg::Prepare { view: 0, seq, payload, att });
        }
        for v in [69, 0, 64, 63] {
            deliver(&mut r, v, MinBftMsg::Commit { view: 0, seq: 0, digest: d(7) });
        }
        for v in 30..65 {
            deliver(&mut r, v, MinBftMsg::Commit { view: 0, seq: 1, digest: d(8) });
        }
        deliver(&mut r, 66, MinBftMsg::Commit { view: 0, seq: 2, digest: d(9) });
        let record = r.encode_since(&mut ());
        (r, record)
    }

    /// The record format is pinned byte for byte: how voters are held in
    /// memory must not change what reaches the disk.
    #[test]
    fn pinned_record_is_byte_identical() {
        let record = pinned_record().1;
        assert_eq!(
            pbc_crypto::sha256(&record).to_hex(),
            "c4cc2a73335df7c0d5013a77a5d9ce57173fe8acbb1dfe5fa7e44d3be34ee1e3",
            "{} bytes",
            record.len()
        );
    }

    /// A record of one slot, without a payload, committed by `voters`.
    fn record_with_commit_voters(voters: &[u64]) -> Vec<u8> {
        let mut e = pbc_types::encode::Encoder::new();
        e.u64(0).u64(0).u64(0); // view, USIG counter, no used counters
        e.u64(1).u64(0).tag(0).u64(42).u64(voters.len() as u64); // seq 0, digest 42
        for v in voters {
            e.u64(*v);
        }
        e.tag(0).u64(0).u64(0); // undecided; no digests, no decisions
        e.finish()
    }

    #[test]
    fn a_record_naming_a_voter_outside_the_cluster_or_twice_is_refused() {
        let actor = MinBftReplica::<u64>::new(MinBftConfig::new(3), 0);
        let mut stable = MinBftReplica::blank_stable(&actor);
        let valid = record_with_commit_voters(&[0, 2]);
        MinBftReplica::apply(&actor, &mut stable, &valid).expect("voters 0 and 2 of 3 apply");
        let snapshot = |stable: MinBftStable<u64>| {
            crate::common::testing::snapshot(&MinBftReplica::restore(&actor, stable))
        };
        let before = snapshot(stable.clone());
        for voters in [&[1, 3][..], &[u64::MAX], &[2, 2]] {
            let record = record_with_commit_voters(voters);
            assert!(MinBftReplica::apply(&actor, &mut stable, &record).is_none(), "{voters:?}");
        }
        assert_eq!(snapshot(stable), before);
    }

    /// The view-1 primary of three, handed view-change requests from
    /// node 2 with `(slot 0, 7)`, from node 0 with `(slot 0, 666)` and its
    /// own with `(slot 0, 7)`, announces the same `NewView`s in every
    /// fresh replica: one at the quorum of two, one more on the third
    /// request. The lowest sender's report wins (666, from node 0) until
    /// view changes carry evidence (ROADMAP item 2).
    #[test]
    fn the_new_view_merge_is_the_same_in_every_replica() {
        let new_views = || {
            let mut r = MinBftReplica::<u64>::new(MinBftConfig::new(3), 1);
            let mut announced = Vec::new();
            for (from, payload) in [(2, 7), (0, 666), (1, 7)] {
                let msg = MinBftMsg::ReqViewChange { new_view: 1, accepted: vec![(0, payload)] };
                let mut ctx = Context::standalone(1, 1, 3);
                r.on_message(from, &msg, &mut ctx);
                for effect in ctx.take_effects() {
                    if let Effect::Broadcast { msg: MinBftMsg::NewView { proposals, .. } } = effect
                    {
                        announced.push(proposals);
                    }
                }
            }
            announced
        };
        let first = new_views();
        assert_eq!(first, vec![vec![(0, 666)], vec![(0, 666)]]);
        for _ in 1..20 {
            assert_eq!(new_views(), first);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Damage anywhere in a record never panics `apply`, and a state
        /// it accepts names only replicas as voters.
        #[test]
        fn a_damaged_record_never_admits_a_stranger(
            flips in proptest::collection::vec(
                (proptest::prelude::any::<usize>(), 1u8..=255), 1..4),
        ) {
            let (actor, mut record) = pinned_record();
            for (at, mask) in flips {
                let at = at % record.len();
                record[at] ^= mask;
            }
            let mut stable = MinBftReplica::blank_stable(&actor);
            if MinBftReplica::apply(&actor, &mut stable, &record).is_some() {
                for slot in stable.slots.values() {
                    let commits = &slot.commits;
                    proptest::prop_assert!(commits.iter().all(|v| v < PINNED_N), "{commits:?}");
                }
            }
        }
    }
}
