//! The view-change core of the primary-backup replicas: PBFT with its
//! IBFT mode and hybrid quorums (§2.2, §2.3.3), and MinBFT (§2.3.4).
//!
//! [`ViewChangeCore`] holds the view, the pending requests, the
//! delivered digests, the slot assignments of the view and the
//! view-change votes, and does each shared step once. Each protocol
//! passes in what differs: the proposer rule, the quorum and join
//! thresholds, and the trace label. It keeps its catch-up path and
//! MinBFT's attestations to itself.
//!
//! Votes are kept by view, then by sender, so the merge reads senders in
//! ascending order and replicas handed the same votes re-propose the
//! same slots. Of two conflicting reports for a slot the lower sender's
//! wins, on order alone rather than evidence (ROADMAP item 2).
//! Installing a view drops the votes for lower views, which no handler
//! reads again; votes sprayed for far-future views are kept without
//! bound (ROADMAP items 2 and 4).

use super::{hooks, DecidedLog, Payload};
use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::{Context, Message, NodeIdx, SimTime};
use std::collections::BTreeMap;

/// `(seq, payload)` slots, as a view-change vote or a new view carries them.
pub type Slots<P> = Vec<(u64, P)>;

/// One replica's view, pending requests, assignments and votes.
#[derive(Debug)]
pub struct ViewChangeCore<P> {
    /// Protocol label of the trace events.
    label: &'static str,
    /// Progress timeout before a view change.
    timeout: SimTime,
    view: u64,
    /// Undecided client requests by digest.
    pub pending: BTreeMap<u64, P>,
    /// Digests already delivered (dedup across re-proposals).
    pub delivered_digests: FxHashSet<u64>,
    /// digest → seq assigned in the current view.
    pub assigned: FxHashMap<u64, u64>,
    /// Next sequence number to assign (as primary).
    pub next_assign: u64,
    /// View-change votes: new view → sender → the sender's slots.
    votes: BTreeMap<u64, BTreeMap<NodeIdx, Slots<P>>>,
}

impl<P: Payload> ViewChangeCore<P> {
    /// A core in view 0 with nothing pending.
    pub fn new(label: &'static str, timeout: SimTime) -> Self {
        ViewChangeCore {
            label,
            timeout,
            view: 0,
            pending: BTreeMap::new(),
            delivered_digests: FxHashSet::default(),
            assigned: FxHashMap::default(),
            next_assign: 0,
            votes: BTreeMap::new(),
        }
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Takes a persisted view and delivered digests, and rebuilds the
    /// assignments from the persisted `(seq, accepted digest)` slots so a
    /// recovered primary never re-assigns a sequence number.
    pub fn restore(&mut self, view: u64, digests: FxHashSet<u64>, slots: Vec<(u64, Option<u64>)>) {
        self.view = view;
        self.delivered_digests = digests;
        for (seq, digest) in slots {
            if let Some(digest) = digest {
                self.assigned.insert(digest, seq);
            }
            self.next_assign = self.next_assign.max(seq + 1);
        }
    }

    /// Admits a request neither pending nor delivered and arms the timer.
    pub fn admit<M: Message>(&mut self, payload: &P, ctx: &mut Context<M>) -> bool {
        let digest = payload.digest_u64();
        if self.delivered_digests.contains(&digest) || self.pending.contains_key(&digest) {
            return false;
        }
        self.pending.insert(digest, payload.clone());
        self.arm_timer(ctx);
        true
    }

    /// Arms the progress timer for the current view while requests are
    /// pending.
    pub fn arm_timer<M: Message>(&self, ctx: &mut Context<M>) {
        if !self.pending.is_empty() {
            ctx.set_timer(self.timeout, self.view);
        }
    }

    /// True if the timer armed in `timer_view` found that view current
    /// and requests still pending.
    pub fn timed_out(&self, timer_view: u64) -> bool {
        timer_view == self.view && !self.pending.is_empty()
    }

    /// The fixed primary's assignment: each pending request without a
    /// slot takes the next sequence number. Returns `(seq, digest,
    /// payload)` per new assignment.
    pub fn assign_pending(&mut self) -> Vec<(u64, u64, P)> {
        let mut fresh = Vec::new();
        for (digest, payload) in &self.pending {
            if !self.assigned.contains_key(digest) {
                self.assigned.insert(*digest, self.next_assign);
                fresh.push((self.next_assign, *digest, payload.clone()));
                self.next_assign += 1;
            }
        }
        fresh
    }

    /// Slot `seq` decided `payload` (digest `digest`): it leaves the
    /// pending requests and enters `log`.
    pub fn decide<M>(
        &mut self,
        log: &mut DecidedLog<P>,
        ctx: &Context<M>,
        seq: u64,
        digest: u64,
        payload: P,
    ) {
        self.pending.remove(&digest);
        self.delivered_digests.insert(digest);
        hooks::commit(self.label, ctx.self_id, ctx.now, seq, digest);
        log.decide(seq, payload, ctx.now);
    }

    /// Moves to `view` on a timeout or by joining: clears the
    /// assignments, broadcasts this replica's `vote` and arms the timer.
    pub fn enter_view<M: Message>(&mut self, view: u64, vote: M, ctx: &mut Context<M>) {
        self.install(view);
        self.assigned.clear();
        hooks::view_change(self.label, ctx.self_id, ctx.now, view);
        ctx.broadcast(vote);
        self.arm_timer(ctx);
    }

    /// Makes `view` current and drops the votes for lower views.
    pub fn install(&mut self, view: u64) {
        self.view = view;
        self.votes.retain(|v, _| *v >= view);
    }

    /// Records `from`'s vote for `view` unless that view is behind. True
    /// if it is ahead and `join_at` replicas voted for it: time to join.
    pub fn vote(&mut self, from: NodeIdx, view: u64, slots: &[(u64, P)], join_at: usize) -> bool {
        if view < self.view {
            return false;
        }
        let voters = self.votes.entry(view).or_default();
        voters.insert(from, slots.to_vec());
        view > self.view && voters.len() >= join_at
    }

    /// The new primary's merge, once `quorum` replicas voted for
    /// `new_view`: each slot from the first report of it, voters in
    /// ascending order and then this replica's `own`; then the pending
    /// requests no slot covers, appended after the highest slot and
    /// `next_seq` (with `one_height`, only the first, at `next_seq`, if
    /// that slot is free). Installs `new_view`; the result is its
    /// proposals.
    pub fn merge(
        &mut self,
        new_view: u64,
        quorum: usize,
        next_seq: u64,
        one_height: bool,
        own: impl FnOnce() -> Slots<P>,
    ) -> Option<Slots<P>> {
        let votes = self.votes.get(&new_view).filter(|votes| votes.len() >= quorum)?;
        let mut proposals: BTreeMap<u64, P> = BTreeMap::new();
        for (seq, payload) in votes.values().flatten() {
            proposals.entry(*seq).or_insert_with(|| payload.clone());
        }
        for (seq, payload) in own() {
            proposals.entry(seq).or_insert(payload);
        }
        self.install(self.view.max(new_view));
        self.assigned.clear();
        let mut max_seq = proposals.keys().next_back().map_or(next_seq, |s| next_seq.max(s + 1));
        let covered: FxHashSet<u64> = proposals.values().map(Payload::digest_u64).collect();
        let mut uncovered = self.pending.iter().filter(|(d, _)| !covered.contains(d)).map(|e| e.1);
        if !one_height {
            for payload in uncovered {
                proposals.insert(max_seq, payload.clone());
                max_seq += 1;
            }
        } else if let Some(payload) = uncovered.next() {
            proposals.entry(next_seq).or_insert_with(|| payload.clone());
        }
        self.next_assign = max_seq;
        Some(proposals.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Vote;
    impl Message for Vote {}

    /// Through k view changes, entered each of the three ways, the store
    /// holds no vote for a view below the current one.
    #[test]
    fn installing_a_view_drops_the_votes_below_it() {
        let mut core: ViewChangeCore<u64> = ViewChangeCore::new("test", 100);
        let mut ctx = Context::standalone(0, 3, 4);
        for k in 1..=12u64 {
            let next = core.view() + 1;
            for from in 0..3 {
                core.vote(from, next, &[(k, 7)], 2);
                core.vote(from, next + 1, &[], 2);
            }
            match k % 3 {
                0 => core.enter_view(next, Vote, &mut ctx),
                1 => assert!(core.merge(next, 3, 0, false, Vec::new).is_some()),
                _ => core.install(next),
            }
            assert_eq!(core.view(), next);
            assert!(core.votes.keys().all(|&v| v >= next), "view {next}: {:?}", core.votes);
            core.vote(0, next - 1, &[(0, 666)], 1);
            assert!(core.votes.keys().all(|&v| v >= next), "a stale vote was stored");
        }
        assert_eq!(core.votes.len(), 2, "this view's votes and the next one's");
    }
}
