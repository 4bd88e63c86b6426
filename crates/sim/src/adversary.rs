//! Generic Byzantine adversary: wraps *any* actor and corrupts its
//! outbound behaviour without touching protocol code.
//!
//! The paper's threat model (§2.2) includes nodes that "act arbitrarily
//! maliciously". Rather than re-implementing each protocol with attack
//! variants baked in, [`Adversary`] interposes on the effect stream
//! between the wrapped actor and the network:
//!
//! * **Equivocation** — when the inner actor broadcasts a proposal, the
//!   halves of the cluster receive *conflicting* versions (via the
//!   [`crate::Message::equivocate`] hook the protocol's message type
//!   overrides);
//! * **Replay** — previously sent messages (votes, prepares) are
//!   re-emitted later, stale, probing freshness/dedup defenses;
//! * **Mute** — the node participates in receiving but sends nothing,
//!   the classic failed-but-not-crashed leader;
//! * **Delay** — outbound traffic is held back a fixed lag, simulating
//!   a node that is correct but adversarially slow.
//!
//! Attacks compose: pass several in the attack list. The wrapper is an
//! [`Actor`] itself, so it drops into any [`crate::Network`] unchanged.

use crate::actor::{Actor, Context, Effect, Message};
use crate::{NodeIdx, SimTime};
use pbc_trace::TraceEvent;

/// Timer-id namespace bit reserved for the adversary's internal timers.
/// Protocol timer ids must stay below this (all in-repo protocols use
/// small ids: views, heights, constants).
const ADV_TIMER: u64 = 1 << 63;

/// How many sent messages the replay attack remembers.
const REPLAY_WINDOW: usize = 64;

/// Replay one stale message every this many inbound deliveries.
const REPLAY_PERIOD: u64 = 3;

/// One Byzantine behaviour the wrapper can exhibit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// Send conflicting proposals to disjoint halves of the cluster.
    Equivocate,
    /// Re-send old (stale) messages — vote replay / freshness probing.
    Replay,
    /// Send nothing at all (failed-but-listening leader).
    Mute,
    /// Hold every outbound message back by this many ticks.
    Delay(SimTime),
}

/// A Byzantine wrapper around an arbitrary actor.
pub struct Adversary<A: Actor> {
    inner: A,
    attacks: Vec<Attack>,
    history: Vec<(NodeIdx, A::Msg)>,
    held: Vec<(NodeIdx, A::Msg)>,
    inbound: u64,
    replay_cursor: usize,
}

impl<A: Actor> Adversary<A> {
    /// Wraps `inner` with the given attack set.
    pub fn new(inner: A, attacks: Vec<Attack>) -> Self {
        Adversary {
            inner,
            attacks,
            history: Vec::new(),
            held: Vec::new(),
            inbound: 0,
            replay_cursor: 0,
        }
    }

    /// An honest wrapper (useful as the non-adversarial arm of an
    /// experiment with identical actor types).
    pub fn honest(inner: A) -> Self {
        Adversary::new(inner, Vec::new())
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the wrapped actor.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Swaps the active attack set mid-run (nemesis toggling).
    pub fn set_attacks(&mut self, attacks: Vec<Attack>) {
        self.attacks = attacks;
    }

    fn has(&self, attack: Attack) -> bool {
        self.attacks.contains(&attack)
    }

    fn delay(&self) -> Option<SimTime> {
        self.attacks.iter().find_map(|a| match a {
            Attack::Delay(d) => Some(*d),
            _ => None,
        })
    }

    /// Applies the attack pipeline to one outbound message. `now` and
    /// `node` identify the emission point for the mutation trace.
    fn corrupt_one(
        &mut self,
        to: NodeIdx,
        msg: A::Msg,
        n: usize,
        held_any: &mut bool,
        now: SimTime,
        node: NodeIdx,
    ) -> Option<(NodeIdx, A::Msg)> {
        if self.has(Attack::Mute) {
            pbc_trace::emit(now, || TraceEvent::AdversaryMutate { node, kind: "mute", to });
            return None;
        }
        let msg = if self.has(Attack::Equivocate) && to >= n.div_ceil(2) {
            // The far half of the cluster sees the forked
            // variant of any equivocable proposal.
            match msg.equivocate() {
                Some(forked) => {
                    pbc_trace::emit(now, || TraceEvent::AdversaryMutate {
                        node,
                        kind: "equivocate",
                        to,
                    });
                    forked
                }
                None => msg,
            }
        } else {
            msg
        };
        if self.has(Attack::Replay) {
            if self.history.len() == REPLAY_WINDOW {
                self.history.remove(0);
            }
            self.history.push((to, msg.clone()));
        }
        if self.delay().is_some() {
            self.held.push((to, msg));
            *held_any = true;
            pbc_trace::emit(now, || TraceEvent::AdversaryMutate { node, kind: "hold", to });
            return None;
        }
        Some((to, msg))
    }

    /// Routes the inner actor's effects through the active attacks into
    /// the real context.
    fn relay(&mut self, effects: Vec<Effect<A::Msg>>, ctx: &mut Context<A::Msg>) {
        let attacking = !self.attacks.is_empty();
        let mut held_any = false;
        for effect in effects {
            match effect {
                Effect::Timer { delay, id } => {
                    debug_assert!(id & ADV_TIMER == 0, "protocol timer id collides with ADV_TIMER");
                    ctx.set_timer(delay, id);
                }
                Effect::CancelTimer { id } => {
                    debug_assert!(id & ADV_TIMER == 0, "protocol timer id collides with ADV_TIMER");
                    ctx.cancel_timer(id);
                }
                Effect::Broadcast { msg } => {
                    if !attacking {
                        // Honest wrappers keep the zero-copy fan-out.
                        ctx.broadcast(msg);
                        continue;
                    }
                    // Attacks act per recipient, so expand the broadcast
                    // in the network's fan-out order (everyone else by
                    // index, then self).
                    let n = ctx.n;
                    let self_id = ctx.self_id;
                    let now = ctx.now;
                    for to in (0..n).filter(|&t| t != self_id).chain([self_id]) {
                        if let Some((to, msg)) =
                            self.corrupt_one(to, msg.clone(), n, &mut held_any, now, self_id)
                        {
                            ctx.send(to, msg);
                        }
                    }
                }
                Effect::Send { to, msg } => {
                    if let Some((to, msg)) =
                        self.corrupt_one(to, msg, ctx.n, &mut held_any, ctx.now, ctx.self_id)
                    {
                        ctx.send(to, msg);
                    }
                }
            }
        }
        if held_any {
            ctx.set_timer(self.delay().expect("held implies delay"), ADV_TIMER);
        }
    }
}

impl<A: Actor> Actor for Adversary<A> {
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Context<Self::Msg>) {
        let mut inner_ctx = Context::standalone(ctx.now, ctx.self_id, ctx.n);
        self.inner.on_start(&mut inner_ctx);
        let effects = inner_ctx.take_effects();
        self.relay(effects, ctx);
    }

    fn on_message(&mut self, from: NodeIdx, msg: &Self::Msg, ctx: &mut Context<Self::Msg>) {
        let mut inner_ctx = Context::standalone(ctx.now, ctx.self_id, ctx.n);
        self.inner.on_message(from, msg, &mut inner_ctx);
        let effects = inner_ctx.take_effects();
        self.relay(effects, ctx);
        self.inbound += 1;
        if self.has(Attack::Replay)
            && !self.history.is_empty()
            && self.inbound.is_multiple_of(REPLAY_PERIOD)
        {
            // Re-send a stale recorded message to its original target.
            let (to, stale) = self.history[self.replay_cursor % self.history.len()].clone();
            self.replay_cursor = self.replay_cursor.wrapping_add(1);
            pbc_trace::emit(ctx.now, || TraceEvent::AdversaryMutate {
                node: ctx.self_id,
                kind: "replay",
                to,
            });
            ctx.send(to, stale);
        }
    }

    fn on_timer(&mut self, timer_id: u64, ctx: &mut Context<Self::Msg>) {
        if timer_id & ADV_TIMER != 0 {
            // Flush delayed traffic directly — it already went through
            // the attack pipeline when it was held.
            for (to, msg) in std::mem::take(&mut self.held) {
                pbc_trace::emit(ctx.now, || TraceEvent::AdversaryMutate {
                    node: ctx.self_id,
                    kind: "flush",
                    to,
                });
                ctx.send(to, msg);
            }
            return;
        }
        let mut inner_ctx = Context::standalone(ctx.now, ctx.self_id, ctx.n);
        self.inner.on_timer(timer_id, &mut inner_ctx);
        let effects = inner_ctx.take_effects();
        self.relay(effects, ctx);
    }
}

impl<A: crate::Durable> crate::Durable for Adversary<A> {
    type Stable = A::Stable;
    type Mark = A::Mark;

    fn checkpoint(&self) -> Self::Stable {
        // Only the wrapped protocol's durable state is checkpointed: the
        // attack bookkeeping (history, held traffic) is volatile by
        // design — a crashed adversary forgets what it was replaying.
        self.inner.checkpoint()
    }

    fn restore(crashed: &Self, stable: Self::Stable) -> Self {
        Adversary::new(A::restore(&crashed.inner, stable), crashed.attacks.clone())
    }

    fn encode_since(&self, mark: &mut Self::Mark) -> Vec<u8> {
        self.inner.encode_since(mark)
    }

    fn apply(crashed: &Self, stable: &mut Self::Stable, record: &[u8]) -> Option<()> {
        A::apply(&crashed.inner, stable, record)
    }

    fn blank_stable(crashed: &Self) -> Self::Stable {
        A::blank_stable(&crashed.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo actor: rebroadcasts each received value once; proposals
    /// (odd values) can equivocate to value+1.
    struct Echo {
        seen: Vec<u32>,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Val(u32);

    impl Message for Val {
        fn equivocate(&self) -> Option<Self> {
            (self.0 % 2 == 1).then(|| Val(self.0 + 1))
        }
    }

    impl Actor for Echo {
        type Msg = Val;
        fn on_message(&mut self, _from: NodeIdx, msg: &Val, ctx: &mut Context<Val>) {
            self.seen.push(msg.0);
            if self.seen.len() == 1 {
                ctx.broadcast(msg.clone());
            }
        }
    }

    fn sends(effects: &[Effect<Val>]) -> Vec<(NodeIdx, u32)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg.0)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn mute_suppresses_all_sends() {
        let mut adv = Adversary::new(Echo { seen: vec![] }, vec![Attack::Mute]);
        let mut ctx = Context::standalone(0, 0, 4);
        adv.on_message(1, &Val(7), &mut ctx);
        assert!(sends(&ctx.take_effects()).is_empty());
        assert_eq!(adv.inner().seen, vec![7], "inner still processes input");
    }

    #[test]
    fn equivocate_forks_the_far_half() {
        let mut adv = Adversary::new(Echo { seen: vec![] }, vec![Attack::Equivocate]);
        let mut ctx = Context::standalone(0, 0, 4);
        adv.on_message(1, &Val(7), &mut ctx);
        let out = sends(&ctx.take_effects());
        let near: Vec<u32> = out.iter().filter(|(to, _)| *to < 2).map(|(_, v)| *v).collect();
        let far: Vec<u32> = out.iter().filter(|(to, _)| *to >= 2).map(|(_, v)| *v).collect();
        assert!(near.iter().all(|&v| v == 7), "near half sees the original: {near:?}");
        assert!(far.iter().all(|&v| v == 8), "far half sees the fork: {far:?}");
        assert!(!near.is_empty() && !far.is_empty());
    }

    #[test]
    fn equivocate_passes_non_proposals_through() {
        let mut adv = Adversary::new(Echo { seen: vec![] }, vec![Attack::Equivocate]);
        let mut ctx = Context::standalone(0, 0, 4);
        adv.on_message(1, &Val(6), &mut ctx); // even: not equivocable
        let out = sends(&ctx.take_effects());
        assert!(out.iter().all(|(_, v)| *v == 6));
    }

    #[test]
    fn delay_holds_then_flushes() {
        let mut adv = Adversary::new(Echo { seen: vec![] }, vec![Attack::Delay(50)]);
        let mut ctx = Context::standalone(0, 0, 3);
        adv.on_message(1, &Val(3), &mut ctx);
        let effects = ctx.take_effects();
        assert!(sends(&effects).is_empty(), "sends held back");
        let timer_id = effects
            .iter()
            .find_map(|e| match e {
                Effect::Timer { id, .. } => Some(*id),
                _ => None,
            })
            .expect("flush timer armed");
        assert!(timer_id & ADV_TIMER != 0);
        let mut ctx2 = Context::standalone(50, 0, 3);
        adv.on_timer(timer_id, &mut ctx2);
        assert_eq!(sends(&ctx2.take_effects()).len(), 3, "held broadcast flushed");
    }

    #[test]
    fn replay_resends_stale_messages() {
        let mut adv = Adversary::new(Echo { seen: vec![] }, vec![Attack::Replay]);
        let mut total = 0;
        for i in 0..6 {
            let mut ctx = Context::standalone(i, 0, 3);
            adv.on_message(1, &Val(9), &mut ctx);
            total += sends(&ctx.take_effects()).len();
        }
        // Honest echo sends one broadcast (3 msgs); replay adds extras.
        assert!(total > 3, "replayed messages expected, got {total}");
    }

    #[test]
    fn honest_wrapper_is_transparent() {
        let mut adv = Adversary::honest(Echo { seen: vec![] });
        let mut ctx = Context::standalone(0, 0, 4);
        adv.on_message(1, &Val(5), &mut ctx);
        // Honest wrappers preserve the zero-copy broadcast effect.
        match &ctx.take_effects()[..] {
            [Effect::Broadcast { msg: Val(5) }] => {}
            other => panic!("unexpected effects: {other:?}"),
        }
    }
}
