//! The actor abstraction protocols implement.

use crate::{NodeIdx, SimTime};

/// A message that can travel through the simulated network.
///
/// `wire_size` feeds the byte accounting in [`crate::NetStats`]; the
/// default models a small fixed-size control message.
pub trait Message: Clone {
    /// Approximate serialized size in bytes.
    fn wire_size(&self) -> usize {
        64
    }

    /// Returns a *conflicting* variant of this message if it is a
    /// proposal an equivocating (Byzantine) sender could fork, `None`
    /// otherwise. Protocol message types opt in by overriding this;
    /// [`crate::Adversary`] uses it to send contradictory proposals to
    /// disjoint halves of the cluster without the adversary knowing
    /// anything about the protocol.
    fn equivocate(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// A deterministic protocol state machine.
///
/// Actors never touch wall-clock time or OS randomness; everything they
/// observe arrives through [`Context`], which makes protocol logic
/// directly unit-testable (construct a `Context`, call `on_message`,
/// inspect the outbox).
pub trait Actor {
    /// The protocol's message type.
    type Msg: Message;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Called when a message from `from` is delivered.
    ///
    /// The message arrives by reference: a broadcast is allocated once
    /// and every recipient sees the same underlying value, so an actor
    /// that wants to keep (part of) the payload clones what it stores.
    fn on_message(&mut self, from: NodeIdx, msg: &Self::Msg, ctx: &mut Context<Self::Msg>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _timer_id: u64, _ctx: &mut Context<Self::Msg>) {}
}

/// An actor that can checkpoint protocol-critical state to simulated
/// stable storage, surviving crash-recovery *with amnesia*.
///
/// The model: every state transition is synchronously persisted (the
/// network calls [`Durable::checkpoint`] at crash time, which is
/// equivalent as long as actors are deterministic), RAM is lost in the
/// crash, and recovery rebuilds the actor from the checkpoint alone.
/// What the implementation chooses to include in [`Durable::Stable`] is
/// precisely its durability claim — Raft must persist `term`,
/// `votedFor` and the log; MinBFT's trusted counter survives because it
/// is hardware. A variant that omits required state will demonstrably
/// violate safety under [`crate::Network::crash_and_lose_memory`].
pub trait Durable: Actor + Sized {
    /// The checkpointed stable state.
    type Stable;

    /// Reads the durable portion of the current state.
    fn checkpoint(&self) -> Self::Stable;

    /// Rebuilds a post-crash actor from `stable`. `crashed` is the
    /// pre-crash instance, provided **only** for immutable configuration
    /// (cluster size, own id, seeds); volatile protocol state must not
    /// be copied from it — that is the amnesia being modelled.
    fn restore(crashed: &Self, stable: Self::Stable) -> Self;

    /// What the last record written by [`Durable::encode_since`] already
    /// covers, in whatever form lets the protocol tell what changed
    /// since. The default means "nothing persisted yet".
    type Mark: Default + PartialEq;

    /// Serializes, for a *real* stable store (`pbc-store`'s WAL), what
    /// of the durable state changed since `mark`, and advances `mark`
    /// to the present. From the default mark that is the whole durable
    /// state — a snapshot is the same code path, and a protocol whose
    /// `Mark` is `()` writes nothing else. Together with
    /// [`Durable::apply`] this upgrades the durability claim from "a
    /// struct handed across the crash" to "bytes that survived a disk".
    fn encode_since(&self, mark: &mut Self::Mark) -> Vec<u8>;

    /// Folds one record produced by [`Durable::encode_since`] into
    /// `stable`: applying, in order, a record encoded from the default
    /// mark and every record encoded after it to
    /// [`Durable::blank_stable`] yields what [`Durable::checkpoint`]
    /// returned when the last one was encoded. `crashed` is provided
    /// only for immutable configuration, exactly as in
    /// [`Durable::restore`] — configs need not be serialized. Returns
    /// `None`, leaving `stable` as it was, on malformed bytes or a
    /// record that does not follow `stable` (a damaged disk must
    /// degrade, never panic).
    fn apply(crashed: &Self, stable: &mut Self::Stable, record: &[u8]) -> Option<()>;

    /// The checkpoint a node restarts from when the disk yielded
    /// nothing usable (empty store, or a checkpoint lost to a torn
    /// tail): the state of a fresh boot. `crashed` again provides only
    /// immutable configuration.
    fn blank_stable(crashed: &Self) -> Self::Stable;
}

/// An effect emitted by an actor.
#[derive(Clone, Debug)]
pub enum Effect<M> {
    /// Unicast `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeIdx,
        /// Payload.
        msg: M,
    },
    /// Send `msg` to every node: each non-self recipient in index order,
    /// then self last. The network shares one allocation across all
    /// recipients instead of cloning per recipient.
    Broadcast {
        /// Payload, allocated once for the whole fan-out.
        msg: M,
    },
    /// Arm a timer that fires `delay` ticks from now with id `id`.
    Timer {
        /// Delay from the current time.
        delay: SimTime,
        /// Actor-chosen timer identity (delivered back in `on_timer`).
        id: u64,
    },
    /// Cancel every currently-armed timer with id `id` on this node, in
    /// O(1) — cancelled timers are skipped when they surface instead of
    /// reaching `on_timer`. Timers armed *after* the cancellation (even
    /// in the same callback) are unaffected.
    CancelTimer {
        /// The timer identity to cancel.
        id: u64,
    },
}

/// The per-callback execution context handed to actors.
///
/// Collects effects; the network applies them after the callback returns,
/// which keeps actor code free of reentrancy concerns.
pub struct Context<M> {
    /// The current logical time.
    pub now: SimTime,
    /// The index of the executing actor.
    pub self_id: NodeIdx,
    /// Total number of nodes in the simulation.
    pub n: usize,
    pub(crate) outbox: Vec<Effect<M>>,
}

impl<M: Message> Context<M> {
    /// Creates a standalone context (useful in unit tests of actors).
    pub fn standalone(now: SimTime, self_id: NodeIdx, n: usize) -> Self {
        Context { now, self_id, n, outbox: Vec::new() }
    }

    /// Unicasts `msg` to `to`. Sending to self is delivered (with local
    /// latency) like any other message.
    pub fn send(&mut self, to: NodeIdx, msg: M) {
        self.outbox.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every node (including self, delivered last). One
    /// allocation regardless of cluster size: the network fans the
    /// single payload out behind a shared pointer.
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(Effect::Broadcast { msg });
    }

    /// Sends `msg` to each node in `to`.
    pub fn multicast(&mut self, to: &[NodeIdx], msg: M) {
        for &t in to {
            self.outbox.push(Effect::Send { to: t, msg: msg.clone() });
        }
    }

    /// Arms a timer firing `delay` ticks from now.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) {
        self.outbox.push(Effect::Timer { delay, id });
    }

    /// Cancels every currently-armed timer with id `id` (O(1); the
    /// network skips them at fire time without calling `on_timer`).
    pub fn cancel_timer(&mut self, id: u64) {
        self.outbox.push(Effect::CancelTimer { id });
    }

    /// Re-arms timer `id`: cancels any armed instance and sets a fresh
    /// one `delay` ticks from now. The idiom for protocols that push a
    /// deadline forward on every message (heartbeat-reset elections)
    /// without leaving a trail of stale timers to fire and filter.
    pub fn set_timer_replacing(&mut self, delay: SimTime, id: u64) {
        self.cancel_timer(id);
        self.set_timer(delay, id);
    }

    /// Drains the collected effects (used by the network and by tests).
    pub fn take_effects(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl Message for Ping {}

    #[test]
    fn broadcast_is_a_single_effect() {
        let mut ctx: Context<Ping> = Context::standalone(0, 1, 4);
        ctx.broadcast(Ping(7));
        match &ctx.take_effects()[..] {
            [Effect::Broadcast { msg: Ping(7) }] => {}
            other => panic!("unexpected effects: {other:?}"),
        }
    }

    #[test]
    fn replacing_timer_cancels_then_arms() {
        let mut ctx: Context<Ping> = Context::standalone(0, 0, 3);
        ctx.set_timer_replacing(25, 4);
        match &ctx.take_effects()[..] {
            [Effect::CancelTimer { id: 4 }, Effect::Timer { delay: 25, id: 4 }] => {}
            other => panic!("unexpected effects: {other:?}"),
        }
    }

    #[test]
    fn multicast_targets_exactly() {
        let mut ctx: Context<Ping> = Context::standalone(0, 0, 5);
        ctx.multicast(&[2, 4], Ping(1));
        assert_eq!(ctx.take_effects().len(), 2);
    }

    #[test]
    fn timer_effect_recorded() {
        let mut ctx: Context<Ping> = Context::standalone(100, 0, 1);
        ctx.set_timer(50, 9);
        match &ctx.take_effects()[..] {
            [Effect::Timer { delay: 50, id: 9 }] => {}
            other => panic!("unexpected effects: {other:?}"),
        }
    }

    #[test]
    fn default_wire_size() {
        assert_eq!(Ping(0).wire_size(), 64);
    }
}
