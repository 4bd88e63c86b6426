//! The bounded front-door transaction queue.
//!
//! Modeled on the split every production permissioned chain makes
//! between its gateway and its proposer (Iroha's `torii` endpoint
//! feeding `queue.rs`, Fabric's peer gossip feeding the orderer):
//! clients talk to a **bounded** queue with explicit admission control,
//! and the ordering layer drains it in batches. Four policies live
//! here, each observable in [`QueueStats`]:
//!
//! * **capacity** — at most `capacity` transactions wait at once; an
//!   offer beyond that is rejected with [`Admit::Full`], the
//!   backpressure signal a client sees as "try again later";
//! * **TTL** — a transaction that waits longer than `ttl` ticks is
//!   expired and will *never* be submitted to consensus;
//! * **dedup** — a transaction id that was ever admitted is never
//!   admitted again ([`Admit::Duplicate`]), so client retries cannot
//!   double-commit;
//! * **conservation** — every admitted transaction is eventually
//!   accounted for exactly once: `admitted = committed + aborted +
//!   expired + in_flight` ([`QueueStats::conserves`]).

use fxhash::{FxHashMap, FxHashSet};
use pbc_sim::SimTime;
use pbc_types::{Transaction, TxId};
use std::collections::VecDeque;

/// Admission-control parameters of an [`IngressQueue`].
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum number of transactions waiting (not yet drained into a
    /// batch). Offers beyond this are rejected with [`Admit::Full`].
    pub capacity: usize,
    /// Time-to-live in simulator ticks: a transaction that has waited
    /// *longer than* `ttl` ticks after its arrival is expired and never
    /// submitted. A transaction drained at exactly `arrived + ttl` is
    /// still live — the boundary is exclusive, matching the module doc.
    pub ttl: SimTime,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { capacity: 4096, ttl: 2_000_000 }
    }
}

/// Outcome of [`IngressQueue::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The transaction was admitted and will be drained into a batch
    /// unless it expires first.
    Admitted,
    /// The queue is at capacity — the backpressure signal. The
    /// transaction was **not** admitted; a client should retry later.
    Full,
    /// A transaction with the same id was already admitted once;
    /// retransmissions are dropped so nothing commits twice.
    Duplicate,
}

/// Monotone counters over the life of a queue. All counters are
/// cumulative; [`QueueStats::conserves`] checks the conservation
/// identity that ties them together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Transactions ever offered (admitted or not).
    pub offered: usize,
    /// Transactions admitted past capacity + dedup checks.
    pub admitted: usize,
    /// Offers rejected because the queue was at capacity.
    pub rejected_full: usize,
    /// Offers rejected as duplicates of an earlier admission.
    pub rejected_dup: usize,
    /// Admitted transactions that aged out before being drained.
    pub expired: usize,
    /// Admitted transactions resolved as committed by the pipeline.
    pub committed: usize,
    /// Admitted transactions resolved as aborted by the pipeline.
    pub aborted: usize,
    /// Of `aborted`: transactions whose VM invocation ran out of gas —
    /// a distinct abort *reason*, always `<= aborted`, so saturation
    /// sweeps can separate contention aborts from gas starvation.
    pub aborted_out_of_gas: usize,
}

impl QueueStats {
    /// The conservation identity: every admitted transaction is either
    /// committed, aborted, expired, or still in flight (waiting in the
    /// queue or submitted to consensus and not yet resolved). Out-of-gas
    /// aborts are a sub-count of `aborted`, never a fifth bucket.
    ///
    /// `in_flight` is the live count from
    /// [`IngressQueue::in_flight`]; the identity must hold at *every*
    /// point in a run, not only at the end.
    pub fn conserves(&self, in_flight: usize) -> bool {
        self.admitted == self.committed + self.aborted + self.expired + in_flight
            && self.offered == self.admitted + self.rejected_full + self.rejected_dup
            && self.aborted_out_of_gas <= self.aborted
    }
}

/// A waiting transaction with its arrival stamp.
#[derive(Clone, Debug)]
struct Waiting {
    tx: Transaction,
    arrived: SimTime,
}

/// The bounded front-door queue: capacity, TTL, dedup, backpressure.
///
/// Drive it with [`offer`](IngressQueue::offer) on client arrival,
/// [`drain`](IngressQueue::drain) when the proposer forms a batch, and
/// [`resolve_committed`](IngressQueue::resolve_committed) /
/// [`resolve_aborted`](IngressQueue::resolve_aborted) when the pipeline
/// decides each transaction's fate.
///
/// ```
/// use pbc_ingress::{Admit, IngressQueue, QueueConfig};
/// use pbc_types::{ClientId, Op, Transaction, TxId, TxScope};
///
/// let tx = |id: u64| {
///     Transaction::with_scope(
///         TxId(id),
///         ClientId(1),
///         TxScope::Global,
///         vec![Op::Noop { busy_work: 0 }],
///     )
/// };
///
/// let mut q = IngressQueue::new(QueueConfig { capacity: 2, ttl: 100 });
/// assert_eq!(q.offer(tx(1), 10), Admit::Admitted);
/// assert_eq!(q.offer(tx(1), 11), Admit::Duplicate); // retry, dropped
/// assert_eq!(q.offer(tx(2), 12), Admit::Admitted);
/// assert_eq!(q.offer(tx(3), 13), Admit::Full); // backpressure
///
/// // tx1 and tx2 drain into a batch; tx1 resolves as committed.
/// let batch = q.drain(8, 20);
/// assert_eq!(batch.len(), 2);
/// let latency = q.resolve_committed(TxId(1), 90);
/// assert_eq!(latency, Some(80)); // decided at 90, arrived at 10
///
/// // tx2 never resolves here, so it is still in flight; the
/// // conservation identity holds at every step.
/// assert_eq!(q.in_flight(), 1);
/// assert!(q.stats().conserves(q.in_flight()));
/// ```
#[derive(Debug)]
pub struct IngressQueue {
    cfg: QueueConfig,
    waiting: VecDeque<Waiting>,
    /// Drained into a batch, awaiting a commit/abort resolution; maps
    /// to the arrival stamp so resolution can report client latency.
    submitted: FxHashMap<TxId, SimTime>,
    /// Every id ever admitted (dedup horizon is the whole run, like
    /// Iroha's `tx_cache`).
    seen: FxHashSet<TxId>,
    stats: QueueStats,
}

impl IngressQueue {
    /// An empty queue with the given admission policy.
    pub fn new(cfg: QueueConfig) -> Self {
        IngressQueue {
            cfg,
            waiting: VecDeque::new(),
            submitted: FxHashMap::default(),
            seen: FxHashSet::default(),
            stats: QueueStats::default(),
        }
    }

    /// The admission policy this queue enforces.
    pub fn config(&self) -> QueueConfig {
        self.cfg
    }

    /// Offers a transaction arriving at `now`. Expires overdue waiters
    /// first (so capacity freed by TTL is immediately reusable), then
    /// applies dedup and capacity checks in that order.
    pub fn offer(&mut self, tx: Transaction, now: SimTime) -> Admit {
        self.expire(now);
        self.stats.offered += 1;
        if self.seen.contains(&tx.id) {
            self.stats.rejected_dup += 1;
            return Admit::Duplicate;
        }
        if self.waiting.len() >= self.cfg.capacity {
            self.stats.rejected_full += 1;
            return Admit::Full;
        }
        self.seen.insert(tx.id);
        self.stats.admitted += 1;
        self.waiting.push_back(Waiting { tx, arrived: now });
        Admit::Admitted
    }

    /// Expires every waiting transaction that has waited strictly longer
    /// than `ttl` by `now` (a waiter at exactly `arrived + ttl` is kept);
    /// returns how many expired. Arrival order means expiry only ever
    /// removes a prefix of the queue.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        while let Some(w) = self.waiting.front() {
            if w.arrived.saturating_add(self.cfg.ttl) >= now {
                break;
            }
            self.waiting.pop_front();
            self.stats.expired += 1;
            n += 1;
        }
        n
    }

    /// Drains up to `max` transactions into a batch (oldest first),
    /// lazily expiring overdue waiters first so an expired transaction
    /// is never submitted — the TTL holds even if [`expire`] was never
    /// called between arrival and drain. A transaction drained at
    /// exactly `arrived + ttl` is handed out (the boundary is
    /// exclusive). Drained transactions move to the in-flight set until
    /// resolved.
    ///
    /// [`expire`]: IngressQueue::expire
    pub fn drain(&mut self, max: usize, now: SimTime) -> Vec<Transaction> {
        self.expire(now);
        let take = max.min(self.waiting.len());
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            let w = self.waiting.pop_front().expect("len checked");
            self.submitted.insert(w.tx.id, w.arrived);
            out.push(w.tx);
        }
        out
    }

    /// Resolves a drained transaction as committed at `decided` ticks;
    /// returns its client-observed latency (arrival → decision).
    /// Unknown ids (transactions that did not pass through this queue)
    /// return `None` and are not counted.
    pub fn resolve_committed(&mut self, id: TxId, decided: SimTime) -> Option<SimTime> {
        let arrived = self.submitted.remove(&id)?;
        self.stats.committed += 1;
        Some(decided.saturating_sub(arrived))
    }

    /// Resolves a drained transaction as aborted (execution or
    /// validation failure); returns its latency like
    /// [`resolve_committed`](IngressQueue::resolve_committed).
    pub fn resolve_aborted(&mut self, id: TxId, decided: SimTime) -> Option<SimTime> {
        let arrived = self.submitted.remove(&id)?;
        self.stats.aborted += 1;
        Some(decided.saturating_sub(arrived))
    }

    /// Like [`resolve_aborted`](IngressQueue::resolve_aborted), but for
    /// a transaction that aborted because its VM invocation exhausted
    /// its gas budget — counted under both `aborted` and
    /// `aborted_out_of_gas`.
    pub fn resolve_aborted_out_of_gas(&mut self, id: TxId, decided: SimTime) -> Option<SimTime> {
        let latency = self.resolve_aborted(id, decided)?;
        self.stats.aborted_out_of_gas += 1;
        Some(latency)
    }

    /// Transactions waiting to be drained.
    pub fn depth(&self) -> usize {
        self.waiting.len()
    }

    /// Arrival stamp of the oldest waiting transaction, if any — the
    /// linger clock for partial-batch flushes.
    pub fn oldest_arrival(&self) -> Option<SimTime> {
        self.waiting.front().map(|w| w.arrived)
    }

    /// Admitted but unresolved transactions: waiting + submitted.
    /// This is the `in_flight` term of the conservation identity.
    pub fn in_flight(&self) -> usize {
        self.waiting.len() + self.submitted.len()
    }

    /// True when the next offer of a fresh id would be rejected with
    /// [`Admit::Full`] — what a gateway polls to shed load early.
    pub fn saturated(&self) -> bool {
        self.waiting.len() >= self.cfg.capacity
    }

    /// Cumulative counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Asserts the conservation identity right now. Debug builds call
    /// this from the e2e driver after every resolution wave.
    pub fn check_conservation(&self) -> bool {
        self.stats.conserves(self.in_flight())
    }
}
