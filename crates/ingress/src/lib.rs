//! # pbc-ingress — the client front door
//!
//! Everything between "a client wants a transaction committed" and
//! "the ordering layer sees a batch": seeded open/closed-loop load
//! generation ([`LoadGen`], [`ArrivalProcess`]) and a bounded admission
//! queue ([`IngressQueue`]) with capacity limits, TTL expiry, duplicate
//! detection, and backpressure signaling — the Iroha `torii`/`queue.rs`
//! split, rebuilt inside the deterministic simulator.
//!
//! The e2e driver lives in `pbc-core` (`BlockchainNetwork::run_ingress`)
//! and the saturation sweep in `pbc-bench` (`sweep --e2e`); this crate
//! owns only the client-side mechanics, so it stays independent of the
//! consensus and architecture layers.
//!
//! Everything here is deterministic: arrival timelines are pure
//! functions of their seed, and queue state is a pure function of the
//! offer/drain/resolve call sequence. See `BENCHMARKS.md` for the
//! measurement methodology built on top.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod arrival;
mod loadgen;
mod queue;

pub use arrival::{ArrivalProcess, LoadProfile};
pub use loadgen::{LoadGen, TxSource, WorkloadSource};
pub use queue::{Admit, IngressQueue, QueueConfig, QueueStats};

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::{ClientId, Op, Transaction, TxId, TxScope};
    use pbc_workload::PaymentWorkload;
    use proptest::prelude::*;

    fn tx(id: u64) -> Transaction {
        Transaction::with_scope(
            TxId(id),
            ClientId((id % 7) as u32),
            TxScope::Global,
            vec![Op::Noop { busy_work: 0 }],
        )
    }

    #[test]
    fn dedup_never_admits_twice() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 8, ttl: 1000 });
        assert_eq!(q.offer(tx(1), 1), Admit::Admitted);
        assert_eq!(q.offer(tx(1), 2), Admit::Duplicate);
        // Even after the original commits, a replay is still rejected.
        q.drain(8, 3);
        q.resolve_committed(TxId(1), 10);
        assert_eq!(q.offer(tx(1), 11), Admit::Duplicate);
        assert_eq!(q.stats().rejected_dup, 2);
    }

    #[test]
    fn capacity_rejects_and_frees_on_drain() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 2, ttl: 1000 });
        assert_eq!(q.offer(tx(1), 1), Admit::Admitted);
        assert_eq!(q.offer(tx(2), 1), Admit::Admitted);
        assert_eq!(q.offer(tx(3), 1), Admit::Full);
        assert!(q.saturated());
        q.drain(1, 2);
        assert!(!q.saturated());
        assert_eq!(q.offer(tx(3), 2), Admit::Admitted);
    }

    #[test]
    fn ttl_expired_tx_is_never_drained() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 8, ttl: 10 });
        q.offer(tx(1), 5); // expires at 15
        q.offer(tx(2), 12); // expires at 22
        let batch = q.drain(8, 16);
        assert_eq!(batch.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(q.stats().expired, 1);
        // The expired tx can never resolve as committed.
        assert_eq!(q.resolve_committed(TxId(1), 20), None);
        assert!(q.check_conservation());
    }

    #[test]
    fn ttl_frees_capacity_at_offer_time() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 1, ttl: 10 });
        q.offer(tx(1), 0);
        assert_eq!(q.offer(tx(2), 5), Admit::Full);
        // tx1 aged out by 20, so the slot is free again.
        assert_eq!(q.offer(tx(3), 20), Admit::Admitted);
        assert_eq!(q.stats().expired, 1);
        assert!(q.check_conservation());
    }

    /// Regression: the TTL boundary is exclusive. A transaction drained
    /// at *exactly* `arrived + ttl` has not waited longer than `ttl` and
    /// must be handed out, not expired — pre-fix, `expire()` treated the
    /// boundary as inclusive and silently dropped it. One tick later it
    /// must expire, and the conservation identity must hold either way.
    #[test]
    fn ttl_boundary_is_exclusive() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 8, ttl: 50 });
        q.offer(tx(1), 100);
        let batch = q.drain(8, 150); // exactly arrived + ttl: still live
        assert_eq!(batch.iter().map(|t| t.id.0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(q.stats().expired, 0);
        assert!(q.check_conservation());

        q.offer(tx(2), 200);
        assert_eq!(q.expire(250), 0); // boundary again: kept
        assert_eq!(q.expire(251), 1); // one tick past: expired
        assert_eq!(q.stats().expired, 1);
        assert!(q.check_conservation());
    }

    /// Regression companion: the TTL is enforced lazily by `drain`
    /// itself — an overdue transaction is never submitted even when
    /// `expire()` was not called between arrival and drain.
    #[test]
    fn drain_lazily_expires_without_explicit_expire() {
        let mut q = IngressQueue::new(QueueConfig { capacity: 8, ttl: 50 });
        q.offer(tx(1), 0);
        // No expire() call; drain well past the deadline.
        let batch = q.drain(8, 51);
        assert!(batch.is_empty());
        assert_eq!(q.stats().expired, 1);
        assert_eq!(q.resolve_committed(TxId(1), 60), None);
        assert!(q.check_conservation());
    }

    #[test]
    fn latency_is_arrival_to_decision() {
        let mut q = IngressQueue::new(QueueConfig::default());
        q.offer(tx(1), 100);
        q.drain(8, 150);
        assert_eq!(q.resolve_committed(TxId(1), 400), Some(300));
        assert_eq!(q.resolve_committed(TxId(1), 500), None); // double resolve
    }

    proptest! {
        /// Conservation holds after every step of an arbitrary seeded
        /// offer/drain/resolve/expire interleaving, and no id is ever
        /// admitted twice.
        #[test]
        fn conservation_under_random_interleaving(seed in any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = IngressQueue::new(QueueConfig { capacity: 16, ttl: 50 });
            let mut now: u64 = 0;
            let mut next_id: u64 = 0;
            let mut submitted: Vec<u64> = Vec::new();
            let mut ever_admitted = std::collections::HashSet::new();
            for _ in 0..400 {
                now += rng.gen_range(0..10u64);
                match rng.gen_range(0..5u32) {
                    0 | 1 => {
                        // Fresh offer, sometimes a replay of an old id.
                        let id = if next_id > 0 && rng.gen_bool(0.2) {
                            rng.gen_range(0..next_id)
                        } else {
                            next_id += 1;
                            next_id - 1
                        };
                        let admitted = q.offer(tx(id), now) == Admit::Admitted;
                        if admitted {
                            prop_assert!(
                                ever_admitted.insert(id),
                                "id {id} admitted twice"
                            );
                        }
                    }
                    2 => {
                        let batch = q.drain(rng.gen_range(1..6), now);
                        submitted.extend(batch.iter().map(|t| t.id.0));
                    }
                    3 => {
                        if !submitted.is_empty() {
                            let i = rng.gen_range(0..submitted.len());
                            let id = submitted.swap_remove(i);
                            if rng.gen_bool(0.5) {
                                q.resolve_committed(TxId(id), now);
                            } else {
                                q.resolve_aborted(TxId(id), now);
                            }
                        }
                    }
                    _ => {
                        q.expire(now);
                    }
                }
                prop_assert!(
                    q.check_conservation(),
                    "identity broken: {:?} in_flight={}",
                    q.stats(),
                    q.in_flight()
                );
            }
        }

        /// Arrival timelines are pure functions of the seed: same seed
        /// → identical stream; different profile state never leaks.
        #[test]
        fn arrivals_deterministic(seed in any::<u64>()) {
            let run = |s| {
                let mut a = ArrivalProcess::new(LoadProfile::Open { mean_gap: 40 }, s);
                let mut out = Vec::new();
                while let Some(t) = a.peek(5_000) {
                    a.pop();
                    out.push(t);
                }
                out
            };
            let x = run(seed);
            prop_assert_eq!(&x, &run(seed));
            prop_assert!(!x.is_empty());
            prop_assert!(x.windows(2).all(|w| w[0] <= w[1]), "arrivals out of order");
        }
    }

    #[test]
    fn closed_loop_waits_for_completions() {
        let mut a = ArrivalProcess::new(LoadProfile::Closed { clients: 3, think: 20 }, 7);
        let mut first_wave = Vec::new();
        while let Some(t) = a.peek(u64::MAX) {
            a.pop();
            first_wave.push(t);
        }
        assert_eq!(first_wave.len(), 3);
        // No completions fed back → no further arrivals, ever.
        assert_eq!(a.peek(u64::MAX), None);
        a.on_resolved(2, 100);
        let mut second = Vec::new();
        while let Some(t) = a.peek(u64::MAX) {
            a.pop();
            second.push(t);
        }
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|&t| t > 100));
    }

    #[test]
    fn workload_source_ids_unique_and_lazy() {
        let mut s = WorkloadSource::payments(PaymentWorkload::default());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let t = s.next_tx();
            assert!(seen.insert(t.id), "duplicate id {:?}", t.id);
        }
    }
}
