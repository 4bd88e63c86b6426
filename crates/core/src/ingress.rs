//! The end-to-end client path: ingress queue → ordering → pipelines.
//!
//! [`BlockchainNetwork::run_ingress`] closes the loop the paper's
//! Figure 1 draws between clients and the replicated network: a seeded
//! [`LoadGen`] produces client arrivals as first-class simulation
//! events, a bounded [`IngressQueue`] applies admission control, full
//! (or lingering partial) batches are scheduled into consensus at their
//! formation tick via `OrderingCluster::submit_at`, and every decided
//! batch resolves its transactions back against the queue — stamping
//! per-client arrival→decision latency through `pbc-trace`.
//!
//! ## Determinism
//!
//! The driver advances the simulation **only** through
//! `run_until_time`, whose deadlines are pure functions of the arrival
//! timeline and of decide times, so a seeded run is bit-for-bit
//! reproducible — the property the golden ingress tests pin.

use crate::batch::Batch;
use crate::network::BlockchainNetwork;
use pbc_ingress::{Admit, IngressQueue, LoadGen, QueueStats};
use pbc_sim::SimTime;
use pbc_trace::TraceEvent;
use pbc_types::TxId;
use std::collections::HashSet;

/// Tuning knobs of one [`BlockchainNetwork::run_ingress`] call.
#[derive(Clone, Copy, Debug)]
pub struct IngressConfig {
    /// How long (in ticks from the start of the call) new client
    /// arrivals are accepted. Arrivals past the horizon end the run's
    /// admission phase; in-flight work is then drained.
    pub horizon: SimTime,
    /// A partial batch ships once its oldest member has waited this
    /// many ticks — Fabric's `BatchTimeout` analogue, bounding the
    /// queueing delay a lightly loaded system adds.
    pub linger: SimTime,
    /// Slice (in ticks) the engine advances per poll while waiting on
    /// in-flight decisions with no arrivals scheduled.
    pub idle_slice: SimTime,
    /// Event budget for the post-horizon drain of in-flight batches.
    pub drain_events: u64,
    /// Maximum batches submitted to consensus but not yet decided (the
    /// orderer's bounded pipeline). When the window is full the queue
    /// stops draining, fills, and sheds load via capacity rejections
    /// and TTL expiry — the mechanism that makes saturation visible.
    pub max_inflight_batches: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            horizon: 1_000_000,
            linger: 5_000,
            idle_slice: 2_000,
            drain_events: 4_000_000,
            max_inflight_batches: 8,
        }
    }
}

/// The outcome of one [`BlockchainNetwork::run_ingress`] call.
#[derive(Clone, Debug, Default)]
pub struct IngressReport {
    /// Cumulative queue counters (offered/admitted/rejected/expired/
    /// committed/aborted) at the end of the run.
    pub queue: QueueStats,
    /// Admitted transactions still unresolved at the end: waiting in
    /// the queue or submitted to consensus with no decision. The
    /// `in_flight` term of the conservation identity.
    pub in_flight_at_end: usize,
    /// Batches decided and applied on the reference node.
    pub batches: usize,
    /// Logical ticks elapsed over the call.
    pub elapsed: SimTime,
    /// Mean arrival→decision latency of committed transactions, ticks.
    pub mean_latency: f64,
    /// Median commit latency, ticks.
    pub p50_latency: SimTime,
    /// 99th-percentile commit latency, ticks.
    pub p99_latency: SimTime,
    /// Committed transactions per second (ticks are abstract µs).
    pub committed_tps: f64,
    /// True if every submitted batch was decided before the drain
    /// budget ran out.
    pub consensus_complete: bool,
    /// True if two alive nodes at the same applied height hold
    /// different ledger heads.
    pub diverged: bool,
    /// Dynamic transactions whose declared footprint proved wrong at
    /// commit time and were salvaged (or aborted) by serial
    /// re-execution — OXII's speculative-mispredict count. Overlaps
    /// freely with the commit/abort split; out-of-gas aborts are
    /// counted separately in [`QueueStats::aborted_out_of_gas`].
    pub mispredicted: usize,
}

impl IngressReport {
    /// The queue-conservation identity, checked end-to-end:
    /// `admitted = committed + aborted + expired + in_flight`.
    pub fn conserves(&self) -> bool {
        self.queue.conserves(self.in_flight_at_end)
    }
}

impl BlockchainNetwork {
    /// Drives the full client path for one load profile: arrivals →
    /// admission ([`IngressQueue`]) → batching → consensus → pipeline
    /// execution → per-client latency stamps, until the arrival horizon
    /// passes and in-flight work drains.
    ///
    /// Transactions submitted through [`submit`](Self::submit) /
    /// [`submit_all`](Self::submit_all) are not touched; the ingress
    /// path is its own front door.
    pub fn run_ingress(
        &mut self,
        load: &mut LoadGen,
        queue: &mut IngressQueue,
        cfg: &IngressConfig,
    ) -> IngressReport {
        let start = self.ordering.now();
        let horizon = start.saturating_add(cfg.horizon);
        let mut latencies: Vec<SimTime> = Vec::new();
        let mut batches = 0usize;
        let mut mispredicted = 0usize;

        loop {
            match load.peek(horizon) {
                Some(t) => {
                    // Advance to just before the arrival: exactly the
                    // events scheduled ≤ t-1 run, so `now()` here is a
                    // function of the seed.
                    self.ordering.run_until_time(t.saturating_sub(1));
                    self.resolve_decided(
                        load,
                        queue,
                        &mut latencies,
                        &mut batches,
                        &mut mispredicted,
                    );
                    // Completions may have scheduled an earlier
                    // closed-loop arrival; service the timeline in
                    // order.
                    match load.peek(horizon) {
                        Some(t2) if t2 < t => continue,
                        None => break,
                        _ => {}
                    }
                    let (at, tx) = load.pop();
                    self.admit_and_batch(load, queue, at, tx, cfg);
                }
                None => {
                    // No arrivals scheduled. Closed-loop clients may
                    // still be waiting on in-flight work — poll in
                    // fixed slices until the horizon or quiescence.
                    let now = self.ordering.now();
                    if now >= horizon || queue.in_flight() == 0 {
                        break;
                    }
                    let flushed = self.flush_lingering(queue, now, cfg);
                    let stepped = self
                        .ordering
                        .run_until_time(now.saturating_add(cfg.idle_slice).min(horizon));
                    self.resolve_decided(
                        load,
                        queue,
                        &mut latencies,
                        &mut batches,
                        &mut mispredicted,
                    );
                    if stepped == 0 && !flushed {
                        if queue.depth() > 0 && self.backlog() < cfg.max_inflight_batches {
                            // Engine idle and nothing lingering long
                            // enough: time cannot advance on its own,
                            // so ship the partial batch now.
                            let txs = queue.drain(self.batch_size, now);
                            self.submit_batch_at(txs, now);
                        } else {
                            break; // truly stalled (e.g. dead majority)
                        }
                    }
                }
            }
        }

        // Drain phase: ship whatever still waits (no further arrivals
        // can top the batch up) while respecting the in-flight window,
        // then run consensus to the end of the event budget.
        let mut budget = cfg.drain_events;
        loop {
            let now = self.ordering.now();
            while self.backlog() < cfg.max_inflight_batches {
                let txs = queue.drain(self.batch_size, now);
                if txs.is_empty() {
                    break;
                }
                self.submit_batch_at(txs, now);
            }
            if queue.depth() == 0 || budget == 0 {
                break;
            }
            // The window is full and work still waits: run consensus
            // until every submitted batch decides, freeing the whole
            // window at once. (Time-sliced polling stalls here — the
            // next consensus event can lie arbitrarily far ahead of a
            // fixed slice.) Events are charged against the budget via
            // the delivery/timer counters.
            let events = |s: &pbc_sim::NetStats| s.msgs_delivered + s.timers_fired;
            let before = events(self.ordering.stats());
            let decided = self.ordering.run_until_decided(self.next_batch_id as usize, budget);
            budget = budget.saturating_sub(events(self.ordering.stats()) - before);
            self.resolve_decided(load, queue, &mut latencies, &mut batches, &mut mispredicted);
            if !decided {
                break; // stalled (e.g. dead majority) or budget spent
            }
        }
        let target = self.next_batch_id as usize;
        let complete = self.ordering.run_until_decided(target, budget);
        self.resolve_decided(load, queue, &mut latencies, &mut batches, &mut mispredicted);

        let end = self.ordering.now();
        let elapsed = end.saturating_sub(start);
        latencies.sort_unstable();
        let pct = |p: f64| -> SimTime {
            if latencies.is_empty() {
                0
            } else {
                latencies[((latencies.len() - 1) as f64 * p) as usize]
            }
        };
        let stats = queue.stats();
        debug_assert!(queue.check_conservation(), "queue identity broken: {stats:?}");
        IngressReport {
            queue: stats,
            in_flight_at_end: queue.in_flight(),
            batches,
            elapsed,
            mean_latency: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
            },
            p50_latency: pct(0.50),
            p99_latency: pct(0.99),
            committed_tps: if elapsed > 0 {
                stats.committed as f64 * 1e6 / elapsed as f64
            } else {
                0.0
            },
            consensus_complete: complete,
            diverged: self.check_divergence(),
            mispredicted,
        }
    }

    /// Admits one arrival at its own tick, feeds rejections straight
    /// back to the load generator (a backpressure error is a response),
    /// and ships any batch the arrival completed.
    /// Batches submitted to consensus whose decision the reference
    /// replica has not yet logged — the fill of the in-flight window.
    fn backlog(&self) -> usize {
        match (0..self.len()).find(|&i| !self.ordering.is_crashed(i)) {
            Some(r) => (self.next_batch_id as usize).saturating_sub(self.ordering.decided_len(r)),
            None => usize::MAX, // all dead: never submit more
        }
    }

    fn admit_and_batch(
        &mut self,
        load: &mut LoadGen,
        queue: &mut IngressQueue,
        at: SimTime,
        tx: pbc_types::Transaction,
        cfg: &IngressConfig,
    ) {
        let (client, txid) = (tx.client.0, tx.id.0);
        let expired_before = queue.stats().expired;
        let admit = queue.offer(tx, at);
        let outcome = match admit {
            Admit::Admitted => "admitted",
            Admit::Full => "full",
            Admit::Duplicate => "duplicate",
        };
        pbc_trace::emit(at, || TraceEvent::IngressAdmit { client, tx: txid, outcome });
        // TTL expiries freed at the door plus an outright rejection are
        // both client-visible responses: closed-loop clients think and
        // retry with fresh transactions, open-loop ones ignore this.
        let expired = queue.stats().expired - expired_before;
        let responses = expired + usize::from(admit != Admit::Admitted);
        if responses > 0 {
            load.on_resolved(responses, at);
        }
        while queue.depth() >= self.batch_size && self.backlog() < cfg.max_inflight_batches {
            let txs = queue.drain(self.batch_size, at);
            self.submit_batch_at(txs, at);
        }
        self.flush_lingering(queue, at, cfg);
    }

    /// Ships a partial batch whose oldest member has lingered past the
    /// timeout, if the in-flight window has room. Returns true if a
    /// batch was submitted.
    fn flush_lingering(
        &mut self,
        queue: &mut IngressQueue,
        now: SimTime,
        cfg: &IngressConfig,
    ) -> bool {
        if self.backlog() >= cfg.max_inflight_batches {
            return false;
        }
        match queue.oldest_arrival() {
            Some(oldest) if oldest.saturating_add(cfg.linger) <= now && queue.depth() > 0 => {
                let txs = queue.drain(self.batch_size, now);
                if txs.is_empty() {
                    return false;
                }
                self.submit_batch_at(txs, now);
                true
            }
            _ => false,
        }
    }

    /// Wraps drained transactions into the next batch and schedules its
    /// client-request fan-in at the absolute tick `at`.
    fn submit_batch_at(&mut self, txs: Vec<pbc_types::Transaction>, at: SimTime) {
        if txs.is_empty() {
            return;
        }
        let batch = Batch::new(self.next_batch_id, txs);
        self.next_batch_id += 1;
        self.ordering.submit_at(batch, at);
    }

    /// Applies every newly decided batch and resolves its transactions
    /// against the queue, stamping per-client latency trace events and
    /// feeding completions back to closed-loop clients at their decide
    /// times.
    fn resolve_decided(
        &mut self,
        load: &mut LoadGen,
        queue: &mut IngressQueue,
        latencies: &mut Vec<SimTime>,
        batches: &mut usize,
        mispredicted: &mut usize,
    ) {
        self.apply_decided(|_seq, batch, t, outcome| {
            let committed: HashSet<TxId> = outcome.committed.iter().copied().collect();
            let out_of_gas: HashSet<TxId> = outcome.out_of_gas.iter().copied().collect();
            *mispredicted += outcome.mispredicted.len();
            let mut resolved = 0usize;
            for tx in &batch.txs {
                let r = if committed.contains(&tx.id) {
                    queue.resolve_committed(tx.id, t).map(|l| (l, "commit"))
                } else if out_of_gas.contains(&tx.id) {
                    queue.resolve_aborted_out_of_gas(tx.id, t).map(|l| (l, "abort-out-of-gas"))
                } else {
                    queue.resolve_aborted(tx.id, t).map(|l| (l, "abort"))
                };
                let Some((latency, label)) = r else {
                    continue; // not ours (submitted out-of-band)
                };
                if label == "commit" {
                    latencies.push(latency);
                }
                pbc_trace::emit(t, || TraceEvent::ClientLatency {
                    client: tx.client.0,
                    tx: tx.id.0,
                    latency,
                    outcome: label,
                });
                resolved += 1;
            }
            if resolved > 0 {
                load.on_resolved(resolved, t);
            }
            *batches += 1;
        });
    }
}
