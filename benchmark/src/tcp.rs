//! The TCP workload: the registry's PBFT actors on localhost sockets,
//! one client thread, closed loop, one batch outstanding. An epoch's
//! timings are accepted only after its commit rows and sealed head equal
//! a same-seed simulator run.

use crate::driver::{Epoch, History};
use crate::spec::TcpSpec;
use pbc_core::{sealed_head, ArchKind, Batch, ConsensusKind, NetworkBuilder};
use pbc_net::{NetRunner, RealStatsSnap};
use pbc_sim::SimTime;
use pbc_workload::PaymentWorkload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Deadline of one client wait. A batch takes about 2 ms; one that is
/// not decided in two seconds is counted as failed and ends the epoch.
const WAIT: Duration = Duration::from_secs(2);

/// One TCP epoch: the common end-to-end record plus what only sockets have.
pub struct TcpEpoch {
    pub epoch: Epoch,
    /// When the timed section began.
    pub timed_from: Instant,
    /// Submit to `wait_decided(0, k)` of every post-warm-up batch, ns.
    pub client_ns: Vec<u64>,
    pub boot_ns: u64,
    pub stats: RealStatsSnap,
    /// What the epoch decided; `None` when it stalled.
    pub history: Option<History>,
}

fn percentile(sorted: &[SimTime], p: f64) -> SimTime {
    sorted.get(((sorted.len().max(1) - 1) as f64 * p) as usize).copied().unwrap_or(0)
}

pub fn run_epoch(spec: &TcpSpec, seed: u64) -> TcpEpoch {
    // Set-up: inputs and cluster boot.
    let t_setup = Instant::now();
    let workload = PaymentWorkload { accounts: spec.accounts, seed, ..Default::default() };
    let genesis = workload.initial_state();
    let txs = workload.generate(0, spec.batches * spec.batch);
    let batches: Vec<Batch> = txs
        .chunks(spec.batch)
        .enumerate()
        .map(|(id, chunk)| Batch::new(id as u64, chunk.to_vec()))
        .collect();
    let t_boot = Instant::now();
    let mut cluster =
        pbc_consensus::run_real::<Batch, _>("pbft", spec.n, NetRunner::with_seed(seed))
            .expect("pbft is wire-capable")
            .expect("localhost cluster boots");
    let boot_ns = t_boot.elapsed().as_nanos() as u64;
    let setup_ns = t_setup.elapsed().as_nanos() as u64;

    // Timed section: first submit to last decision.
    let mut client_ns = Vec::with_capacity(spec.batches);
    let mut decided = 0usize;
    let t0 = Instant::now();
    for (k, batch) in batches.iter().enumerate() {
        let t = Instant::now();
        cluster.submit(batch.clone());
        if !cluster.wait_decided(0, k + 1, WAIT) {
            break; // stalled: the rest of the epoch counts as failed
        }
        decided = k + 1;
        if k >= spec.warmup {
            client_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    let host_ns = t0.elapsed().as_nanos() as u64;
    let complete = decided == spec.batches;
    let all_caught_up = cluster.wait_all_decided(decided, WAIT);
    let stats = cluster.stats();
    let logs: Vec<_> = (0..spec.n).map(|i| cluster.decided(i)).collect();
    cluster.shutdown();
    assert_eq!(stats.decode_errors, 0, "a healthy run decodes every frame");

    // A stalled epoch (nothing decided, or a replica that never caught up
    // with node 0) cannot be cross-checked: all its operations count as
    // failed, its timings are dropped, and the run goes on.
    if decided == 0 || !all_caught_up {
        let epoch = Epoch {
            setup_ns,
            host_ns,
            offered: txs.len(),
            undecided: txs.len(),
            ..Default::default()
        };
        return TcpEpoch {
            epoch,
            timed_from: t0,
            client_ns: Vec::new(),
            boot_ns,
            stats,
            history: None,
        };
    }

    // Reference: the same batches, closed loop, through the simulator.
    let mut sim = NetworkBuilder::new(spec.n)
        .consensus(ConsensusKind::Pbft)
        .architecture(ArchKind::Ox)
        .initial_state(genesis.clone())
        .batch_size(spec.batch)
        .seed(seed)
        .build();
    let sim_start = sim.now();
    let mut sim_latency: Vec<SimTime> = Vec::with_capacity(decided);
    let (mut committed, mut aborted, mut head) = (0, 0, None);
    for chunk in txs.chunks(spec.batch).take(decided) {
        let submitted = sim.now();
        sim.submit_all(chunk.to_vec());
        let r = sim.run_to_completion();
        assert!(r.consensus_complete && !r.diverged, "simulator reference run failed");
        committed += r.committed;
        aborted += r.aborted;
        head = r.head;
        let (_, seal) = *sim.seals().last().expect("a decided batch has a seal");
        sim_latency.push(seal.time - submitted);
    }
    let sim_rows = sim.commit_rows().expect("sim cluster alive");
    let seals = sim.seals();

    // The cross-check gates the timings.
    for (node, log) in logs.iter().enumerate() {
        let rows = pbc_core::commit_rows("pbft", spec.n, &log[..decided]);
        assert_eq!(rows, sim_rows, "TCP replica {node} disagrees with the simulator");
    }
    let seal_of: HashMap<u64, _> = seals.iter().copied().collect();
    let blocks: Vec<_> =
        logs[0][..decided].iter().map(|(seq, b, _)| (b.clone(), seal_of[seq])).collect();
    let head = head.expect("at least one batch decided");
    assert_eq!(
        sealed_head(ArchKind::Ox, genesis.clone(), &blocks),
        head,
        "TCP commit order does not reproduce the simulator's head"
    );

    let outage = seals.windows(2).map(|w| w[1].1.time - w[0].1.time).max().unwrap_or(0);
    sim_latency.sort_unstable();
    let s = sim.net_stats();
    let epoch = Epoch {
        setup_ns,
        host_ns,
        offered: txs.len(),
        committed,
        aborted,
        undecided: (spec.batches - decided) * spec.batch,
        batches: decided,
        sim_elapsed: sim.now() - sim_start,
        p50: percentile(&sim_latency, 0.50),
        p99: percentile(&sim_latency, 0.99),
        outage,
        consensus_complete: complete,
        msgs_sent: s.msgs_sent,
        bytes_sent: s.bytes_sent,
        events: s.msgs_delivered + s.timers_fired,
        timers_fired: s.timers_fired,
        trace_digest: sim.trace_digest(),
        ..Default::default()
    };
    let history = History {
        batches: logs[0][..decided].iter().map(|(seq, b, _)| (*seq, b.clone())).collect(),
        seals,
        head,
        genesis,
    };
    TcpEpoch { epoch, timed_from: t0, client_ns, boot_ns, stats, history: Some(history) }
}
