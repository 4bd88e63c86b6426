//! The shared simulator driver: one epoch = a fresh network, a fresh
//! open-loop Poisson load and the workload's slice schedule.

use crate::spec::{After, Load, SimSpec, DRAIN_EVENTS, MAX_INFLIGHT_BATCHES, QUEUE_CAPACITY};
use pbc_arch::BlockSeal;
use pbc_core::ingress_queue::{IngressQueue, LoadGen, LoadProfile, QueueConfig, WorkloadSource};
use pbc_core::{Batch, BlockchainNetwork, IngressConfig, IngressReport, NetworkBuilder};
use pbc_crypto::Hash;
use pbc_ledger::StateStore;
use pbc_sim::{NemesisOp, SimTime};
use pbc_store::{NodeStore, RealFs, StoreConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything one epoch needs, built during set-up.
pub struct Rig {
    pub net: BlockchainNetwork,
    pub load: LoadGen,
    pub queue: IngressQueue,
    pub genesis: StateStore,
    /// Store directories of a durable workload, removed on drop.
    _dirs: Option<TempDirs>,
}

struct TempDirs(PathBuf);

impl Drop for TempDirs {
    fn drop(&mut self) {
        // A leftover directory is harmless; a panic in drop is not.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Opens `n` fresh `NodeStore`s on the real file system under `root`.
pub fn open_stores(root: &Path, n: usize) -> Vec<NodeStore> {
    (0..n)
        .map(|i| {
            let fs = RealFs::new(root.join(format!("node{i}"))).expect("create store directory");
            NodeStore::open(Box::new(fs), StoreConfig::default()).expect("fresh store opens").0
        })
        .collect()
}

fn source(load: &Load, seed: u64) -> (WorkloadSource, StateStore) {
    match load.payments(seed) {
        Some(w) => {
            let genesis = w.initial_state();
            (WorkloadSource::payments(w), genesis)
        }
        None => {
            let w = Load::io_heavy(seed);
            let genesis = w.initial_state();
            (WorkloadSource::new(move |id, n| w.generate(id, n)), genesis)
        }
    }
}

impl SimSpec {
    /// Total arrival horizon of one epoch, ticks.
    pub fn horizon(&self) -> SimTime {
        self.slices.iter().map(|s| s.0).sum()
    }

    /// The open-loop Poisson generator of one epoch and its genesis state.
    pub fn load_gen(&self, seed: u64) -> (LoadGen, StateStore) {
        let (src, genesis) = source(&self.load, seed);
        let mean_gap = (1_000_000 / self.rate_tps).max(1);
        (LoadGen::new(src, LoadProfile::Open { mean_gap }, seed), genesis)
    }

    /// Set-up of one epoch: genesis state, generator, queue, cluster boot
    /// and (durable) store directories under `scratch`.
    pub fn rig(&self, seed: u64, scratch: &Path) -> Rig {
        let (load, genesis) = self.load_gen(seed);
        let queue =
            IngressQueue::new(QueueConfig { capacity: QUEUE_CAPACITY, ttl: self.horizon() / 2 });
        let mut builder = NetworkBuilder::new(self.n)
            .consensus(self.consensus)
            .architecture(self.arch)
            .initial_state(genesis.clone())
            .batch_size(self.batch)
            .seed(seed);
        let mut dirs = None;
        if self.durable {
            let root = scratch.join(format!("stores-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            builder = builder.durable(open_stores(&root, self.n));
            dirs = Some(TempDirs(root));
        }
        Rig { net: builder.build(), load, queue, genesis, _dirs: dirs }
    }
}

/// What one end-to-end epoch produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Epoch {
    pub setup_ns: u64,
    /// Host time of the timed section: slices plus between-slice actions.
    pub host_ns: u64,
    pub offered: usize,
    pub committed: usize,
    pub aborted: usize,
    pub out_of_gas: usize,
    pub mispredicted: usize,
    pub rejected_full: usize,
    pub expired: usize,
    /// Admitted but unresolved when the last slice's drain budget ended.
    pub undecided: usize,
    pub batches: usize,
    /// Batches decided by the end of each slice, cumulative: where the
    /// replay repeats the between-slice actions.
    pub slice_batches: Vec<usize>,
    pub sim_elapsed: SimTime,
    pub p50: SimTime,
    pub p99: SimTime,
    /// Longest gap between consecutive decision times, ticks.
    pub outage: SimTime,
    pub consensus_complete: bool,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub events: u64,
    pub timers_fired: u64,
    pub trace_digest: u64,
}

impl Epoch {
    /// Operations the service gave no verdict: refused, expired, undecided.
    pub fn failed(&self) -> usize {
        self.rejected_full + self.expired + self.undecided
    }

    /// The epoch without its host times: everything that must repeat
    /// bit for bit when the same seed runs again.
    pub fn deterministic(&self) -> Epoch {
        Epoch { setup_ns: 0, host_ns: 0, ..self.clone() }
    }
}

/// The decided history of an epoch, for the staged replay.
pub struct History {
    pub batches: Vec<(u64, Batch)>,
    pub seals: Vec<(u64, BlockSeal)>,
    pub head: Hash,
    pub genesis: StateStore,
}

fn median_of(mut v: Vec<SimTime>) -> SimTime {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

/// The timed section: the slice schedule with its between-slice actions.
pub fn slices(spec: &SimSpec, rig: &mut Rig) -> Vec<IngressReport> {
    let mut reports = Vec::with_capacity(spec.slices.len());
    for &(horizon, after) in &spec.slices {
        let cfg = IngressConfig {
            horizon,
            max_inflight_batches: MAX_INFLIGHT_BATCHES,
            drain_events: DRAIN_EVENTS,
            ..Default::default()
        };
        reports.push(rig.net.run_ingress(&mut rig.load, &mut rig.queue, &cfg));
        match after {
            After::Nothing => {}
            After::Persist => rig.net.persist(),
            After::CrashPrimary => rig.net.crash(0),
        }
    }
    reports
}

/// Times the slice schedule on a rig and applies the correctness gates.
pub fn run_slices(spec: &SimSpec, rig: &mut Rig) -> Epoch {
    let t0 = Instant::now();
    let reports = slices(spec, rig);
    let host_ns = t0.elapsed().as_nanos() as u64;
    gate(spec, rig, &reports, host_ns)
}

/// The correctness gates on a finished timed section, and its record.
/// Panics when a gate fails: a wrong run is never reported as a number.
pub fn gate(spec: &SimSpec, rig: &Rig, reports: &[IngressReport], host_ns: u64) -> Epoch {
    let mut e = Epoch { consensus_complete: true, host_ns, ..Default::default() };
    for r in reports {
        assert!(r.conserves(), "queue conservation broken: {:?}", r.queue);
        assert!(!r.diverged, "replicas diverged");
        e.consensus_complete &= r.consensus_complete;
        e.batches += r.batches;
        e.slice_batches.push(e.batches);
        e.sim_elapsed += r.elapsed;
        e.mispredicted += r.mispredicted;
    }
    assert!(rig.net.replicas_identical(), "alive replicas differ in ledger or state");
    let last = reports.last().expect("a workload has at least one slice");
    let q = last.queue;
    e.offered = q.offered;
    e.committed = q.committed;
    e.aborted = q.aborted;
    e.out_of_gas = q.aborted_out_of_gas;
    e.rejected_full = q.rejected_full;
    e.expired = q.expired;
    e.undecided = last.in_flight_at_end;
    // Latency of a fault run is what clients see after the fault; with
    // many equal slices (durable) the median slice stands for the epoch.
    if spec.slices.iter().any(|s| s.1 == After::CrashPrimary) {
        e.p50 = last.p50_latency;
        e.p99 = last.p99_latency;
    } else {
        e.p50 = median_of(reports.iter().map(|r| r.p50_latency).collect());
        e.p99 = median_of(reports.iter().map(|r| r.p99_latency).collect());
    }
    let seals = rig.net.seals();
    e.outage = seals.windows(2).map(|w| w[1].1.time.saturating_sub(w[0].1.time)).max().unwrap_or(0);
    let s = rig.net.net_stats();
    e.msgs_sent = s.msgs_sent;
    e.bytes_sent = s.bytes_sent;
    e.events = s.msgs_delivered + s.timers_fired;
    e.timers_fired = s.timers_fired;
    e.trace_digest = rig.net.trace_digest();
    e
}

/// The durable workload's extra gate, after the timed section: node 2
/// loses all memory, reboots from disk, the cluster takes one more slice,
/// and every node's cold re-read must match the decided history.
pub fn durable_gate(spec: &SimSpec, rig: &mut Rig) {
    rig.net.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
    rig.net.apply_nemesis(&NemesisOp::Restart { node: 2 });
    let cfg = IngressConfig {
        horizon: spec.slices[0].0,
        max_inflight_batches: MAX_INFLIGHT_BATCHES,
        ..Default::default()
    };
    let r = rig.net.run_ingress(&mut rig.load, &mut rig.queue, &cfg);
    assert!(r.conserves() && !r.diverged, "post-recovery slice broke a gate: {:?}", r.queue);
    assert!(rig.net.replicas_identical(), "disk-recovered replica differs");
    rig.net.persist();
    for node in 0..spec.n {
        assert_eq!(
            rig.net.verify_cold_ledger(node),
            Some(true),
            "node {node}: cold ledger differs"
        );
    }
}

impl Rig {
    /// The decided history of the reference node.
    pub fn history(&self) -> History {
        History {
            batches: self.net.decided_batches().expect("a node is alive"),
            seals: self.net.seals(),
            head: self.net.node_ledger(self.reference()).head_hash(),
            genesis: self.genesis.clone(),
        }
    }

    fn reference(&self) -> usize {
        (0..self.net.len()).find(|&i| !self.net.is_crashed(i)).expect("a node is alive")
    }
}
