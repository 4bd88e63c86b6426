//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is generated from these tables (`--manifest`) and a test checks the
//! committed file against them, so the bounds live in one place.

use pbc_core::{ArchKind, ConsensusKind};
use pbc_sim::SimTime;
use pbc_workload::blockbench::Contract;
use pbc_workload::{BlockbenchWorkload, PaymentWorkload};

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed of `run.sh`.
pub const DEFAULT_SEED: u64 = 11;

/// The orderer's window: batches submitted but undecided.
pub const MAX_INFLIGHT_BATCHES: usize = 4;

/// Arrival horizon of a steady-state PBFT slice, ticks. PBFT's progress
/// timer (50 000 ticks) is armed while requests are pending and, under
/// steady load, fires although the primary is healthy; the view change it
/// starts sometimes never completes (README, finding F1). Below the
/// timeout no epoch of any workload lost an operation in 600 trial epochs.
pub const STEADY_TICKS: SimTime = 45_000;

/// Ingress queue capacity of every simulator workload.
pub const QUEUE_CAPACITY: usize = 4096;

/// What the clients submit.
#[derive(Clone, Debug)]
pub enum Load {
    /// Zipfian payments between `accounts` accounts.
    Payments { accounts: usize, theta: f64 },
    /// The Blockbench IoHeavy contract on `pbc-vm`, with mispredicted
    /// footprints and gas starvation switched on.
    IoHeavy,
}

impl Load {
    pub fn payments(&self, seed: u64) -> Option<PaymentWorkload> {
        match *self {
            Load::Payments { accounts, theta } => {
                Some(PaymentWorkload { accounts, theta, seed, ..Default::default() })
            }
            Load::IoHeavy => None,
        }
    }

    pub fn io_heavy(seed: u64) -> BlockbenchWorkload {
        BlockbenchWorkload {
            contract: Contract::IoHeavy,
            accounts: 1024,
            scan: 16,
            agg_keys: 64,
            hot_fraction: 0.05,
            theta: 0.6,
            accuracy: 0.9,
            starve: 0.01,
            seed,
            ..Default::default()
        }
    }
}

/// What the driver does after a slice of `run_ingress`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum After {
    /// Nothing: the next slice follows at once.
    Nothing,
    /// `BlockchainNetwork::persist()`: checkpoint + block append + fsync.
    Persist,
    /// `crash(0)`: the view-0 primary stops.
    CrashPrimary,
}

/// One simulator workload: a network, a load and a slice schedule.
#[derive(Clone, Debug)]
pub struct SimSpec {
    pub consensus: ConsensusKind,
    pub n: usize,
    pub arch: ArchKind,
    pub load: Load,
    pub batch: usize,
    /// Open-loop Poisson offered rate, transactions per simulated second.
    pub rate_tps: u64,
    /// `(horizon ticks, action after the slice)`; horizons are relative
    /// to the start of each `run_ingress` call.
    pub slices: Vec<(SimTime, After)>,
    /// Four `NodeStore`s on `RealFs`.
    pub durable: bool,
}

/// The TCP workload: closed loop, one client thread, one batch outstanding.
#[derive(Clone, Debug)]
pub struct TcpSpec {
    pub n: usize,
    pub batches: usize,
    pub warmup: usize,
    pub batch: usize,
    pub accounts: usize,
}

#[derive(Clone, Debug)]
pub enum Kind {
    Sim(SimSpec),
    Tcp(TcpSpec),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Epochs of a run not given `--seconds`: sized so
    /// the timed sections of one run add up to about `RUN_SECONDS` on the
    /// two-core box the first baseline was taken on.
    pub epochs: usize,
    pub kind: Kind,
}

pub fn workloads() -> Vec<Workload> {
    let sim = |consensus, n, arch, load, batch, rate_tps, slices, durable| {
        Kind::Sim(SimSpec { consensus, n, arch, load, batch, rate_tps, slices, durable })
    };
    vec![
        Workload {
            name: "order-pbft32-ox",
            why: "Ordering-bound: PBFT n=32, batch 4, about 520 messages per commit; sim and consensus dominate host time",
            epochs: 44,
            kind: sim(
                ConsensusKind::Pbft,
                32,
                ArchKind::Ox,
                Load::Payments { accounts: 4096, theta: 0.0 },
                4,
                8_000,
                vec![(STEADY_TICKS, After::Nothing)],
                false,
            ),
        },
        Workload {
            name: "exec-pbft4-oxii-vm",
            why: "Execution-bound: IoHeavy VM contracts, batch 128, OXII depgraph + MVCC apply + seal; mispredict salvage and out-of-gas live",
            epochs: 19,
            kind: sim(
                ConsensusKind::Pbft,
                4,
                ArchKind::Oxii,
                Load::IoHeavy,
                128,
                40_000,
                vec![(STEADY_TICKS, After::Nothing)],
                false,
            ),
        },
        Workload {
            name: "endorse-pbft4-xov",
            why: "Same arch/ledger/txn layers used as execute-order-validate with endorsement signatures and inherent read-conflict aborts",
            epochs: 66,
            kind: sim(
                ConsensusKind::Pbft,
                4,
                ArchKind::XovEndorsed,
                Load::Payments { accounts: 256, theta: 0.9 },
                32,
                32_000,
                vec![(STEADY_TICKS, After::Nothing)],
                false,
            ),
        },
        Workload {
            name: "durable-pbft4-ox",
            why: "Store-bound: four NodeStores on the real file system, persist() after every slice; the only workload with a store",
            epochs: 100,
            kind: sim(
                ConsensusKind::Pbft,
                4,
                ArchKind::Ox,
                Load::Payments { accounts: 4096, theta: 0.0 },
                32,
                16_000,
                vec![(4_000, After::Persist); 11],
                true,
            ),
        },
        Workload {
            name: "longlog-raft3-ox",
            why: "One long-lived Raft log: costs that grow with log length dominate here and are absent from the short epochs",
            epochs: 10,
            kind: sim(
                ConsensusKind::Raft,
                3,
                ArchKind::Ox,
                Load::Payments { accounts: 1024, theta: 0.6 },
                8,
                16_000,
                vec![(200_000, After::Nothing)],
                false,
            ),
        },
        Workload {
            name: "failover-pbft4-ox",
            why: "Fault run: the primary crashes while open-loop requests keep arriving; view change and timers decide the result",
            epochs: 300,
            kind: sim(
                ConsensusKind::Pbft,
                4,
                ArchKind::Ox,
                Load::Payments { accounts: 1024, theta: 0.6 },
                8,
                16_000,
                vec![(40_000, After::CrashPrimary), (STEADY_TICKS, After::Nothing)],
                false,
            ),
        },
        Workload {
            name: "tcp-pbft4",
            why: "Net-bound: the same PBFT actors on localhost TCP, closed loop with one batch outstanding, wall-clock client latency",
            epochs: 38,
            kind: Kind::Tcp(TcpSpec { n: 4, batches: 64, warmup: 4, batch: 32, accounts: 4096 }),
        },
    ]
}

/// Event budget of a slice's drain phase. A healthy drain is a handful of
/// batches (about 17 000 events at n=32); a stalled one ends here instead
/// of spinning through view-change timers.
pub const DRAIN_EVENTS: u64 = 100_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "commit_tx_per_host_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "committed_share", unit: "ratio", better: Better::Higher, bound: 0.02 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "sim_commit_tx_per_s", unit: "1/s", better: Better::Higher, bound: 0.04 },
    EndToEnd { name: "sim_latency_p50_us", unit: "us", better: Better::Lower, bound: 0.06 },
    EndToEnd { name: "sim_latency_p99_us", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "sim_outage_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "client_latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "client_latency_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
];

/// How per-epoch samples of a per-layer metric combine into one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Host time: the median, so one noisy epoch does not move it.
    Median,
    /// Counts and simulated time repeat exactly; the mean uses them all.
    Mean,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agg: Agg,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, agg: Agg::Median }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, agg: Agg::Mean }
}

pub const PER_LAYER: &[PerLayer] = &[
    // pbc-core: the driver itself and what the replay could not attribute.
    host("core.host_us_per_commit", "us"),
    host("core.unattributed_share", "ratio"),
    host("core.order_share", "ratio"),
    host("core.execute_share", "ratio"),
    host("core.ingress_share", "ratio"),
    host("core.persist_share", "ratio"),
    count("core.failed_share", "ratio", Better::Lower),
    host("trace.overhead_share", "ratio"),
    host("trace.sink_on_overhead_share", "ratio"),
    // pbc-ingress
    host("ingress.host_ns_per_offer", "ns"),
    count("ingress.admitted", "count", Better::Higher),
    count("ingress.rejected_full", "count", Better::Lower),
    count("ingress.expired", "count", Better::Lower),
    count("ingress.batch_fill", "ratio", Better::Higher),
    // pbc-consensus on pbc-sim
    host("order.host_us_per_batch", "us"),
    host("order.host_ns_per_event", "ns"),
    count("order.events_per_commit", "count", Better::Lower),
    count("order.msgs_per_commit", "count", Better::Lower),
    count("order.bytes_per_commit", "count", Better::Lower),
    count("order.timers_fired", "count", Better::Lower),
    count("order.view_changes", "count", Better::Lower),
    count("order.decide_latency_p50_us", "us", Better::Lower),
    count("order.decide_latency_p99_us", "us", Better::Lower),
    host("order.late_over_early", "ratio"),
    // pbc-sim alone
    host("sim.flood_ns_per_event", "ns"),
    // pbc-arch
    host("arch.host_us_per_tx", "us"),
    count("arch.committed", "count", Better::Higher),
    count("arch.aborted", "count", Better::Lower),
    count("arch.mispredicted", "count", Better::Lower),
    count("arch.reexecuted", "count", Better::Lower),
    count("arch.out_of_gas", "count", Better::Lower),
    count("arch.useful_share", "ratio", Better::Higher),
    count("arch.seq_steps_per_block", "count", Better::Lower),
    // pbc-txn
    host("txn.depgraph_us_per_block", "us"),
    count("txn.depgraph_edges_per_block", "count", Better::Lower),
    host("txn.validate_us_per_block", "us"),
    // pbc-ledger
    host("ledger.execute_us_per_tx", "us"),
    host("ledger.apply_us_per_block", "us"),
    host("ledger.state_digest_us", "us"),
    host("ledger.seal_us_per_block", "us"),
    // pbc-vm
    host("vm.invoke_us_per_tx", "us"),
    count("vm.gas_per_tx", "count", Better::Lower),
    // pbc-crypto
    host("crypto.sha256_ns_per_64b", "ns"),
    host("crypto.merkle_root_us_per_block", "us"),
    host("crypto.sign_us", "us"),
    host("crypto.verify_us", "us"),
    host("crypto.verify_batch_us_per_sig", "us"),
    // pbc-types
    host("types.batch_encode_us_per_block", "us"),
    // pbc-store
    host("store.persist_ms_per_call", "ms"),
    host("store.append_us_per_block", "us"),
    host("store.sync_ms", "ms"),
    count("store.bytes_per_commit", "count", Better::Lower),
    count("store.blocks_persisted", "count", Better::Higher),
    host("store.recover_ms", "ms"),
    // pbc-net and the consensus wire codec
    host("net.boot_ms", "ms"),
    count("net.frames_per_commit", "count", Better::Lower),
    count("net.bytes_per_commit", "count", Better::Lower),
    host("net.frame_roundtrip_ns", "ns"),
    count("net.reconnects", "count", Better::Lower),
    count("net.decode_errors", "count", Better::Lower),
    host("consensus.wire_encode_ns", "ns"),
    host("consensus.wire_decode_ns", "ns"),
];

/// `BENCHMARK.json`, generated so the tables above are its only source.
pub fn manifest() -> String {
    let workloads: Vec<String> = workloads()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
