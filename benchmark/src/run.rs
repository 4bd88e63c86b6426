//! One workload in this process: the epoch loop, the correctness gates,
//! and the metrics computed from the epochs.

use crate::driver::{self, Epoch, History};
use crate::kernels;
use crate::replay;
use crate::span::Recorder;
use crate::spec::{Agg, Kind, SimSpec, TcpSpec, Workload, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, quantile, ratio, summary, Summary};
use crate::tcp::{self, TcpEpoch};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long the epoch loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Until about this much wall-clock time has gone into the loop.
    Seconds(u64),
    /// Exactly this many epochs, so two runs do identical work.
    Epochs(usize),
}

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// Quarter horizons and one seed: the harness's own test.
    pub smoke: bool,
}

/// One metric value with its unit and, for host time, its spread.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub epochs: usize,
    pub stalled_epochs: usize,
    pub metrics: Vec<Value>,
}

/// Where the run may write: store directories and the span file.
/// `run.sh` names the directory; a bare `cargo run` falls back to the
/// package's own.
pub fn out_dir() -> PathBuf {
    std::env::var_os("PBC_BENCH_OUT")
        .map_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")), PathBuf::from)
}

impl Limit {
    /// True while another epoch of about `last` fits. A timed run takes
    /// at least two epochs: the second is the determinism self-check.
    fn more(self, done: usize, spent: Duration, last: Duration) -> bool {
        match self {
            Limit::Epochs(n) => done < n,
            Limit::Seconds(s) => done < 2 || spent + last / 2 < Duration::from_secs(s),
        }
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |k| k / 1024.0)
}

fn smoke_sim(spec: &SimSpec) -> SimSpec {
    let mut s = spec.clone();
    for slice in &mut s.slices {
        slice.0 /= 4;
    }
    s
}

fn smoke_tcp(spec: &TcpSpec) -> TcpSpec {
    TcpSpec { batches: spec.batches / 4, ..spec.clone() }
}

/// The seed of epoch `i`. Epoch 1 repeats epoch 0: the determinism
/// self-check compares the two, and both count as host-time samples.
fn epoch_seed(seed: u64, i: usize) -> u64 {
    seed + i.saturating_sub(1) as u64
}

/// One end-to-end epoch of a simulator workload, set-up timed, gates on.
fn sim_epoch(spec: &SimSpec, seed: u64, scratch: &Path) -> (Epoch, driver::Rig) {
    let t = Instant::now();
    let mut rig = spec.rig(seed, scratch);
    let setup_ns = t.elapsed().as_nanos() as u64;
    let mut e = driver::run_slices(spec, &mut rig);
    e.setup_ns = setup_ns;
    (e, rig)
}

fn print_epoch(i: usize, seed: u64, e: &Epoch) {
    println!(
        "  epoch {i:>3} seed {seed}: host {:.4} s, setup {:.3} ms, offered {}, committed {}, \
         aborted {}, failed {}, batches {}, consensus_complete {}",
        e.host_ns as f64 / 1e9,
        e.setup_ns as f64 / 1e6,
        e.offered,
        e.committed,
        e.aborted,
        e.failed(),
        e.batches,
        e.consensus_complete,
    );
}

/// Per-epoch samples of every per-layer metric.
type LayerSamples = BTreeMap<&'static str, Vec<f64>>;

#[derive(Default)]
struct Collected {
    epochs: Vec<Epoch>,
    /// Indices of `epochs` that repeat an earlier seed: host-time samples
    /// only, left out of simulated-time means.
    repeats: Vec<usize>,
    client_ns: Vec<u64>,
    layers: LayerSamples,
}

impl Collected {
    /// Calls `epoch(collected, index)` until `limit` is reached. Each call
    /// runs one epoch and pushes it to `epochs`.
    fn fill(limit: Limit, mut epoch: impl FnMut(&mut Collected, usize)) -> Collected {
        let mut c = Collected::default();
        let start = Instant::now();
        let mut last = Duration::ZERO;
        while limit.more(c.epochs.len(), start.elapsed(), last) {
            let t = Instant::now();
            let i = c.epochs.len();
            epoch(&mut c, i);
            last = t.elapsed();
        }
        c
    }

    fn sample(&mut self, layers: BTreeMap<&'static str, f64>) {
        for (name, v) in layers {
            self.layers.entry(name).or_default().push(v);
        }
    }
}

pub fn run(w: &Workload, opt: Options) -> Outcome {
    let scratch = out_dir();
    std::fs::create_dir_all(&scratch).expect("create benchmark/out");
    // Untraced, the second epoch repeats the first for the determinism
    // self-check; traced, every epoch is already run three times.
    let limit = match opt {
        Options { smoke: true, trace, .. } => Limit::Epochs(if trace { 1 } else { 2 }),
        _ => opt.limit,
    };
    let mut rec = Recorder::new();
    let collected = match &w.kind {
        Kind::Sim(spec) => {
            let spec = if opt.smoke { smoke_sim(spec) } else { spec.clone() };
            if opt.trace {
                traced_sim(&spec, opt.seed, limit, &scratch, &mut rec)
            } else {
                plain_sim(&spec, opt.seed, limit, &scratch)
            }
        }
        Kind::Tcp(spec) => {
            let spec = if opt.smoke { smoke_tcp(spec) } else { spec.clone() };
            run_tcp(&spec, opt.seed, limit, opt.trace, &mut rec)
        }
    };
    if opt.trace {
        let path = scratch.join(format!("{}.trace.json", w.name));
        rec.write(&path, w.name).expect("write the span file");
        println!("  {} spans written to {}", rec.spans.len(), path.display());
    }
    let metrics =
        if opt.trace { layer_metrics(&collected.layers) } else { end_to_end_metrics(&collected) };
    // One quarter-size epoch from a cold start is too short for its
    // stage times to be compared: the smoke test prints the share only.
    let unattributed = metrics.iter().find(|m| m.name == "core.unattributed_share");
    if let Some(m) = unattributed.filter(|_| !opt.smoke) {
        assert!(
            m.value >= -0.10,
            "the replay stages take {:.0}% more time than the run they replay: the replay is wrong",
            -m.value * 100.0
        );
    }
    Outcome {
        attempted: collected.epochs.iter().map(|e| e.offered as u64).sum(),
        failed: collected.epochs.iter().map(|e| e.failed() as u64).sum(),
        epochs: collected.epochs.len(),
        stalled_epochs: collected.epochs.iter().filter(|e| !e.consensus_complete).count(),
        metrics,
    }
}

fn plain_sim(spec: &SimSpec, seed: u64, limit: Limit, scratch: &Path) -> Collected {
    Collected::fill(limit, |c, i| {
        let s = epoch_seed(seed, i);
        let (e, mut rig) = sim_epoch(spec, s, scratch);
        if spec.durable {
            driver::durable_gate(spec, &mut rig);
        }
        print_epoch(i, s, &e);
        if i == 1 {
            assert_eq!(
                e.deterministic(),
                c.epochs[0].deterministic(),
                "two runs of the same seed differ: the simulator is not deterministic"
            );
            println!("  determinism self-check: epoch 1 repeats epoch 0 bit for bit");
            c.repeats.push(i);
        }
        c.epochs.push(e);
    })
}

fn run_tcp(spec: &TcpSpec, seed: u64, limit: Limit, trace: bool, rec: &mut Recorder) -> Collected {
    Collected::fill(limit, |c, i| {
        let s = seed + i as u64;
        let plain = tcp::run_epoch(spec, s);
        print_epoch(i, s, &plain.epoch);
        if trace {
            rec.set_epoch(i);
            let traced = tcp::run_epoch(spec, s);
            // A stalled epoch decided nothing that could be replayed.
            if let Some(hist) = &traced.history {
                let core = rec.record(
                    "core.run",
                    traced.timed_from,
                    traced.epoch.host_ns,
                    traced.epoch.committed as u64,
                );
                c.sample(tcp_layers(spec, s, &plain, &traced, hist, core, rec));
            }
        }
        c.client_ns.extend(&plain.client_ns);
        c.epochs.push(plain.epoch);
    })
}

/// Traced epochs of a simulator workload: the same epoch three times
/// (plain, inside a span, with a `pbc-trace` sink installed), then the
/// staged replay and the kernels on what it decided.
fn traced_sim(
    spec: &SimSpec,
    seed: u64,
    limit: Limit,
    scratch: &Path,
    rec: &mut Recorder,
) -> Collected {
    Collected::fill(limit, |c, i| {
        let s = seed + i as u64;
        rec.set_epoch(i);

        let (plain, rig) = sim_epoch(spec, s, scratch);
        drop(rig);
        let mut rig = spec.rig(s, scratch);
        let open = rec.open("core.run", None);
        let reports = driver::slices(spec, &mut rig);
        let core = rec.close(open, 0);
        let traced = driver::gate(spec, &rig, &reports, rec.ns(core));
        rec.spans[core].count = traced.committed as u64;
        let hist = rig.history();
        drop(rig);
        pbc_trace::install(pbc_trace::TraceSink::new(4096));
        let (sunk, rig) = sim_epoch(spec, s, scratch);
        let sink = pbc_trace::uninstall().expect("the sink installed above");
        drop(rig);
        assert_eq!(plain.deterministic(), traced.deterministic(), "same seed, different run");
        assert_eq!(plain.deterministic(), sunk.deterministic(), "a trace sink changed the run");
        print_epoch(i, s, &traced);

        let protocol = spec.consensus.registry_name();
        let view_changes = sink.metrics().proto(protocol).map_or(0, |p| p.view_changes);
        c.sample(sim_layers(
            spec,
            s,
            scratch,
            [&plain, &traced, &sunk],
            core,
            &hist,
            view_changes,
            rec,
        ));
        c.epochs.push(traced);
    })
}

fn sorted_f64(values: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.map(|x| x as f64).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum of `(ns, count)` over the spans called `name` in epoch `epoch`.
fn kernel(rec: &Recorder, epoch: usize, name: &str) -> (f64, f64) {
    rec.spans
        .iter()
        .filter(|s| s.epoch == epoch && s.name == name)
        .fold((0.0, 0.0), |(ns, n), s| (ns + s.ns() as f64, n + s.count as f64))
}

/// Nanoseconds per work item of the kernel spans called `name`.
fn per_item(rec: &Recorder, epoch: usize, name: &str) -> f64 {
    let (ns, n) = kernel(rec, epoch, name);
    ratio(ns, n)
}

/// The metrics every traced epoch has: order, execute, kernels.
#[allow(clippy::too_many_arguments)]
fn common_layers(
    out: &mut BTreeMap<&'static str, f64>,
    e: &Epoch,
    hist: &History,
    order: &replay::OrderReplay,
    exec: &replay::ExecuteReplay,
    n: usize,
    seed: u64,
    epoch: usize,
    rec: &mut Recorder,
) -> usize {
    let committed = e.committed as f64;
    let order_self = rec.self_ns(order.span) as f64;
    let batches = hist.batches.len() as f64;
    out.insert("order.host_us_per_batch", ratio(order_self, batches) / 1e3);
    out.insert("order.host_ns_per_event", ratio(order_self, order.events as f64));
    out.insert("order.events_per_commit", ratio(order.events as f64, committed));
    out.insert("order.msgs_per_commit", ratio(order.msgs as f64, committed));
    out.insert("order.bytes_per_commit", ratio(order.bytes as f64, committed));
    out.insert("order.timers_fired", order.timers_fired as f64);
    let lat = sorted_f64(order.decide_latency.iter().copied());
    out.insert("order.decide_latency_p50_us", quantile(&lat, 0.50));
    out.insert("order.decide_latency_p99_us", quantile(&lat, 0.99));
    let quarter = (order.per_batch_ns.len() / 4).max(1);
    let early = mean(&sorted_f64(order.per_batch_ns.iter().take(quarter).copied()));
    let late = mean(&sorted_f64(order.per_batch_ns.iter().rev().take(quarter).copied()));
    out.insert("order.late_over_early", ratio(late, early));

    out.insert("arch.host_us_per_tx", rec.ns_per_item(exec.span) / 1e3);
    let o = &exec.outcome;
    out.insert("arch.committed", o.committed.len() as f64);
    out.insert("arch.aborted", o.aborted.len() as f64);
    out.insert("arch.mispredicted", o.mispredicted.len() as f64);
    out.insert("arch.reexecuted", o.reexecuted.len() as f64);
    out.insert("arch.out_of_gas", o.out_of_gas.len() as f64);
    out.insert(
        "arch.useful_share",
        ratio(o.committed.len() as f64, (o.committed.len() + o.aborted.len()) as f64),
    );
    out.insert("arch.seq_steps_per_block", ratio(o.sequential_steps as f64, exec.blocks as f64));

    let (_, kernels_span) = rec.time("kernels", None, 0, || ());
    let counts = kernels::blocks(hist, rec, kernels_span);
    kernels::crypto(rec, kernels_span);
    kernels::sim_flood(n, seed, rec, kernels_span);
    let us = |name: &str| per_item(rec, epoch, name) / 1e3;
    out.insert("txn.depgraph_us_per_block", us("kernel.depgraph"));
    out.insert("txn.depgraph_edges_per_block", ratio(counts.depgraph_edges as f64, batches));
    out.insert("txn.validate_us_per_block", us("kernel.validate"));
    out.insert("ledger.execute_us_per_tx", us("kernel.execute"));
    out.insert("ledger.apply_us_per_block", us("kernel.apply"));
    out.insert("ledger.state_digest_us", us("kernel.state_digest"));
    out.insert("ledger.seal_us_per_block", us("kernel.seal"));
    out.insert("vm.invoke_us_per_tx", us("kernel.vm"));
    out.insert("vm.gas_per_tx", ratio(counts.vm_gas as f64, counts.vm_txs as f64));
    out.insert("crypto.sha256_ns_per_64b", per_item(rec, epoch, "kernel.sha256_64b"));
    out.insert("crypto.merkle_root_us_per_block", us("kernel.merkle_root"));
    out.insert("crypto.sign_us", us("kernel.sign"));
    out.insert("crypto.verify_us", us("kernel.verify"));
    out.insert("crypto.verify_batch_us_per_sig", us("kernel.verify_batch"));
    out.insert("types.batch_encode_us_per_block", us("kernel.batch_encode"));
    out.insert("sim.flood_ns_per_event", per_item(rec, epoch, "kernel.sim_flood"));
    kernels_span
}

#[allow(clippy::too_many_arguments)]
fn sim_layers(
    spec: &SimSpec,
    seed: u64,
    scratch: &Path,
    [plain, traced, sunk]: [&Epoch; 3],
    core: usize,
    hist: &History,
    view_changes: u64,
    rec: &mut Recorder,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let epoch = rec.spans[core].epoch;
    let e = traced;
    let marks = replay::marks(spec, e);
    let replay_root = scratch.join(format!("replay-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&replay_root);
    let durable_root = spec.durable.then_some(replay_root.as_path());
    let order = replay::order(
        spec.consensus.registry_name(),
        spec.n,
        seed,
        durable_root,
        &marks,
        hist,
        rec,
        Some(core),
    );
    let exec = replay::execute(spec.arch, spec.n, &marks, hist, rec, Some(core));
    let ingress = replay::ingress(spec, seed, e.offered, rec, Some(core));

    let run_ns = rec.ns(core) as f64;
    let order_self = rec.self_ns(order.span) as f64;
    let shares = [
        ("core.order_share", order_self),
        ("core.execute_share", rec.ns(exec.span) as f64),
        ("core.ingress_share", rec.ns(ingress) as f64),
        ("core.persist_share", order.persist_ns as f64),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        out.insert(name, ratio(ns, run_ns));
        attributed += ns;
    }
    let unattributed = 1.0 - ratio(attributed, run_ns);
    out.insert("core.unattributed_share", unattributed);
    out.insert("core.host_us_per_commit", ratio(run_ns, e.committed as f64) / 1e3);
    out.insert("core.failed_share", ratio((e.offered - e.committed) as f64, e.offered as f64));
    out.insert("trace.overhead_share", ratio(run_ns, plain.host_ns as f64) - 1.0);
    out.insert(
        "trace.sink_on_overhead_share",
        ratio(sunk.host_ns as f64, plain.host_ns as f64) - 1.0,
    );
    out.insert("ingress.host_ns_per_offer", rec.ns_per_item(ingress));
    out.insert("ingress.admitted", (e.offered - e.rejected_full) as f64);
    out.insert("ingress.rejected_full", e.rejected_full as f64);
    out.insert("ingress.expired", e.expired as f64);
    let in_batches: usize = hist.batches.iter().map(|b| b.1.txs.len()).sum();
    out.insert(
        "ingress.batch_fill",
        ratio(in_batches as f64, (hist.batches.len() * spec.batch) as f64),
    );
    out.insert("order.view_changes", view_changes as f64);

    let kernels_span = common_layers(&mut out, e, hist, &order, &exec, spec.n, seed, epoch, rec);
    if spec.durable {
        out.insert(
            "store.persist_ms_per_call",
            ratio(order.persist_ns as f64, order.persist_calls as f64) / 1e6,
        );
        let counts =
            kernels::store(hist, &e.slice_batches, &replay_root.join("raw"), rec, kernels_span);
        out.insert("store.append_us_per_block", per_item(rec, epoch, "kernel.store_append") / 1e3);
        out.insert("store.sync_ms", per_item(rec, epoch, "kernel.store_sync") / 1e6);
        out.insert("store.recover_ms", per_item(rec, epoch, "kernel.store_recover") / 1e6);
        out.insert("store.bytes_per_commit", ratio(counts.bytes as f64, e.committed as f64));
        out.insert("store.blocks_persisted", counts.blocks_persisted as f64);
    }
    let _ = std::fs::remove_dir_all(&replay_root);
    out
}

fn tcp_layers(
    spec: &TcpSpec,
    seed: u64,
    plain: &TcpEpoch,
    traced: &TcpEpoch,
    hist: &History,
    core: usize,
    rec: &mut Recorder,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let epoch = rec.spans[core].epoch;
    let e = &traced.epoch;
    // Handler time: the same batches ordered on the simulator. What is
    // left of the TCP time is sockets, threads and the client's polling.
    let order = replay::order("pbft", spec.n, seed, None, &[], hist, rec, Some(core));
    let exec = replay::execute(pbc_core::ArchKind::Ox, 1, &[], hist, rec, None);
    let run_ns = rec.ns(core) as f64;
    let order_self = rec.self_ns(order.span) as f64;
    out.insert("core.order_share", ratio(order_self, run_ns));
    out.insert("core.unattributed_share", 1.0 - ratio(order_self, run_ns));
    out.insert("core.host_us_per_commit", ratio(run_ns, e.committed as f64) / 1e3);
    out.insert("core.failed_share", ratio((e.offered - e.committed) as f64, e.offered as f64));
    out.insert("trace.overhead_share", ratio(run_ns, plain.epoch.host_ns as f64) - 1.0);

    let kernels_span = common_layers(&mut out, e, hist, &order, &exec, spec.n, seed, epoch, rec);
    let s = traced.stats;
    let committed = e.committed as f64;
    out.insert("net.boot_ms", traced.boot_ns as f64 / 1e6);
    out.insert("net.frames_per_commit", ratio(s.frames_sent as f64, committed));
    out.insert("net.bytes_per_commit", ratio(s.bytes_sent as f64, committed));
    out.insert("net.reconnects", s.reconnects as f64);
    out.insert("net.decode_errors", s.decode_errors as f64);
    let mean_frame = ratio(s.bytes_sent as f64, s.frames_sent as f64) as usize;
    kernels::wire(hist, mean_frame, rec, kernels_span);
    out.insert("net.frame_roundtrip_ns", per_item(rec, epoch, "kernel.frame_roundtrip"));
    out.insert("consensus.wire_encode_ns", per_item(rec, epoch, "kernel.wire_encode"));
    out.insert("consensus.wire_decode_ns", per_item(rec, epoch, "kernel.wire_decode"));
    out
}

fn layer_metrics(samples: &LayerSamples) -> Vec<Value> {
    PER_LAYER
        .iter()
        .map(|m| {
            let v = samples.get(m.name).map_or(&[][..], Vec::as_slice);
            let (value, spread) = match m.agg {
                Agg::Median => (median(v), Some(summary(v))),
                Agg::Mean => (mean(v), None),
            };
            Value { name: m.name, unit: m.unit, value, spread }
        })
        .collect()
}

fn end_to_end_metrics(c: &Collected) -> Vec<Value> {
    let per_epoch = |f: &dyn Fn(&Epoch) -> f64| -> Vec<f64> { c.epochs.iter().map(f).collect() };
    // Simulated time repeats exactly for a seed, so a repeated seed
    // would count twice in a mean.
    let distinct = |f: &dyn Fn(&Epoch) -> f64| -> Vec<f64> {
        c.epochs
            .iter()
            .enumerate()
            .filter(|(i, _)| !c.repeats.contains(i))
            .map(|(_, e)| f(e))
            .collect()
    };
    let setup = per_epoch(&|e| e.setup_ns as f64 / 1e9);
    let tput = per_epoch(&|e| ratio(e.committed as f64, e.host_ns as f64 / 1e9));
    let offered: f64 = c.epochs.iter().map(|e| e.offered as f64).sum();
    let committed: f64 = c.epochs.iter().map(|e| e.committed as f64).sum();
    let sim_tps = mean(&distinct(&|e| ratio(e.committed as f64 * 1e6, e.sim_elapsed as f64)));
    let p50 = mean(&distinct(&|e| e.p50 as f64));
    let p99 = mean(&distinct(&|e| e.p99 as f64));
    let outage = mean(&distinct(&|e| e.outage as f64));
    // A simulator workload has no wall-clock client: its client latency
    // is the simulated one, in the milliseconds a deployment whose
    // delays equal the simulated ones would show.
    let client = sorted_f64(c.client_ns.iter().copied());
    let (client_p50, client_p99) = if client.is_empty() {
        (p50 / 1e3, p99 / 1e3)
    } else {
        (quantile(&client, 0.50) / 1e6, quantile(&client, 0.99) / 1e6)
    };
    let values = [
        (median(&setup), Some(summary(&setup))),
        (median(&tput), Some(summary(&tput))),
        (ratio(committed, offered), None),
        (peak_rss_mib(), None),
        (sim_tps, None),
        (p50, None),
        (p99, None),
        (outage, None),
        (client_p50, None),
        (client_p99, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, spread))| Value { name: m.name, unit: m.unit, value, spread })
        .collect()
}
