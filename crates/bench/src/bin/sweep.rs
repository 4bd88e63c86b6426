//! Exhaustive crash-pair sweep for PBFT (n = 7, f = 2): checks
//! liveness and agreement for every (seed, crash-pair) combination.
//! Run with `cargo run --release -p pbc-bench --bin sweep`.
//!
//! `sweep --baseline [out.json]` instead snapshots simulator-core
//! throughput (events/sec, broadcasts/sec, consensus rounds/sec for
//! PBFT/HotStuff/Raft at n ∈ {4, 16, 64}, plus the chaos workload) into
//! a JSON file — `BENCH_PR2.json` by default — so later PRs can regress
//! against it.
//!
//! `sweep --metrics` runs one healthy consensus round per protocol with a
//! [`pbc_trace`] sink installed and prints the per-protocol metrics
//! registry: commit counts, view changes, and commit/round latency
//! histograms. It fails unless every protocol decides every request at
//! n = 16 and messages per commit order Raft < HotStuff < PBFT (§2.3.3).
//!
//! `sweep --storm-overhead` times the chaos-storm workload with the
//! trace sink absent and installed, printing both rates — the
//! observability layer's cost on the simulator's hottest path.
//!
//! `sweep --audit` runs the differential auditor over the full
//! `ConsensusKind × ArchKind` matrix (every commit replayed against the
//! sequential reference, every proof re-checked) and then the nemesis
//! shrinker regression: a seeded VolatileRaft amnesia schedule must
//! shrink to its minimal kernel and reproduce deterministically.
//!
//! `sweep --store [out.json]` exercises `pbc-store` against a **real**
//! filesystem (a tempdir): raw append/sync/recovery throughput, a torn
//! WAL write repaired by staged recovery, and an end-to-end durable
//! blockchain that total-crashes a node, reboots it from disk, passes
//! the differential auditor, and cold-verifies every node's ledger.
//! Snapshots the numbers into `BENCH_STORE.json` by default.
//!
//! `sweep --par [out.json]` snapshots the cancellation-heavy churn
//! microbench (with its timer-conservation identity) and scalar-vs-
//! batched Schnorr verification into `BENCH_PAR.json`.
//! `E16_SMOKE=1` shrinks every budget for CI.
//!
//! `sweep --e2e [out.json]` drives the full client path — seeded open-
//! loop arrivals through the bounded ingress queue into consensus and
//! pipeline execution — up an offered-rate ladder for representative
//! `ConsensusKind × ArchKind` combos, detects each curve's saturation
//! knee (Kneedle-lite), asserts pre-knee monotonicity and queue
//! conservation at every point, and snapshots the curves into
//! `BENCH_E2E.json`. All rates are simulator-time, so the file is
//! host-independent. `E2E_SMOKE=1` shrinks the ladder for CI.
//!
//! `sweep --real [out.json]` boots 4-node clusters of the registry's
//! replicas on **real localhost TCP sockets** (`pbc-net`), replays the
//! same workload through the simulator, asserts that both backends
//! committed the identical batch sequence (and that replaying it with
//! the simulator's seals reproduces the simulator's ledger head), and
//! only then snapshots wall-clock throughput into `BENCH_REAL.json`.
//! `REAL_SMOKE=1` shrinks the batch budget for CI.
//!
//! `sweep --vm [out.json]` sweeps the Blockbench-style VM contract
//! workloads across a footprint-prediction-accuracy ladder, driving the
//! identical transaction stream through OXII (schedules from declared
//! footprints, salvages mispredicts serially) and XOV (declaration-
//! blind endorsement snapshots), asserting queue/gas conservation and
//! the full differential audit at every point, and snapshots the
//! mispredict/abort/out-of-gas curves into `BENCH_VM.json`. `VM_SMOKE=1`
//! shrinks the ladder for CI.

use pbc_bench::simcore::{broadcast_flood, cancel_churn, chaos_run, chaos_storm, consensus_run};
use pbc_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use pbc_consensus::ConsensusKind;
use pbc_sim::{Network, NetworkConfig};
use std::time::Instant;

/// Times `f`, best of `reps` (deterministic work, so best-of filters
/// scheduler noise). Returns (result, seconds).
fn timed<T>(reps: u32, f: impl Fn() -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let stats = f();
        let secs = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((stats, secs));
        }
    }
    best.expect("reps >= 1")
}

fn baseline(out_path: &str) {
    const SIZES: [usize; 3] = [4, 16, 64];
    const REQUESTS: u64 = 30;
    const SEED: u64 = 0xBA5E;
    let reps = 2;

    let mut consensus_rows = Vec::new();
    for proto in [ConsensusKind::Pbft, ConsensusKind::HotStuff, ConsensusKind::Raft] {
        for n in SIZES {
            let (stats, secs) = timed(reps, || consensus_run(proto, n, SEED, REQUESTS));
            assert!(
                stats.decided >= REQUESTS,
                "{} n={n} decided only {}/{REQUESTS} slots",
                proto.registry_name(),
                stats.decided
            );
            let eps = stats.events as f64 / secs;
            let rps = stats.decided as f64 / secs;
            println!(
                "consensus {:>8} n={n:<2} events={:>9} decided={:>3} {:>12.0} events/s {:>8.1} rounds/s \
                 (timers set/fired/cancelled {}/{}/{})",
                proto.registry_name(),
                stats.events,
                stats.decided,
                eps,
                rps,
                stats.net.timers_set,
                stats.net.timers_fired,
                stats.net.timers_cancelled,
            );
            consensus_rows.push(format!(
                "    {{\"proto\": \"{}\", \"n\": {n}, \"events\": {}, \"decided\": {}, \
                 \"secs\": {:.6}, \"events_per_sec\": {:.0}, \"rounds_per_sec\": {:.2}}}",
                proto.registry_name(),
                stats.events,
                stats.decided,
                secs,
                eps,
                rps
            ));
        }
    }

    let mut flood_rows = Vec::new();
    for n in SIZES {
        let rounds = (400_000 / n as u64).max(2_000);
        let (stats, secs) = timed(reps, || broadcast_flood(n, SEED, rounds));
        let bps = stats.decided as f64 / secs;
        let eps = stats.events as f64 / secs;
        println!(
            "broadcast flood n={n:<2} rounds={rounds:>7} events={:>9} {:>12.0} events/s {:>10.0} broadcasts/s",
            stats.events, eps, bps
        );
        flood_rows.push(format!(
            "    {{\"n\": {n}, \"rounds\": {rounds}, \"events\": {}, \"secs\": {:.6}, \
             \"events_per_sec\": {:.0}, \"broadcasts_per_sec\": {:.0}}}",
            stats.events, secs, eps, bps
        ));
    }

    // The headline: a storm with millions of events in flight, the
    // regime where the scheduler itself is the profile.
    let (storm, storm_secs) = timed(reps, || chaos_storm(64, SEED, 3_000));
    let storm_eps = storm.events as f64 / storm_secs;
    println!(
        "chaos storm n=64 rounds=3000 events={} {:.0} events/s \
         (dropped {} duplicated {} spiked {}; timers set/fired/cancelled {}/{}/{})",
        storm.events,
        storm_eps,
        storm.net.msgs_dropped,
        storm.net.msgs_duplicated,
        storm.net.delay_spikes,
        storm.net.timers_set,
        storm.net.timers_fired,
        storm.net.timers_cancelled,
    );

    let (churn, churn_secs) = timed(reps, || chaos_run(5, SEED, 8));
    let churn_eps = churn.events as f64 / churn_secs;
    println!(
        "leader churn raft n=5 windows=8 events={} {:.0} events/s \
         (timers set/fired/cancelled {}/{}/{})",
        churn.events,
        churn_eps,
        churn.net.timers_set,
        churn.net.timers_fired,
        churn.net.timers_cancelled,
    );

    let json = format!(
        "{{\n  \"schema\": \"pbc-simcore-baseline-v1\",\n  \"seed\": {SEED},\n  \
         \"requests_per_consensus_run\": {REQUESTS},\n  \"consensus\": [\n{}\n  ],\n  \
         \"broadcast_flood\": [\n{}\n  ],\n  \"chaos_storm\": {{\"n\": 64, \
         \"rounds\": 3000, \"events\": {}, \"secs\": {:.6}, \"events_per_sec\": {:.0}, \
         \"timers_set\": {}, \"timers_fired\": {}, \"timers_cancelled\": {}}},\n  \
         \"leader_churn\": {{\"proto\": \"raft\", \"n\": 5, \
         \"windows\": 8, \"events\": {}, \"secs\": {:.6}, \"events_per_sec\": {:.0}, \
         \"timers_set\": {}, \"timers_fired\": {}, \"timers_cancelled\": {}}}\n}}\n",
        consensus_rows.join(",\n"),
        flood_rows.join(",\n"),
        storm.events,
        storm_secs,
        storm_eps,
        storm.net.timers_set,
        storm.net.timers_fired,
        storm.net.timers_cancelled,
        churn.events,
        churn_secs,
        churn_eps,
        churn.net.timers_set,
        churn.net.timers_fired,
        churn.net.timers_cancelled,
    );
    std::fs::write(out_path, json).expect("write baseline json");
    println!("baseline written to {out_path}");
}

fn metrics() {
    const SEED: u64 = 0xBA5E;
    const REQUESTS: u64 = 30;
    const N: usize = 16;
    let mut msgs_per_commit = Vec::new();
    for proto in ConsensusKind::ALL {
        // Fresh sink per protocol so delivery counts (and therefore
        // msgs-per-commit) aren't polluted by the previous run.
        pbc_trace::install(pbc_trace::TraceSink::new(64 * 1024));
        let stats = consensus_run(proto, N, SEED, REQUESTS);
        let sink = pbc_trace::uninstall().expect("sink installed above");
        let reg = sink.metrics();
        println!("=== {} n={N} seed={SEED:#x} requests={REQUESTS} ===", proto.registry_name());
        println!(
            "decided={} events={} trace_records={} (ring kept {})",
            stats.decided,
            stats.events,
            sink.total(),
            sink.records().len()
        );
        assert_eq!(
            stats.decided,
            REQUESTS,
            "{} n={N} must decide every request",
            proto.registry_name()
        );
        for label in reg.protocols() {
            let pm = reg.proto(label).expect("label from registry");
            println!(
                "  [{label}] commits={} view_changes={} elections={} leaders={} phases={} \
                 msgs/commit={:.1}",
                pm.commits,
                pm.view_changes,
                pm.elections,
                pm.leaders_elected,
                pm.phases,
                reg.msgs_per_commit(label),
            );
            println!("    commit latency {}", pm.commit_latency.summary());
            println!("    round  latency {}", pm.round_latency.summary());
        }
        msgs_per_commit.push((proto.registry_name(), reg.msgs_per_commit(proto.registry_name())));
        println!();
    }
    // §2.3.3: all-to-all PBFT is quadratic in n, HotStuff's votes to the
    // leader linear, Raft's leader-to-followers replication linear with
    // one phase — so at n = 16 the three must order this way.
    let of = |p: &str| msgs_per_commit.iter().find(|(q, _)| *q == p).expect("every protocol ran").1;
    let (raft, hotstuff, pbft) = (of("raft"), of("hotstuff"), of("pbft"));
    println!("msgs/commit at n={N}: raft {raft:.1} < hotstuff {hotstuff:.1} < pbft {pbft:.1}");
    assert!(
        raft < hotstuff && hotstuff < pbft,
        "message complexity shape broken at n={N}: raft {raft:.1}, hotstuff {hotstuff:.1}, pbft {pbft:.1}"
    );
    shard_decide_latency();
}

/// §2.3.4, measured: intra- vs cross-shard decide latency from the real
/// replica groups under AHL and SharPer shards, same mixed workload.
fn shard_decide_latency() {
    use pbc_shard::{AhlSystem, SharperSystem};
    use pbc_sim::Topology;
    use pbc_types::{ClientId, Op, ShardId, Transaction, TxId};

    let mk_txs = || -> Vec<Transaction> {
        (0..24u64)
            .map(|i| {
                // 1-in-3 cross-shard, the rest local to shard 0 or 1.
                let (from, to) = match i % 3 {
                    0 => ("s0/a", "s1/b"),
                    1 => ("s0/a", "s0/c"),
                    _ => ("s1/b", "s1/d"),
                };
                Transaction::new(
                    TxId(i),
                    ClientId(0),
                    vec![Op::Transfer { from: from.into(), to: to.into(), amount: 1 }],
                )
            })
            .collect()
    };
    let seed_sys = |seed: &mut dyn FnMut(&str)| {
        for k in ["s0/a", "s0/c", "s1/b", "s1/d"] {
            seed(k);
        }
    };

    let mut ahl = AhlSystem::new(2, Topology::flat_clusters(3, 4, 100, 5_000), 300);
    seed_sys(&mut |k| ahl.seed(k, pbc_types::tx::balance_value(1_000)));
    ahl.process_batch(&mk_txs());

    let mut sharper = SharperSystem::new(2, Topology::flat_clusters(2, 4, 100, 5_000), 300);
    seed_sys(&mut |k| sharper.seed(k, pbc_types::tx::balance_value(1_000)));
    sharper.process_batch(&mk_txs());

    println!("=== shard decide latency (measured from replica groups, ticks) ===");
    for (name, stats) in [("ahl", &ahl.stats), ("sharper", &sharper.stats)] {
        println!(
            "  [{name}] intra: n={} mean={:.0}   cross: n={} mean={:.0}   (cross/intra {:.2}x)",
            stats.intra_decides,
            stats.mean_intra_decide_latency(),
            stats.cross_decides,
            stats.mean_cross_decide_latency(),
            stats.mean_cross_decide_latency() / stats.mean_intra_decide_latency().max(1.0),
        );
    }
    let g = ahl.cluster(ShardId(0)).group().expect("AHL clusters are replicated");
    println!(
        "  groups: {} × {} replicas per shard; AHL committee {} × {}",
        g.protocol(),
        g.replicas(),
        ahl.committee_group().protocol(),
        ahl.committee_group().replicas(),
    );
    println!();
}

fn storm_overhead() {
    const SEED: u64 = 0xBA5E;
    let reps = 3;
    let (off, off_secs) = timed(reps, || chaos_storm(64, SEED, 3_000));
    let off_eps = off.events as f64 / off_secs;
    println!(
        "chaos storm n=64 rounds=3000 sink-off: events={} {:.0} events/s",
        off.events, off_eps
    );
    let (on, on_secs) = timed(reps, || {
        pbc_trace::install(pbc_trace::TraceSink::new(64 * 1024));
        let stats = chaos_storm(64, SEED, 3_000);
        let _ = pbc_trace::uninstall();
        stats
    });
    let on_eps = on.events as f64 / on_secs;
    assert_eq!(on.events, off.events, "the sink must not perturb the schedule");
    println!(
        "chaos storm n=64 rounds=3000 sink-on : events={} {:.0} events/s ({:.1}% of sink-off)",
        on.events,
        on_eps,
        100.0 * on_eps / off_eps
    );
}

/// `--audit`: the CI smoke for the auditor crate. Part one audits every
/// consensus × architecture combination end to end; part two pins the
/// shrinker's behaviour on the canonical VolatileRaft amnesia schedule.
fn audit_smoke() {
    use pbc_audit::harness::{
        padded_amnesia_schedule, volatile_raft_violation, NODES, PINNED_SEED,
    };
    use pbc_core::{ArchKind, NetworkBuilder};
    use pbc_workload::PaymentWorkload;

    let t0 = Instant::now();
    let mut heights = 0usize;
    let mut replays = 0usize;
    let mut proofs = 0usize;
    for consensus in ConsensusKind::ALL {
        for arch in ArchKind::ALL {
            let n = if consensus == ConsensusKind::MinBft { 3 } else { 4 };
            let w = PaymentWorkload { accounts: 32, ..Default::default() };
            let mut chain = NetworkBuilder::new(n)
                .consensus(consensus)
                .architecture(arch)
                .initial_state(w.initial_state())
                .batch_size(6)
                .seed(0xA0D1)
                .with_audit()
                .build();
            chain.submit_all(w.generate(0, 18));
            let report = chain.run_to_completion();
            assert!(report.consensus_complete, "{consensus:?} × {arch:?} stalled");
            let audit = pbc_audit::audit_network(&chain)
                .unwrap_or_else(|e| panic!("{consensus:?} × {arch:?} FAILED AUDIT: {e}"));
            heights += audit.heights_checked;
            replays += audit.txs_replayed;
            proofs += audit.proofs_checked;
        }
    }
    println!(
        "audit matrix: {} combos green — {} heights, {} replayed txs, {} proofs ({:.2}s)",
        ConsensusKind::ALL.len() * ArchKind::ALL.len(),
        heights,
        replays,
        proofs,
        t0.elapsed().as_secs_f64()
    );

    let t1 = Instant::now();
    let padded = padded_amnesia_schedule(7);
    let outcome = pbc_audit::shrink_schedule(&padded, |s| volatile_raft_violation(PINNED_SEED, s))
        .expect("seeded amnesia schedule must violate VolatileRaft safety");
    assert!(
        outcome.minimized.len() <= 10,
        "shrinker regressed: {} ops left (expected <= 10)",
        outcome.minimized.len()
    );
    assert!(
        volatile_raft_violation(PINNED_SEED, &outcome.minimized).is_some(),
        "minimized schedule must reproduce deterministically"
    );
    let artifact = pbc_audit::ReplayArtifact::from_shrink(
        "volatile-raft-amnesia",
        PINNED_SEED,
        NODES,
        &outcome,
    );
    println!(
        "shrinker: {} -> {} ops in {} harness runs ({:.2}s)\n{}",
        outcome.original_len,
        outcome.minimized.len(),
        outcome.tests_run,
        t1.elapsed().as_secs_f64(),
        artifact.render()
    );
}

/// `--store`: the durability smoke over a real filesystem. Everything
/// here touches an actual tempdir — fsyncs, atomic renames, torn bytes
/// on a real WAL file — so CI proves the store's recovery story outside
/// the simulated `FaultFs`.
fn store_smoke(out_path: &str) {
    use pbc_core::NetworkBuilder;
    use pbc_sim::NemesisOp;
    use pbc_store::{NodeStore, RealFs, StoreConfig};
    use pbc_workload::PaymentWorkload;

    let root = std::env::temp_dir().join(format!("pbc-store-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // -- 1. Raw throughput: appends + periodic checkpoint/sync ---------
    const BLOCKS: u64 = 512;
    let payload = vec![0xA5u8; 1024];
    let raw_root = root.join("raw");
    let t0 = Instant::now();
    let (mut store, rec) =
        NodeStore::open(Box::new(RealFs::new(&raw_root).expect("tempdir")), StoreConfig::default())
            .expect("fresh store opens");
    assert!(rec.blocks.is_empty(), "fresh dir must recover empty");
    for seq in 0..BLOCKS {
        store.append_block(seq, &payload).expect("append");
        if seq % 16 == 15 {
            store.put_checkpoint(&seq.to_be_bytes()).expect("checkpoint");
            store.sync().expect("sync");
        }
    }
    store.sync().expect("final sync");
    let append_secs = t0.elapsed().as_secs_f64();
    let append_rate = BLOCKS as f64 / append_secs;
    println!(
        "store raw: {BLOCKS} x {}B blocks + {} checkpoints in {append_secs:.3}s \
         ({append_rate:.0} appends/s, fsync every 16)",
        payload.len(),
        BLOCKS / 16,
    );

    // -- 2. Power loss + torn WAL write, then staged recovery ----------
    drop(store); // the "crash": the process abandons the open store
    let wal_path = raw_root.join("checkpoint.wal");
    let mut wal_bytes = std::fs::read(&wal_path).expect("read real WAL");
    // A torn append: a full length prefix promising 64 bytes, then the
    // power dies after 3.
    wal_bytes.extend_from_slice(&[0, 0, 0, 64, 0xDE, 0xAD, 0xBE]);
    std::fs::write(&wal_path, &wal_bytes).expect("tear the WAL tail");
    let t1 = Instant::now();
    let (_store, rec) =
        NodeStore::open(Box::new(RealFs::new(&raw_root).expect("tempdir")), StoreConfig::default())
            .expect("recovery over torn WAL");
    let recover_secs = t1.elapsed().as_secs_f64();
    assert!(rec.wal_torn_tail, "the torn append must be detected");
    assert!(rec.checkpoint.is_some(), "an intact checkpoint survives the torn tail");
    assert_eq!(rec.blocks.len(), BLOCKS as usize, "segment blocks survive a torn WAL");
    assert!(rec.quarantined.is_empty() && rec.lost_seqs.is_empty());
    println!(
        "store recovery: {} blocks + checkpoint re-read in {recover_secs:.3}s after a torn \
         WAL write (tail truncated: {})",
        rec.blocks.len(),
        rec.wal_torn_tail,
    );

    // -- 3. End-to-end: durable chain on disk, total crash, cold audit -
    let t2 = Instant::now();
    let stores = (0..4)
        .map(|i| {
            let vfs = RealFs::new(root.join(format!("node{i}"))).expect("node dir");
            NodeStore::open(Box::new(vfs), StoreConfig::default()).expect("node store opens").0
        })
        .collect();
    let w = PaymentWorkload { accounts: 32, ..Default::default() };
    let mut chain = NetworkBuilder::new(4)
        .consensus(ConsensusKind::Pbft)
        .initial_state(w.initial_state())
        .batch_size(6)
        .seed(0x5704E)
        .with_audit()
        .durable(stores)
        .build();
    chain.submit_all(w.generate(0, 18));
    let r1 = chain.run_to_completion();
    assert!(r1.consensus_complete, "pre-crash run stalled");
    chain.persist();
    chain.apply_nemesis(&NemesisOp::CrashAmnesia { node: 2 });
    chain.apply_nemesis(&NemesisOp::Restart { node: 2 });
    chain.submit_all(w.generate(100, 12));
    let r2 = chain.run_to_completion();
    assert!(r2.consensus_complete, "post-reboot run stalled");
    assert!(!r2.diverged, "disk-rebooted replica forked the chain");
    chain.persist();
    let audit = pbc_audit::audit_network(&chain).expect("differential audit over durable chain");
    for node in 0..4 {
        assert_eq!(
            chain.verify_cold_ledger(node),
            Some(true),
            "node {node}: cold ledger contradicts decided history"
        );
    }
    let e2e_secs = t2.elapsed().as_secs_f64();
    println!(
        "store e2e: pbft x 4 on real disks, {} committed, total crash + disk reboot, audit \
         green ({} heights, {} txs replayed), 4/4 cold ledgers verified ({e2e_secs:.2}s)",
        r1.committed + r2.committed,
        audit.heights_checked,
        audit.txs_replayed,
    );

    // -- 4. persist() on a growing decided log ------------------------
    // The bytes are a count (host-independent; CI gates on their ratio),
    // the milliseconds are this host's disk.
    let mut persist_rows = String::new();
    let mut bytes_at = Vec::new();
    for len in [8usize, 64, 512] {
        let disk = pbc_bench::persist::Disk::Real(root.join(format!("persist{len}")));
        let (took, bytes) = pbc_bench::persist::persist_at(&disk, len, 3);
        let ms = took.as_secs_f64() * 1e3;
        println!(
            "store persist: pbft x 4 on real disks, decided log {len}, two new batches: \
             {ms:.3} ms per call, {bytes} bytes appended to the four checkpoint logs"
        );
        persist_rows.push_str(&format!(
            "  \"persist_ms_at_{len}\": {ms:.3},\n  \"checkpoint_bytes_at_{len}\": {bytes},\n"
        ));
        bytes_at.push(bytes);
    }
    assert!(
        bytes_at[2] <= 3 * bytes_at[0],
        "persist() writes what exists, not what changed: {} checkpoint bytes per call at a \
         decided log of 512, {} at 8",
        bytes_at[2],
        bytes_at[0],
    );

    let json = format!(
        "{{\n  \"schema\": \"pbc-store-smoke-v2\",\n  \"blocks\": {BLOCKS},\n  \
         \"block_bytes\": {},\n  \"append_secs\": {append_secs:.6},\n  \
         \"appends_per_sec\": {append_rate:.0},\n  \"recover_secs\": {recover_secs:.6},\n  \
         \"recovered_blocks\": {},\n  \"wal_torn_tail_repaired\": {},\n  \
         \"e2e_committed\": {},\n  \"e2e_audit_heights\": {},\n  \"e2e_secs\": {e2e_secs:.6},\n\
         {persist_rows}  \"persist_samples\": 3\n}}\n",
        payload.len(),
        rec.blocks.len(),
        rec.wal_torn_tail,
        r1.committed + r2.committed,
        audit.heights_checked,
    );
    std::fs::write(out_path, json).expect("write store smoke json");
    println!("store smoke written to {out_path}");
    let _ = std::fs::remove_dir_all(&root);
}

/// `--par`: the cancel-churn and batched-Schnorr snapshot (E16, E25).
///
/// Every row is best of `reps` runs of deterministic work, and `cores`
/// is in the snapshot so a rate can be read against the host it ran on.
fn par_bench(out_path: &str) {
    use pbc_crypto::schnorr_sig::{verify_batch, BatchItem, SigningKey};

    const SEED: u64 = 0xBA5E;
    let smoke = std::env::var("E16_SMOKE").is_ok_and(|v| v == "1");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let reps = if smoke { 1 } else { 5 };
    println!("par bench: cores={cores} smoke={smoke} reps={reps}");

    // -- 1. Cancellation-heavy churn (timer cancel path) ---------------
    let churn_rounds: u64 = if smoke { 2_000 } else { 40_000 };
    let (churn, churn_secs) = timed(reps, || cancel_churn(16, SEED, churn_rounds));
    let churn_eps = churn.events as f64 / churn_secs;
    println!(
        "cancel churn n=16 rounds={churn_rounds}: events={} {:.0} events/s \
         (timers set/fired/cancelled/pending {}/{}/{}/{}, conservation asserted)",
        churn.events,
        churn_eps,
        churn.net.timers_set,
        churn.net.timers_fired,
        churn.net.timers_cancelled,
        churn.net.timers_pending,
    );

    // -- 2. Batched Schnorr verification vs scalar ---------------------
    let batch: usize = if smoke { 64 } else { 256 };
    let items_owned: Vec<(SigningKey, Vec<u8>)> = (0..batch)
        .map(|i| (SigningKey::derive(SEED, i as u64), format!("endorse-{i}").into_bytes()))
        .collect();
    let sigs: Vec<_> = items_owned.iter().map(|(k, m)| k.sign_deterministic(m)).collect();
    let (all_valid, scalar_secs) =
        timed(reps, || items_owned.iter().zip(&sigs).all(|((k, m), s)| k.public.verify(m, s)));
    assert!(all_valid, "scalar verification must accept the honest batch");
    let scalar_vps = batch as f64 / scalar_secs;
    let batch_items: Vec<BatchItem<'_>> = items_owned
        .iter()
        .zip(&sigs)
        .map(|((k, m), s)| BatchItem { key: k.public, msg: m, sig: *s })
        .collect();
    let (verdict, batch_secs) = timed(reps, || verify_batch(&batch_items));
    assert!(verdict.is_ok(), "batched verification must accept the honest batch");
    let batch_vps = batch as f64 / batch_secs;
    println!(
        "schnorr verify batch={batch}: scalar {scalar_vps:.0} sigs/s, batched {batch_vps:.0} \
         sigs/s ({:.2}x)",
        batch_vps / scalar_vps
    );

    let json = format!(
        "{{\n  \"schema\": \"pbc-par-bench-v2\",\n  \"seed\": {SEED},\n  \"cores\": {cores},\n  \
         \"smoke\": {smoke},\n  \"reps\": {reps},\n  \
         \"cancel_churn\": {{\"n\": 16, \"rounds\": {churn_rounds}, \"events\": {}, \
         \"events_per_sec\": {churn_eps:.0}, \"timers_set\": {}, \"timers_fired\": {}, \
         \"timers_cancelled\": {}, \"conserves_timers\": true}},\n  \
         \"schnorr_verify\": {{\"batch\": {batch}, \"scalar_sigs_per_sec\": {scalar_vps:.0}, \
         \"batched_sigs_per_sec\": {batch_vps:.0}, \"speedup\": {:.4}}}\n}}\n",
        churn.events,
        churn.net.timers_set,
        churn.net.timers_fired,
        churn.net.timers_cancelled,
        batch_vps / scalar_vps,
    );
    std::fs::write(out_path, json).expect("write par bench json");
    println!("par bench written to {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--metrics") {
        metrics();
        return;
    }
    if args.iter().any(|a| a == "--audit") {
        audit_smoke();
        return;
    }
    if args.iter().any(|a| a == "--storm-overhead") {
        storm_overhead();
        return;
    }
    if args.iter().any(|a| a == "--store") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--store")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_STORE.json".to_string());
        store_smoke(&out);
        return;
    }
    if args.iter().any(|a| a == "--par") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--par")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_PAR.json".to_string());
        par_bench(&out);
        return;
    }
    if args.iter().any(|a| a == "--vm") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--vm")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_VM.json".to_string());
        pbc_bench::vm::vm_bench(&out);
        return;
    }
    if args.iter().any(|a| a == "--real") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--real")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_REAL.json".to_string());
        pbc_bench::real::real_bench(&out);
        return;
    }
    if args.iter().any(|a| a == "--e2e") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--e2e")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_E2E.json".to_string());
        pbc_bench::e2e::e2e_bench(&out);
        return;
    }
    if args.iter().any(|a| a == "--baseline") {
        let out = args
            .iter()
            .skip_while(|a| *a != "--baseline")
            .nth(1)
            .cloned()
            .unwrap_or_else(|| "BENCH_PR2.json".to_string());
        baseline(&out);
        return;
    }
    let mut failures = 0;
    let (mut timers_set, mut timers_fired, mut timers_cancelled) = (0u64, 0u64, 0u64);
    'outer: for seed in 0..40u64 {
        for ca in 0..7usize {
            for cb in 0..7usize {
                let cfg = PbftConfig::new(7);
                let actors = (0..7).map(|_| PbftReplica::new(cfg.clone())).collect();
                let mut net: Network<PbftReplica<u64>> =
                    Network::new(actors, NetworkConfig { seed, ..Default::default() });
                net.crash(ca);
                net.crash(cb);
                let payloads = [5u64, 9, 13];
                for &p in &payloads {
                    for i in 0..7 {
                        net.inject(0, i, PbftMsg::Request(p), 1);
                    }
                }
                let ok = net.run_until_all(3_000_000, |r| r.log.len() >= 3);
                timers_set += net.stats().timers_set;
                timers_fired += net.stats().timers_fired;
                timers_cancelled += net.stats().timers_cancelled;
                if !ok {
                    println!("LIVENESS fail seed={seed} crashes=({ca},{cb})");
                    for i in 0..7 {
                        if net.is_crashed(i) {
                            continue;
                        }
                        println!(
                            "  node {i}: log={:?} view={} pending={}",
                            net.actor(i)
                                .log
                                .delivered()
                                .iter()
                                .map(|(s, p, _)| (*s, *p))
                                .collect::<Vec<_>>(),
                            net.actor(i).view(),
                            net.actor(i).pending_len()
                        );
                    }
                    failures += 1;
                    if failures > 2 {
                        break 'outer;
                    }
                    continue;
                }
                let alive: Vec<usize> = (0..7).filter(|&i| !net.is_crashed(i)).collect();
                let reference: Vec<u64> =
                    net.actor(alive[0]).log.delivered().iter().map(|(_, p, _)| *p).collect();
                for &i in &alive[1..] {
                    let log: Vec<u64> =
                        net.actor(i).log.delivered().iter().map(|(_, p, _)| *p).collect();
                    if log != reference {
                        println!(
                            "DIVERGENCE seed={seed} crashes=({ca},{cb}) node{i}: {:?} vs {:?}",
                            log, reference
                        );
                        failures += 1;
                        if failures > 2 {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    println!(
        "done, failures={failures} \
         (timers set/fired/cancelled across all runs: {timers_set}/{timers_fired}/{timers_cancelled})"
    );
}
