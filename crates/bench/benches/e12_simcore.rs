//! E12 — simulator core throughput.
//!
//! Measures the event loop itself rather than any protocol property:
//! consensus event streams (every registered protocol at n ∈ {4, 16, 32, 64};
//! PBFT at 32 is the benchmark's `order-pbft32-ox` cluster),
//! pure broadcast fan-out, and the timer-heavy chaos workload from the
//! nemesis suite. These are the paths the PR 2 scheduler overhaul
//! (timer wheel + zero-copy broadcast) optimizes.
//! `e12_payload` measures what the protocols carry through that loop:
//! `Batch` clone/digest/wire-size and whole PBFT/Raft runs over batches.
//! `e12_block_path` measures what a replica does with a decided batch:
//! transaction clone, Merkle root, seal, one batch sealed by n replicas
//! (one shared body against a copy per ledger), one OXII block, and the
//! inline-vs-threads crossover behind `pbc-arch`'s `par_map`.
//! `e12_persist` measures `persist()` on a PBFT `DurableNet` at decided-log
//! length 8 / 64 / 512: a call writes what changed, so it costs the same
//! at every length.
//!
//! Set `E12_SMOKE=1` to run every workload once with a minimal budget
//! (the CI bench-smoke job): catches scheduler regressions that crash,
//! hang, or break determinism without burning CI minutes on timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbc_arch::pipeline::{seal_block, spin};
use pbc_arch::{BlockSeal, ExecutionPipeline, OxiiPipeline};
use pbc_bench::persist::{persist_at, Disk};
use pbc_bench::simcore::{broadcast_flood, cancel_churn, chaos_run, chaos_storm, consensus_run};
use pbc_bench::{fmt_u64, header};
use pbc_consensus::{ConsensusKind, Payload};
use pbc_core::Batch;
use pbc_ledger::ChainLedger;
use pbc_sim::NetworkConfig;
use pbc_txn::DependencyGraph;
use pbc_types::{Block, BlockBody, Transaction};
use pbc_workload::blockbench::{BlockbenchWorkload, Contract};
use pbc_workload::{PaymentWorkload, SmallBankWorkload};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("E12_SMOKE").is_ok_and(|v| v == "1")
}

fn bench_consensus(c: &mut Criterion) {
    header(
        "E12a: consensus event streams",
        "events/sec and rounds/sec are scheduler-bound, not protocol-bound",
    );
    let (requests, samples) = if smoke() { (5, 1) } else { (30, 10) };
    let mut g = c.benchmark_group("e12_consensus");
    g.sample_size(samples);
    for proto in ConsensusKind::ALL {
        for n in [4usize, 16, 32, 64] {
            let stats = consensus_run(proto, n, 0xBA5E, requests);
            assert_eq!(stats.decided, requests, "{} n={n} must decide", proto.registry_name());
            println!(
                "   {}/n{n}: {} events, {} timers set, {} cancelled",
                proto.registry_name(),
                fmt_u64(stats.events),
                fmt_u64(stats.net.timers_set),
                fmt_u64(stats.net.timers_cancelled)
            );
            g.bench_with_input(BenchmarkId::new(proto.registry_name(), n), &n, |b, &n| {
                b.iter(|| consensus_run(proto, n, 0xBA5E, requests))
            });
        }
    }
    g.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    header("E12b: broadcast fan-out", "one allocation per broadcast regardless of n");
    let mut g = c.benchmark_group("e12_broadcast");
    g.sample_size(if smoke() { 1 } else { 10 });
    for n in [4usize, 16, 64] {
        let rounds = if smoke() { 100 } else { (400_000 / n as u64).max(2_000) };
        g.bench_with_input(BenchmarkId::new("flood", n), &n, |b, &n| {
            b.iter(|| broadcast_flood(n, 0xBA5E, rounds))
        });
    }
    g.finish();
}

fn bench_storm(c: &mut Criterion) {
    header(
        "E12c: chaos storm (megaqueue regime)",
        "delay spikes hold ~1M events in flight; wheel pop stays O(1) where the heap paid O(log n)",
    );
    let rounds = if smoke() { 50 } else { 3_000 };
    let mut g = c.benchmark_group("e12_chaos_storm");
    g.sample_size(if smoke() { 1 } else { 10 });
    g.bench_function("n64", |b| b.iter(|| chaos_storm(64, 0xBA5E, rounds)));
    g.finish();
}

fn bench_churn(c: &mut Criterion) {
    header(
        "E12d: leader churn (raft partition windows)",
        "the timer-heavy election churn of the nemesis suite",
    );
    let windows = if smoke() { 1 } else { 8 };
    let mut g = c.benchmark_group("e12_leader_churn");
    g.sample_size(if smoke() { 1 } else { 10 });
    g.bench_function("raft_n5", |b| b.iter(|| chaos_run(5, 0xBA5E, windows)));
    g.finish();
}

fn bench_cancel_churn(c: &mut Criterion) {
    header(
        "E12e: cancellation-heavy churn (leader heartbeats cancel armed leases)",
        "~16 cancels per fire; stresses wheel removal, conservation asserted inside the workload",
    );
    let rounds = if smoke() { 200 } else { 20_000 };
    let stats = cancel_churn(16, 0xBA5E, rounds);
    println!(
        "   n16: {} events, timers set/fired/cancelled {}/{}/{}",
        fmt_u64(stats.events),
        fmt_u64(stats.net.timers_set),
        fmt_u64(stats.net.timers_fired),
        fmt_u64(stats.net.timers_cancelled)
    );
    let mut g = c.benchmark_group("e12_cancel_churn");
    g.sample_size(if smoke() { 1 } else { 10 });
    g.bench_function("n16", |b| b.iter(|| cancel_churn(16, 0xBA5E, rounds)));
    g.finish();
}

fn bench_depgraph(c: &mut Criterion) {
    header(
        "E12g: declared-footprint iteration (Op::reads/writes)",
        "KeyRefs iterator vs the former per-call Vec<&str> allocation (conflicts_with, key resolution)",
    );
    let w = SmallBankWorkload { customers: 512, hotspot: 0.9, ..Default::default() };
    let txs = w.generate(0, 1_024);
    let mut g = c.benchmark_group("e12_depgraph");
    g.sample_size(if smoke() { 10 } else { 30 });
    // The footprint traversal `conflicts_with` and a transaction's first
    // key resolution (`Transaction::key_ids`) perform, isolated: current
    // allocation-free shape vs the former collect-into-a-Vec-per-call
    // shape. `DependencyGraph::build` reads the resolved ids instead.
    g.bench_function("keyrefs_iter", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for t in &txs {
                for op in &t.ops {
                    acc += op.reads().map(|k| k.len()).sum::<usize>();
                    acc += op.writes().map(|k| k.len()).sum::<usize>();
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("alloc_per_call", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for t in &txs {
                for op in &t.ops {
                    let reads: Vec<&str> = op.reads().collect();
                    let writes: Vec<&str> = op.writes().collect();
                    acc += reads.iter().map(|k| k.len()).sum::<usize>();
                    acc += writes.iter().map(|k| k.len()).sum::<usize>();
                }
            }
            std::hint::black_box(acc)
        })
    });
    g.bench_function("depgraph_build_1024", |b| b.iter(|| DependencyGraph::build(&txs)));
    g.finish();
}

/// Orders `batches` on a fresh `proto` cluster, four in flight, and
/// returns the simulator events it took.
fn order_batches(proto: &str, n: usize, batches: &[Batch]) -> u64 {
    let cfg = NetworkConfig { seed: 0xBA5E, ..Default::default() };
    let mut c = pbc_consensus::cluster::<Batch>(proto, n, cfg).expect("registered protocol");
    c.run_until_time(100_000); // Raft elects its leader first
    for (i, batch) in batches.iter().enumerate() {
        c.submit(batch.clone());
        if (i + 1) % 4 == 0 || i + 1 == batches.len() {
            assert!(c.run_until_decided(i + 1, 2_000_000), "{proto} stalled at batch {i}");
        }
    }
    c.stats().msgs_delivered + c.stats().timers_fired
}

fn bench_payload(c: &mut Criterion) {
    header(
        "E12h: the consensus payload (Batch)",
        "clone is a reference-count bump; digest and wire size are computed once per batch, \
         so ordering cost does not grow with payload size or log length",
    );
    let w = PaymentWorkload::default();
    let mut g = c.benchmark_group("e12_payload");
    g.sample_size(if smoke() { 1 } else { 30 });
    for size in [8usize, 32, 128] {
        let txs = w.generate(0, size);
        let batch = Batch::new(0, txs.clone());
        batch.digest_u64();
        g.bench_function(BenchmarkId::new("clone", size), |b| b.iter(|| batch.clone()));
        g.bench_function(BenchmarkId::new("repeated_digest", size), |b| {
            b.iter(|| batch.digest_u64())
        });
        g.bench_function(BenchmarkId::new("wire_size", size), |b| b.iter(|| batch.wire_size()));
        // The first digest needs a batch nobody has hashed yet; the cost
        // of building one is the row above it.
        g.bench_function(BenchmarkId::new("build", size), |b| {
            b.iter(|| Batch::new(1, txs.clone()))
        });
        g.bench_function(BenchmarkId::new("build_and_first_digest", size), |b| {
            b.iter(|| Batch::new(1, txs.clone()).digest_u64())
        });
    }
    let decided = if smoke() { 20 } else { 400 };
    let batches: Vec<Batch> = (0..decided).map(|i| Batch::new(i, w.generate(i * 32, 32))).collect();
    g.sample_size(if smoke() { 1 } else { 10 });
    for (proto, n) in [("pbft", 4usize), ("raft", 3)] {
        let start = std::time::Instant::now();
        let events = order_batches(proto, n, &batches);
        let per_s = events as f64 / start.elapsed().as_secs_f64();
        println!(
            "   {proto}/n{n}: {} events for {decided} batches, {} events/s",
            fmt_u64(events),
            fmt_u64(per_s as u64)
        );
        g.bench_function(BenchmarkId::new(proto, decided), |b| {
            b.iter(|| order_batches(proto, n, &batches))
        });
    }
    g.finish();
}

/// `items` mapped over scoped threads whatever their number: the
/// threaded arm of `pbc_arch`'s `par_map`, without its choice.
fn spawn_map<R: Send>(items: &[u32], workers: usize, f: impl Fn(&u32) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut chunks = items.chunks(items.len().div_ceil(workers));
    let first = chunks.next().expect("non-empty input");
    std::thread::scope(|s| {
        let handles: Vec<_> =
            chunks.map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>())).collect();
        let mut out: Vec<R> = first.iter().map(f).collect();
        for h in handles {
            out.extend(h.join().expect("worker panicked"));
        }
        out
    })
}

/// One decided batch of `txs` sealed into `n` fresh ledgers, set-up
/// untimed: every ledger is handed a clone of one body (`shared`), which
/// is rooted once for all of them, or its own copy of the transactions,
/// which each ledger roots itself. Leaf hashes are memoised either way.
fn seal_on_replicas(txs: &[Transaction], n: usize, shared: bool, iters: u64) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut ledgers: Vec<ChainLedger> = (0..n).map(|_| ChainLedger::new()).collect();
        let body = BlockBody::from(txs.to_vec());
        let start = Instant::now();
        for ledger in &mut ledgers {
            let txs = if shared { body.clone() } else { txs.to_vec().into() };
            std::hint::black_box(seal_block(ledger, BlockSeal::standalone(1), txs).0);
        }
        total += start.elapsed();
    }
    total
}

fn bench_block_path(c: &mut Criterion) {
    header(
        "E12i: sealing and executing a decided block",
        "a transaction is hashed once and shared; a decided batch is rooted once for all \
         replicas; threads are spawned only for work larger than the spawn",
    );
    let io_heavy = BlockbenchWorkload {
        contract: Contract::IoHeavy,
        accounts: 1024,
        scan: 16,
        accuracy: 0.9,
        starve: 0.01,
        ..Default::default()
    };
    let mut g = c.benchmark_group("e12_block_path");
    g.sample_size(if smoke() { 1 } else { 30 });
    let loads: [(&str, Vec<Transaction>); 2] = [
        ("payments", PaymentWorkload::default().generate(0, 128)),
        ("ioheavy", io_heavy.generate(0, 128)),
    ];
    for (load, all) in &loads {
        g.bench_function(BenchmarkId::new("tx_clone", load), |b| b.iter(|| all[0].clone()));
        for size in [8usize, 32, 128] {
            let txs = &all[..size];
            // A first root needs transactions nobody has hashed yet; the
            // cost of building them is the row above it.
            let rebuild = || -> Vec<Transaction> {
                txs.iter()
                    .map(|t| {
                        Transaction::with_scope(t.id, t.client, t.scope.clone(), t.ops.clone())
                    })
                    .collect()
            };
            g.bench_function(BenchmarkId::new(format!("{load}/rebuild"), size), |b| {
                b.iter(rebuild)
            });
            g.bench_function(
                BenchmarkId::new(format!("{load}/rebuild_and_first_root"), size),
                |b| b.iter(|| Block::tx_root(&rebuild())),
            );
            Block::tx_root(txs);
            g.bench_function(BenchmarkId::new(format!("{load}/repeated_root"), size), |b| {
                b.iter(|| Block::tx_root(txs))
            });
        }
        g.bench_function(BenchmarkId::new("seal_block", load), |b| {
            b.iter(|| {
                let mut ledger = ChainLedger::new();
                seal_block(&mut ledger, BlockSeal::standalone(1), all.clone()).0
            })
        });
    }
    let decided = &loads[0].1;
    for k in [4usize, 8, 32, 128] {
        let txs = &decided[..k];
        Block::tx_root(txs); // leaves memoised, as after ordering
        for n in [3usize, 4, 32] {
            for (mode, shared) in [("shared_body", true), ("vec_per_ledger", false)] {
                g.bench_function(BenchmarkId::new(format!("replicas_seal/{mode}/n{n}"), k), |b| {
                    b.iter_custom(|iters| seal_on_replicas(txs, n, shared, iters))
                });
            }
        }
    }
    let mut oxii = OxiiPipeline::with_state(io_heavy.initial_state());
    g.bench_function("oxii_process_block/ioheavy/128", |b| {
        b.iter(|| oxii.process_block(loads[1].1.clone()))
    });

    // The crossover that sizes `par_map`'s minimum chunk: the same items
    // mapped on the calling thread and over scoped threads, at the two
    // per-item costs the pipelines hand over (one small `execute`, one
    // simulated signature check).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = std::time::Instant::now();
    spin(10_000_000);
    let spins_per_us = 10_000_000.0 / start.elapsed().as_secs_f64() / 1e6;
    println!("   crossover: {cores} cores, {spins_per_us:.0} spin units per microsecond");
    g.sample_size(if smoke() { 1 } else { 20 });
    for us in [6u32, 45] {
        let work = (us as f64 * spins_per_us) as u32;
        for n in [8usize, 32, 64, 512, 4096] {
            if smoke() && n > 64 {
                continue;
            }
            let items = vec![work; n];
            g.bench_function(BenchmarkId::new(format!("map_inline/{us}us"), n), |b| {
                b.iter(|| items.iter().map(|&w| spin(w)).collect::<Vec<()>>())
            });
            g.bench_function(BenchmarkId::new(format!("map_threads/{us}us"), n), |b| {
                b.iter(|| spawn_map(&items, cores.max(2), |&w| spin(w)))
            });
        }
    }
    g.finish();
}

fn bench_persist(c: &mut Criterion) {
    header(
        "E12j: persist() on a growing decided log",
        "a checkpoint record extends the one before it, so one persist() of a PBFT DurableNet \
         (n=4, two new batches) costs and writes the same at log length 8, 64 and 512",
    );
    let mut g = c.benchmark_group("e12_persist");
    g.sample_size(if smoke() { 1 } else { 10 });
    let real = std::env::temp_dir().join(format!("pbc-e12-persist-{}", std::process::id()));
    for disk in [Disk::Fault, Disk::Real(real.clone())] {
        for len in if smoke() { vec![8usize] } else { vec![8, 64, 512] } {
            let mut bytes = 0;
            g.bench_function(BenchmarkId::new(disk.label(), len), |b| {
                b.iter_custom(|iters| {
                    let (mean, appended) = persist_at(&disk, len, iters as usize);
                    bytes = appended;
                    mean * iters as u32
                })
            });
            println!("   {}/{len}: {} checkpoint bytes per call", disk.label(), fmt_u64(bytes));
        }
    }
    let _ = std::fs::remove_dir_all(&real);
    g.finish();
}

criterion_group!(
    e12,
    bench_consensus,
    bench_broadcast,
    bench_storm,
    bench_churn,
    bench_cancel_churn,
    bench_depgraph,
    bench_payload,
    bench_block_path,
    bench_persist
);
criterion_main!(e12);
