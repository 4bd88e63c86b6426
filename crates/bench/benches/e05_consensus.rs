//! E5 — the consensus protocol catalogue (§2.2, §2.3.3).
//!
//! Claims under test:
//! * CFT protocols (Raft, Paxos) need fewer messages and decide faster
//!   than BFT protocols at the same n;
//! * HotStuff's message complexity is linear in n, PBFT's quadratic;
//! * Tendermint's per-height proposer rotation adds latency relative to a
//!   pipelined fixed-primary PBFT.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbc_bench::header;
use pbc_core::{ArchKind, ConsensusKind, NetworkBuilder};
use pbc_workload::PaymentWorkload;

fn run_once(kind: ConsensusKind, n: usize, txs: usize) -> pbc_core::RunReport {
    let w = PaymentWorkload { accounts: 128, ..Default::default() };
    let mut chain = NetworkBuilder::new(n)
        .consensus(kind)
        .architecture(ArchKind::Ox)
        .initial_state(w.initial_state())
        .batch_size(8)
        .seed(5)
        .build();
    chain.submit_all(w.generate(0, txs));
    chain.run_to_completion()
}

fn series() {
    header(
        "E5: consensus protocols, n = 4 and n = 7 (MinBFT: 3 and 7)",
        "CFT < BFT in messages; HotStuff linear vs PBFT quadratic; rotation costs latency",
    );
    println!(
        "{:<12} {:>3} {:>8} {:>10} {:>12} {:>14}",
        "protocol", "n", "blocks", "msgs", "bytes", "decide-latency"
    );
    for n in [4usize, 7] {
        for kind in ConsensusKind::ALL {
            let nodes = if kind == ConsensusKind::MinBft && n == 4 { 3 } else { n };
            let report = run_once(kind, nodes, 32);
            assert!(report.consensus_complete, "{kind:?} n={nodes}");
            println!(
                "{:<12} {:>3} {:>8} {:>10} {:>12} {:>14.0}",
                format!("{kind:?}"),
                nodes,
                report.batches,
                report.msgs_sent,
                report.bytes_sent,
                report.mean_decide_latency
            );
        }
        println!();
    }
    // Message complexity growth: PBFT vs HotStuff, n = 4 → 16.
    let pbft_4 = run_once(ConsensusKind::Pbft, 4, 8).msgs_sent as f64;
    let pbft_16 = run_once(ConsensusKind::Pbft, 16, 8).msgs_sent as f64;
    let hs_4 = run_once(ConsensusKind::HotStuff, 4, 8).msgs_sent as f64;
    let hs_16 = run_once(ConsensusKind::HotStuff, 16, 8).msgs_sent as f64;
    println!("message growth n=4→16: PBFT ×{:.1}, HotStuff ×{:.1}", pbft_16 / pbft_4, hs_16 / hs_4);
    assert!(pbft_16 / pbft_4 > hs_16 / hs_4, "PBFT must grow faster than HotStuff");
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("e05_consensus");
    group.sample_size(10);
    for kind in ConsensusKind::ALL {
        let n = if kind == ConsensusKind::MinBft { 3 } else { 4 };
        group.bench_with_input(
            BenchmarkId::new("decide_32_txs", format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let report = run_once(kind, n, 32);
                    assert!(report.consensus_complete);
                    report.sim_time
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
