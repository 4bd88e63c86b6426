//! Pinned ledger and state digests of two fixed-seed runs.
//!
//! The golden traces pin delivery schedules; these constants pin what
//! execution produced: the sealed head hash and both state digests of
//! every replica. A change of key representation, of the executor's
//! buffers or of the schedulers must leave every value here unmoved.
//!
//! Keys are interned process-wide in first-use order, so running this
//! file alone (`--test-threads=1`) and beside the rest of the suite
//! interns them in different orders; both must print the same digests.

use pbc_core::{ArchKind, ConsensusKind, NetworkBuilder, RunReport};
use pbc_ledger::StateStore;
use pbc_types::Transaction;
use pbc_workload::{BlockbenchWorkload, Contract, PaymentWorkload};

/// Runs PBFT on four replicas over `txs` and returns the head hash, the
/// state digest and the value digest, after checking the replicas agree.
fn run(arch: ArchKind, genesis: StateStore, txs: Vec<Transaction>) -> (RunReport, [String; 3]) {
    let n_txs = txs.len();
    let mut chain = NetworkBuilder::new(4)
        .consensus(ConsensusKind::Pbft)
        .architecture(arch)
        .initial_state(genesis)
        .batch_size(16)
        .seed(0x5EED)
        .build();
    chain.submit_all(txs);
    let report = chain.run_to_completion();
    assert!(report.consensus_complete, "{arch:?} stalled");
    assert_eq!(report.committed + report.aborted, n_txs, "{arch:?} lost transactions");
    assert!(chain.replicas_identical(), "{arch:?} replicas diverged");
    let state = chain.node_state(0);
    let head = report.head.expect("a head").to_hex();
    (report, [head, state.state_digest().to_hex(), state.value_digest().to_hex()])
}

#[test]
fn oxii_io_heavy_digests_are_pinned() {
    let w = BlockbenchWorkload {
        contract: Contract::IoHeavy,
        accounts: 96,
        scan: 8,
        accuracy: 0.75,
        starve: 0.1,
        seed: 0x10_4EA7,
        ..Default::default()
    };
    let (report, digests) = run(ArchKind::Oxii, w.initial_state(), w.generate(0, 64));
    assert!(report.mispredicted > 0, "the blocks must include mispredicts");
    assert!(report.out_of_gas > 0, "the blocks must include out-of-gas aborts");
    assert_eq!(
        digests,
        [
            "67c1de1a4517b9229ca298a0415a9b26ef2bc895d65a6cc340e07ff3b2e91ced",
            "7f2089ad42c787afda0b93545c41dcb0b8766144bf909903edaf46b0b353bef4",
            "3a5999f8ce3321be3503f59cd5d8110c8d20733beb99d0b8ccbd2197eb0ed18c",
        ]
    );
}

#[test]
fn xov_endorsed_payments_digests_are_pinned() {
    let w =
        PaymentWorkload { accounts: 24, theta: 0.8, amount: 7, seed: 0xE4D0, ..Default::default() };
    let (report, digests) = run(ArchKind::XovEndorsed, w.initial_state(), w.generate(0, 48));
    assert!(report.aborted > 0, "the blocks must include read-conflict aborts");
    assert_eq!(
        digests,
        [
            "86b3536e445f57f7e94018c2f01398d6a2099b911c03f5298f07ff828555964d",
            "ce6f48748e8531fb28ff47fa6253591138d67bc7d16a5897e5adbb1fcd6a9aec",
            "b262f15d7bd3a71bf3b60f34535941d761a7229009ac3f9c4f2812774fac188a",
        ]
    );
}

/// Keys no other test in this file names, so a child process interns
/// them first, in the order it is told.
fn order_key(i: usize) -> String {
    format!("intern-order/{i:02}")
}

/// Every output the interning order could leak into, as one line: the
/// three state digests, an inclusion and an absence proof, the OXII
/// layers and XOV verdicts of one conflicting block, and the keys its
/// first result read and wrote.
fn order_sensitive_outputs() -> String {
    use pbc_ledger::{prove_absent, prove_key, state_root, Version};
    use pbc_types::tx::balance_value;
    use pbc_types::{ClientId, Op, TxId};

    let mut state = StateStore::new();
    for i in (0..12).rev() {
        state.put(order_key(i), balance_value(100 + i as u64), Version::new(0, i as u32));
    }
    state.delete(order_key(5), Version::new(1, 0));
    let block: Vec<Transaction> = (0..12)
        .map(|i| {
            let ops = vec![
                Op::Transfer {
                    from: order_key(2 * i % 12),
                    to: order_key(2 * i % 12 + 1),
                    amount: 60,
                },
                Op::Incr { key: order_key(i * 5 % 12), delta: 1 },
            ];
            Transaction::new(TxId(i as u64), ClientId(0), ops)
        })
        .collect();
    let layers = pbc_txn::DependencyGraph::build(&block).layers();
    let results: Vec<_> = block.iter().map(|t| pbc_ledger::execute(t, &state)).collect();
    let first = &results[0];
    let footprint: (Vec<&str>, Vec<&str>) = (
        first.read_set.iter().map(|(k, _)| k.as_str()).collect(),
        first.write_set.iter().map(|(k, _)| k.as_str()).collect(),
    );
    let mut validated = state.clone();
    let verdicts = pbc_txn::validate::validate_block(&results, &mut validated, 2);
    format!(
        "{} {} {} {:?} {:?} {layers:?} {verdicts:?} {footprint:?} {}",
        state.state_digest().to_hex(),
        state.value_digest().to_hex(),
        state_root(&state).to_hex(),
        prove_key(&state, &order_key(3)).map(|p| p.proof),
        prove_absent(&state, &order_key(5))
            .map(|p| (p.left.map(|l| l.proof), p.right.map(|r| r.proof))),
        validated.state_digest().to_hex(),
    )
}

/// The interning order a child process was started with, if this is one.
fn child_order() -> Option<String> {
    std::env::args().find(|a| a.starts_with("intern-order="))
}

/// Ids are numbered in first-use order, so only fresh processes can
/// intern the same keys in different orders: two children intern them
/// ascending and descending before anything else runs, and every output
/// must come out the same in both and in this process.
#[test]
fn interning_order_changes_no_output() {
    let name = "interning_order_changes_no_output";
    if let Some(order) = child_order() {
        let mut ids: Vec<usize> = (0..12).collect();
        if order.ends_with("descending") {
            ids.reverse();
        }
        for i in ids {
            pbc_types::KeyId::intern(&order_key(i));
        }
        println!("outputs: {}", order_sensitive_outputs());
        return;
    }
    let child = |order: &str| {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--nocapture", "--test-threads=1", order])
            .output()
            .expect("child test process runs");
        assert!(out.status.success(), "{order} child failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        stdout.lines().find_map(|l| l.split_once("outputs: ")).expect("outputs line").1.to_string()
    };
    let ascending = child("intern-order=ascending");
    let descending = child("intern-order=descending");
    assert_eq!(ascending, descending);
    assert_eq!(order_sensitive_outputs(), ascending);
}
