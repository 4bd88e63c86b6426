//! Property-based tests over the workspace's core data structures and
//! invariants (proptest).

use proptest::prelude::*;

use pbc_crypto::group::Scalar;
use pbc_crypto::merkle::{verify_inclusion, MerkleTree};
use pbc_crypto::pedersen;
use pbc_crypto::range::RangeProof;
use pbc_crypto::sha256::{sha256, Sha256};
use pbc_ledger::{execute, StateStore, Version};
use pbc_txn::{fabric_sharp_reorder, DependencyGraph};
use pbc_types::tx::{balance_of, balance_value};
use pbc_types::{ClientId, Op, Transaction, TxId};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------- crypto ----------

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut inc = Sha256::new();
        inc.update(&data[..split]);
        inc.update(&data[split..]);
        prop_assert_eq!(inc.finalize(), sha256(&data));
    }

    #[test]
    fn merkle_inclusion_all_leaves(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40)) {
        let tree = MerkleTree::build(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(verify_inclusion(&tree.root(), leaf, &proof));
        }
    }

    #[test]
    fn merkle_rejects_wrong_index_data(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 2..20)) {
        let tree = MerkleTree::build(&leaves);
        let proof = tree.prove(0).unwrap();
        // Proving leaf 0 but presenting leaf 1 must fail unless identical.
        if leaves[0] != leaves[1] {
            prop_assert!(!verify_inclusion(&tree.root(), &leaves[1], &proof));
        }
    }

    #[test]
    fn pedersen_homomorphism(a in 0u64..1_000_000, b in 0u64..1_000_000, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (ca, oa) = pedersen::commit_random(Scalar::new(a), &mut rng);
        let (cb, ob) = pedersen::commit_random(Scalar::new(b), &mut rng);
        let sum_c = ca.add(&cb);
        let sum_o = oa.add(&ob);
        prop_assert_eq!(sum_o.value, Scalar::new(a + b));
        prop_assert!(pedersen::open(&sum_c, &sum_o));
    }

    #[test]
    fn range_proof_sound_and_complete(value in 0u64..256, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (c, o) = pedersen::commit_random(Scalar::new(value), &mut rng);
        let proof = RangeProof::prove(value, o.blinding, 8, b"prop", &mut rng).unwrap();
        prop_assert!(proof.verify(&c, 8, b"prop"));
        // And binding: the proof fails against a different commitment.
        let (other, _) = pedersen::commit_random(Scalar::new(value), &mut rng);
        prop_assert!(!proof.verify(&other, 8, b"prop"));
    }
}

// ---------- batched crypto kernels vs scalar reference ----------

proptest! {
    /// Straus interleaved multi-exponentiation equals the product of
    /// independent `pow`s for every batch size, including empty.
    #[test]
    fn multi_exp_equals_pow_product(n in 0usize..10, seed in any::<u64>()) {
        use pbc_crypto::group::{multi_exp, GroupElement};
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(GroupElement, Scalar)> = (0..n)
            .map(|_| (GroupElement::g_pow(Scalar::random(&mut rng)), Scalar::random(&mut rng)))
            .collect();
        let reference =
            pairs.iter().fold(GroupElement::ONE, |acc, (b, e)| acc.mul(b.pow(*e)));
        prop_assert_eq!(multi_exp(&pairs), reference);
    }

    /// Batched Schnorr verification agrees with the scalar verifier on
    /// random batches — empty and odd-length batches included, with a
    /// random subset of signatures tampered — and `Err` names exactly
    /// the tampered indices.
    #[test]
    fn schnorr_batch_equals_scalar(n in 0usize..14, seed in any::<u64>(), tamper in any::<u16>()) {
        use pbc_crypto::schnorr_sig::{verify_batch, BatchItem, SigningKey};
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<SigningKey> = (0..n).map(|_| SigningKey::generate(&mut rng)).collect();
        // Message lengths vary within the batch (including empty).
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; i % 7]).collect();
        let mut items: Vec<BatchItem> = keys
            .iter()
            .zip(&msgs)
            .map(|(k, m)| BatchItem { key: k.public, msg: m, sig: k.sign(m, &mut rng) })
            .collect();
        for (i, item) in items.iter_mut().enumerate() {
            if tamper >> i & 1 == 1 {
                item.sig.s = item.sig.s.add(Scalar::ONE);
            }
        }
        let expect: Vec<usize> = (0..n)
            .filter(|&i| !items[i].key.verify(items[i].msg, &items[i].sig))
            .collect();
        let got = verify_batch(&items);
        if expect.is_empty() {
            prop_assert_eq!(got, Ok(()));
        } else {
            prop_assert_eq!(got, Err(expect));
        }
    }

    /// One deliberately-invalid signature planted anywhere inside an
    /// otherwise-valid batch is pinpointed exactly.
    #[test]
    fn schnorr_batch_pinpoints_planted_culprit(n in 2usize..12, pick in any::<u64>(), seed in any::<u64>()) {
        use pbc_crypto::schnorr_sig::{verify_batch, BatchItem, SigningKey};
        let culprit = (pick % n as u64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<SigningKey> = (0..n).map(|_| SigningKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("entry-{i}").into_bytes()).collect();
        let mut items: Vec<BatchItem> = keys
            .iter()
            .zip(&msgs)
            .map(|(k, m)| BatchItem { key: k.public, msg: m, sig: k.sign(m, &mut rng) })
            .collect();
        items[culprit].sig.s = items[culprit].sig.s.add(Scalar::ONE);
        prop_assert_eq!(verify_batch(&items), Err(vec![culprit]));
    }
}

// ---------- transactions / concurrency control ----------

/// Strategy: a transfer over a small hot account set.
fn tx_strategy(accounts: usize) -> impl Strategy<Value = (usize, usize, u64)> {
    (0..accounts, 0..accounts, 1u64..20)
}

fn build_txs(specs: &[(usize, usize, u64)]) -> Vec<Transaction> {
    specs
        .iter()
        .enumerate()
        .map(|(i, (from, to, amount))| {
            let to = if from == to { (to + 1) % 8 } else { *to };
            Transaction::new(
                TxId(i as u64),
                ClientId(0),
                vec![Op::Transfer {
                    from: format!("acc{from}"),
                    to: format!("acc{to}"),
                    amount: *amount,
                }],
            )
        })
        .collect()
}

fn seeded_state() -> StateStore {
    let mut s = StateStore::new();
    for i in 0..8 {
        s.put(format!("acc{i}"), balance_value(1_000), Version::new(0, i as u32));
    }
    s
}

proptest! {
    #[test]
    fn dependency_layers_partition_the_block(specs in proptest::collection::vec(tx_strategy(8), 1..30)) {
        let txs = build_txs(&specs);
        let g = DependencyGraph::build(&txs);
        let layers = g.layers();
        let mut seen: Vec<usize> = layers.concat();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..txs.len()).collect::<Vec<_>>());
        // No two transactions in one layer conflict.
        for layer in &layers {
            for (ai, &a) in layer.iter().enumerate() {
                for &b in &layer[ai + 1..] {
                    prop_assert!(!txs[a].conflicts_with(&txs[b]), "layer peers {a},{b} conflict");
                }
            }
        }
    }

    #[test]
    fn sharp_reorder_keeps_only_committable_txs(specs in proptest::collection::vec(tx_strategy(8), 1..25)) {
        let txs = build_txs(&specs);
        let state = seeded_state();
        let results: Vec<_> = txs.iter().map(|t| execute(t, &state)).collect();
        let outcome = fabric_sharp_reorder(&results, &state);
        // Every kept transaction must validate when applied in order.
        let mut s = state.clone();
        let ordered: Vec<_> = outcome.order.iter().map(|&i| results[i].clone()).collect();
        let verdicts = pbc_txn::validate::validate_block(&ordered, &mut s, 2);
        let commits = verdicts.iter().filter(|v| v.is_valid()).count();
        prop_assert_eq!(commits, outcome.order.len());
        // And the partition is exact.
        prop_assert_eq!(outcome.order.len() + outcome.aborted.len(), txs.len());
    }

    #[test]
    fn transfers_conserve_total_balance(specs in proptest::collection::vec(tx_strategy(8), 1..40)) {
        let txs = build_txs(&specs);
        let mut state = seeded_state();
        for (i, tx) in txs.iter().enumerate() {
            pbc_ledger::execute_and_apply(tx, &mut state, Version::new(1, i as u32));
        }
        let total: u64 = (0..8).map(|i| balance_of(state.get(&format!("acc{i}")))).sum();
        prop_assert_eq!(total, 8 * 1_000);
    }
}

// ---------- ledger / chain ----------

proptest! {
    #[test]
    fn chain_append_verify_roundtrip(block_sizes in proptest::collection::vec(0usize..6, 1..10)) {
        let mut ledger = pbc_ledger::ChainLedger::new();
        let mut id = 0u64;
        for size in block_sizes {
            let txs: Vec<Transaction> = (0..size)
                .map(|_| {
                    id += 1;
                    Transaction::new(TxId(id), ClientId(0), vec![Op::Get { key: format!("k{id}") }])
                })
                .collect();
            let block = pbc_types::Block::build(
                ledger.height().next(),
                ledger.head_hash(),
                pbc_types::NodeId(0),
                id,
                txs,
            );
            ledger.append(block).unwrap();
        }
        prop_assert!(ledger.verify().is_ok());
    }

    #[test]
    fn state_digest_order_independent(entries in proptest::collection::vec(("k[a-z]{1,6}", 0u64..100), 1..20)) {
        let mut forward = StateStore::new();
        for (i, (k, v)) in entries.iter().enumerate() {
            forward.put(k.clone(), balance_value(*v), Version::new(1, i as u32));
        }
        let mut backward = StateStore::new();
        for (i, (k, v)) in entries.iter().enumerate().rev() {
            backward.put(k.clone(), balance_value(*v), Version::new(1, i as u32));
        }
        // Same final contents (later writes win in forward; in backward the
        // FIRST occurrence wins) — only compare when keys are unique.
        let unique: std::collections::HashSet<_> = entries.iter().map(|(k, _)| k).collect();
        if unique.len() == entries.len() {
            prop_assert_eq!(forward.state_digest(), backward.state_digest());
        }
    }
}

// ---------- zipf / workloads ----------

proptest! {
    #[test]
    fn zipf_always_in_range(n in 1usize..200, theta in 0.0f64..2.5, seed in any::<u64>()) {
        let z = pbc_workload::Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn payment_workload_total_is_count(count in 1usize..100, theta in 0.0f64..1.5) {
        let w = pbc_workload::PaymentWorkload { accounts: 32, theta, ..Default::default() };
        prop_assert_eq!(w.generate(0, count).len(), count);
    }
}
