//! The checkpoint log is a log: `persist()` appends what changed, and
//! disk recovery folds the records back into exactly what a whole-state
//! checkpoint would have held.
//!
//! Two kinds of test. Byte counts on `FaultFs` are exact, so "a record
//! does not grow with the decided log" is asserted on counts, not on a
//! stopwatch. And a property test drives PBFT and Raft through random
//! schedules of decisions, persists, amnesia crashes, torn and rotted
//! WAL tails, failed syncs and cold reads, checking after every disk
//! recovery that what the store handed back folds to the checkpoint
//! taken at one of the node's persists — the last one whenever nothing
//! failed since — and never to a mix of two.

use proptest::prelude::*;

use pbc_consensus::pbft::{PbftConfig, PbftReplica};
use pbc_consensus::raft::{RaftConfig, RaftNode};
use pbc_consensus::PersistPayload;
use pbc_consensus::{DurableNet, OrderingActor, OrderingCluster, OverNetwork, Payload};
use pbc_sim::{Durable, NemesisOp, NetworkConfig};
use pbc_store::{FaultFs, NodeStore, Recovery, StoreConfig, Vfs, Wal};

const WAL: &str = "checkpoint.wal";

fn fault_stores(n: usize, seed: u64) -> (Vec<NodeStore>, Vec<FaultFs>) {
    let handles: Vec<FaultFs> =
        (0..n).map(|i| FaultFs::new(seed ^ (i as u64).wrapping_mul(0x9E37))).collect();
    let stores = handles
        .iter()
        .map(|fs| NodeStore::open(Box::new(fs.clone()), StoreConfig::default()).unwrap().0)
        .collect();
    (stores, handles)
}

fn pbft<P: PersistPayload + 'static>(seed: u64) -> (DurableNet<PbftReplica<P>>, Vec<FaultFs>) {
    let cfg = PbftConfig::new(4);
    let actors = (0..4).map(|_| PbftReplica::new(cfg.clone())).collect();
    let (stores, handles) = fault_stores(4, seed);
    (DurableNet::new(actors, NetworkConfig { seed, ..Default::default() }, stores), handles)
}

fn raft<P: PersistPayload + 'static>(seed: u64) -> (DurableNet<RaftNode<P>>, Vec<FaultFs>) {
    let cfg = RaftConfig::new(3);
    let actors = (0..3).map(|i| RaftNode::new(cfg.clone(), i)).collect();
    let (stores, handles) = fault_stores(3, seed);
    (DurableNet::new(actors, NetworkConfig { seed, ..Default::default() }, stores), handles)
}

/// The whole durable state of `actor` as canonical bytes.
fn snapshot<A: Durable>(actor: &A) -> Vec<u8> {
    actor.encode_since(&mut A::Mark::default())
}

/// What `DurableNet` hands `restore` for this recovery, as canonical
/// bytes: the surviving records folded in order while they apply.
fn recovered<A: Durable>(actor: &A, rec: &Recovery) -> Vec<u8> {
    let mut stable = A::blank_stable(actor);
    for record in rec.checkpoint.iter().chain(&rec.extensions) {
        if A::apply(actor, &mut stable, record).is_none() {
            break;
        }
    }
    snapshot(&A::restore(actor, stable))
}

// ---------------------------------------------------------------------
// Byte counts: linear, not quadratic.
// ---------------------------------------------------------------------

/// A 2 KiB payload, so that payload bytes dominate a record the way
/// batches do.
#[derive(Clone, Debug, PartialEq)]
struct Blob(u64);

const BLOB_BYTES: usize = 2048;

impl Payload for Blob {
    fn digest_u64(&self) -> u64 {
        self.0.digest_u64()
    }
}

impl PersistPayload for Blob {
    fn to_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes().repeat(BLOB_BYTES / 8)
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let id = u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?);
        (bytes == Blob(id).to_bytes()).then_some(Blob(id))
    }
}

/// 64 × (two decisions, `persist()`): returns, per node, the bytes each
/// call appended to the checkpoint log.
fn wal_growth<A>(mut c: DurableNet<A>, handles: &[FaultFs]) -> Vec<Vec<u64>>
where
    A: OrderingActor<Payload = Blob> + Durable,
{
    c.run_until_time(100_000); // Raft elects its leader first
    let mut growth = vec![Vec::new(); handles.len()];
    for call in 0..64u64 {
        c.submit(Blob(2 * call));
        c.submit(Blob(2 * call + 1));
        assert!(c.run_until_decided(2 * (call as usize + 1), 5_000_000), "call {call} stalled");
        let before: Vec<u64> = handles.iter().map(|fs| fs.len(WAL).unwrap_or(0)).collect();
        c.persist();
        for (node, fs) in handles.iter().enumerate() {
            growth[node].push(fs.len(WAL).unwrap() - before[node]);
        }
    }
    growth
}

fn assert_linear(proto: &str, growth: &[Vec<u64>]) {
    let payload_bytes = 128 * BLOB_BYTES as u64;
    for (node, calls) in growth.iter().enumerate() {
        // Calls are numbered from 1; the first is the snapshot of an
        // almost empty state.
        let (second, last) = (calls[1], calls[63]);
        assert!(second >= 2 * BLOB_BYTES as u64, "{proto} node {node}: call 2 wrote {second}");
        assert!(
            last <= 2 * second,
            "{proto} node {node}: call 64 appended {last} bytes, call 2 {second}"
        );
        let total: u64 = calls.iter().sum();
        assert!(
            total <= 3 * payload_bytes,
            "{proto} node {node}: {total} WAL bytes for {payload_bytes} payload bytes decided"
        );
    }
}

#[test]
fn persist_appends_what_changed_not_what_exists() {
    let (c, handles) = pbft::<Blob>(0xB17E);
    assert_linear("pbft", &wal_growth(c, &handles));
    let (c, handles) = raft::<Blob>(0xB17E);
    assert_linear("raft", &wal_growth(c, &handles));
}

// ---------------------------------------------------------------------
// Fold ≡ snapshot under random schedules.
// ---------------------------------------------------------------------

/// What the test knows about one node's disk.
#[derive(Default)]
struct Oracle {
    /// `snapshot()` of the node at each of its persists, oldest first.
    persisted: Vec<Vec<u8>>,
    /// Whether the last of them is known to be what a recovery returns:
    /// its sync succeeded and nothing has hurt the disk since.
    last_is_durable: bool,
    /// The log may hold damage that appends have since buried — a
    /// record rotted under the running node, or a recovery that failed
    /// half way (its own sync refused) — and stays unreadable until a
    /// recovery gets through.
    rotted: bool,
}

/// Drives `c` through `schedule`; `(kind, node)` pairs are decoded below.
fn fold_schedule<A>(mut c: DurableNet<A>, handles: &[FaultFs], schedule: &[(u8, usize)])
where
    A: OrderingActor<Payload = u64> + Durable,
{
    let n = handles.len();
    let mut oracles: Vec<Oracle> = (0..n).map(|_| Oracle::default()).collect();
    let mut next_payload = 1u64;
    c.run_until_time(100_000);

    // Records what a persist of `node` is about to write.
    fn before_persist<A>(c: &DurableNet<A>, oracle: &mut Oracle, node: usize)
    where
        A: OrderingActor<Payload = u64> + Durable,
    {
        oracle.persisted.push(snapshot(c.network().actor(node)));
    }

    for (step, &(kind, node)) in schedule.iter().enumerate() {
        let node = node % n;
        match kind {
            // Decide two more payloads (or as many as a recovering
            // cluster manages in the window).
            0..=3 => {
                for _ in 0..2 {
                    c.submit(next_payload);
                    next_payload += 1;
                }
                let deadline = c.now() + 400_000;
                c.run_until_time(deadline);
            }
            4..=6 => {
                let failed: Vec<u64> = handles.iter().map(FaultFs::syncs_failed).collect();
                for (i, oracle) in oracles.iter_mut().enumerate() {
                    before_persist(&c, oracle, i);
                }
                c.persist();
                for (i, oracle) in oracles.iter_mut().enumerate() {
                    oracle.last_is_durable =
                        handles[i].syncs_failed() == failed[i] && !oracle.rotted;
                }
            }
            // Total crash, optionally with the WAL tail rotting before
            // the restart, then recovery from disk.
            7 | 8 => {
                let failed = handles[node].syncs_failed();
                before_persist(&c, &mut oracles[node], node);
                c.apply_nemesis(&NemesisOp::CrashAmnesia { node });
                oracles[node].last_is_durable =
                    handles[node].syncs_failed() == failed && !oracles[node].rotted;
                if kind == 8 {
                    c.apply_nemesis(&NemesisOp::CorruptWalTail { node });
                    oracles[node].last_is_durable = false;
                }
                let recoveries = c.recoveries().len();
                c.apply_nemesis(&NemesisOp::Restart { node });
                let oracle = &mut oracles[node];
                let actor = c.network().actor(node);
                let Some((_, rec)) = c.recoveries().get(recoveries) else {
                    // The log was unreadable: a blank boot, which only
                    // damage explains.
                    assert!(!oracle.last_is_durable, "step {step}: node {node} lost a healthy log");
                    oracle.rotted = true;
                    continue;
                };
                oracle.rotted = false;
                let got = recovered(actor, rec);
                if oracle.last_is_durable {
                    assert!(
                        &got == oracle.persisted.last().unwrap(),
                        "step {step}: node {node} did not recover its last durable persist"
                    );
                } else {
                    let blank = snapshot(&A::restore(actor, A::blank_stable(actor)));
                    assert!(
                        got == blank || oracle.persisted.contains(&got),
                        "step {step}: node {node} recovered a state it never persisted"
                    );
                }
                let deadline = c.now() + 400_000;
                c.run_until_time(deadline);
            }
            9 => {
                c.apply_nemesis(&NemesisOp::FailSyncs { node, count: 1 + (step as u32 % 3) });
            }
            // The WAL tail rots under a running node.
            10 => {
                c.apply_nemesis(&NemesisOp::CorruptWalTail { node });
                oracles[node].last_is_durable = false;
                oracles[node].rotted = true;
            }
            // Cold read: whatever survived agrees with the decided
            // history, and the next persist starts a new chain.
            _ => {
                let reference: Vec<(u64, u64)> = (0..n)
                    .map(|i| c.decided(i).iter().map(|(s, p, _)| (*s, *p)).collect::<Vec<_>>())
                    .max_by_key(Vec::len)
                    .unwrap();
                let cold = c.cold_decided(node);
                oracles[node].rotted = cold.is_none();
                for block in cold.iter().flatten() {
                    assert!(reference.contains(block), "step {step}: cold block {block:?}");
                }
            }
        }
    }
}

fn schedules() -> impl Strategy<Value = Vec<(u8, usize)>> {
    proptest::collection::vec((0u8..12, 0usize..12), 12..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pbft_recovery_folds_to_a_persisted_checkpoint(seed in 0u64..10_000, schedule in schedules()) {
        let (c, handles) = pbft::<u64>(seed);
        fold_schedule(c, &handles, &schedule);
    }

    #[test]
    fn raft_recovery_folds_to_a_persisted_checkpoint(seed in 0u64..10_000, schedule in schedules()) {
        let (c, handles) = raft::<u64>(seed);
        fold_schedule(c, &handles, &schedule);
    }
}

// ---------------------------------------------------------------------
// A hole in the chain.
// ---------------------------------------------------------------------

/// Six persists, then one record vanishes from the middle of node 1's
/// checkpoint log: recovery folds the records before the hole and stops.
fn dropped_record_recovers_the_prefix<A>(mut c: DurableNet<A>, proto: &str)
where
    A: OrderingActor<Payload = u64> + Durable,
{
    c.run_until_time(100_000);
    let mut persisted = Vec::new();
    for call in 0..6u64 {
        c.submit(10 + call);
        assert!(c.run_until_decided(call as usize + 1, 5_000_000), "{proto} stalled");
        persisted.push(snapshot(c.network().actor(1)));
        c.persist();
    }
    for dropped in 1..6usize {
        let vfs = c.store_mut(1).vfs_mut();
        let records = Wal::new(WAL).read(vfs, true).unwrap().records;
        assert_eq!(records.len(), 6, "{proto}: one record per persist");
        let kept: Vec<&[u8]> = records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (i != dropped).then_some(r.as_slice()))
            .collect();
        Wal::new(WAL).rewrite(vfs, &kept).unwrap();
        let rec = c.store_mut(1).reopen().unwrap();
        let got = recovered(c.network().actor(1), &rec);
        assert!(got == persisted[dropped - 1], "{proto}: dropped record {dropped}");
        // Put the log back for the next round.
        let all: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
        Wal::new(WAL).rewrite(c.store_mut(1).vfs_mut(), &all).unwrap();
    }
}

#[test]
fn a_hole_in_the_chain_recovers_the_prefix_not_a_mix() {
    dropped_record_recovers_the_prefix(pbft::<u64>(0x401E).0, "pbft");
    dropped_record_recovers_the_prefix(raft::<u64>(0x401E).0, "raft");
}
