//! `persist()` on a growing decided log: the rig behind criterion group
//! `e12_persist` and the checkpoint-bytes gate in this module's tests.
//!
//! One PBFT cluster (n = 4) over four `NodeStore`s decides batches two
//! at a time with a `persist()` after each pair — the shape of the
//! `durable-pbft4-ox` benchmark workload. What a call costs and how many
//! bytes it appends to the four checkpoint logs must not depend on how
//! long the decided log already is.

use pbc_consensus::{durable_cluster_with, OrderingCluster};
use pbc_core::Batch;
use pbc_sim::NetworkConfig;
use pbc_store::{FaultFs, NodeStore, RealFs, StoreConfig, Vfs};
use pbc_workload::PaymentWorkload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const NODES: usize = 4;
const BATCH_TXS: usize = 32;
const WAL: &str = "checkpoint.wal";

/// Where the rig's stores live.
#[derive(Clone, Debug)]
pub enum Disk {
    /// In-memory `FaultFs`: the CPU cost of a call, no device.
    Fault,
    /// `RealFs` under this directory (created, emptied first): fsyncs.
    Real(PathBuf),
}

impl Disk {
    /// Label for bench ids and printed rows.
    pub fn label(&self) -> &'static str {
        match self {
            Disk::Fault => "faultfs",
            Disk::Real(_) => "realfs",
        }
    }
}

/// The cluster, its decided-log length and a way to size its WALs.
struct PersistRig {
    cluster: Box<dyn OrderingCluster<Batch>>,
    workload: PaymentWorkload,
    decided: usize,
    wal_len: Box<dyn Fn() -> u64>,
}

impl PersistRig {
    /// A fresh cluster over fresh stores on `disk`.
    fn new(disk: &Disk) -> Self {
        let mut stores = Vec::with_capacity(NODES);
        let wal_len: Box<dyn Fn() -> u64> = match disk {
            Disk::Fault => {
                let handles: Vec<FaultFs> = (0..NODES as u64).map(FaultFs::new).collect();
                for fs in &handles {
                    stores.push(open(Box::new(fs.clone())));
                }
                Box::new(move || handles.iter().map(|fs| fs.len(WAL).unwrap_or(0)).sum())
            }
            Disk::Real(root) => {
                let _ = std::fs::remove_dir_all(root);
                let dirs: Vec<PathBuf> =
                    (0..NODES).map(|i| root.join(format!("node{i}"))).collect();
                for dir in &dirs {
                    stores.push(open(Box::new(RealFs::new(dir).expect("store directory"))));
                }
                Box::new(move || {
                    dirs.iter()
                        .map(|dir| std::fs::metadata(dir.join(WAL)).map_or(0, |m| m.len()))
                        .sum()
                })
            }
        };
        let cfg = NetworkConfig { seed: 0x5704E, ..Default::default() };
        let cluster = durable_cluster_with("pbft", NODES, cfg, stores).expect("pbft is registered");
        PersistRig { cluster, workload: PaymentWorkload::default(), decided: 0, wal_len }
    }

    /// Decides two more batches on every replica.
    fn decide_pair(&mut self) {
        for _ in 0..2 {
            let id = self.decided as u64;
            let txs = self.workload.generate(id * BATCH_TXS as u64, BATCH_TXS);
            self.cluster.submit(Batch::new(id, txs));
            self.decided += 1;
        }
        assert!(self.cluster.run_until_decided(self.decided, 2_000_000), "pbft stalled");
    }

    /// One `persist()`: its wall time and the bytes it appended to the
    /// four checkpoint logs together.
    fn persist(&mut self) -> (Duration, u64) {
        let before = (self.wal_len)();
        let start = Instant::now();
        self.cluster.persist();
        let took = start.elapsed();
        (took, (self.wal_len)().saturating_sub(before))
    }

    /// Grows the log to `len` batches (even), persisting after every
    /// pair but the last: the next [`PersistRig::persist`] is the call
    /// "at decided-log length `len` with two new batches".
    fn grow_to(&mut self, len: usize) {
        assert!(len.is_multiple_of(2) && len > self.decided, "grows by pairs");
        while self.decided + 2 < len {
            self.decide_pair();
            self.persist();
        }
        self.decide_pair();
    }
}

fn open(vfs: Box<dyn Vfs>) -> NodeStore {
    NodeStore::open(vfs, StoreConfig::default()).expect("fresh store opens").0
}

/// The `persist()` at decided-log length `len`, `samples` times, each on
/// a fresh rig so that the timed call is the one at this length and not
/// a later one: mean wall time of the call and the bytes it appended (a
/// count: the same every time).
pub fn persist_at(disk: &Disk, len: usize, samples: usize) -> (Duration, u64) {
    let mut total = Duration::ZERO;
    let mut bytes = 0;
    for sample in 0..samples {
        let mut rig = PersistRig::new(disk);
        rig.grow_to(len);
        let (took, appended) = rig.persist();
        assert!(sample == 0 || appended == bytes, "checkpoint bytes are a count");
        total += took;
        bytes = appended;
    }
    (total / samples.max(1) as u32, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `persist()` writes what changed, not what exists: the checkpoint
    /// bytes one call appends at a decided log of 512 stay within 3× of
    /// those at 8. `FaultFs` counts the same bytes a real disk does.
    #[test]
    fn checkpoint_bytes_per_persist_do_not_grow_with_the_decided_log() {
        let (_, at_8) = persist_at(&Disk::Fault, 8, 1);
        let (_, at_512) = persist_at(&Disk::Fault, 512, 1);
        assert!(at_8 > 0, "persist() at a decided log of 8 appended nothing");
        assert!(
            at_512 <= 3 * at_8,
            "persist() writes what exists, not what changed: {at_512} checkpoint bytes per \
             call at a decided log of 512, {at_8} at 8"
        );
    }
}
