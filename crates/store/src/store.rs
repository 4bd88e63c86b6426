//! One node's durable state: a checkpoint WAL plus a block segment
//! store, recovered together by a staged replay.
//!
//! The [`NodeStore`] persists two things:
//!
//! * **checkpoints** — opaque encoded consensus state in
//!   `checkpoint.wal`, as a chain of records:
//!
//!   ```text
//!   record    = snapshot | extension
//!   snapshot  = 'S' ordinal:u64 bytes    replaces everything before it
//!   extension = 'E' ordinal:u64 bytes    extends record `ordinal - 1`
//!   ```
//!
//!   Recovery hands back the last durable snapshot and the extensions
//!   chained to it, in order; the caller folds them. An extension whose
//!   predecessor is not the record right before it ends the chain — a
//!   gap is never folded over. Records before the last snapshot are
//!   dead bytes; when a new snapshot would leave
//!   [`COMPACT_DEAD_PER_LIVE`] times its own size of them, the log is
//!   rewritten to that snapshot alone (atomic rename).
//! * **blocks** — `(seq, payload)` pairs appended to the segment store,
//!   guarded by a `persisted` watermark set so re-offering an
//!   already-persisted sequence is a cheap no-op. That watermark is
//!   what makes quarantine recovery graceful: when a rotted segment is
//!   jailed, its sequences drop out of the set, and the node's next
//!   persistence pass re-appends them from its recovered in-memory log
//!   (or from state re-fetched via the protocol's catch-up path).
//!
//! [`NodeStore::reopen`] is the staged replay: scan and checksum every
//! segment (quarantining rot) → read the WAL, truncating a torn tail →
//! adopt the last durable checkpoint → rebuild the watermark. Every
//! stage only *removes* untrustworthy bytes or renames files atomically,
//! so recovery is idempotent — crashing in the middle of it and running
//! it again reaches the same state, which the crash-during-recovery
//! chaos tests exercise.

use std::collections::{BTreeMap, BTreeSet};
use std::io;

use crate::segment::SegmentStore;
use crate::vfs::Vfs;
use crate::wal::Wal;

const CHECKPOINT_WAL: &str = "checkpoint.wal";

/// Dead bytes per live byte at which a snapshot rewrites the checkpoint
/// log instead of being appended to it.
pub const COMPACT_DEAD_PER_LIVE: u64 = 8;

const SNAPSHOT: u8 = b'S';
const EXTENSION: u8 = b'E';
/// Kind byte plus ordinal.
const RECORD_HEADER: usize = 9;

fn record_header(kind: u8, ordinal: u64) -> [u8; RECORD_HEADER] {
    let mut header = [kind; RECORD_HEADER];
    header[1..].copy_from_slice(&ordinal.to_be_bytes());
    header
}

/// Splits a checkpoint-log record into `(kind, ordinal, bytes)`.
fn parse_record(record: &[u8]) -> Option<(u8, u64, &[u8])> {
    let (header, bytes) = record.split_first_chunk::<RECORD_HEADER>()?;
    let ordinal = u64::from_be_bytes(header[1..].try_into().expect("8 bytes"));
    matches!(header[0], SNAPSHOT | EXTENSION).then_some((header[0], ordinal, bytes))
}

/// Errors surfaced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed (including injected
    /// sync failures).
    Io(io::Error),
    /// A file ends in a partial or damaged final record and torn-tail
    /// truncation is disabled.
    TornTail {
        /// File with the torn tail.
        file: String,
        /// Byte offset where the torn frame starts.
        offset: u64,
    },
    /// A checksum failed somewhere other than a torn tail — the media
    /// corrupted history that was once durable.
    Corrupt {
        /// File with the bad frame.
        file: String,
        /// Byte offset of the frame that failed its checksum.
        offset: u64,
    },
    /// [`NodeStore::extend_checkpoint`] was called while
    /// [`NodeStore::can_extend`] is false: the next record must be a
    /// snapshot.
    BrokenChain,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::TornTail { file, offset } => {
                write!(f, "torn tail in {file} at byte {offset} (truncation disabled)")
            }
            StoreError::Corrupt { file, offset } => {
                write!(f, "corrupt frame in {file} at byte {offset}")
            }
            StoreError::BrokenChain => {
                write!(f, "no checkpoint record written in this session to extend")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Tuning knobs for a [`NodeStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Blocks per sealed segment.
    pub records_per_segment: usize,
    /// Whether recovery truncates a torn final record (the production
    /// setting). Disabled only by tests proving the truncation matters.
    pub truncate_torn_tail: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { records_per_segment: 4, truncate_torn_tail: true }
    }
}

/// What a staged [`NodeStore::reopen`] found and repaired.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// The last durable snapshot, if any survived.
    pub checkpoint: Option<Vec<u8>>,
    /// The durable extensions chained to [`Recovery::checkpoint`], in
    /// the order they were written: the longest prefix of the chain
    /// that has no gap. Folding them onto the snapshot, in order, gives
    /// the state at the last durable record.
    pub extensions: Vec<Vec<u8>>,
    /// Checkpoint records (of either kind) that were readable in the WAL.
    pub checkpoints_seen: usize,
    /// Every trusted block, sorted by sequence (duplicates last-wins).
    pub blocks: Vec<(u64, Vec<u8>)>,
    /// Whether a torn tail was truncated from the checkpoint WAL.
    pub wal_torn_tail: bool,
    /// Whether a torn tail was truncated from the open block segment.
    pub open_torn_tail: bool,
    /// Segment files quarantined for failing their checksums.
    pub quarantined: Vec<String>,
    /// Sequence numbers known lost to quarantine (lower bound).
    pub lost_seqs: Vec<u64>,
}

impl Recovery {
    /// True if recovery had to repair or jail anything.
    pub fn degraded(&self) -> bool {
        self.wal_torn_tail || self.open_torn_tail || !self.quarantined.is_empty()
    }
}

/// Durable state for one replica, over any [`Vfs`].
pub struct NodeStore {
    vfs: Box<dyn Vfs>,
    cfg: StoreConfig,
    wal: Wal,
    segments: SegmentStore,
    persisted: BTreeSet<u64>,
    /// Bytes of `checkpoint.wal` before its last snapshot.
    wal_dead: u64,
    /// Bytes of `checkpoint.wal` from its last snapshot on.
    wal_live: u64,
    next_ordinal: u64,
    /// Whether the last checkpoint record was written by this session
    /// with nothing failing since, so that the caller knows what an
    /// extension would extend.
    chain_intact: bool,
    rng: u64,
}

impl std::fmt::Debug for NodeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore")
            .field("cfg", &self.cfg)
            .field("blocks", &self.persisted.len())
            .field("wal_dead", &self.wal_dead)
            .field("wal_live", &self.wal_live)
            .field("chain_intact", &self.chain_intact)
            .finish()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NodeStore {
    /// Opens a store over `vfs`, running staged recovery immediately.
    pub fn open(vfs: Box<dyn Vfs>, cfg: StoreConfig) -> Result<(NodeStore, Recovery), StoreError> {
        let mut store = NodeStore {
            vfs,
            cfg,
            wal: Wal::new(CHECKPOINT_WAL),
            segments: SegmentStore::new(cfg.records_per_segment, cfg.truncate_torn_tail),
            persisted: BTreeSet::new(),
            wal_dead: 0,
            wal_live: 0,
            next_ordinal: 0,
            chain_intact: false,
            rng: 0x5704_E000_0000_0001,
        };
        let recovery = store.reopen()?;
        Ok((store, recovery))
    }

    /// The staged replay: segments → WAL → checkpoint chain → watermark.
    ///
    /// Idempotent: each stage only truncates torn bytes or renames
    /// atomically, so a crash mid-recovery re-runs to the same state.
    /// Whatever the caller held in memory may be ahead of what came
    /// back, so the next checkpoint record must be a snapshot
    /// ([`NodeStore::can_extend`] is false until one is written).
    pub fn reopen(&mut self) -> Result<Recovery, StoreError> {
        self.chain_intact = false;
        self.segments =
            SegmentStore::new(self.cfg.records_per_segment, self.cfg.truncate_torn_tail);
        let seg_report = self.segments.recover(self.vfs.as_mut())?;
        let wal_rec = self.wal.read(self.vfs.as_mut(), self.cfg.truncate_torn_tail)?;
        let mut blocks: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (seq, payload) in seg_report.blocks {
            blocks.insert(seq, payload);
        }
        self.persisted = blocks.keys().copied().collect();

        // Fold rule: the last snapshot, then every extension whose
        // ordinal follows the record before it. `tip` is the ordinal an
        // extension must follow; a gap (or a record this code did not
        // write) clears it until the next snapshot.
        let mut checkpoint = None;
        let mut extensions = Vec::new();
        let mut tip = None;
        (self.wal_dead, self.wal_live, self.next_ordinal) = (0, 0, 0);
        for record in &wal_rec.records {
            let frame = Wal::frame_len(record.len());
            let parsed = parse_record(record);
            if let Some((_, ordinal, _)) = parsed {
                self.next_ordinal = self.next_ordinal.max(ordinal + 1);
            }
            match parsed {
                Some((SNAPSHOT, ordinal, bytes)) => {
                    checkpoint = Some(bytes.to_vec());
                    extensions.clear();
                    tip = Some(ordinal);
                    self.wal_dead += self.wal_live;
                    self.wal_live = frame;
                }
                Some((_, ordinal, bytes)) if tip.is_some_and(|t| t + 1 == ordinal) => {
                    extensions.push(bytes.to_vec());
                    tip = Some(ordinal);
                    self.wal_live += frame;
                }
                _ => {
                    tip = None;
                    self.wal_live += frame;
                }
            }
        }
        Ok(Recovery {
            checkpoint,
            extensions,
            checkpoints_seen: wal_rec.records.len(),
            blocks: blocks.into_iter().collect(),
            wal_torn_tail: wal_rec.torn_tail,
            open_torn_tail: seg_report.torn_tail_truncated,
            quarantined: seg_report.quarantined,
            lost_seqs: seg_report.lost_seqs,
        })
    }

    /// Writes a snapshot: a checkpoint record that replaces every
    /// record before it (durable after [`NodeStore::sync`]). Everything
    /// already in the log becomes dead bytes; when that is at least
    /// [`COMPACT_DEAD_PER_LIVE`] times this record, the log is
    /// rewritten to this record alone instead of appended to.
    pub fn put_checkpoint(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let header = record_header(SNAPSHOT, self.next_ordinal);
        let frame = Wal::frame_len(RECORD_HEADER + bytes.len());
        let dead = self.wal_dead + self.wal_live;
        let written = if dead >= COMPACT_DEAD_PER_LIVE * frame {
            // Compaction IS the durability point for this record: the
            // rewrite ends in sync + atomic rename.
            self.wal_dead = 0;
            self.wal.rewrite(self.vfs.as_mut(), &[&[&header, bytes].concat()])
        } else {
            self.wal_dead = dead;
            self.wal.append_parts(self.vfs.as_mut(), &[&header, bytes])
        };
        self.wal_live = frame;
        self.next_ordinal += 1;
        self.chain_intact = written.is_ok();
        written
    }

    /// Writes an extension: a checkpoint record that says what changed
    /// since the record before it, which must be one this session wrote
    /// ([`NodeStore::can_extend`]). It carries its predecessor's
    /// ordinal, so recovery folds it only onto exactly that record.
    pub fn extend_checkpoint(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if !self.chain_intact {
            return Err(StoreError::BrokenChain);
        }
        let header = record_header(EXTENSION, self.next_ordinal);
        let written = self.wal.append_parts(self.vfs.as_mut(), &[&header, bytes]);
        self.wal_live += Wal::frame_len(RECORD_HEADER + bytes.len());
        self.next_ordinal += 1;
        self.chain_intact = written.is_ok();
        written
    }

    /// Whether the next checkpoint record may be an extension. False
    /// after anything that may have separated what is on disk from what
    /// the caller believes it wrote — a [`NodeStore::reopen`] (restart,
    /// cold read, quarantine) or a failed write or sync — and until a
    /// snapshot is written: when in doubt, snapshot.
    pub fn can_extend(&self) -> bool {
        self.chain_intact
    }

    /// Appends a block unless that sequence is already persisted.
    /// Returns whether an append happened.
    pub fn append_block(&mut self, seq: u64, payload: &[u8]) -> Result<bool, StoreError> {
        if self.persisted.contains(&seq) {
            return Ok(false);
        }
        let appended = self.segments.append(self.vfs.as_mut(), seq, payload);
        self.chain_intact &= appended.is_ok();
        appended?;
        self.persisted.insert(seq);
        Ok(true)
    }

    /// Fsyncs the WAL and the open segment. A failure (injected or
    /// real) leaves recent appends vulnerable to the next crash — the
    /// caller keeps running; that exposure is the fault model.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let synced =
            self.wal.sync(self.vfs.as_mut()).and_then(|()| self.segments.sync(self.vfs.as_mut()));
        self.chain_intact &= synced.is_ok();
        synced
    }

    /// Whether `seq` is persisted (durably or pending sync).
    pub fn has_block(&self, seq: u64) -> bool {
        self.persisted.contains(&seq)
    }

    /// Number of distinct block sequences persisted.
    pub fn blocks_persisted(&self) -> usize {
        self.persisted.len()
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Direct access to the underlying filesystem (tests, harnesses).
    pub fn vfs_mut(&mut self) -> &mut dyn Vfs {
        self.vfs.as_mut()
    }

    // -- fault entry points (no-ops where the Vfs doesn't inject) -----

    /// Simulates power loss: un-synced tails tear at seeded points.
    pub fn fault_crash(&mut self) {
        self.vfs.fault_crash();
    }

    /// Makes the next `n` syncs fail.
    pub fn fault_fail_syncs(&mut self, n: u32) {
        self.vfs.fault_fail_syncs(n);
    }

    /// Flips a seeded bit inside the *final* WAL record's CRC/payload
    /// region — the "tail rotted between crash and restart" fault.
    /// Returns whether anything was flipped. Targets only the last
    /// frame (and never its length field) so the damage presents as a
    /// torn tail, which is exactly what recovery must absorb.
    pub fn fault_corrupt_wal_tail(&mut self, seed: u64) -> bool {
        let Ok(data) = self.vfs.read(CHECKPOINT_WAL) else {
            return false;
        };
        // Walk frames to find where the last one starts.
        let mut offset = 0usize;
        let mut last: Option<(usize, usize)> = None; // (start, payload len)
        while data.len() - offset >= 8 {
            let len = u32::from_be_bytes([
                data[offset],
                data[offset + 1],
                data[offset + 2],
                data[offset + 3],
            ]) as usize;
            if data.len() - offset - 8 < len {
                break;
            }
            last = Some((offset, len));
            offset += 8 + len;
        }
        let Some((start, len)) = last else {
            return false;
        };
        // Flippable region: the 4 CRC bytes + payload (len field excluded).
        let region = 4 + len;
        let mut state = self.rng ^ seed;
        let bit = splitmix64(&mut state) % (region as u64 * 8);
        self.rng = self.rng.wrapping_add(splitmix64(&mut state));
        let byte_at = start + 4 + (bit / 8) as usize;
        let flipped = data[byte_at] ^ (1 << (bit % 8));
        self.vfs.write_at(CHECKPOINT_WAL, byte_at as u64, &[flipped]).is_ok()
    }

    /// Flips a seeded bit in a seeded *sealed* segment — cold-storage
    /// bit rot. Returns `false` when no sealed segment exists yet (or
    /// the Vfs cannot inject).
    pub fn fault_bit_rot(&mut self, seed: u64) -> bool {
        let sealed: Vec<String> = self
            .vfs
            .list()
            .into_iter()
            .filter(|n| n.starts_with("seg-") && n.ends_with(".blk"))
            .collect();
        if sealed.is_empty() {
            return false;
        }
        let mut state = self.rng ^ seed;
        let pick = (splitmix64(&mut state) % sealed.len() as u64) as usize;
        self.rng = self.rng.wrapping_add(splitmix64(&mut state));
        self.vfs.fault_flip_bit(&sealed[pick], seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;

    fn open_fault(seed: u64, cfg: StoreConfig) -> (NodeStore, FaultFs) {
        let fs = FaultFs::new(seed);
        let (store, rec) = NodeStore::open(Box::new(fs.clone()), cfg).unwrap();
        assert!(rec.checkpoint.is_none() && rec.blocks.is_empty());
        (store, fs)
    }

    #[test]
    fn checkpoint_last_durable_wins() {
        let (mut store, _fs) = open_fault(1, StoreConfig::default());
        store.put_checkpoint(b"cp-1").unwrap();
        store.put_checkpoint(b"cp-2").unwrap();
        store.sync().unwrap();
        store.put_checkpoint(b"cp-3-never-synced").unwrap();
        store.fault_crash();
        let rec = store.reopen().unwrap();
        let cp = rec.checkpoint.unwrap();
        assert!(cp == b"cp-2" || cp == b"cp-3-never-synced");
        assert!(cp != b"cp-1");
    }

    #[test]
    fn torn_wal_tail_degrades_to_previous_checkpoint() {
        // Find a seed whose crash tears cp-2 mid-record; recovery must
        // fall back to cp-1, not error and not replay garbage.
        let mut exercised = false;
        for seed in 0..32u64 {
            let (mut store, _fs) = open_fault(seed, StoreConfig::default());
            store.put_checkpoint(b"cp-1-durable").unwrap();
            store.sync().unwrap();
            store.fault_fail_syncs(1);
            store.put_checkpoint(b"cp-2-will-tear").unwrap();
            let _ = store.sync(); // injected failure
            store.fault_crash();
            let rec = store.reopen().unwrap();
            match rec.checkpoint.as_deref() {
                Some(b"cp-1-durable") => {
                    if rec.wal_torn_tail {
                        exercised = true;
                    }
                }
                Some(b"cp-2-will-tear") => {} // tail happened to fully survive
                other => panic!("seed {seed}: unexpected checkpoint {other:?}"),
            }
        }
        assert!(exercised, "no seed in 0..32 produced a mid-record tear");
    }

    #[test]
    fn blocks_survive_crash_and_watermark_rebuilds() {
        let (mut store, _fs) = open_fault(3, StoreConfig::default());
        for seq in 0..10u64 {
            store.append_block(seq, format!("b{seq}").as_bytes()).unwrap();
        }
        store.sync().unwrap();
        assert!(!store.append_block(7, b"dup").unwrap(), "watermark rejects duplicates");
        store.fault_crash();
        let rec = store.reopen().unwrap();
        assert_eq!(rec.blocks.len(), 10);
        assert_eq!(rec.blocks[7].1, b"b7".to_vec());
        assert!(store.has_block(9));
        assert!(!store.append_block(5, b"dup").unwrap(), "rebuilt watermark still rejects");
        assert!(store.append_block(10, b"b10").unwrap());
    }

    #[test]
    fn quarantined_blocks_can_be_refilled() {
        let (mut store, _fs) = open_fault(4, StoreConfig::default());
        for seq in 0..8u64 {
            store.append_block(seq, format!("b{seq}").as_bytes()).unwrap();
        }
        store.sync().unwrap();
        assert!(store.fault_bit_rot(0x0B17), "a sealed segment must exist to rot");
        let rec = store.reopen().unwrap();
        assert_eq!(rec.quarantined.len(), 1);
        let lost: Vec<u64> = (0..8).filter(|s| !rec.blocks.iter().any(|(q, _)| q == s)).collect();
        assert!(!lost.is_empty(), "quarantine must have cost some blocks");
        // Graceful degradation: the caller re-offers everything; only
        // the lost seqs actually re-append.
        for seq in 0..8u64 {
            let appended = store.append_block(seq, format!("b{seq}").as_bytes()).unwrap();
            assert_eq!(appended, lost.contains(&seq), "seq {seq}");
        }
        store.sync().unwrap();
        let rec = store.reopen().unwrap();
        assert_eq!(rec.blocks.len(), 8, "all blocks back after refill");
    }

    #[test]
    fn corrupt_wal_tail_presents_as_torn_not_fatal() {
        let (mut store, _fs) = open_fault(5, StoreConfig::default());
        store.put_checkpoint(b"cp-old").unwrap();
        store.put_checkpoint(b"cp-new").unwrap();
        store.sync().unwrap();
        assert!(store.fault_corrupt_wal_tail(0xC0FF));
        let rec = store.reopen().unwrap();
        assert!(rec.wal_torn_tail, "tail rot must classify as torn");
        assert_eq!(rec.checkpoint.as_deref(), Some(b"cp-old".as_slice()));
    }

    #[test]
    fn recovery_is_idempotent_under_crash_during_recovery() {
        let (mut store, _fs) = open_fault(6, StoreConfig::default());
        for seq in 0..9u64 {
            store.append_block(seq, b"blk").unwrap();
        }
        store.put_checkpoint(b"cp").unwrap();
        store.sync().unwrap();
        store.fault_fail_syncs(1);
        store.put_checkpoint(b"cp-torn").unwrap();
        let _ = store.sync();
        store.fault_crash();
        // First recovery repairs; crash immediately after (mid-replay
        // from the caller's perspective) and recover again — the second
        // pass must land in the identical state.
        let first = store.reopen().unwrap();
        store.fault_crash();
        let second = store.reopen().unwrap();
        assert_eq!(first.checkpoint, second.checkpoint);
        assert_eq!(first.blocks, second.blocks);
        assert!(!second.wal_torn_tail, "first pass already truncated the tear");
    }

    #[test]
    fn snapshots_compact_by_dead_bytes_and_keep_latest() {
        let (mut store, fs) = open_fault(7, StoreConfig::default());
        let frame = Wal::frame_len(RECORD_HEADER + 5);
        let mut rewrites = 0;
        let mut before = 0;
        for i in 10..50u32 {
            store.put_checkpoint(format!("cp-{i}").as_bytes()).unwrap();
            store.sync().unwrap();
            let len = fs.len(CHECKPOINT_WAL).unwrap();
            // Equal-sized snapshots: the ninth finds eight dead ones.
            assert!(len <= COMPACT_DEAD_PER_LIVE * frame, "wal stayed bounded, got {len}");
            rewrites += usize::from(len < before);
            before = len;
        }
        assert_eq!(rewrites, 40 / (COMPACT_DEAD_PER_LIVE as usize + 1));
        let rec = store.reopen().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"cp-49".as_slice()));
        assert!(rec.extensions.is_empty());
    }

    #[test]
    fn extensions_are_live_bytes_and_one_big_snapshot_does_not_rewrite() {
        let (mut store, fs) = open_fault(8, StoreConfig::default());
        store.put_checkpoint(&[1u8; 100]).unwrap();
        for _ in 0..64 {
            store.extend_checkpoint(&[2u8; 100]).unwrap();
        }
        store.sync().unwrap();
        let chain = fs.len(CHECKPOINT_WAL).unwrap();
        assert_eq!(chain, 65 * Wal::frame_len(RECORD_HEADER + 100), "a chain is never rewritten");
        // A snapshot the size of the chain it replaces is appended...
        store.put_checkpoint(&vec![3u8; 6500]).unwrap();
        assert!(fs.len(CHECKPOINT_WAL).unwrap() > chain);
        // ...and a small one that would leave 8x its size dead rewrites.
        store.put_checkpoint(&[4u8; 100]).unwrap();
        assert_eq!(fs.len(CHECKPOINT_WAL).unwrap(), Wal::frame_len(RECORD_HEADER + 100));
        let rec = store.reopen().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some([4u8; 100].as_slice()));
    }

    #[test]
    fn recovery_returns_the_snapshot_and_its_extensions_in_order() {
        let (mut store, _fs) = open_fault(9, StoreConfig::default());
        assert!(!store.can_extend(), "nothing to extend in a fresh store");
        assert!(matches!(store.extend_checkpoint(b"x"), Err(StoreError::BrokenChain)));
        store.put_checkpoint(b"old-snap").unwrap();
        store.extend_checkpoint(b"old-ext").unwrap();
        store.put_checkpoint(b"snap").unwrap();
        store.extend_checkpoint(b"ext-1").unwrap();
        store.extend_checkpoint(b"ext-2").unwrap();
        store.sync().unwrap();
        store.fault_crash();
        let rec = store.reopen().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"snap".as_slice()));
        assert_eq!(rec.extensions, vec![b"ext-1".to_vec(), b"ext-2".to_vec()]);
        assert_eq!(rec.checkpoints_seen, 5);
        // After any reopen the caller cannot know what it is extending.
        assert!(!store.can_extend());
        assert!(matches!(store.extend_checkpoint(b"ext-3"), Err(StoreError::BrokenChain)));
        store.put_checkpoint(b"snap-2").unwrap();
        assert!(store.can_extend());
        store.extend_checkpoint(b"ext-3").unwrap();
        store.sync().unwrap();
        let rec = store.reopen().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"snap-2".as_slice()));
        assert_eq!(rec.extensions, vec![b"ext-3".to_vec()]);
    }

    #[test]
    fn a_gap_in_the_chain_recovers_the_prefix_before_it() {
        // Drop each record of a chain in turn by rewriting the file
        // without it: recovery folds up to the hole and nothing after.
        let bodies: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 16]).collect();
        for dropped in 0..5usize {
            let (mut store, mut fs) = open_fault(20 + dropped as u64, StoreConfig::default());
            store.put_checkpoint(&bodies[0]).unwrap();
            for body in &bodies[1..] {
                store.extend_checkpoint(body).unwrap();
            }
            store.sync().unwrap();
            let records = Wal::new(CHECKPOINT_WAL).read(&mut fs, true).unwrap().records;
            let kept: Vec<&[u8]> = records
                .iter()
                .enumerate()
                .filter_map(|(i, r)| (i != dropped).then_some(r.as_slice()))
                .collect();
            Wal::new(CHECKPOINT_WAL).rewrite(&mut fs, &kept).unwrap();
            let rec = store.reopen().unwrap();
            assert_eq!(rec.checkpoints_seen, 4);
            if dropped == 0 {
                assert!(
                    rec.checkpoint.is_none(),
                    "extensions of a missing snapshot fold onto nothing"
                );
                assert!(rec.extensions.is_empty());
            } else {
                assert_eq!(rec.checkpoint.as_deref(), Some(bodies[0].as_slice()));
                assert_eq!(rec.extensions, bodies[1..dropped].to_vec(), "dropped record {dropped}");
            }
        }
    }

    #[test]
    fn torn_extension_recovers_the_chain_before_it() {
        let mut exercised = false;
        for seed in 0..32u64 {
            let (mut store, _fs) = open_fault(seed, StoreConfig::default());
            store.put_checkpoint(b"snap-durable").unwrap();
            store.extend_checkpoint(b"ext-durable").unwrap();
            store.sync().unwrap();
            store.fault_fail_syncs(1);
            store.extend_checkpoint(b"ext-will-tear").unwrap();
            assert!(store.sync().is_err());
            assert!(!store.can_extend(), "a failed sync is a reason to snapshot");
            store.fault_crash();
            let rec = store.reopen().unwrap();
            assert_eq!(rec.checkpoint.as_deref(), Some(b"snap-durable".as_slice()));
            assert_eq!(rec.extensions[0], b"ext-durable".to_vec());
            match rec.extensions.len() {
                1 => exercised |= rec.wal_torn_tail,
                2 => assert_eq!(rec.extensions[1], b"ext-will-tear".to_vec()),
                n => panic!("seed {seed}: {n} extensions"),
            }
        }
        assert!(exercised, "no seed in 0..32 tore the extension mid-record");
    }

    #[test]
    fn a_record_this_store_did_not_write_ends_the_chain() {
        let (mut store, mut fs) = open_fault(10, StoreConfig::default());
        store.put_checkpoint(b"snap").unwrap();
        store.extend_checkpoint(b"ext-1").unwrap();
        Wal::new(CHECKPOINT_WAL).append(&mut fs, b"?").unwrap();
        Wal::new(CHECKPOINT_WAL).append(&mut fs, &record_header(EXTENSION, 2)).unwrap();
        let rec = store.reopen().unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"snap".as_slice()));
        assert_eq!(rec.extensions, vec![b"ext-1".to_vec()]);
    }

    #[test]
    fn real_fs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("pbc-store-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = crate::RealFs::new(&dir).unwrap();
        let (mut store, rec) = NodeStore::open(Box::new(fs), StoreConfig::default()).unwrap();
        assert!(rec.checkpoint.is_none());
        for seq in 0..6u64 {
            store.append_block(seq, format!("real-{seq}").as_bytes()).unwrap();
        }
        store.put_checkpoint(b"real-cp").unwrap();
        store.sync().unwrap();
        drop(store);
        // Cold reopen from disk, as a restarted process would.
        let fs = crate::RealFs::new(&dir).unwrap();
        let (store, rec) = NodeStore::open(Box::new(fs), StoreConfig::default()).unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(b"real-cp".as_slice()));
        assert_eq!(rec.blocks.len(), 6);
        assert_eq!(rec.blocks[3].1, b"real-3".to_vec());
        drop(store);
        // A torn append on the real WAL file: a length prefix promising
        // 64 bytes, then the power dies after 3. Reopen cuts the tail.
        let wal = dir.join(CHECKPOINT_WAL);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 64, 0xDE, 0xAD, 0xBE]);
        std::fs::write(&wal, &bytes).unwrap();
        let fs = crate::RealFs::new(&dir).unwrap();
        let (_store, rec) = NodeStore::open(Box::new(fs), StoreConfig::default()).unwrap();
        assert!(rec.wal_torn_tail, "the torn append must be detected");
        assert_eq!(rec.checkpoint.as_deref(), Some(b"real-cp".as_slice()));
        assert_eq!(rec.blocks.len(), 6, "segment blocks survive a torn WAL");
        assert!(rec.quarantined.is_empty() && rec.lost_seqs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
