//! Segmented append-only block files with quarantine-on-rot recovery.
//!
//! Decided blocks land in the *open* segment (`open.blk`) as framed
//! records `[seq: u64 BE][len: u32 BE][crc32(seq‖payload): u32 BE]
//! [payload]`. When the open segment holds `records_per_segment`
//! records it is *sealed*: synced, then atomically renamed to
//! `seg-NNNNNN.blk`. Sealed ("cold") segments are immutable — the only
//! thing that can change them is the media itself, which is why
//! recovery re-checksums every frame:
//!
//! * a cold segment with any bad frame is **quarantined** — renamed to
//!   `quarantine-seg-NNNNNN.blk` and none of its blocks trusted. The
//!   store reports the gap; the node re-fills it from its own recovered
//!   consensus log or from peers via the protocol's normal catch-up
//!   path. Bit rot costs a re-fetch, never a wedged replica.
//! * the open segment is hot, so its final frame may be torn by a
//!   crash: a tail-shaped defect is truncated (or surfaced as
//!   [`StoreError::TornTail`](crate::StoreError) when truncation is
//!   disabled), while a mid-file defect quarantines the open segment
//!   like any other.
//!
//! If a seal-time `sync` fails (injected or real), the seal is simply
//! deferred — the segment stays open and oversized until a later append
//! manages to seal it. Renaming un-synced data would launder it into
//! durability, so the store never does.

use crate::crc::crc32_parts;
use crate::vfs::Vfs;
use crate::StoreError;

const OPEN_SEGMENT: &str = "open.blk";
const RECORD_HEADER: usize = 16; // seq u64 + len u32 + crc u32

/// Append-only block storage over a [`Vfs`], rotated into segments.
#[derive(Debug)]
pub struct SegmentStore {
    records_per_segment: usize,
    truncate_torn_tail: bool,
    next_seal: u64,
    open_records: usize,
}

/// What [`SegmentStore::recover`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct SegmentReport {
    /// Every trusted block, `(seq, payload)`, in on-disk order.
    pub blocks: Vec<(u64, Vec<u8>)>,
    /// File names of segments quarantined for failing their checksums.
    pub quarantined: Vec<String>,
    /// Sequence numbers that were readable inside quarantined segments
    /// (a lower bound on what was lost — torn frames are unreadable).
    pub lost_seqs: Vec<u64>,
    /// Whether a torn tail was truncated from the open segment.
    pub torn_tail_truncated: bool,
}

/// Outcome of parsing one segment file.
enum Parsed {
    /// All frames intact.
    Clean(Vec<(u64, Vec<u8>)>),
    /// Defect whose shape is "the file ends in a partial/damaged final
    /// frame": intact prefix + offset where the tear starts.
    TornTail(Vec<(u64, Vec<u8>)>, usize),
    /// Defect with trusted-looking bytes after it: the media lied.
    Corrupt(Vec<(u64, Vec<u8>)>),
}

fn parse_segment(data: &[u8]) -> Parsed {
    let mut blocks = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset == data.len() {
            return Parsed::Clean(blocks);
        }
        if data.len() - offset < RECORD_HEADER {
            return Parsed::TornTail(blocks, offset);
        }
        let seq_bytes: [u8; 8] = data[offset..offset + 8].try_into().expect("8 bytes");
        let seq = u64::from_be_bytes(seq_bytes);
        let len =
            u32::from_be_bytes(data[offset + 8..offset + 12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(data[offset + 12..offset + 16].try_into().expect("4 bytes"));
        let body_start = offset + RECORD_HEADER;
        if data.len() - body_start < len {
            return Parsed::TornTail(blocks, offset);
        }
        let payload = &data[body_start..body_start + len];
        if crc32_parts(&[&seq_bytes, payload]) != crc {
            // Complete frame, bad CRC: torn only if nothing follows.
            return if body_start + len == data.len() {
                Parsed::TornTail(blocks, offset)
            } else {
                Parsed::Corrupt(blocks)
            };
        }
        blocks.push((seq, payload.to_vec()));
        offset = body_start + len;
    }
}

fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let seq_bytes = seq.to_be_bytes();
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.extend_from_slice(&seq_bytes);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32_parts(&[&seq_bytes, payload]).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn sealed_name(index: u64) -> String {
    format!("seg-{index:06}.blk")
}

impl SegmentStore {
    /// A store sealing segments every `records_per_segment` blocks.
    pub fn new(records_per_segment: usize, truncate_torn_tail: bool) -> Self {
        SegmentStore {
            records_per_segment: records_per_segment.max(1),
            truncate_torn_tail,
            next_seal: 0,
            open_records: 0,
        }
    }

    /// Scans every segment, quarantines rot, heals the open segment's
    /// torn tail, and returns everything trustworthy.
    pub fn recover(&mut self, vfs: &mut dyn Vfs) -> Result<SegmentReport, StoreError> {
        let mut report = SegmentReport::default();
        let mut max_index_seen: Option<u64> = None;
        for name in vfs.list() {
            // Sealed and quarantined names both pin the numbering so a
            // quarantined index is never reused for a fresh segment.
            for prefix in ["seg-", "quarantine-seg-"] {
                if let Some(idx) = name
                    .strip_prefix(prefix)
                    .and_then(|r| r.strip_suffix(".blk"))
                    .and_then(|d| d.parse::<u64>().ok())
                {
                    max_index_seen = Some(max_index_seen.map_or(idx, |m| m.max(idx)));
                }
            }
            if !(name.starts_with("seg-") && name.ends_with(".blk")) {
                continue;
            }
            let data = vfs.read(&name)?;
            match parse_segment(&data) {
                Parsed::Clean(blocks) => report.blocks.extend(blocks),
                // A sealed segment was fully synced before its rename;
                // ANY defect in one — tail-shaped or not — is rot.
                Parsed::TornTail(prefix_blocks, _) | Parsed::Corrupt(prefix_blocks) => {
                    report.lost_seqs.extend(prefix_blocks.iter().map(|(s, _)| *s));
                    let jail = format!("quarantine-{name}");
                    vfs.rename(&name, &jail)?;
                    report.quarantined.push(name);
                }
            }
        }
        self.next_seal = max_index_seen.map_or(0, |m| m + 1);
        self.open_records = 0;
        if vfs.exists(OPEN_SEGMENT) {
            let data = vfs.read(OPEN_SEGMENT)?;
            match parse_segment(&data) {
                Parsed::Clean(blocks) => {
                    self.open_records = blocks.len();
                    report.blocks.extend(blocks);
                }
                Parsed::TornTail(blocks, offset) => {
                    if !self.truncate_torn_tail {
                        return Err(StoreError::TornTail {
                            file: OPEN_SEGMENT.to_string(),
                            offset: offset as u64,
                        });
                    }
                    vfs.truncate(OPEN_SEGMENT, offset as u64)?;
                    vfs.sync(OPEN_SEGMENT)?;
                    report.torn_tail_truncated = true;
                    self.open_records = blocks.len();
                    report.blocks.extend(blocks);
                }
                Parsed::Corrupt(prefix_blocks) => {
                    report.lost_seqs.extend(prefix_blocks.iter().map(|(s, _)| *s));
                    let jail = format!("quarantine-open-{:06}.blk", self.next_seal);
                    vfs.rename(OPEN_SEGMENT, &jail)?;
                    report.quarantined.push(OPEN_SEGMENT.to_string());
                }
            }
        }
        Ok(report)
    }

    /// Appends one block to the open segment, sealing it if full. Not
    /// durable until [`SegmentStore::sync`] (or the seal's own sync).
    pub fn append(
        &mut self,
        vfs: &mut dyn Vfs,
        seq: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        vfs.append(OPEN_SEGMENT, &frame(seq, payload))?;
        self.open_records += 1;
        if self.open_records >= self.records_per_segment {
            // Seal: sync first, then the atomic rename. A failed sync
            // defers the seal rather than laundering un-synced bytes.
            if vfs.sync(OPEN_SEGMENT).is_ok() {
                vfs.rename(OPEN_SEGMENT, &sealed_name(self.next_seal))?;
                self.next_seal += 1;
                self.open_records = 0;
            }
        }
        Ok(())
    }

    /// Fsyncs the open segment (sealed segments are already durable).
    pub fn sync(&self, vfs: &mut dyn Vfs) -> Result<(), StoreError> {
        if vfs.exists(OPEN_SEGMENT) {
            vfs.sync(OPEN_SEGMENT)?;
        }
        Ok(())
    }

    /// Index the next sealed segment will take.
    pub fn next_seal_index(&self) -> u64 {
        self.next_seal
    }

    /// Records currently sitting in the open segment.
    pub fn open_records(&self) -> usize {
        self.open_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;

    fn filled(fs: &mut FaultFs, per_seg: usize, n: u64) -> SegmentStore {
        let mut store = SegmentStore::new(per_seg, true);
        for seq in 0..n {
            store.append(fs, seq, format!("block-{seq}").as_bytes()).unwrap();
        }
        store.sync(fs).unwrap();
        store
    }

    #[test]
    fn seals_on_capacity_and_recovers_in_order() {
        let mut fs = FaultFs::new(10);
        let store = filled(&mut fs, 3, 8);
        assert_eq!(store.next_seal_index(), 2, "two sealed segments");
        assert_eq!(store.open_records(), 2);
        assert!(fs.exists("seg-000000.blk") && fs.exists("seg-000001.blk"));
        let mut fresh = SegmentStore::new(3, true);
        let report = fresh.recover(&mut fs).unwrap();
        assert_eq!(report.blocks.len(), 8);
        assert_eq!(
            report.blocks.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert!(report.quarantined.is_empty());
        assert_eq!(fresh.next_seal_index(), 2);
        assert_eq!(fresh.open_records(), 2);
    }

    #[test]
    fn sealed_segments_survive_crash_open_tail_tears() {
        let mut fs = FaultFs::new(11);
        let mut store = SegmentStore::new(3, true);
        for seq in 0..7 {
            store.append(&mut fs, seq, b"payload").unwrap();
        }
        // Seqs 0..6 are sealed (two segments, durable via rename); seq 6
        // sits un-synced in the open segment.
        fs.fault_crash();
        let mut fresh = SegmentStore::new(3, true);
        let report = fresh.recover(&mut fs).unwrap();
        let seqs: Vec<u64> = report.blocks.iter().map(|(s, _)| *s).collect();
        assert!(seqs.len() >= 6, "sealed blocks must all survive, got {seqs:?}");
        assert_eq!(&seqs[..6], &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bit_rot_in_cold_segment_quarantines_it() {
        let mut fs = FaultFs::new(12);
        filled(&mut fs, 3, 8);
        assert!(fs.fault_flip_bit("seg-000000.blk", 77));
        let mut fresh = SegmentStore::new(3, true);
        let report = fresh.recover(&mut fs).unwrap();
        assert_eq!(report.quarantined, vec!["seg-000000.blk".to_string()]);
        assert!(fs.exists("quarantine-seg-000000.blk"));
        assert!(!fs.exists("seg-000000.blk"));
        // Blocks 3..8 still trusted; 0..3 gone (some may be in lost_seqs).
        let seqs: Vec<u64> = report.blocks.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6, 7]);
        // The quarantined index is never reused.
        assert_eq!(fresh.next_seal_index(), 2);
    }

    #[test]
    fn torn_open_tail_hard_errors_when_truncation_disabled() {
        let mut fs = FaultFs::new(13);
        let mut store = SegmentStore::new(100, true);
        store.append(&mut fs, 0, b"durable").unwrap();
        store.sync(&mut fs).unwrap();
        let keep = fs.durable_len(OPEN_SEGMENT);
        store.append(&mut fs, 1, b"torn-away").unwrap();
        fs.truncate(OPEN_SEGMENT, keep + 10).unwrap();
        let mut strict = SegmentStore::new(100, false);
        assert!(matches!(strict.recover(&mut fs), Err(StoreError::TornTail { .. })));
        let mut lenient = SegmentStore::new(100, true);
        let report = lenient.recover(&mut fs).unwrap();
        assert!(report.torn_tail_truncated);
        assert_eq!(report.blocks.len(), 1);
    }

    #[test]
    fn failed_seal_sync_defers_the_seal() {
        let mut fs = FaultFs::new(14);
        let mut store = SegmentStore::new(2, true);
        store.append(&mut fs, 0, b"a").unwrap();
        fs.fault_fail_syncs(1);
        store.append(&mut fs, 1, b"b").unwrap(); // seal attempt: sync fails
        assert!(!fs.exists("seg-000000.blk"), "no rename of un-synced data");
        assert_eq!(store.open_records(), 2);
        store.append(&mut fs, 2, b"c").unwrap(); // retries and succeeds
        assert!(fs.exists("seg-000000.blk"));
        assert_eq!(store.open_records(), 0);
    }

    #[test]
    fn append_resumes_after_recovery_without_seq_collision() {
        let mut fs = FaultFs::new(15);
        filled(&mut fs, 2, 5);
        let mut fresh = SegmentStore::new(2, true);
        let report = fresh.recover(&mut fs).unwrap();
        assert_eq!(report.blocks.len(), 5);
        fresh.append(&mut fs, 5, b"block-5").unwrap(); // fills + seals open
        fresh.sync(&mut fs).unwrap();
        let mut again = SegmentStore::new(2, true);
        let report = again.recover(&mut fs).unwrap();
        assert_eq!(
            report.blocks.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert!(report.quarantined.is_empty());
    }
}
