//! The write-ahead log: length-prefixed, CRC-framed, torn-tail aware.
//!
//! Every record is appended as one frame:
//!
//! ```text
//! [payload len: u32 BE][crc32(payload): u32 BE][payload bytes]
//! ```
//!
//! A crash mid-append leaves a *prefix* of the final frame on disk (the
//! torn tail). Recovery walks the frames from the start and classifies
//! what it finds:
//!
//! * a structurally incomplete final frame (header cut short, or fewer
//!   payload bytes than the header promises), **or** a complete final
//!   frame whose CRC fails (a sector-granularity tear can persist
//!   garbage past the torn point) → **torn tail**: truncated away when
//!   [`Wal::read`] is told to, surfaced as
//!   [`StoreError::TornTail`](crate::StoreError) when not — the switch
//!   exists so a test can prove the truncation is load-bearing;
//! * a CRC failure on any frame *before* the last → **corruption**
//!   ([`StoreError::Corrupt`](crate::StoreError)): the log's history
//!   itself is damaged and replaying past the hole would be a lie.

use crate::crc::{crc32, crc32_parts};
use crate::vfs::Vfs;
use crate::StoreError;

/// A framed append-only log stored in a single [`Vfs`] file.
///
/// `Wal` holds only the file name; the caller threads its `Vfs` through
/// each call, so one filesystem can host many logs.
#[derive(Clone, Debug)]
pub struct Wal {
    path: String,
}

/// What [`Wal::read`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct WalRecovery {
    /// The payloads of every intact frame, in append order.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn tail was found (and, if truncation was enabled,
    /// removed).
    pub torn_tail: bool,
    /// Bytes of torn tail dropped from the end of the file.
    pub truncated_bytes: u64,
}

const FRAME_HEADER: usize = 8;

/// Appends the frame of the record `parts` concatenate to.
fn push_frame(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(FRAME_HEADER + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.extend_from_slice(&crc32_parts(parts).to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

impl Wal {
    /// A log stored at `path` (relative, inside the store's [`Vfs`]).
    pub fn new(path: impl Into<String>) -> Self {
        Wal { path: path.into() }
    }

    /// The file name this log lives in.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Bytes one record of `payload_len` bytes occupies in the file.
    pub fn frame_len(payload_len: usize) -> u64 {
        (FRAME_HEADER + payload_len) as u64
    }

    /// Appends one framed record. Not durable until [`Wal::sync`].
    pub fn append(&self, vfs: &mut dyn Vfs, payload: &[u8]) -> Result<(), StoreError> {
        self.append_parts(vfs, &[payload])
    }

    /// Appends the concatenation of `parts` as one framed record, in one
    /// write (a record is all-or-nothing at recovery).
    pub fn append_parts(&self, vfs: &mut dyn Vfs, parts: &[&[u8]]) -> Result<(), StoreError> {
        let mut frame = Vec::new();
        push_frame(&mut frame, parts);
        vfs.append(&self.path, &frame)?;
        Ok(())
    }

    /// Fsyncs the log file (a log never written to is trivially synced).
    pub fn sync(&self, vfs: &mut dyn Vfs) -> Result<(), StoreError> {
        if vfs.exists(&self.path) {
            vfs.sync(&self.path)?;
        }
        Ok(())
    }

    /// Reads every intact record, handling a torn tail.
    ///
    /// With `truncate_torn_tail` the torn bytes are cut off and synced
    /// away so the next append starts on a clean frame boundary;
    /// without it a torn tail is a hard [`StoreError::TornTail`]. A
    /// missing file reads as an empty log.
    pub fn read(
        &self,
        vfs: &mut dyn Vfs,
        truncate_torn_tail: bool,
    ) -> Result<WalRecovery, StoreError> {
        let data = if vfs.exists(&self.path) { vfs.read(&self.path)? } else { Vec::new() };
        let mut rec = WalRecovery::default();
        let mut offset = 0usize;
        // Parse frames until the end or a defect.
        let defect = loop {
            if offset == data.len() {
                break None;
            }
            if data.len() - offset < FRAME_HEADER {
                break Some(offset); // header cut short
            }
            let len = u32::from_be_bytes([
                data[offset],
                data[offset + 1],
                data[offset + 2],
                data[offset + 3],
            ]) as usize;
            let crc = u32::from_be_bytes([
                data[offset + 4],
                data[offset + 5],
                data[offset + 6],
                data[offset + 7],
            ]);
            let body_start = offset + FRAME_HEADER;
            if data.len() - body_start < len {
                break Some(offset); // payload cut short
            }
            let payload = &data[body_start..body_start + len];
            if crc32(payload) != crc {
                break Some(offset); // checksum failure
            }
            rec.records.push(payload.to_vec());
            offset = body_start + len;
        };
        let Some(bad_at) = defect else {
            return Ok(rec);
        };
        // A defect that is not the last thing in the file means an
        // intact-looking frame was parsed *after* garbage would have
        // started — impossible here because parsing stops at the first
        // defect. So: the defect reaches EOF ⇒ torn tail; to tell a
        // mid-file corruption from a tear we check whether the bytes
        // from the defect onward could be a single partial/damaged
        // final frame. A tear always ends the file, so any defect is
        // positionally a "tail"; we distinguish by *shape*: a complete
        // frame whose CRC fails AND that is followed by more bytes is
        // mid-file corruption.
        let complete_frame_len = if data.len() - bad_at >= FRAME_HEADER {
            let len = u32::from_be_bytes([
                data[bad_at],
                data[bad_at + 1],
                data[bad_at + 2],
                data[bad_at + 3],
            ]) as usize;
            (data.len() - bad_at - FRAME_HEADER >= len).then(|| FRAME_HEADER + len)
        } else {
            None
        };
        if let Some(flen) = complete_frame_len {
            if bad_at + flen < data.len() {
                return Err(StoreError::Corrupt { file: self.path.clone(), offset: bad_at as u64 });
            }
        }
        rec.torn_tail = true;
        rec.truncated_bytes = (data.len() - bad_at) as u64;
        if !truncate_torn_tail {
            return Err(StoreError::TornTail { file: self.path.clone(), offset: bad_at as u64 });
        }
        vfs.truncate(&self.path, bad_at as u64)?;
        vfs.sync(&self.path)?;
        Ok(rec)
    }

    /// Rewrites the log to contain only `records`, via the atomic
    /// temp-sync-rename idiom (used for compaction, so the checkpoint
    /// log does not grow without bound).
    pub fn rewrite(&self, vfs: &mut dyn Vfs, records: &[&[u8]]) -> Result<(), StoreError> {
        let tmp = format!("{}.tmp", self.path);
        let mut bytes = Vec::new();
        for payload in records {
            push_frame(&mut bytes, &[payload]);
        }
        if vfs.exists(&tmp) {
            vfs.remove(&tmp)?;
        }
        vfs.append(&tmp, &bytes)?;
        vfs.sync(&tmp)?;
        vfs.rename(&tmp, &self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultFs;

    fn wal_fs() -> (Wal, FaultFs) {
        (Wal::new("test.wal"), FaultFs::new(0xDEAD))
    }

    #[test]
    fn roundtrip_multiple_records() {
        let (wal, mut fs) = wal_fs();
        for payload in [b"alpha".as_slice(), b"", b"gamma-longer-record"] {
            wal.append(&mut fs, payload).unwrap();
        }
        wal.sync(&mut fs).unwrap();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(
            rec.records,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-longer-record".to_vec()]
        );
        assert!(!rec.torn_tail);
    }

    #[test]
    fn torn_tail_truncated_and_log_reusable() {
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"durable-record").unwrap();
        wal.sync(&mut fs).unwrap();
        let synced = fs.durable_len("test.wal");
        // Tear mid-record: keep the header plus 3 payload bytes.
        wal.append(&mut fs, b"lost-to-the-crash").unwrap();
        fs.truncate("test.wal", synced + 8 + 3).unwrap();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records, vec![b"durable-record".to_vec()]);
        assert!(rec.torn_tail);
        assert_eq!(rec.truncated_bytes, 11);
        // After truncation the log appends cleanly again.
        wal.append(&mut fs, b"after-recovery").unwrap();
        wal.sync(&mut fs).unwrap();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert!(!rec.torn_tail);
    }

    #[test]
    fn torn_header_truncated() {
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"ok").unwrap();
        let len = fs.len("test.wal").unwrap();
        wal.append(&mut fs, b"xx").unwrap();
        fs.truncate("test.wal", len + 5).unwrap(); // 5 of 8 header bytes
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records, vec![b"ok".to_vec()]);
        assert!(rec.torn_tail);
    }

    #[test]
    fn torn_tail_without_truncation_is_an_error() {
        // The companion test that proves truncation is load-bearing:
        // the exact same on-disk state is fatal when truncation is off.
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"durable-record").unwrap();
        wal.sync(&mut fs).unwrap();
        let synced = fs.durable_len("test.wal");
        wal.append(&mut fs, b"lost-to-the-crash").unwrap();
        fs.truncate("test.wal", synced + 8 + 3).unwrap();
        match wal.read(&mut fs, false) {
            Err(StoreError::TornTail { offset, .. }) => assert_eq!(offset, synced),
            other => panic!("expected TornTail, got {other:?}"),
        }
    }

    #[test]
    fn crash_via_faultfs_tears_only_unsynced_tail() {
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"record-one").unwrap();
        wal.sync(&mut fs).unwrap();
        fs.fault_fail_syncs(1);
        wal.append(&mut fs, b"record-two").unwrap();
        assert!(wal.sync(&mut fs).is_err());
        fs.fault_crash();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records[0], b"record-one".to_vec());
        assert!(rec.records.len() <= 2, "tail either torn away or fully survived");
    }

    #[test]
    fn mid_file_corruption_is_fatal_not_torn() {
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"first-record").unwrap();
        wal.append(&mut fs, b"second-record").unwrap();
        wal.sync(&mut fs).unwrap();
        // Flip a payload byte of the FIRST record (offset 8 is its body).
        fs.write_at("test.wal", 9, &[0xFF]).unwrap();
        match wal.read(&mut fs, true) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_crc_final_complete_frame_is_torn() {
        // Sector-granularity tears can persist garbage past the torn
        // point — a complete final frame with a bad CRC is dropped.
        let (wal, mut fs) = wal_fs();
        wal.append(&mut fs, b"keep-me").unwrap();
        let keep = fs.len("test.wal").unwrap();
        wal.append(&mut fs, b"damaged").unwrap();
        let end = fs.len("test.wal").unwrap();
        fs.write_at("test.wal", end - 1, &[0x00]).unwrap();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert!(rec.torn_tail);
        assert_eq!(fs.len("test.wal").unwrap(), keep);
    }

    #[test]
    fn rewrite_compacts_to_given_records() {
        let (wal, mut fs) = wal_fs();
        for i in 0..10u8 {
            wal.append(&mut fs, &[i; 100]).unwrap();
        }
        wal.sync(&mut fs).unwrap();
        wal.rewrite(&mut fs, &[&[9u8; 100]]).unwrap();
        let rec = wal.read(&mut fs, true).unwrap();
        assert_eq!(rec.records, vec![vec![9u8; 100]]);
        // Rename made it durable: a crash changes nothing.
        fs.fault_crash();
        assert_eq!(wal.read(&mut fs, true).unwrap().records.len(), 1);
    }

    #[test]
    fn parts_frame_as_their_concatenation() {
        let (wal, mut fs) = wal_fs();
        wal.append_parts(&mut fs, &[b"head-", b"", b"body"]).unwrap();
        wal.append(&mut fs, b"head-body").unwrap();
        let len = fs.len("test.wal").unwrap();
        assert_eq!(len, 2 * Wal::frame_len(9));
        let data = fs.read("test.wal").unwrap();
        assert_eq!(data[..len as usize / 2], data[len as usize / 2..]);
        assert_eq!(wal.read(&mut fs, true).unwrap().records, vec![b"head-body".to_vec(); 2]);
    }

    #[test]
    fn missing_file_reads_empty() {
        let (wal, mut fs) = wal_fs();
        let rec = wal.read(&mut fs, true).unwrap();
        assert!(rec.records.is_empty() && !rec.torn_tail);
    }
}
