//! Durable storage for the permissioned-blockchain workspace.
//!
//! The paper's §2.3.2 crash-fault model assumes replicas recover from
//! *stable storage*. Before this crate, every "checkpoint" in the repo
//! was an in-memory struct handed from the crashed actor to its
//! replacement — a disk that cannot tear, rot, or lie. `pbc-store` makes
//! the disk real enough to fail:
//!
//! * [`Wal`] — a length-prefixed, CRC32-checksummed write-ahead log.
//!   Appends are framed as `[len][crc][payload]`; recovery walks the
//!   frames, **truncates a torn tail** (a partial final record from a
//!   crash mid-write), and surfaces mid-file corruption as an error
//!   instead of silently replaying garbage.
//! * [`SegmentStore`] — segmented append-only block files. The open
//!   segment fills up and is sealed by an **atomic rename**; cold
//!   (sealed) segments that fail their checksums on recovery are
//!   **quarantined** — renamed aside, their heights reported missing so
//!   the node re-fetches them from peers via the protocol's own
//!   catch-up paths — rather than wedging the node.
//! * [`NodeStore`] — one node's durable state: a checkpoint WAL plus a
//!   block segment store, recovered together by a staged replay (scan
//!   segments → validate checksums → truncate torn WAL tail → adopt the
//!   last durable snapshot and the extensions chained to it). A
//!   checkpoint record either replaces what came before it
//!   ([`NodeStore::put_checkpoint`]) or extends it
//!   ([`NodeStore::extend_checkpoint`]), so a caller persists what
//!   changed, not what exists.
//! * [`Vfs`] — the filesystem seam. [`RealFs`] is `std::fs` + `fsync`;
//!   [`FaultFs`] is a deterministic, seed-driven in-memory filesystem
//!   that tears the tail of un-synced writes on crash at a byte
//!   boundary, fails `sync` on schedule, and flips bits in cold files —
//!   the disk-fault nemesis the chaos tests drive.
//!
//! Everything here is deterministic under a fixed seed and makes no
//! scheduling decisions, so wiring a store under a simulated replica
//! cannot perturb a golden trace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod atomic;
mod crc;
mod segment;
mod store;
mod vfs;
mod wal;

pub use atomic::write_atomic;
pub use crc::crc32;
pub use segment::{SegmentReport, SegmentStore};
pub use store::{NodeStore, Recovery, StoreConfig, StoreError, COMPACT_DEAD_PER_LIVE};
pub use vfs::{read_full, write_full, FaultFs, RealFs, ShortReader, ShortWriter, Vfs};
pub use wal::{Wal, WalRecovery};
