//! `pbc-net` — the real-socket deployment mode.
//!
//! Everything the workspace knows about ordering protocols runs inside
//! the deterministic simulator (`pbc-sim`). This crate is the second
//! interpreter for the *same* actors: a from-scratch runtime that
//! mounts [`pbc_consensus::OrderingActor`] objects on real
//! `std::net` TCP sockets — length-prefixed frames with a
//! version/genesis handshake ([`frame`](mod@frame)), a per-node
//! event loop mapping actor effects onto sockets and a monotonic
//! timer queue ([`timer`]), and reconnect-with-backoff
//! link management ([`cluster`]).
//!
//! The crate exists for the cross-check: a committed batch sequence
//! produced over TCP must match the one the simulator produces from
//! the same seed (`tests/real_net.rs`, and the `tcp-pbft4` benchmark
//! workload before it times anything). Where the two
//! backends disagree, one of them is wrong — historically the
//! deployment side, which is why the wire codec rejects zero-length
//! and oversized frames *before* allocating and why every read/write
//! goes through short-transfer-safe loops.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod timer;

pub use cluster::{genesis_digest, NetConfig, NetRunner, RealHandle, RealStats, RealStatsSnap};
pub use frame::{
    frame, frame_len, read_frame, write_frame, Hello, WireError, CLIENT_NODE, DEFAULT_MAX_FRAME,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use timer::TimerQueue;
