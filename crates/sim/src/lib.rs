//! Deterministic discrete-event network simulator.
//!
//! The paper's blockchain architecture (§2.2) assumes an *asynchronous
//! large distributed system* of known nodes that may crash or behave
//! maliciously. This crate is that substrate, built per the substitution
//! rule in `DESIGN.md` §3: instead of kernel sockets we simulate message
//! passing with
//!
//! * a **logical clock** (monotone `SimTime`, abstract microseconds),
//! * pluggable **latency models** ([`LatencyModel`]) including full
//!   per-pair distance matrices for WAN/hierarchical topologies,
//! * **fault injection**: crash-stop and crash-recovery *with amnesia*
//!   ([`Durable`]), per-link asymmetric drop/duplicate/delay/reorder
//!   faults ([`FaultModel`]), network partitions, generic Byzantine
//!   wrappers ([`Adversary`]), and seeded randomized fault timelines
//!   ([`Nemesis`]) checked by safety invariants ([`InvariantChecker`]),
//! * exact **accounting** of messages, bytes and delivery latency
//!   ([`NetStats`]) — the quantities every latency/throughput claim in
//!   the paper's Discussion paragraphs is about.
//!
//! Protocols are written as [`Actor`]s: deterministic state machines that
//! react to messages and timers by emitting effects into a [`Context`].
//! The same seed always reproduces the same execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod adversary;
pub mod fault;
pub mod invariants;
pub mod latency;
pub mod nemesis;
pub mod network;
pub mod sched;
pub mod stats;
pub mod topology;

pub use actor::{Actor, Context, Durable, Message};
pub use adversary::{Adversary, Attack};
pub use fault::{FaultModel, LinkFault};
pub use invariants::{InvariantChecker, Violation};
pub use latency::LatencyModel;
pub use nemesis::{violation_report, Nemesis, NemesisConfig, NemesisOp};
pub use network::{Network, NetworkConfig};
pub use stats::NetStats;
pub use topology::Topology;

/// Logical simulation time, in abstract microseconds.
pub type SimTime = u64;

/// Index of a node within a simulation (dense, `0..n`).
pub type NodeIdx = usize;
