//! Consensus protocols for permissioned blockchains (§2.2, §2.3.3, §2.3.4).
//!
//! Every protocol is a deterministic [`pbc_sim::Actor`]; the same seed
//! reproduces the same run. The catalogue mirrors the paper's:
//!
//! | module | protocol | fault model | quorum | leader policy |
//! |---|---|---|---|---|
//! | [`pbft`] | PBFT (Castro–Liskov) | Byzantine, `n = 3f+1` | `2f+1` | fixed per view + view change |
//! | [`pbft`] (rotating mode) | IBFT-style | Byzantine | `2f+1` | round-robin per height |
//! | [`tendermint`] | Tendermint | Byzantine, proof-of-stake weights | ⅔ of voting power | rotates every round |
//! | [`hotstuff`] | HotStuff (basic) | Byzantine | `2f+1` votes to leader (linear) | rotates every view |
//! | [`raft`] | Raft | crash, `n = 2f+1` | majority | elected, randomized timeouts |
//! | [`paxos`] | multi-decree Paxos | crash | majority | stable proposer + takeover |
//! | [`minbft`] | MinBFT / A2M-PBFT-EA | Byzantine with trusted [`a2m`] module, `n = 2f+1` | `f+1` | fixed + view change |
//!
//! [`a2m`] implements the attested append-only memory (\[21\]/\[59\] in the
//! paper) that AHL (§2.3.4) uses to shrink committees: a tamper-evident
//! monotonic counter that makes equivocation detectable, reducing the
//! replica requirement from `3f+1` to `2f+1`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod a2m;
pub mod common;
pub mod hotstuff;
pub mod minbft;
pub mod ordering;
pub mod paxos;
pub mod pbft;
pub mod raft;
pub mod tendermint;
pub mod wire;

pub use common::{DecidedLog, Payload, PersistPayload};
pub use ordering::{cluster, cluster_with, ConsensusKind, OrderingActor, OrderingCluster};
pub use ordering::{durable_cluster_with, DurableNet, OverNetwork};
pub use ordering::{run_real, RealRuntime};
pub use wire::WireMsg;
