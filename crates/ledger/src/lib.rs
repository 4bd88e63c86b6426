//! Ledger data structures and the deterministic execution engine.
//!
//! * [`chain`] — the append-only, hash-chained block ledger of §2.2
//!   (Figure 1): every block carries the cryptographic hash of its
//!   predecessor; replicas can verify the whole chain.
//! * [`dag`] — Caper's blockchain ledger (§2.3.1): a directed acyclic
//!   graph of internal and cross-enterprise transactions that *no single
//!   node stores in full* — each enterprise maintains only its own view.
//! * [`state`] — the blockchain state (datastore): a versioned key-value
//!   store whose versions drive XOV read-write validation.
//! * [`exec`] — the deterministic interpreter for [`pbc_types::Op`]
//!   programs, producing read/write sets; the workspace's stand-in for
//!   smart-contract execution.
//! * [`proof`] — Merkle state commitments with key-value inclusion
//!   proofs (light-client verification).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod dag;
pub mod exec;
#[cfg(test)]
mod exec_reference;
pub mod proof;
pub mod state;

pub use chain::{ChainError, ChainLedger};
pub use dag::{DagLedger, DagNodeKind, LocalView};
pub use exec::{execute, execute_and_apply, tx_keys, ExecResult, ExecStatus};
pub use proof::{
    prove_absent, prove_key, state_root, verify_absent, verify_key, AbsenceProof, ProofBatch,
    StateProof,
};
pub use state::{StateStore, Version, WriteOp};
