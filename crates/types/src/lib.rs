//! Common vocabulary types for the permissioned-blockchain workspace.
//!
//! * [`ids`] — newtyped identities: nodes, clients, enterprises, shards,
//!   channels, plus protocol counters (view, height, round).
//! * [`tx`] — the transaction model: a deterministic mini-language of
//!   key-value operations ([`tx::Op`]) with a scope describing which
//!   enterprises a transaction touches (§2.3.1's internal vs
//!   cross-enterprise distinction).
//! * [`block`] — blocks and headers for the hash-chained ledger of §2.2.
//! * [`key`] — interned state keys: the [`KeyId`] execution runs on.
//! * [`encode`] — the canonical byte encoding used for hashing and
//!   signing (stable across runs and platforms).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod block;
pub mod encode;
pub mod ids;
pub mod key;
pub mod tx;

pub use block::{Block, BlockBody, BlockHeader};
pub use ids::{ChannelId, ClientId, EnterpriseId, Height, NodeId, Round, ShardId, TxId, View};
pub use key::{KeyId, StateKey};
pub use tx::{Executable, Key, KeyRefs, Op, Transaction, TxKeys, TxScope, Value, VmCall};
