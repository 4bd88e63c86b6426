//! The transaction model.
//!
//! Smart contracts are replaced by a deterministic mini-language of
//! key-value operations ([`Op`]) that every execution architecture in
//! `pbc-arch` interprets identically — the workspace's stand-in for
//! chaincode/EVM, per `DESIGN.md` §3. Each transaction also carries a
//! [`TxScope`] distinguishing internal, cross-enterprise, and global
//! transactions, the load-bearing distinction of §2.3.1 (Caper, channels)
//! and §2.3.4 (intra- vs cross-shard).

use crate::encode::{CanonicalEncode, Decoder, Encoder};
use crate::ids::{ClientId, EnterpriseId, TxId};
use crate::key::KeyId;
use bytes::Bytes;
use pbc_crypto::{merkle, Hash};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A state key as operations, programs and encodings name it: a UTF-8
/// string. Sharding and enterprise views partition the key space by
/// prefix or hash; execution runs on its interned [`KeyId`].
pub type Key = String;

/// A state value: cheaply clonable bytes.
pub type Value = Bytes;

/// One deterministic key-value operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Read a key (populates the read set).
    Get {
        /// Key to read.
        key: Key,
    },
    /// Blind write of a value.
    Put {
        /// Key to write.
        key: Key,
        /// Value to store.
        value: Value,
    },
    /// Read-modify-write increment of an integer value (8-byte BE).
    Incr {
        /// Key holding the counter.
        key: Key,
        /// Signed delta to apply.
        delta: i64,
    },
    /// Conditional balance transfer; aborts the transaction if `from`
    /// holds less than `amount`.
    Transfer {
        /// Debited account key.
        from: Key,
        /// Credited account key.
        to: Key,
        /// Amount to move.
        amount: u64,
    },
    /// Does nothing; used to pad workloads with configurable execution
    /// cost (`busy_work` simulated instruction count).
    Noop {
        /// Simulated execution cost in abstract work units.
        busy_work: u32,
    },
    /// Deletes a key (Fabric's `DelState`). Commits a *tombstone* version
    /// so MVCC validation still detects a read of the deleted key as
    /// stale; the state root stops committing to the key.
    Delete {
        /// Key to delete.
        key: Key,
    },
    /// Invokes a VM program (`pbc-vm` bytecode): the dynamic-footprint
    /// payload. The keys the program actually touches are discovered at
    /// execution time; [`VmCall::declared_reads`]/`declared_writes` are
    /// the client's *prediction*, which schedulers may trust and
    /// validators must check.
    Invoke {
        /// The program, its arguments, gas budget, and declared footprint.
        call: VmCall,
    },
}

/// A VM invocation payload: bytecode plus call context.
///
/// `bytecode` is opaque at this layer (decoded and validated by
/// `pbc-vm`), which keeps `pbc-types` free of a dependency on the VM.
/// The declared read/write sets are what static-footprint machinery
/// (OXII dependency graphs, FastFabric layering, `conflicts_with`) sees
/// before execution — deliberately *allowed to be wrong*, because
/// measuring the cost of wrong predictions is the point.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmCall {
    /// Canonical `pbc-vm` bytecode (see `pbc_vm::Program::from_bytes`).
    pub bytecode: Value,
    /// Call arguments, addressable via the VM's `Arg` instruction.
    pub args: Vec<u64>,
    /// Gas budget; execution aborts with out-of-gas beyond it.
    pub gas_limit: u64,
    /// Keys the client predicts the program will read (sorted order not
    /// required; may be incomplete or overbroad).
    pub declared_reads: Vec<Key>,
    /// Keys the client predicts the program will write.
    pub declared_writes: Vec<Key>,
}

/// A borrowed view of the keys an [`Op`] statically declares, without
/// heap allocation — `Op::reads`/`Op::writes` sit on the hot paths of
/// dependency-graph construction and conflict checks, where the former
/// per-call `Vec<&str>` showed up as allocator traffic (see the `e12`
/// bench group).
#[derive(Clone, Debug)]
pub enum KeyRefs<'a> {
    /// No keys.
    None,
    /// Exactly one key.
    One(&'a str),
    /// Exactly two keys (e.g. `Transfer`).
    Two(&'a str, &'a str),
    /// A declared key list (VM invocations).
    Slice(std::slice::Iter<'a, Key>),
}

impl<'a> Iterator for KeyRefs<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match std::mem::replace(self, KeyRefs::None) {
            KeyRefs::None => None,
            KeyRefs::One(a) => Some(a),
            KeyRefs::Two(a, b) => {
                *self = KeyRefs::One(b);
                Some(a)
            }
            KeyRefs::Slice(mut it) => {
                let head = it.next().map(|k| k.as_str());
                *self = KeyRefs::Slice(it);
                head
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            KeyRefs::None => 0,
            KeyRefs::One(_) => 1,
            KeyRefs::Two(_, _) => 2,
            KeyRefs::Slice(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for KeyRefs<'_> {}

impl Op {
    /// Keys this operation *declares* it reads (allocation-free). For
    /// `Invoke` these are the client's predicted reads, which the real
    /// execution may contradict.
    pub fn reads(&self) -> KeyRefs<'_> {
        match self {
            Op::Get { key } => KeyRefs::One(key),
            Op::Put { .. } => KeyRefs::None,
            Op::Incr { key, .. } => KeyRefs::One(key),
            Op::Transfer { from, to, .. } => KeyRefs::Two(from, to),
            Op::Noop { .. } => KeyRefs::None,
            Op::Delete { .. } => KeyRefs::None,
            Op::Invoke { call } => KeyRefs::Slice(call.declared_reads.iter()),
        }
    }

    /// Keys this operation *declares* it writes (allocation-free).
    pub fn writes(&self) -> KeyRefs<'_> {
        match self {
            Op::Get { .. } => KeyRefs::None,
            Op::Put { key, .. } => KeyRefs::One(key),
            Op::Incr { key, .. } => KeyRefs::One(key),
            Op::Transfer { from, to, .. } => KeyRefs::Two(from, to),
            Op::Noop { .. } => KeyRefs::None,
            Op::Delete { key } => KeyRefs::One(key),
            Op::Invoke { call } => KeyRefs::Slice(call.declared_writes.iter()),
        }
    }
}

impl CanonicalEncode for Op {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Op::Get { key } => {
                enc.tag(0).str(key);
            }
            Op::Put { key, value } => {
                enc.tag(1).str(key).bytes(value);
            }
            Op::Incr { key, delta } => {
                enc.tag(2).str(key).i64(*delta);
            }
            Op::Transfer { from, to, amount } => {
                enc.tag(3).str(from).str(to).u64(*amount);
            }
            Op::Noop { busy_work } => {
                enc.tag(4).u32(*busy_work);
            }
            Op::Delete { key } => {
                enc.tag(5).str(key);
            }
            Op::Invoke { call } => {
                // Tag 6 extends the op space; tags 0–5 and every legacy
                // encoding stay bit-identical, which is what keeps the
                // golden traces and persisted batches stable.
                enc.tag(6).bytes(&call.bytecode);
                enc.u64(call.args.len() as u64);
                for a in &call.args {
                    enc.u64(*a);
                }
                enc.u64(call.gas_limit);
                enc.u64(call.declared_reads.len() as u64);
                for k in &call.declared_reads {
                    enc.str(k);
                }
                enc.u64(call.declared_writes.len() as u64);
                for k in &call.declared_writes {
                    enc.str(k);
                }
            }
        }
    }
}

impl Op {
    /// Decodes one operation from its canonical encoding. `None` on
    /// malformed bytes (the input may come off a damaged disk).
    pub fn decode(dec: &mut Decoder<'_>) -> Option<Op> {
        Some(match dec.tag()? {
            0 => Op::Get { key: dec.str()?.to_string() },
            1 => {
                let key = dec.str()?.to_string();
                Op::Put { key, value: Bytes::copy_from_slice(dec.bytes()?) }
            }
            2 => Op::Incr { key: dec.str()?.to_string(), delta: dec.i64()? },
            3 => {
                let from = dec.str()?.to_string();
                let to = dec.str()?.to_string();
                Op::Transfer { from, to, amount: dec.u64()? }
            }
            4 => Op::Noop { busy_work: dec.u32()? },
            5 => Op::Delete { key: dec.str()?.to_string() },
            6 => {
                let bytecode = Bytes::copy_from_slice(dec.bytes()?);
                let n_args = dec.u64()?;
                let mut args = Vec::with_capacity(n_args.min(1024) as usize);
                for _ in 0..n_args {
                    args.push(dec.u64()?);
                }
                let gas_limit = dec.u64()?;
                let n_reads = dec.u64()?;
                let mut declared_reads = Vec::with_capacity(n_reads.min(1024) as usize);
                for _ in 0..n_reads {
                    declared_reads.push(dec.str()?.to_string());
                }
                let n_writes = dec.u64()?;
                let mut declared_writes = Vec::with_capacity(n_writes.min(1024) as usize);
                for _ in 0..n_writes {
                    declared_writes.push(dec.str()?.to_string());
                }
                Op::Invoke {
                    call: VmCall { bytecode, args, gas_limit, declared_reads, declared_writes },
                }
            }
            _ => return None,
        })
    }
}

/// Which parties a transaction involves (§2.3.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxScope {
    /// Internal transaction of a single enterprise; confidential to it.
    Internal(EnterpriseId),
    /// Cross-enterprise transaction among the listed enterprises; visible
    /// to all of them (and, in Caper, to everyone).
    CrossEnterprise(Vec<EnterpriseId>),
    /// Ordinary transaction with no enterprise affiliation (single-domain
    /// deployments, sharding experiments).
    Global,
}

impl TxScope {
    /// True for internal (single-enterprise) transactions.
    pub fn is_internal(&self) -> bool {
        matches!(self, TxScope::Internal(_))
    }

    /// The enterprises involved, if enterprise-scoped.
    pub fn enterprises(&self) -> Vec<EnterpriseId> {
        match self {
            TxScope::Internal(e) => vec![*e],
            TxScope::CrossEnterprise(es) => es.clone(),
            TxScope::Global => vec![],
        }
    }
}

impl CanonicalEncode for TxScope {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            TxScope::Internal(e) => {
                enc.tag(0).u32(e.0);
            }
            TxScope::CrossEnterprise(es) => {
                enc.tag(1).u64(es.len() as u64);
                for e in es {
                    enc.u32(e.0);
                }
            }
            TxScope::Global => {
                enc.tag(2);
            }
        }
    }
}

impl TxScope {
    /// Decodes a scope from its canonical encoding.
    pub fn decode(dec: &mut Decoder<'_>) -> Option<TxScope> {
        Some(match dec.tag()? {
            0 => TxScope::Internal(EnterpriseId(dec.u32()?)),
            1 => {
                let n = dec.u64()?;
                let mut es = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    es.push(EnterpriseId(dec.u32()?));
                }
                TxScope::CrossEnterprise(es)
            }
            2 => TxScope::Global,
            _ => return None,
        })
    }
}

/// A client transaction: an ordered list of operations plus metadata.
///
/// An immutable shared value: a handle to one [`TxInner`], whose fields
/// `id`, `client`, `scope` and `ops` are read through `Deref`. Cloning
/// bumps a reference count, and the Merkle leaf hash is computed once,
/// on first use, for every clone in every replica's ledger. See
/// DESIGN.md §7.
#[derive(Clone, Serialize, Deserialize)]
pub struct Transaction(Arc<TxInner>);

/// The shared body of a [`Transaction`].
pub struct TxInner {
    /// Unique id assigned by the submitting client/workload generator.
    pub id: TxId,
    /// The submitting client.
    pub client: ClientId,
    /// Enterprise scope.
    pub scope: TxScope,
    /// Operations executed in order; a failing `Transfer` aborts the whole
    /// transaction (no partial effects).
    pub ops: Vec<Op>,
    /// The Merkle leaf hash of the canonical encoding. Lazy: constructors
    /// and decoders hash nothing, so building or decoding transactions
    /// that are never sealed into a block (or doing so inside a timed
    /// set-up section) costs an allocation and no SHA-256.
    leaf: OnceLock<Hash>,
    /// The interned ids of every key the ops name. Lazy, like `leaf`.
    keys: OnceLock<TxKeys>,
}

/// A transaction's keys as interned [`KeyId`]s: resolved once, on first
/// use, and shared by every clone, so each replica's executor and
/// scheduler reads integers instead of interning strings. One
/// allocation, four bytes per key: the op keys, then whichever declared
/// set is not already a run of them (an accurate declaration names the
/// program's own keys, a `Transfer` declares its two).
#[derive(Debug)]
pub struct TxKeys {
    ids: Box<[KeyId]>,
    ops: u32,
    reads: Range<u32>,
    writes: Range<u32>,
}

impl TxKeys {
    /// Every key the ops name, op by op in order: one for `Get`, `Put`,
    /// `Incr` and `Delete`; `from`, then `to`, for `Transfer`; none for
    /// `Noop`; an `Invoke`'s whole program key table, in table order (no
    /// entries when its bytecode does not decode).
    pub fn ops(&self) -> &[KeyId] {
        &self.ids[..self.ops as usize]
    }

    /// The statically declared read set ([`Op::reads`]): each key once,
    /// in order of first declaration.
    pub fn reads(&self) -> &[KeyId] {
        &self.ids[self.reads.start as usize..self.reads.end as usize]
    }

    /// The statically declared write set ([`Op::writes`]): each key
    /// once, in order of first declaration.
    pub fn writes(&self) -> &[KeyId] {
        &self.ids[self.writes.start as usize..self.writes.end as usize]
    }
}

/// `keys` interned, each once, in order of first occurrence.
fn distinct<'a>(keys: impl Iterator<Item = &'a str>) -> Vec<KeyId> {
    let mut ids = Vec::new();
    KeyId::intern_all(keys, &mut ids);
    let mut seen = fxhash::FxHashSet::default();
    ids.retain(|k| seen.insert(*k));
    ids
}

/// Where the declared set `keys` sits in `ids`: a run of the first `ops`
/// ids when `keys` names exactly that run, key by key, and the run holds
/// no key twice (checked on strings, so nothing is interned); else its
/// distinct ids, appended.
fn place<'a>(
    ids: &mut Vec<KeyId>,
    ops: usize,
    keys: impl Iterator<Item = &'a str> + Clone,
) -> Range<u32> {
    let n = keys.clone().count();
    // Only short sets are matched: the distinctness check is pairwise.
    let run = keys.clone().next().filter(|_| n <= 32).and_then(|first| {
        let start = ids[..ops].iter().position(|k| k.as_str() == first)?;
        let run = ids[..ops].get(start..start + n)?;
        let same = keys.clone().zip(run).all(|(key, id)| id.as_str() == key);
        let distinct = run.iter().enumerate().all(|(i, id)| !run[..i].contains(id));
        (same && distinct).then_some(start)
    });
    let (start, len) = match run {
        Some(start) => (start, n),
        None if n == 0 => (0, 0),
        None => {
            let set = distinct(keys);
            ids.extend_from_slice(&set);
            (ids.len() - set.len(), set.len())
        }
    };
    index(start)..index(start + len)
}

fn index(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 keys per transaction")
}

#[cfg(test)]
thread_local! {
    static LEAF_HASHES_COMPUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Leaf hashes computed on this thread so far (the memo's misses).
#[cfg(test)]
pub(crate) fn leaf_hashes_computed() -> u64 {
    LEAF_HASHES_COMPUTED.with(|c| c.get())
}

impl Transaction {
    /// Creates a global-scope transaction.
    pub fn new(id: TxId, client: ClientId, ops: Vec<Op>) -> Self {
        Transaction::with_scope(id, client, TxScope::Global, ops)
    }

    /// Creates a transaction with an explicit scope.
    pub fn with_scope(id: TxId, client: ClientId, scope: TxScope, ops: Vec<Op>) -> Self {
        Transaction(Arc::new(TxInner {
            id,
            client,
            scope,
            ops,
            leaf: OnceLock::new(),
            keys: OnceLock::new(),
        }))
    }

    /// Creates a global-scope transaction whose whole payload is one VM
    /// invocation.
    pub fn invoke(id: TxId, client: ClientId, call: VmCall) -> Self {
        Transaction::new(id, client, vec![Op::Invoke { call }])
    }

    /// The Merkle leaf hash of this transaction:
    /// `merkle::leaf_hash(&self.canonical_bytes())`, computed on first
    /// use and shared by every clone.
    pub fn leaf_hash(&self) -> Hash {
        *self.0.leaf.get_or_init(|| {
            #[cfg(test)]
            LEAF_HASHES_COMPUTED.with(|c| c.set(c.get() + 1));
            merkle::leaf_hash(&self.canonical_bytes())
        })
    }

    /// What this transaction executes: the legacy static op list, or a
    /// VM program when the payload is a single `Invoke`. Mixed lists
    /// (static ops *and* invocations) are executed op-by-op and show up
    /// as `Ops`.
    pub fn executable(&self) -> Executable<'_> {
        match self.ops.as_slice() {
            [Op::Invoke { call }] => Executable::Program { call },
            ops => Executable::Ops(ops),
        }
    }

    /// The first VM invocation payload, if any op carries one.
    pub fn vm_call(&self) -> Option<&VmCall> {
        self.ops.iter().find_map(|op| match op {
            Op::Invoke { call } => Some(call),
            _ => None,
        })
    }

    /// Total gas budget across the transaction's VM invocations. Static
    /// ops are not metered (their cost model is `work`), so a purely
    /// static transaction reports `None`.
    pub fn gas_limit(&self) -> Option<u64> {
        let mut total: Option<u64> = None;
        for op in &self.ops {
            if let Op::Invoke { call } = op {
                total = Some(total.unwrap_or(0).saturating_add(call.gas_limit));
            }
        }
        total
    }

    /// The interned ids of every key this transaction names (see
    /// [`TxKeys`]), resolved on the first call and shared by every clone.
    ///
    /// `key_table` appends the interned key table of one VM program's
    /// bytecode, and nothing when the bytecode does not decode: the
    /// bytecode format belongs to `pbc-vm`, which this crate does not
    /// depend on. It runs on the first call only, so every caller must
    /// pass the same reader; `pbc_ledger::tx_keys` is the one caller.
    pub fn key_ids(&self, key_table: fn(&[u8], &mut Vec<KeyId>)) -> &TxKeys {
        self.0.keys.get_or_init(|| {
            let mut ids: Vec<KeyId> = Vec::new();
            for op in &self.ops {
                match op {
                    Op::Get { key }
                    | Op::Put { key, .. }
                    | Op::Incr { key, .. }
                    | Op::Delete { key } => ids.push(KeyId::intern(key)),
                    Op::Transfer { from, to, .. } => KeyId::intern_all([&**from, to], &mut ids),
                    Op::Noop { .. } => {}
                    Op::Invoke { call } => key_table(&call.bytecode, &mut ids),
                }
            }
            let ops = ids.len();
            let reads = place(&mut ids, ops, self.ops.iter().flat_map(Op::reads));
            let writes = place(&mut ids, ops, self.ops.iter().flat_map(Op::writes));
            TxKeys { ids: ids.into(), ops: index(ops), reads, writes }
        })
    }

    /// The statically known read set (deduplicated, sorted).
    pub fn read_keys(&self) -> Vec<&str> {
        let mut ks: Vec<&str> = self.ops.iter().flat_map(|o| o.reads()).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// The statically known write set (deduplicated, sorted).
    pub fn write_keys(&self) -> Vec<&str> {
        let mut ks: Vec<&str> = self.ops.iter().flat_map(|o| o.writes()).collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// True if the two transactions conflict: one writes a key the other
    /// reads or writes. This static notion drives OXII dependency graphs
    /// and XOV validation analysis.
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        let my_writes = self.write_keys();
        let their_writes = other.write_keys();
        let overlaps = |a: &[&str], b: &[&str]| {
            // Both sorted: linear merge.
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
            false
        };
        overlaps(&my_writes, &their_writes)
            || overlaps(&my_writes, &other.read_keys())
            || overlaps(&self.read_keys(), &their_writes)
    }
}

impl std::ops::Deref for Transaction {
    type Target = TxInner;

    fn deref(&self) -> &TxInner {
        &self.0
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.id == other.id
                && self.client == other.client
                && self.scope == other.scope
                && self.ops == other.ops)
    }
}

impl Eq for Transaction {}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("client", &self.client)
            .field("scope", &self.scope)
            .field("ops", &self.ops)
            .finish()
    }
}

impl CanonicalEncode for Transaction {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.id.0).u32(self.client.0);
        self.scope.encode(enc);
        enc.u64(self.ops.len() as u64);
        for op in &self.ops {
            op.encode(enc);
        }
    }
}

impl Transaction {
    /// Decodes a transaction from its canonical encoding — the exact
    /// inverse of its [`CanonicalEncode`] impl, so a persisted batch
    /// rehydrates to bytes that re-digest identically.
    pub fn decode(dec: &mut Decoder<'_>) -> Option<Transaction> {
        let id = TxId(dec.u64()?);
        let client = ClientId(dec.u32()?);
        let scope = TxScope::decode(dec)?;
        let n = dec.u64()?;
        let mut ops = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            ops.push(Op::decode(dec)?);
        }
        Some(Transaction::with_scope(id, client, scope, ops))
    }
}

/// A borrowed view of a transaction's payload: the two execution forms
/// every pipeline's shared `execute` entry point accepts.
#[derive(Clone, Copy, Debug)]
pub enum Executable<'a> {
    /// The legacy static op list — footprints known before execution.
    Ops(&'a [Op]),
    /// A VM program + args — the footprint is discovered by running it.
    Program {
        /// The invocation payload.
        call: &'a VmCall,
    },
}

/// Helper: encodes a `u64` balance as a state value.
pub fn balance_value(v: u64) -> Value {
    Bytes::copy_from_slice(&v.to_be_bytes())
}

/// Helper: decodes a state value as a `u64` balance (missing/short values
/// read as zero, matching how accounts spring into existence on credit).
pub fn balance_of(v: Option<&Value>) -> u64 {
    match v {
        Some(b) if b.len() >= 8 => u64::from_be_bytes(b[..8].try_into().unwrap()),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u64, ops: Vec<Op>) -> Transaction {
        Transaction::new(TxId(id), ClientId(0), ops)
    }

    #[test]
    fn read_write_sets() {
        let t = tx(
            1,
            vec![
                Op::Get { key: "a".into() },
                Op::Put { key: "b".into(), value: Bytes::from_static(b"v") },
                Op::Incr { key: "c".into(), delta: 1 },
                Op::Transfer { from: "x".into(), to: "y".into(), amount: 5 },
            ],
        );
        assert_eq!(t.read_keys(), vec!["a", "c", "x", "y"]);
        assert_eq!(t.write_keys(), vec!["b", "c", "x", "y"]);
    }

    /// Every op key resolves in op order; a declared set that names a
    /// run of the op keys points there, any other is stored as its
    /// distinct keys; clones share the one resolution.
    #[test]
    fn key_ids_resolve_op_keys_and_place_declared_sets() {
        /// A stand-in bytecode format: the key table, comma-separated.
        fn table(bytecode: &[u8], ids: &mut Vec<KeyId>) {
            KeyId::intern_all(std::str::from_utf8(bytecode).unwrap().split(','), ids)
        }
        let names = |ids: &[KeyId]| ids.iter().map(|k| k.as_str()).collect::<Vec<_>>();
        let t = tx(
            1,
            vec![
                Op::Get { key: "tk/a".into() },
                Op::Put { key: "tk/b".into(), value: Bytes::new() },
                Op::Incr { key: "tk/a".into(), delta: 1 },
                Op::Transfer { from: "tk/x".into(), to: "tk/x".into(), amount: 1 },
                Op::Noop { busy_work: 3 },
                Op::Delete { key: "tk/b".into() },
            ],
        );
        let k = t.key_ids(table);
        assert_eq!(names(k.ops()), ["tk/a", "tk/b", "tk/a", "tk/x", "tk/x", "tk/b"]);
        assert_eq!(names(k.reads()), ["tk/a", "tk/x"]);
        assert_eq!(names(k.writes()), ["tk/b", "tk/a", "tk/x"]);
        assert!(std::ptr::eq(k, t.clone().key_ids(table)), "clones share the memo");

        let call = |reads: &[&str], writes: &[&str]| VmCall {
            bytecode: Bytes::from_static(b"tk/w1,tk/w2,tk/r1,tk/r2"),
            args: vec![],
            gas_limit: 1,
            declared_reads: reads.iter().map(|k| k.to_string()).collect(),
            declared_writes: writes.iter().map(|k| k.to_string()).collect(),
        };
        let accurate = Transaction::invoke(
            TxId(2),
            ClientId(0),
            call(&["tk/r1", "tk/r2"], &["tk/w1", "tk/w2"]),
        );
        let k = accurate.key_ids(table);
        assert_eq!(names(k.ops()), ["tk/w1", "tk/w2", "tk/r1", "tk/r2"]);
        assert_eq!(names(k.reads()), ["tk/r1", "tk/r2"]);
        assert_eq!(names(k.writes()), ["tk/w1", "tk/w2"]);
        assert_eq!(k.ids.len(), 4, "both sets point into the table");

        let decoy =
            Transaction::invoke(TxId(3), ClientId(0), call(&["tk/d", "tk/d", "tk/r1"], &["tk/w2"]));
        let k = decoy.key_ids(table);
        assert_eq!(names(k.reads()), ["tk/d", "tk/r1"]);
        assert_eq!(names(k.writes()), ["tk/w2"]);
        assert_eq!(k.ids.len(), 6, "only the set that is no run is stored");
    }

    #[test]
    fn duplicate_keys_deduplicated() {
        let t = tx(1, vec![Op::Get { key: "a".into() }, Op::Get { key: "a".into() }]);
        assert_eq!(t.read_keys(), vec!["a"]);
    }

    #[test]
    fn conflict_write_write() {
        let a = tx(1, vec![Op::Put { key: "k".into(), value: Bytes::new() }]);
        let b = tx(2, vec![Op::Put { key: "k".into(), value: Bytes::new() }]);
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn conflict_read_write() {
        let a = tx(1, vec![Op::Get { key: "k".into() }]);
        let b = tx(2, vec![Op::Put { key: "k".into(), value: Bytes::new() }]);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
    }

    #[test]
    fn no_conflict_read_read() {
        let a = tx(1, vec![Op::Get { key: "k".into() }]);
        let b = tx(2, vec![Op::Get { key: "k".into() }]);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn no_conflict_disjoint() {
        let a = tx(1, vec![Op::Put { key: "a".into(), value: Bytes::new() }]);
        let b = tx(2, vec![Op::Put { key: "b".into(), value: Bytes::new() }]);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn digest_is_content_addressed() {
        use crate::encode::CanonicalEncode;
        let a = tx(1, vec![Op::Get { key: "k".into() }]);
        let b = tx(1, vec![Op::Get { key: "k".into() }]);
        let c = tx(2, vec![Op::Get { key: "k".into() }]);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn delete_is_a_blind_write() {
        let t = tx(1, vec![Op::Delete { key: "a".into() }]);
        assert!(t.read_keys().is_empty());
        assert_eq!(t.write_keys(), vec!["a"]);
        // Delete and Get of the same key must not encode identically.
        let g = tx(1, vec![Op::Get { key: "a".into() }]);
        assert_ne!(t.digest(), g.digest());
        // Write-write conflict with a Put of the same key.
        let p = tx(2, vec![Op::Put { key: "a".into(), value: Bytes::new() }]);
        assert!(t.conflicts_with(&p));
    }

    #[test]
    fn scope_helpers() {
        assert!(TxScope::Internal(EnterpriseId(1)).is_internal());
        assert!(!TxScope::Global.is_internal());
        assert_eq!(
            TxScope::CrossEnterprise(vec![EnterpriseId(1), EnterpriseId(2)]).enterprises(),
            vec![EnterpriseId(1), EnterpriseId(2)]
        );
    }

    #[test]
    fn transaction_decode_inverts_encode() {
        let t = Transaction::with_scope(
            TxId(42),
            ClientId(7),
            TxScope::CrossEnterprise(vec![EnterpriseId(1), EnterpriseId(3)]),
            vec![
                Op::Get { key: "a".into() },
                Op::Put { key: "b".into(), value: Bytes::from_static(b"v") },
                Op::Incr { key: "c".into(), delta: -9 },
                Op::Transfer { from: "x".into(), to: "y".into(), amount: 5 },
                Op::Noop { busy_work: 11 },
                Op::Delete { key: "d".into() },
            ],
        );
        let bytes = t.canonical_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = Transaction::decode(&mut dec).unwrap();
        assert!(dec.is_empty());
        assert_eq!(back, t);
        assert_eq!(back.canonical_bytes(), bytes);
    }

    fn sample() -> Transaction {
        Transaction::with_scope(
            TxId(42),
            ClientId(7),
            TxScope::Internal(EnterpriseId(2)),
            vec![Op::Get { key: "a".into() }, Op::Incr { key: "c".into(), delta: -9 }],
        )
    }

    /// The memo can never drift from the definition, is filled on first
    /// use only, and is shared by every clone.
    #[test]
    fn leaf_hash_is_the_merkle_leaf_of_the_canonical_bytes_computed_once() {
        let before = leaf_hashes_computed();
        let t = sample();
        let bytes = t.canonical_bytes();
        let decoded = Transaction::decode(&mut Decoder::new(&bytes)).unwrap();
        let clone = t.clone();
        assert_eq!(
            leaf_hashes_computed(),
            before,
            "constructing, cloning and decoding hash nothing"
        );

        assert_eq!(clone.leaf_hash(), merkle::leaf_hash(&bytes));
        assert_eq!(leaf_hashes_computed(), before + 1);
        assert_eq!(t.leaf_hash(), merkle::leaf_hash(&bytes), "the clone's hash is ours");
        assert_eq!(t.clone().leaf_hash(), t.leaf_hash());
        assert_eq!(leaf_hashes_computed(), before + 1, "asked again: no new hash");

        assert_eq!(decoded, t);
        assert_eq!(decoded.leaf_hash(), t.leaf_hash());
        assert_eq!(leaf_hashes_computed(), before + 2, "a decoded copy is its own allocation");
    }

    #[test]
    fn equality_is_by_value() {
        let a = sample();
        assert_eq!(a, a.clone());
        assert_eq!(a, sample(), "separately built, no pointer shortcut");
        let with = |id: u64, client: u32, scope: TxScope, ops: Vec<Op>| {
            Transaction::with_scope(TxId(id), ClientId(client), scope, ops)
        };
        let scope = || a.scope.clone();
        assert_ne!(a, with(43, 7, scope(), a.ops.clone()), "id differs");
        assert_ne!(a, with(42, 8, scope(), a.ops.clone()), "client differs");
        assert_ne!(a, with(42, 7, TxScope::Global, a.ops.clone()), "scope differs");
        let mut ops = a.ops.clone();
        ops[1] = Op::Incr { key: "c".into(), delta: -8 };
        assert_ne!(a, with(42, 7, scope(), ops), "an op differs");
        assert_ne!(a, with(42, 7, scope(), a.ops[..1].to_vec()), "an op is missing");
    }

    #[test]
    fn transactions_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Transaction>();
    }

    /// Post-mortem dumps print transactions: the hand-written `Debug`
    /// must stay byte-equal to what `#[derive(Debug)]` printed when the
    /// four fields sat in the struct itself.
    #[test]
    fn debug_output_is_the_derived_one() {
        mod derived {
            use super::super::*;
            #[derive(Debug)]
            #[allow(dead_code)] // read only by the derive
            pub struct Transaction<'a> {
                pub id: &'a TxId,
                pub client: &'a ClientId,
                pub scope: &'a TxScope,
                pub ops: &'a Vec<Op>,
            }
        }
        let t = sample();
        let d = derived::Transaction { id: &t.id, client: &t.client, scope: &t.scope, ops: &t.ops };
        assert_eq!(format!("{t:?}"), format!("{d:?}"));
        assert_eq!(format!("{t:#?}"), format!("{d:#?}"));
        assert!(
            format!("{t:?}").starts_with("Transaction { id: tx42, client: c7, scope: Internal(")
        );
    }

    #[test]
    fn transaction_decode_rejects_truncation() {
        let t = tx(1, vec![Op::Put { key: "k".into(), value: Bytes::from_static(b"vv") }]);
        let bytes = t.canonical_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Transaction::decode(&mut Decoder::new(&bytes[..cut])).is_none(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn balance_coding() {
        assert_eq!(balance_of(Some(&balance_value(42))), 42);
        assert_eq!(balance_of(None), 0);
        assert_eq!(balance_of(Some(&Bytes::from_static(b"xx"))), 0);
    }
}
