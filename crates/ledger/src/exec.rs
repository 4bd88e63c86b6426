//! Deterministic transaction execution.
//!
//! Interprets a transaction's [`Op`] program against a [`StateStore`],
//! producing a versioned read set and a buffered write set — the unit of
//! work every architecture in `pbc-arch` schedules differently. Execution
//! is strictly deterministic (SMR requirement, §2.2): the same ops against
//! the same state always produce the same result.

use crate::state::{StateStore, Version, WriteOp};
use pbc_types::tx::{balance_of, balance_value};
use pbc_types::{Key, KeyId, Op, Transaction, TxKeys, Value, VmCall};
use pbc_vm::{VmHost, VmStatus};

/// Why a transaction aborted during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecStatus {
    /// All operations applied.
    Success,
    /// A `Transfer` found insufficient funds; no effects are produced.
    InsufficientFunds {
        /// The account that lacked funds.
        account: Key,
        /// The amount requested.
        requested: u64,
        /// The balance available.
        available: u64,
    },
    /// A VM program exhausted its gas budget; no effects are produced.
    /// Distinct from other aborts so it can be threaded through
    /// `RunReport`, metrics, and the ingress conservation identity.
    OutOfGas {
        /// The budget the invocation declared.
        limit: u64,
        /// Gas metered before exhaustion (invariant: `used <= limit`).
        used: u64,
    },
    /// A VM program aborted itself with a contract-level code (the
    /// dynamic analogue of `InsufficientFunds`).
    VmAbort {
        /// The code passed to the VM's `Abort` instruction.
        code: u32,
    },
    /// The bytecode failed to decode, or the program hit a runtime
    /// fault (stack error, bad dynamic index). Deterministic: every
    /// replica rejects identically.
    VmFault {
        /// Human-readable fault description (stable across replicas).
        detail: String,
    },
}

impl ExecStatus {
    /// True for successful execution.
    pub fn is_success(&self) -> bool {
        matches!(self, ExecStatus::Success)
    }

    /// True when the abort reason is gas exhaustion (the abort class
    /// the ingress conservation identity accounts separately).
    pub fn is_out_of_gas(&self) -> bool {
        matches!(self, ExecStatus::OutOfGas { .. })
    }
}

/// The outcome of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// The executed transaction's id.
    pub tx_id: pbc_types::TxId,
    /// Keys read, with the version observed at read time, in first-read
    /// order.
    pub read_set: Vec<(KeyId, Version)>,
    /// Buffered writes (not yet applied to any store), one per key with
    /// its last value, in first-write order; `None` values are deletes
    /// that will commit tombstones.
    pub write_set: Vec<WriteOp>,
    /// Success or abort reason.
    pub status: ExecStatus,
    /// Abstract work units consumed (`Noop { busy_work }` accumulates
    /// here; real ops count 1 each, VM invocations their metered gas).
    /// Used by cost-sensitive benches.
    pub work: u64,
    /// Gas metered across the transaction's VM invocations (0 for
    /// purely static transactions). The auditor asserts
    /// `gas_used <= tx.gas_limit()` on every committed and aborted
    /// transaction.
    pub gas_used: u64,
}

impl ExecResult {
    /// True if the transaction executed successfully.
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}

/// The interned keys of `tx` ([`Transaction::key_ids`] with the VM's
/// key-table reader): what [`execute`] and `pbc_txn`'s dependency graph
/// read instead of the strings in its ops.
pub fn tx_keys(tx: &Transaction) -> &TxKeys {
    tx.key_ids(pbc_vm::Program::intern_key_table)
}

/// One transaction's read-your-writes buffers. `writes` holds one entry
/// per key, in first-write order, with the key's last buffered value:
/// it is already the collapsed write set. `reads` holds the first
/// store read of each key. Both are scanned linearly, which for the
/// handful of keys a transaction touches is cheaper than hashing.
struct Buffers {
    reads: Vec<(KeyId, Version)>,
    writes: Vec<WriteOp>,
}

impl Buffers {
    /// Read-your-writes lookup: a buffered write wins (a buffered delete
    /// makes the key read as missing *without* falling through to the
    /// store); only reads served by the store are recorded in the read
    /// set, once per key (the store cannot change under one execution,
    /// so the first read is authoritative and a repeat adds nothing).
    /// Shared by the static interpreter and the VM host, which is what
    /// makes their footprints identical.
    fn lookup<'a>(&'a mut self, state: &'a StateStore, key: KeyId) -> Option<&'a Value> {
        if let Some(i) = self.writes.iter().position(|(k, _)| *k == key) {
            return self.writes[i].1.as_ref();
        }
        let (val, ver) = state.get_versioned(&key);
        if !self.reads.iter().any(|(k, _)| *k == key) {
            self.reads.push((key, ver));
        }
        val
    }

    fn balance(&mut self, state: &StateStore, key: KeyId) -> u64 {
        balance_of(self.lookup(state, key))
    }

    /// Buffers a write; a later write of the same key replaces the
    /// earlier one in place.
    fn write(&mut self, key: KeyId, value: Option<Value>) {
        match self.writes.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.writes.push((key, value)),
        }
    }
}

/// The [`VmHost`] the shared `execute` entry point hands to `pbc-vm`:
/// it resolves key-table indices through the transaction's interned
/// table and routes every host op through the same [`Buffers`] the
/// static interpreter uses, so a program and the op list it was compiled
/// from record indistinguishable footprints.
struct LedgerHost<'a> {
    state: &'a StateStore,
    buffers: &'a mut Buffers,
    /// The program's key table, interned.
    keys: &'a [KeyId],
}

impl VmHost for LedgerHost<'_> {
    fn get(&mut self, key: &str) -> u64 {
        self.buffers.balance(self.state, KeyId::intern(key))
    }
    fn put(&mut self, key: &str, value: u64) {
        self.buffers.write(KeyId::intern(key), Some(balance_value(value)));
    }
    fn put_bytes(&mut self, key: &str, value: &[u8]) {
        self.buffers.write(KeyId::intern(key), Some(Value::copy_from_slice(value)));
    }
    fn delete(&mut self, key: &str) {
        self.buffers.write(KeyId::intern(key), None);
    }
    fn get_at(&mut self, _: &[Key], index: usize) -> u64 {
        self.buffers.balance(self.state, self.keys[index])
    }
    fn put_at(&mut self, _: &[Key], index: usize, value: u64) {
        self.buffers.write(self.keys[index], Some(balance_value(value)));
    }
    fn put_bytes_at(&mut self, _: &[Key], index: usize, value: &[u8]) {
        self.buffers.write(self.keys[index], Some(Value::copy_from_slice(value)));
    }
    fn delete_at(&mut self, _: &[Key], index: usize) {
        self.buffers.write(self.keys[index], None);
    }
}

/// Runs one VM invocation against the transaction's buffers. `ids` are
/// the transaction's op keys from this invocation on; the program's
/// table is taken off their front. `Ok` means the program halted; `Err`
/// carries the abort status (writes must be discarded by the caller).
/// Either way the metered gas is returned.
fn run_invoke(
    call: &VmCall,
    ids: &mut &[KeyId],
    state: &StateStore,
    buffers: &mut Buffers,
) -> (u64, Option<ExecStatus>) {
    let (program, key_count) = match pbc_vm::Program::from_bytes_split(&call.bytecode) {
        Ok((p, keys)) => (p, keys.len()),
        Err(e) => {
            return (0, Some(ExecStatus::VmFault { detail: format!("bytecode rejected: {e}") }))
        }
    };
    let keys = take(ids, key_count);
    let mut host = LedgerHost { state, buffers, keys };
    let run = pbc_vm::run_resolved(&program, key_count, &call.args, call.gas_limit, &mut host);
    debug_assert!(run.gas_used <= call.gas_limit, "VM overdrew its gas budget");
    let abort = match run.status {
        VmStatus::Halted => None,
        VmStatus::OutOfGas => {
            Some(ExecStatus::OutOfGas { limit: call.gas_limit, used: run.gas_used })
        }
        VmStatus::Aborted(code) => Some(ExecStatus::VmAbort { code }),
        VmStatus::Fault(f) => Some(ExecStatus::VmFault { detail: f.to_string() }),
    };
    (run.gas_used, abort)
}

/// Splits the first `n` ids off `ids`.
fn take<'a>(ids: &mut &'a [KeyId], n: usize) -> &'a [KeyId] {
    let (head, rest) = ids.split_at(n);
    *ids = rest;
    head
}

/// Executes `tx` against `state` *without mutating it*.
///
/// This is the single shared entry point for both payload forms of
/// [`pbc_types::Executable`]: static ops are interpreted directly, and
/// `Op::Invoke` payloads run on the `pbc-vm` interpreter against the
/// same read-your-writes buffers. Keys are the transaction's interned
/// ids ([`tx_keys`]). Reads see earlier writes of the same
/// transaction. Any abort — a failed `Transfer`, a VM contract abort,
/// out-of-gas, or a bytecode fault — aborts the whole transaction: the
/// returned write set is empty and the status carries the reason, but
/// the read set is retained (XOV still validates reads of aborted
/// endorsements).
pub fn execute(tx: &Transaction, state: &StateStore) -> ExecResult {
    let mut ids = tx_keys(tx).ops();
    // Every key the transaction can touch is among `ids`; a large key
    // table that a run barely uses grows the buffers instead.
    let cap = ids.len().min(64);
    let mut buf = Buffers { reads: Vec::with_capacity(cap), writes: Vec::with_capacity(cap) };
    let mut work: u64 = 0;
    let mut gas_used: u64 = 0;
    let abort = |buf: Buffers, status, work, gas_used| ExecResult {
        tx_id: tx.id,
        read_set: buf.reads,
        write_set: Vec::new(),
        status,
        work,
        gas_used,
    };

    for op in &tx.ops {
        match op {
            Op::Get { .. } => {
                work += 1;
                let _ = buf.lookup(state, take(&mut ids, 1)[0]);
            }
            Op::Put { value, .. } => {
                work += 1;
                buf.write(take(&mut ids, 1)[0], Some(value.clone()));
            }
            Op::Incr { delta, .. } => {
                work += 1;
                let key = take(&mut ids, 1)[0];
                let cur = buf.balance(state, key);
                let next = if *delta >= 0 {
                    cur.saturating_add(*delta as u64)
                } else {
                    cur.saturating_sub(delta.unsigned_abs())
                };
                buf.write(key, Some(balance_value(next)));
            }
            Op::Transfer { from, amount, .. } => {
                work += 1;
                let &[from_id, to_id] = take(&mut ids, 2) else { unreachable!("two keys") };
                let from_bal = buf.balance(state, from_id);
                if from_bal < *amount {
                    let status = ExecStatus::InsufficientFunds {
                        account: from.clone(),
                        requested: *amount,
                        available: from_bal,
                    };
                    return abort(buf, status, work, gas_used);
                }
                // Debit before reading the credit side so self-transfers
                // observe the debited balance and conserve funds.
                buf.write(from_id, Some(balance_value(from_bal - amount)));
                let to_bal = buf.balance(state, to_id);
                buf.write(to_id, Some(balance_value(to_bal + amount)));
            }
            Op::Noop { busy_work } => {
                // Simulated contract cost: a cheap but real computation so
                // wall-clock benches feel execution weight.
                let mut x = 0x9e3779b97f4a7c15u64 ^ (*busy_work as u64);
                for _ in 0..*busy_work {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                work += *busy_work as u64;
                std::hint::black_box(x);
            }
            Op::Delete { .. } => {
                work += 1;
                buf.write(take(&mut ids, 1)[0], None);
            }
            Op::Invoke { call } => {
                let (gas, status) = run_invoke(call, &mut ids, state, &mut buf);
                gas_used += gas;
                work += gas;
                if let Some(status) = status {
                    return abort(buf, status, work, gas_used);
                }
            }
        }
    }

    ExecResult {
        tx_id: tx.id,
        read_set: buf.reads,
        write_set: buf.writes,
        status: ExecStatus::Success,
        work,
        gas_used,
    }
}

/// Executes `tx` and applies its writes to `state` at `version` if it
/// succeeded. Returns the result either way.
pub fn execute_and_apply(tx: &Transaction, state: &mut StateStore, version: Version) -> ExecResult {
    let result = execute(tx, state);
    if result.is_success() {
        state.apply_writes(&result.write_set, version);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pbc_types::{ClientId, TxId};

    fn tx(ops: Vec<Op>) -> Transaction {
        Transaction::new(TxId(1), ClientId(0), ops)
    }

    /// A read or write set with its keys spelled out.
    fn named<T: Clone>(set: &[(KeyId, T)]) -> Vec<(&'static str, T)> {
        set.iter().map(|(k, t)| (k.as_str(), t.clone())).collect()
    }

    fn seeded_state() -> StateStore {
        let mut s = StateStore::new();
        s.put("alice", balance_value(100), Version::new(1, 0));
        s.put("bob", balance_value(50), Version::new(1, 1));
        s
    }

    #[test]
    fn transfer_moves_funds() {
        let mut s = seeded_state();
        let t = tx(vec![Op::Transfer { from: "alice".into(), to: "bob".into(), amount: 30 }]);
        let r = execute_and_apply(&t, &mut s, Version::new(2, 0));
        assert!(r.is_success());
        assert_eq!(balance_of(s.get("alice")), 70);
        assert_eq!(balance_of(s.get("bob")), 80);
    }

    #[test]
    fn transfer_insufficient_funds_aborts_without_effects() {
        let mut s = seeded_state();
        let t = tx(vec![
            Op::Put { key: "side".into(), value: Bytes::from_static(b"effect") },
            Op::Transfer { from: "alice".into(), to: "bob".into(), amount: 1000 },
        ]);
        let r = execute_and_apply(&t, &mut s, Version::new(2, 0));
        assert_eq!(
            r.status,
            ExecStatus::InsufficientFunds {
                account: "alice".into(),
                requested: 1000,
                available: 100
            }
        );
        assert!(r.write_set.is_empty());
        assert!(s.get("side").is_none(), "aborted tx must leave no effects");
    }

    #[test]
    fn read_your_writes() {
        let s = StateStore::new();
        let t = tx(vec![
            Op::Put { key: "k".into(), value: balance_value(5) },
            Op::Incr { key: "k".into(), delta: 2 },
        ]);
        let r = execute(&t, &s);
        assert!(r.is_success());
        // Final write must be 7.
        let (_, v) = r.write_set.iter().find(|(k, _)| k.as_str() == "k").unwrap().clone();
        assert_eq!(balance_of(v.as_ref()), 7);
        // The Incr read was served from the tx's own buffer: no state read.
        assert!(r.read_set.is_empty());
    }

    #[test]
    fn read_set_records_versions() {
        let s = seeded_state();
        let t = tx(vec![Op::Get { key: "alice".into() }, Op::Get { key: "ghost".into() }]);
        let r = execute(&t, &s);
        assert_eq!(
            named(&r.read_set),
            vec![("alice", Version::new(1, 0)), ("ghost", Version::GENESIS)]
        );
    }

    #[test]
    fn incr_on_missing_key_starts_at_zero() {
        let mut s = StateStore::new();
        let t = tx(vec![Op::Incr { key: "c".into(), delta: 5 }]);
        execute_and_apply(&t, &mut s, Version::new(1, 0));
        assert_eq!(balance_of(s.get("c")), 5);
    }

    #[test]
    fn negative_incr_saturates_at_zero() {
        let mut s = StateStore::new();
        let t = tx(vec![Op::Incr { key: "c".into(), delta: -5 }]);
        execute_and_apply(&t, &mut s, Version::new(1, 0));
        assert_eq!(balance_of(s.get("c")), 0);
    }

    #[test]
    fn write_set_collapses_multiple_writes() {
        let s = StateStore::new();
        let t = tx(vec![
            Op::Put { key: "k".into(), value: balance_value(1) },
            Op::Put { key: "k".into(), value: balance_value(2) },
        ]);
        let r = execute(&t, &s);
        assert_eq!(r.write_set.len(), 1);
        assert_eq!(balance_of(r.write_set[0].1.as_ref()), 2);
    }

    #[test]
    fn delete_buffers_a_tombstone_write() {
        let mut s = seeded_state();
        let t = tx(vec![Op::Delete { key: "alice".into() }]);
        let r = execute_and_apply(&t, &mut s, Version::new(2, 0));
        assert!(r.is_success());
        assert_eq!(named(&r.write_set), vec![("alice", None)]);
        assert!(s.get("alice").is_none());
        assert_eq!(s.version("alice"), Version::new(2, 0), "tombstone carries the version");
    }

    #[test]
    fn read_your_deletes() {
        let s = seeded_state();
        let t = tx(vec![
            Op::Delete { key: "alice".into() },
            Op::Incr { key: "alice".into(), delta: 3 },
        ]);
        let r = execute(&t, &s);
        assert!(r.is_success());
        // The Incr saw the buffered delete, not alice's live balance of
        // 100 — and it never touched the store, so no read is recorded.
        assert!(r.read_set.is_empty());
        let (_, v) = r.write_set.iter().find(|(k, _)| k.as_str() == "alice").unwrap();
        assert_eq!(balance_of(v.as_ref()), 3);
    }

    #[test]
    fn delete_then_put_collapses_to_put() {
        let s = StateStore::new();
        let t = tx(vec![
            Op::Put { key: "k".into(), value: balance_value(1) },
            Op::Delete { key: "k".into() },
            Op::Put { key: "k".into(), value: balance_value(2) },
        ]);
        let r = execute(&t, &s);
        assert_eq!(r.write_set.len(), 1);
        assert_eq!(balance_of(r.write_set[0].1.as_ref()), 2);
    }

    #[test]
    fn execution_is_deterministic() {
        let s = seeded_state();
        let t = tx(vec![
            Op::Transfer { from: "alice".into(), to: "bob".into(), amount: 10 },
            Op::Noop { busy_work: 100 },
            Op::Incr { key: "counter".into(), delta: 1 },
        ]);
        assert_eq!(execute(&t, &s), execute(&t, &s));
    }

    #[test]
    fn noop_accumulates_work() {
        let s = StateStore::new();
        let t = tx(vec![Op::Noop { busy_work: 500 }]);
        let r = execute(&t, &s);
        assert_eq!(r.work, 500);
        assert!(r.write_set.is_empty());
    }

    fn invoke_tx(call: pbc_types::VmCall) -> Transaction {
        Transaction::invoke(TxId(9), ClientId(0), call)
    }

    fn call_for(ops: &[Op], gas_limit: u64) -> pbc_types::VmCall {
        let p = pbc_vm::compile_ops(ops);
        pbc_types::VmCall {
            bytecode: Bytes::from(p.to_bytes()),
            args: vec![],
            gas_limit,
            declared_reads: vec![],
            declared_writes: vec![],
        }
    }

    #[test]
    fn vm_invoke_matches_static_interpreter() {
        let ops = vec![
            Op::Transfer { from: "alice".into(), to: "bob".into(), amount: 30 },
            Op::Incr { key: "counter".into(), delta: 7 },
            Op::Get { key: "ghost".into() },
        ];
        let s = seeded_state();
        let legacy = execute(&tx(ops.clone()), &s);
        let p = pbc_vm::compile_ops(&ops);
        let vm = execute(&invoke_tx(call_for(&ops, p.straight_line_gas())), &s);
        assert!(vm.is_success());
        assert_eq!(vm.read_set, legacy.read_set, "footprints must be byte-identical");
        assert_eq!(vm.write_set, legacy.write_set);
        assert!(vm.gas_used > 0 && vm.gas_used <= p.straight_line_gas());
    }

    /// `Get a; Get b; Get a`: the second read of `a` is not adjacent to
    /// the first, and must still be recorded once — on the static arm
    /// and on the program compiled from it.
    #[test]
    fn non_adjacent_repeated_reads_are_recorded_once() {
        let ops = vec![
            Op::Get { key: "alice".into() },
            Op::Get { key: "bob".into() },
            Op::Get { key: "alice".into() },
        ];
        let s = seeded_state();
        let expected = vec![("alice", Version::new(1, 0)), ("bob", Version::new(1, 1))];
        assert_eq!(named(&execute(&tx(ops.clone()), &s).read_set), expected);
        let gas = pbc_vm::compile_ops(&ops).straight_line_gas();
        let vm = execute(&invoke_tx(call_for(&ops, gas)), &s);
        assert!(vm.is_success());
        assert_eq!(named(&vm.read_set), expected);
    }

    #[test]
    fn vm_out_of_gas_aborts_without_effects() {
        let ops = vec![
            Op::Put { key: "side".into(), value: balance_value(1) },
            Op::Noop { busy_work: 1000 },
        ];
        let mut s = seeded_state();
        let t = invoke_tx(call_for(&ops, 20)); // Put costs 10+1; Burn(1000) won't fit.
        let r = execute_and_apply(&t, &mut s, Version::new(2, 0));
        assert_eq!(r.status, ExecStatus::OutOfGas { limit: 20, used: r.gas_used });
        assert!(r.gas_used <= 20, "gas conservation: used must never exceed the limit");
        assert!(r.write_set.is_empty());
        assert!(s.get("side").is_none(), "out-of-gas tx must leave no effects");
    }

    #[test]
    fn vm_contract_abort_keeps_reads_discards_writes() {
        let ops = vec![Op::Transfer { from: "alice".into(), to: "bob".into(), amount: 1000 }];
        let s = seeded_state();
        let legacy = execute(&tx(ops.clone()), &s);
        let p = pbc_vm::compile_ops(&ops);
        let vm = execute(&invoke_tx(call_for(&ops, p.straight_line_gas())), &s);
        assert_eq!(vm.status, ExecStatus::VmAbort { code: pbc_vm::ABORT_INSUFFICIENT_FUNDS });
        assert_eq!(vm.read_set, legacy.read_set);
        assert!(vm.write_set.is_empty());
    }

    #[test]
    fn vm_malformed_bytecode_is_a_typed_fault() {
        let t = invoke_tx(pbc_types::VmCall {
            bytecode: Bytes::from_static(&[0xFF, 1, 2, 3]),
            args: vec![],
            gas_limit: 100,
            declared_reads: vec![],
            declared_writes: vec![],
        });
        let r = execute(&t, &StateStore::new());
        assert!(matches!(r.status, ExecStatus::VmFault { .. }), "got {:?}", r.status);
        assert_eq!(r.gas_used, 0);
    }

    #[test]
    fn static_tx_reports_zero_gas() {
        let r = execute(&tx(vec![Op::Get { key: "alice".into() }]), &seeded_state());
        assert_eq!(r.gas_used, 0);
        assert!(!r.status.is_out_of_gas());
    }

    #[test]
    fn self_transfer_preserves_balance() {
        let mut s = seeded_state();
        let t = tx(vec![Op::Transfer { from: "alice".into(), to: "alice".into(), amount: 40 }]);
        let r = execute_and_apply(&t, &mut s, Version::new(2, 0));
        assert!(r.is_success());
        assert_eq!(balance_of(s.get("alice")), 100, "self transfer must conserve balance");
    }

    /// Keys the equivalence cases draw from; the last two are never in
    /// the generated state.
    const KEYS: [&str; 8] = ["eq/a", "eq/b", "eq/c", "eq/d", "eq/e", "eq/f", "eq/g", "eq/h"];

    /// One VM instruction from two random bytes: host ops and key-index
    /// pushes are common, loops and bad indices possible.
    fn instr(op: u8, arg: u8, len: usize) -> pbc_vm::Instr {
        use pbc_vm::Instr;
        let to = arg as u32 % (len as u32 + 1);
        match op % 20 {
            0 => Instr::Push(arg as u64 % 8),
            1 => Instr::Push(arg as u64 * 37),
            2 => Instr::Arg(arg as u16 % 3),
            3 => Instr::Get,
            4 => Instr::Put,
            5 => Instr::Incr,
            6 => Instr::Delete,
            7 => Instr::PutData(arg as u32 / 7),
            8 => Instr::Dup,
            9 => Instr::Swap,
            10 => Instr::Add,
            11 => Instr::Sub,
            12 => Instr::Pop,
            13 => Instr::Jz(to),
            14 => Instr::Jump(to),
            15 => Instr::Abort(arg as u32),
            16 => Instr::Burn(arg as u32),
            17 => Instr::Lt,
            18 => Instr::Not,
            _ => Instr::Halt,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Interning changes no outcome: on random static, VM and mixed
        /// transactions (duplicate key-table entries, deletes and
        /// tombstones, read-after-write, insufficient funds, out-of-gas,
        /// VM faults, undecodable bytecode) the interned executor returns
        /// the string-keyed reference's status, gas, work, read set and
        /// write set, in order, and applying either write set leaves the
        /// same state.
        #[test]
        fn interned_execute_matches_string_reference(
            balances in proptest::collection::vec(0..200u64, 6),
            tombstones in proptest::prelude::any::<u8>(),
            ops in proptest::collection::vec((0..7u8, 0..8u8, 0..8u8, 0..400u64), 1..=8),
            code in proptest::collection::vec((0..20u8, 0..8u8), 0..=30),
            table in proptest::collection::vec(0..8u8, 0..=6),
            gas in 0..400u64,
            truncate in proptest::prelude::any::<bool>(),
        ) {
            let mut state = StateStore::new();
            for (i, b) in balances.iter().enumerate() {
                state.put(KEYS[i], balance_value(*b), Version::new(1, i as u32));
                if tombstones >> i & 1 == 1 {
                    state.delete(KEYS[i], Version::new(2, i as u32));
                }
            }
            let program = pbc_vm::Program {
                code: code.iter().map(|&(op, arg)| instr(op, arg, code.len())).collect(),
                keys: table.iter().map(|&k| KEYS[k as usize].to_string()).collect(),
                consts: vec![b"data".to_vec()],
            };
            let mut bytecode = program.to_bytes();
            if truncate {
                bytecode.pop();
            }
            let call = pbc_types::VmCall {
                bytecode: Bytes::from(bytecode),
                args: vec![5, 1000],
                gas_limit: gas,
                declared_reads: vec![],
                declared_writes: vec![],
            };
            let ops: Vec<Op> = ops
                .iter()
                .map(|&(kind, a, b, n)| {
                    let (key, other) = (KEYS[a as usize].to_string(), KEYS[b as usize].to_string());
                    match kind {
                        0 => Op::Get { key },
                        1 => Op::Put { key, value: balance_value(n) },
                        2 => Op::Incr { key, delta: n as i64 - 200 },
                        3 => Op::Transfer { from: key, to: other, amount: n % 150 },
                        4 => Op::Noop { busy_work: n as u32 % 5 },
                        5 => Op::Delete { key },
                        _ => Op::Invoke { call: call.clone() },
                    }
                })
                .collect();
            for t in [tx(ops), invoke_tx(call.clone())] {
                let got = execute(&t, &state);
                let want = crate::exec_reference::execute(&t, &state);
                proptest::prop_assert_eq!(&got.status, &want.status);
                proptest::prop_assert_eq!(got.gas_used, want.gas_used);
                proptest::prop_assert_eq!(got.work, want.work);
                let reads: Vec<(&str, Version)> =
                    want.read_set.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                proptest::prop_assert_eq!(named(&got.read_set), reads);
                let writes: Vec<(&str, Option<Value>)> =
                    want.write_set.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                proptest::prop_assert_eq!(named(&got.write_set), writes);

                let version = Version::new(3, 0);
                let mut interned = state.clone();
                interned.apply_writes(&got.write_set, version);
                let mut reference = state.clone();
                for (k, v) in want.write_set {
                    match v {
                        Some(v) => reference.put(k, v, version),
                        None => reference.delete(k, version),
                    }
                }
                proptest::prop_assert_eq!(interned.state_digest(), reference.state_digest());
            }
        }
    }
}
