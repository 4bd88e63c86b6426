//! Deterministic transaction execution.
//!
//! Interprets a transaction's [`Op`] program against a [`StateStore`],
//! producing a versioned read set and a buffered write set — the unit of
//! work every architecture in `pbc-arch` schedules differently. Execution
//! is strictly deterministic (SMR requirement, §2.2): the same ops against
//! the same state always produce the same result.

use crate::state::{StateStore, Version, WriteOp};
use pbc_types::tx::{balance_of, balance_value};
use pbc_types::{Key, Op, Transaction, Value, VmCall};
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
    /// Keys read, with the version observed at read time.
    pub read_set: Vec<(Key, Version)>,
    /// Buffered writes (not yet applied to any store); `None` values
    /// are deletes that will commit tombstones.
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

/// Read-your-writes lookup: last buffered write wins (a buffered delete
/// makes the key read as missing *without* falling through to the
/// store); only reads served by the store are recorded in the read set,
/// once per key (the store cannot change under one execution, so the
/// first read is authoritative and a repeat adds nothing).
/// Shared verbatim by the static interpreter and the VM host, which is
/// what makes their footprints byte-identical.
fn lookup(
    state: &StateStore,
    writes: &[WriteOp],
    reads: &mut Vec<(Key, Version)>,
    key: &str,
) -> Option<Value> {
    if let Some((_, v)) = writes.iter().rev().find(|(k, _)| k == key) {
        return v.clone();
    }
    let (val, ver) = state.get_versioned(key);
    if !reads.iter().any(|(k, _)| k == key) {
        reads.push((key.to_string(), ver));
    }
    val.cloned()
}

/// The [`VmHost`] the shared `execute` entry point hands to `pbc-vm`:
/// it routes every host op through the same buffers and [`lookup`] the
/// static interpreter uses, so a program and the op list it was
/// compiled from record indistinguishable footprints.
struct LedgerHost<'a> {
    state: &'a StateStore,
    writes: &'a mut Vec<WriteOp>,
    reads: &'a mut Vec<(Key, Version)>,
}

impl VmHost for LedgerHost<'_> {
    fn get(&mut self, key: &str) -> u64 {
        balance_of(lookup(self.state, self.writes, self.reads, key).as_ref())
    }
    fn put(&mut self, key: &str, value: u64) {
        self.writes.push((key.to_string(), Some(balance_value(value))));
    }
    fn put_bytes(&mut self, key: &str, value: &[u8]) {
        self.writes.push((key.to_string(), Some(Value::copy_from_slice(value))));
    }
    fn delete(&mut self, key: &str) {
        self.writes.push((key.to_string(), None));
    }
}

/// Runs one VM invocation against the transaction's buffers. `Ok` means
/// the program halted; `Err` carries the abort status (writes must be
/// discarded by the caller). Either way the metered gas is returned.
fn run_invoke(
    call: &VmCall,
    state: &StateStore,
    writes: &mut Vec<WriteOp>,
    reads: &mut Vec<(Key, Version)>,
) -> (u64, Option<ExecStatus>) {
    let program = match pbc_vm::Program::from_bytes(&call.bytecode) {
        Ok(p) => p,
        Err(e) => {
            return (0, Some(ExecStatus::VmFault { detail: format!("bytecode rejected: {e}") }))
        }
    };
    let mut host = LedgerHost { state, writes, reads };
    let run = pbc_vm::run(&program, &call.args, call.gas_limit, &mut host);
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

/// Executes `tx` against `state` *without mutating it*.
///
/// This is the single shared entry point for both payload forms of
/// [`pbc_types::Executable`]: static ops are interpreted directly, and
/// `Op::Invoke` payloads run on the `pbc-vm` interpreter against the
/// same read-your-writes buffers. Reads see earlier writes of the same
/// transaction. Any abort — a failed `Transfer`, a VM contract abort,
/// out-of-gas, or a bytecode fault — aborts the whole transaction: the
/// returned write set is empty and the status carries the reason, but
/// the read set is retained (XOV still validates reads of aborted
/// endorsements).
pub fn execute(tx: &Transaction, state: &StateStore) -> ExecResult {
    let mut read_set: Vec<(Key, Version)> = Vec::new();
    let mut writes: Vec<WriteOp> = Vec::new();
    let mut work: u64 = 0;
    let mut gas_used: u64 = 0;

    for op in &tx.ops {
        match op {
            Op::Get { key } => {
                work += 1;
                let _ = lookup(state, &writes, &mut read_set, key);
            }
            Op::Put { key, value } => {
                work += 1;
                writes.push((key.clone(), Some(value.clone())));
            }
            Op::Incr { key, delta } => {
                work += 1;
                let cur = balance_of(lookup(state, &writes, &mut read_set, key).as_ref());
                let next = if *delta >= 0 {
                    cur.saturating_add(*delta as u64)
                } else {
                    cur.saturating_sub(delta.unsigned_abs())
                };
                writes.push((key.clone(), Some(balance_value(next))));
            }
            Op::Transfer { from, to, amount } => {
                work += 1;
                let from_bal = balance_of(lookup(state, &writes, &mut read_set, from).as_ref());
                if from_bal < *amount {
                    return ExecResult {
                        tx_id: tx.id,
                        read_set,
                        write_set: Vec::new(),
                        status: ExecStatus::InsufficientFunds {
                            account: from.clone(),
                            requested: *amount,
                            available: from_bal,
                        },
                        work,
                        gas_used,
                    };
                }
                // Debit before reading the credit side so self-transfers
                // observe the debited balance and conserve funds.
                writes.push((from.clone(), Some(balance_value(from_bal - amount))));
                let to_bal = balance_of(lookup(state, &writes, &mut read_set, to).as_ref());
                writes.push((to.clone(), Some(balance_value(to_bal + amount))));
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
            Op::Delete { key } => {
                work += 1;
                writes.push((key.clone(), None));
            }
            Op::Invoke { call } => {
                let (gas, abort) = run_invoke(call, state, &mut writes, &mut read_set);
                gas_used += gas;
                work += gas;
                if let Some(status) = abort {
                    return ExecResult {
                        tx_id: tx.id,
                        read_set,
                        write_set: Vec::new(),
                        status,
                        work,
                        gas_used,
                    };
                }
            }
        }
    }

    // Collapse the write set to the last write per key.
    let mut final_writes: Vec<WriteOp> = Vec::with_capacity(writes.len());
    for (k, v) in writes {
        if let Some(slot) = final_writes.iter_mut().find(|(fk, _)| *fk == k) {
            slot.1 = v;
        } else {
            final_writes.push((k, v));
        }
    }

    ExecResult {
        tx_id: tx.id,
        read_set,
        write_set: final_writes,
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

    fn seeded_state() -> StateStore {
        let mut s = StateStore::new();
        s.put("alice".into(), balance_value(100), Version::new(1, 0));
        s.put("bob".into(), balance_value(50), Version::new(1, 1));
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
        let (_, v) = r.write_set.iter().find(|(k, _)| k == "k").unwrap().clone();
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
            r.read_set,
            vec![
                ("alice".to_string(), Version::new(1, 0)),
                ("ghost".to_string(), Version::GENESIS)
            ]
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
        assert_eq!(r.write_set, vec![("alice".to_string(), None)]);
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
        let (_, v) = r.write_set.iter().find(|(k, _)| k == "alice").unwrap();
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
        let expected = vec![
            ("alice".to_string(), Version::new(1, 0)),
            ("bob".to_string(), Version::new(1, 1)),
        ];
        assert_eq!(execute(&tx(ops.clone()), &s).read_set, expected);
        let gas = pbc_vm::compile_ops(&ops).straight_line_gas();
        let vm = execute(&invoke_tx(call_for(&ops, gas)), &s);
        assert!(vm.is_success());
        assert_eq!(vm.read_set, expected);
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
}
