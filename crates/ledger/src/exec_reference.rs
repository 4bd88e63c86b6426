//! The string-keyed `execute` this crate ran before keys were interned,
//! kept for tests only: the interned executor must equal it on every
//! transaction (`exec::tests::interned_execute_matches_string_reference`).
//! Its read and write sets are `String`-keyed, and it reads the store
//! through the string API.

use crate::exec::ExecStatus;
use crate::state::{StateStore, Version};
use pbc_types::tx::{balance_of, balance_value};
use pbc_types::{Key, Op, Transaction, Value, VmCall};
use pbc_vm::{VmHost, VmStatus};

/// A buffered write, string-keyed.
pub type WriteOp = (Key, Option<Value>);

/// What the reference returns: `execute`'s `ExecResult` with string keys.
#[derive(Debug)]
pub struct Outcome {
    pub read_set: Vec<(Key, Version)>,
    pub write_set: Vec<WriteOp>,
    pub status: ExecStatus,
    pub work: u64,
    pub gas_used: u64,
}

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

pub fn execute(tx: &Transaction, state: &StateStore) -> Outcome {
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
                    return Outcome {
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
                writes.push((from.clone(), Some(balance_value(from_bal - amount))));
                let to_bal = balance_of(lookup(state, &writes, &mut read_set, to).as_ref());
                writes.push((to.clone(), Some(balance_value(to_bal + amount))));
            }
            Op::Noop { busy_work } => {
                work += *busy_work as u64;
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
                    return Outcome { read_set, write_set: Vec::new(), status, work, gas_used };
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

    Outcome { read_set, write_set: final_writes, status: ExecStatus::Success, work, gas_used }
}
