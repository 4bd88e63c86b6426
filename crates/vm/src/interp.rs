//! The gas-metered interpreter.
//!
//! [`run`] is a pure function of `(program, args, gas_limit, host)`: the
//! machine has no clock, no randomness, and no float unit, and every
//! instruction costs at least one gas, so the gas limit doubles as loop
//! fuel and execution always terminates in at most `gas_limit` steps.
//! State access goes exclusively through the [`VmHost`] trait, which is
//! how the footprint — the set of keys actually touched — is recorded as
//! a side effect of execution rather than declared up front.

use crate::program::{gas_cost, Instr, Program, STACK_MAX};
use pbc_types::Key;

/// The state interface a program executes against. Implementations are
/// expected to provide read-your-writes semantics (a `get` after a `put`
/// of the same key observes the buffered value) and to record the
/// footprint: which keys were read from the underlying store and which
/// were written.
///
/// The interpreter calls the `*_at` methods with an index into the
/// program's key table. By default they look the key string up in
/// `keys` and call the `&str` method. A host that resolved the table
/// before the run overrides all four and ignores `keys`, which
/// [`run_resolved`] passes empty.
pub trait VmHost {
    /// Reads `key` as a `u64` balance (missing or short values read as
    /// zero, matching `pbc_types::tx::balance_of`).
    fn get(&mut self, key: &str) -> u64;
    /// Buffers a write of `value` as an 8-byte big-endian balance.
    fn put(&mut self, key: &str, value: u64);
    /// Buffers a write of raw bytes (the [`Instr::PutData`] path).
    fn put_bytes(&mut self, key: &str, value: &[u8]);
    /// Buffers a tombstone for `key`.
    fn delete(&mut self, key: &str);

    /// [`VmHost::get`] of key-table entry `index`.
    fn get_at(&mut self, keys: &[Key], index: usize) -> u64 {
        self.get(&keys[index])
    }
    /// [`VmHost::put`] of key-table entry `index`.
    fn put_at(&mut self, keys: &[Key], index: usize, value: u64) {
        self.put(&keys[index], value)
    }
    /// [`VmHost::put_bytes`] of key-table entry `index`.
    fn put_bytes_at(&mut self, keys: &[Key], index: usize, value: &[u8]) {
        self.put_bytes(&keys[index], value)
    }
    /// [`VmHost::delete`] of key-table entry `index`.
    fn delete_at(&mut self, keys: &[Key], index: usize) {
        self.delete(&keys[index])
    }
}

/// A deterministic runtime fault: the program was structurally valid but
/// did something a correct program never does. Faults abort the
/// transaction (writes discarded) — they never panic the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An instruction needed more stack words than were present.
    StackUnderflow,
    /// A push would exceed [`STACK_MAX`].
    StackOverflow,
    /// A host op popped a key index outside the program's key table.
    KeyIndexOutOfRange(u64),
    /// An `Arg` instruction indexed past the supplied call arguments.
    ArgIndexOutOfRange(u16),
}

/// A runtime fault with the program counter it occurred at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Instruction index of the faulting instruction.
    pub pc: usize,
    /// What went wrong.
    pub kind: FaultKind,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::StackUnderflow => write!(f, "stack underflow at pc {}", self.pc),
            FaultKind::StackOverflow => write!(f, "stack overflow at pc {}", self.pc),
            FaultKind::KeyIndexOutOfRange(i) => {
                write!(f, "key index {i} out of range at pc {}", self.pc)
            }
            FaultKind::ArgIndexOutOfRange(i) => {
                write!(f, "arg index {i} out of range at pc {}", self.pc)
            }
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmStatus {
    /// The program halted normally; buffered writes are eligible to
    /// commit.
    Halted,
    /// The program aborted itself with a contract-level code (e.g.
    /// insufficient funds). Writes are discarded.
    Aborted(u32),
    /// The gas limit was reached before the program halted. Writes are
    /// discarded; `gas_used` never exceeds the limit.
    OutOfGas,
    /// A deterministic runtime fault. Writes are discarded.
    Fault(Fault),
}

impl VmStatus {
    /// True only for a normal halt.
    pub fn is_halted(&self) -> bool {
        matches!(self, VmStatus::Halted)
    }
}

/// The result of one run: termination status plus metered gas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmRun {
    /// How the program ended.
    pub status: VmStatus,
    /// Gas consumed. Invariant (asserted by the auditor): always
    /// `<= gas_limit`, on every path including out-of-gas.
    pub gas_used: u64,
}

/// Executes `program` with `args` against `host`, metering gas.
///
/// Decode-time validation ([`Program::from_bytes`]) guarantees jump
/// targets and constant indices are in range, so the only runtime
/// faults are stack and dynamic-index errors — all reported as
/// [`VmStatus::Fault`], never panics.
pub fn run(program: &Program, args: &[u64], gas_limit: u64, host: &mut dyn VmHost) -> VmRun {
    run_resolved(program, program.keys.len(), args, gas_limit, host)
}

/// [`run`] for a host that resolved the program's key table itself: host
/// instructions may index `0..key_count`, and reach the host only through
/// the `*_at` methods of [`VmHost`], which the host overrides. `program`
/// may come from [`Program::from_bytes_split`], with an empty `keys`.
pub fn run_resolved(
    program: &Program,
    key_count: usize,
    args: &[u64],
    gas_limit: u64,
    host: &mut dyn VmHost,
) -> VmRun {
    let keys = &program.keys[..];
    let mut stack: Vec<u64> = Vec::with_capacity(16);
    let mut pc: usize = 0;
    let mut gas_used: u64 = 0;

    // `at` is the index of the instruction currently executing (pc has
    // already advanced past it when the body runs).
    #[allow(unused_assignments)]
    let mut at: usize = 0;
    macro_rules! fault {
        ($kind:expr) => {
            return VmRun { status: VmStatus::Fault(Fault { pc: at, kind: $kind }), gas_used }
        };
    }
    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => fault!(FaultKind::StackUnderflow),
            }
        };
    }
    macro_rules! push {
        ($v:expr) => {
            if stack.len() >= STACK_MAX {
                fault!(FaultKind::StackOverflow)
            } else {
                stack.push($v)
            }
        };
    }
    macro_rules! pop_key {
        () => {{
            let idx = pop!();
            if idx >= key_count as u64 {
                fault!(FaultKind::KeyIndexOutOfRange(idx))
            }
            idx as usize
        }};
    }

    while pc < program.code.len() {
        let instr = program.code[pc];
        let cost = gas_cost(&instr);
        if gas_used.saturating_add(cost) > gas_limit {
            return VmRun { status: VmStatus::OutOfGas, gas_used };
        }
        gas_used += cost;
        at = pc;
        pc += 1;
        match instr {
            Instr::Push(v) => push!(v),
            Instr::Arg(n) => match args.get(n as usize) {
                Some(v) => push!(*v),
                None => fault!(FaultKind::ArgIndexOutOfRange(n)),
            },
            Instr::Pop => {
                let _ = pop!();
            }
            Instr::Dup => {
                let top = match stack.last() {
                    Some(v) => *v,
                    None => fault!(FaultKind::StackUnderflow),
                };
                push!(top);
            }
            Instr::Swap => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
            }
            Instr::Add => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_add(b));
            }
            Instr::Sub => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_sub(b));
            }
            Instr::AddSat => {
                let b = pop!();
                let a = pop!();
                push!(a.saturating_add(b));
            }
            Instr::SubSat => {
                let b = pop!();
                let a = pop!();
                push!(a.saturating_sub(b));
            }
            Instr::Mul => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_mul(b));
            }
            Instr::Eq => {
                let b = pop!();
                let a = pop!();
                push!((a == b) as u64);
            }
            Instr::Lt => {
                let b = pop!();
                let a = pop!();
                push!((a < b) as u64);
            }
            Instr::Not => {
                let x = pop!();
                push!((x == 0) as u64);
            }
            Instr::Jump(t) => pc = t as usize,
            Instr::Jz(t) => {
                if pop!() == 0 {
                    pc = t as usize;
                }
            }
            Instr::Halt => return VmRun { status: VmStatus::Halted, gas_used },
            Instr::Abort(code) => {
                return VmRun { status: VmStatus::Aborted(code), gas_used };
            }
            Instr::Burn(n) => {
                // Same xorshift spin as the static interpreter's
                // `Op::Noop { busy_work }`, so wall-clock benches feel
                // identical contract weight on either path.
                let mut x = 0x9e3779b97f4a7c15u64 ^ (n as u64);
                for _ in 0..n {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                std::hint::black_box(x);
            }
            Instr::Get => {
                let key = pop_key!();
                let v = host.get_at(keys, key);
                push!(v);
            }
            Instr::Put => {
                let value = pop!();
                let key = pop_key!();
                host.put_at(keys, key, value);
            }
            Instr::Incr => {
                // Pops the delta (two's-complement i64), then the key
                // index; replicates the static interpreter's saturating
                // semantics exactly.
                let delta = pop!() as i64;
                let key = pop_key!();
                let cur = host.get_at(keys, key);
                let next = if delta >= 0 {
                    cur.saturating_add(delta as u64)
                } else {
                    cur.saturating_sub(delta.unsigned_abs())
                };
                host.put_at(keys, key, next);
            }
            Instr::Delete => {
                let key = pop_key!();
                host.delete_at(keys, key);
            }
            Instr::PutData(c) => {
                let key = pop_key!();
                host.put_bytes_at(keys, key, &program.consts[c as usize]);
            }
        }
    }
    // Running off the end of the code is a clean halt.
    VmRun { status: VmStatus::Halted, gas_used }
}
