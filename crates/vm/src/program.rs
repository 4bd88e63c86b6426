//! Programs, instructions, the gas table, and the bytecode codec.
//!
//! A [`Program`] is the unit a client ships inside a transaction: a flat
//! instruction vector plus a key table and a constant pool. Keys are
//! addressed **by index popped from the stack**, which is what makes
//! footprints dynamic — the key a `Get` touches can depend on values the
//! program computed or read earlier, so the true read/write set is only
//! known once execution finishes.
//!
//! The codec mirrors the [`pbc_types::encode`] discipline used by every
//! other persisted artifact: length-prefixed, big-endian, and rejecting
//! *any* malformation — truncation, trailing bytes, unknown opcodes,
//! oversized sections, and out-of-range static operands — with a typed
//! [`DecodeError`] rather than a panic, because bytecode arrives from
//! untrusted clients and torn WAL tails alike.

use pbc_types::encode::{Decoder, Encoder};
use pbc_types::{Key, KeyId};

/// Bytecode format version byte (first byte of every encoded program).
pub const BYTECODE_VERSION: u8 = 1;

/// Maximum instructions per program.
pub const MAX_CODE: usize = 65_536;
/// Maximum entries in the key table.
pub const MAX_KEYS: usize = 4_096;
/// Maximum entries in the constant pool.
pub const MAX_CONSTS: usize = 4_096;
/// Maximum byte length of one constant-pool entry.
pub const MAX_CONST_LEN: usize = 4_096;
/// Maximum operand stack depth during execution.
pub const STACK_MAX: usize = 256;

/// One VM instruction. The machine is integer-only (`u64` stack words,
/// two's-complement reinterpretation where signedness matters) — no
/// floats, no host randomness, no clocks, so execution is a pure
/// function of `(program, args, state snapshot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Push an immediate word.
    Push(u64),
    /// Push the call argument at a static index.
    Arg(u16),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the two top stack words.
    Swap,
    /// Wrapping addition: pops `b`, `a`; pushes `a + b`.
    Add,
    /// Wrapping subtraction: pops `b`, `a`; pushes `a - b`.
    Sub,
    /// Saturating addition (balance arithmetic).
    AddSat,
    /// Saturating subtraction (balance arithmetic; floors at zero).
    SubSat,
    /// Wrapping multiplication.
    Mul,
    /// Equality: pops `b`, `a`; pushes `1` if `a == b` else `0`.
    Eq,
    /// Unsigned less-than: pops `b`, `a`; pushes `1` if `a < b` else `0`.
    Lt,
    /// Logical not: pops `x`; pushes `1` if `x == 0` else `0`.
    Not,
    /// Unconditional jump to an absolute instruction index.
    Jump(u32),
    /// Pop a word; jump to the target if it is zero.
    Jz(u32),
    /// Stop successfully. Running off the end of the code is an
    /// implicit `Halt`.
    Halt,
    /// Stop with a contract-level abort code (e.g. insufficient funds).
    /// The transaction's buffered writes are discarded by the executor.
    Abort(u32),
    /// Burn `n` abstract work units (the `Noop { busy_work }` analogue):
    /// costs `1 + n` gas and spins the same xorshift loop the static
    /// interpreter uses, so wall-clock benches feel contract weight.
    Burn(u32),
    /// Host read: pops a key-table index; pushes the key's value
    /// decoded as a `u64` balance. Records the read in the footprint.
    Get,
    /// Host write: pops a value, then a key-table index; buffers the
    /// value as an 8-byte big-endian balance. Records the write.
    Put,
    /// Host read-modify-write: pops a delta (two's-complement `i64`),
    /// then a key-table index; saturating-adds the delta to the key's
    /// balance. Records both the read and the write.
    Incr,
    /// Host delete: pops a key-table index; buffers a tombstone write.
    Delete,
    /// Host write from the constant pool: pops a key-table index and
    /// writes the raw bytes of the static constant operand — the path
    /// that lets compiled legacy `Put`s stay byte-exact.
    PutData(u32),
}

/// Fixed gas cost of one instruction. Every instruction costs at least
/// 1 gas, so the gas limit bounds the step count (loop fuel) and the VM
/// always terminates.
pub fn gas_cost(i: &Instr) -> u64 {
    /// Host operations (state reads/writes) cost a flat multiple of the
    /// plain-instruction cost, mirroring the storage-vs-compute split of
    /// production gas schedules.
    const GAS_HOST: u64 = 10;
    match i {
        Instr::Burn(n) => 1 + *n as u64,
        Instr::Get | Instr::Put | Instr::Incr | Instr::Delete | Instr::PutData(_) => GAS_HOST,
        _ => 1,
    }
}

/// Why bytecode was rejected at decode time. Mirrors the repo-wide
/// `PersistPayload` contract (malformed bytes must degrade to an error,
/// never a panic) but with a *typed* reason, because the VM's caller
/// wants to distinguish a truncated wire image from a hostile program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Bytes remained after the last decoded field.
    TrailingBytes,
    /// The leading version byte is not [`BYTECODE_VERSION`].
    BadVersion(u8),
    /// An opcode byte outside the instruction set.
    UnknownOpcode(u8),
    /// A section exceeded its hard limit.
    TooLarge {
        /// Which section overflowed (`"code"`, `"keys"`, `"consts"`,
        /// `"const"`).
        what: &'static str,
        /// Declared length.
        len: usize,
        /// The limit it violated.
        max: usize,
    },
    /// A `Jump`/`Jz` target pointing outside the code section.
    BadJumpTarget {
        /// Instruction index of the offending jump.
        at: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A `PutData` operand pointing outside the constant pool.
    BadConstIndex {
        /// Instruction index of the offending `PutData`.
        at: usize,
        /// The out-of-range pool index.
        index: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bytecode truncated"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after program"),
            DecodeError::BadVersion(v) => write!(f, "unsupported bytecode version {v}"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            DecodeError::TooLarge { what, len, max } => {
                write!(f, "{what} section too large: {len} > {max}")
            }
            DecodeError::BadJumpTarget { at, target } => {
                write!(f, "instruction {at}: jump target {target} out of range")
            }
            DecodeError::BadConstIndex { at, index } => {
                write!(f, "instruction {at}: constant index {index} out of range")
            }
        }
    }
}

/// A decoded, validated VM program.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Program {
    /// The instruction vector. Execution starts at index 0; running off
    /// the end halts cleanly.
    pub code: Vec<Instr>,
    /// The key table host instructions index into (dynamically, via the
    /// stack).
    pub keys: Vec<Key>,
    /// The constant pool [`Instr::PutData`] writes from.
    pub consts: Vec<Vec<u8>>,
}

impl Program {
    /// Serializes the program to its canonical bytecode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(BYTECODE_VERSION);
        e.u32(self.code.len() as u32);
        for i in &self.code {
            encode_instr(i, &mut e);
        }
        e.u32(self.keys.len() as u32);
        for k in &self.keys {
            e.str(k);
        }
        e.u32(self.consts.len() as u32);
        for c in &self.consts {
            e.bytes(c);
        }
        e.finish()
    }

    /// Decodes and validates bytecode. Rejects truncated, oversized,
    /// unknown-opcode, and statically-invalid programs with a typed
    /// error; a program this returns `Ok` for can always be run (runtime
    /// faults like stack underflow are still possible, but are reported
    /// as deterministic aborts, never panics).
    pub fn from_bytes(bytes: &[u8]) -> Result<Program, DecodeError> {
        let (mut program, keys) = Program::from_bytes_split(bytes)?;
        program.keys = keys.map(str::to_string).collect();
        Ok(program)
    }

    /// Decodes and validates bytecode as [`Program::from_bytes`] does,
    /// but leaves the key table in `bytes`: the returned program's `keys`
    /// is empty, and the [`KeyTable`] reads the validated entries back,
    /// in table order, without allocating. For a host that resolves the
    /// table itself (see [`crate::run_resolved`]).
    pub fn from_bytes_split(bytes: &[u8]) -> Result<(Program, KeyTable<'_>), DecodeError> {
        let mut d = Decoder::new(bytes);
        let version = d.tag().ok_or(DecodeError::Truncated)?;
        if version != BYTECODE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let code_len = d.u32().ok_or(DecodeError::Truncated)? as usize;
        if code_len > MAX_CODE {
            return Err(DecodeError::TooLarge { what: "code", len: code_len, max: MAX_CODE });
        }
        let mut code = Vec::with_capacity(code_len);
        for _ in 0..code_len {
            code.push(decode_instr(&mut d)?);
        }
        let keys_len = d.u32().ok_or(DecodeError::Truncated)? as usize;
        if keys_len > MAX_KEYS {
            return Err(DecodeError::TooLarge { what: "keys", len: keys_len, max: MAX_KEYS });
        }
        let table_start = bytes.len() - d.remaining();
        for _ in 0..keys_len {
            d.str().ok_or(DecodeError::Truncated)?;
        }
        let table = &bytes[table_start..bytes.len() - d.remaining()];
        let consts_len = d.u32().ok_or(DecodeError::Truncated)? as usize;
        if consts_len > MAX_CONSTS {
            return Err(DecodeError::TooLarge { what: "consts", len: consts_len, max: MAX_CONSTS });
        }
        let mut consts = Vec::with_capacity(consts_len);
        for _ in 0..consts_len {
            let c = d.bytes().ok_or(DecodeError::Truncated)?;
            if c.len() > MAX_CONST_LEN {
                return Err(DecodeError::TooLarge {
                    what: "const",
                    len: c.len(),
                    max: MAX_CONST_LEN,
                });
            }
            consts.push(c.to_vec());
        }
        if !d.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }
        // Static operand validation: jump targets and const indices are
        // compile-time constants, so a decoded program never faults on
        // them at runtime.
        for (at, i) in code.iter().enumerate() {
            match *i {
                Instr::Jump(t) | Instr::Jz(t) if t as usize > code.len() => {
                    return Err(DecodeError::BadJumpTarget { at, target: t });
                }
                Instr::PutData(c) if c as usize >= consts.len() => {
                    return Err(DecodeError::BadConstIndex { at, index: c });
                }
                _ => {}
            }
        }
        let keys = KeyTable { dec: Decoder::new(table), len: keys_len };
        Ok((Program { code, keys: Vec::new(), consts }, keys))
    }

    /// Appends the interned ids of `bytecode`'s key table to `ids`, in
    /// table order; appends nothing when the bytecode does not decode.
    /// The reader [`pbc_types::Transaction::key_ids`] takes.
    pub fn intern_key_table(bytecode: &[u8], ids: &mut Vec<KeyId>) {
        if let Ok((_, keys)) = Program::from_bytes_split(bytecode) {
            KeyId::intern_all(keys, ids);
        }
    }

    /// Worst-case gas of a straight-line run: the sum of every
    /// instruction's cost. An upper bound for loop-free programs (each
    /// instruction executes at most once); compiled legacy op lists use
    /// it to size their gas limits.
    pub fn straight_line_gas(&self) -> u64 {
        self.code.iter().map(gas_cost).sum()
    }
}

/// A program's key table as [`Program::from_bytes_split`] validated it:
/// the entries, in table order, borrowed from the bytecode.
pub struct KeyTable<'a> {
    dec: Decoder<'a>,
    len: usize,
}

impl<'a> Iterator for KeyTable<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.len = self.len.checked_sub(1)?;
        self.dec.str()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for KeyTable<'_> {}

fn encode_instr(i: &Instr, e: &mut Encoder) {
    match *i {
        Instr::Push(v) => {
            e.tag(0).u64(v);
        }
        Instr::Arg(n) => {
            e.tag(1).u32(n as u32);
        }
        Instr::Pop => {
            e.tag(2);
        }
        Instr::Dup => {
            e.tag(3);
        }
        Instr::Swap => {
            e.tag(4);
        }
        Instr::Add => {
            e.tag(5);
        }
        Instr::Sub => {
            e.tag(6);
        }
        Instr::AddSat => {
            e.tag(7);
        }
        Instr::SubSat => {
            e.tag(8);
        }
        Instr::Mul => {
            e.tag(9);
        }
        Instr::Eq => {
            e.tag(10);
        }
        Instr::Lt => {
            e.tag(11);
        }
        Instr::Not => {
            e.tag(12);
        }
        Instr::Jump(t) => {
            e.tag(13).u32(t);
        }
        Instr::Jz(t) => {
            e.tag(14).u32(t);
        }
        Instr::Halt => {
            e.tag(15);
        }
        Instr::Abort(c) => {
            e.tag(16).u32(c);
        }
        Instr::Burn(n) => {
            e.tag(17).u32(n);
        }
        Instr::Get => {
            e.tag(18);
        }
        Instr::Put => {
            e.tag(19);
        }
        Instr::Incr => {
            e.tag(20);
        }
        Instr::Delete => {
            e.tag(21);
        }
        Instr::PutData(c) => {
            e.tag(22).u32(c);
        }
    }
}

fn decode_instr(d: &mut Decoder<'_>) -> Result<Instr, DecodeError> {
    let op = d.tag().ok_or(DecodeError::Truncated)?;
    Ok(match op {
        0 => Instr::Push(d.u64().ok_or(DecodeError::Truncated)?),
        1 => {
            let n = d.u32().ok_or(DecodeError::Truncated)?;
            if n > u16::MAX as u32 {
                return Err(DecodeError::TooLarge {
                    what: "arg-index",
                    len: n as usize,
                    max: u16::MAX as usize,
                });
            }
            Instr::Arg(n as u16)
        }
        2 => Instr::Pop,
        3 => Instr::Dup,
        4 => Instr::Swap,
        5 => Instr::Add,
        6 => Instr::Sub,
        7 => Instr::AddSat,
        8 => Instr::SubSat,
        9 => Instr::Mul,
        10 => Instr::Eq,
        11 => Instr::Lt,
        12 => Instr::Not,
        13 => Instr::Jump(d.u32().ok_or(DecodeError::Truncated)?),
        14 => Instr::Jz(d.u32().ok_or(DecodeError::Truncated)?),
        15 => Instr::Halt,
        16 => Instr::Abort(d.u32().ok_or(DecodeError::Truncated)?),
        17 => Instr::Burn(d.u32().ok_or(DecodeError::Truncated)?),
        18 => Instr::Get,
        19 => Instr::Put,
        20 => Instr::Incr,
        21 => Instr::Delete,
        22 => Instr::PutData(d.u32().ok_or(DecodeError::Truncated)?),
        other => return Err(DecodeError::UnknownOpcode(other)),
    })
}
