//! pbc-vm: a deterministic gas-metered stack VM for dynamic-footprint
//! smart contracts.
//!
//! Every workload in the original codebase was a static `Vec<Op>` whose
//! read/write sets were known before execution — which flatters OXII
//! (ParBlockchain's dependency graphs are perfect by construction,
//! Amiri et al. 2019) and understates XOV's stale-read aborts (Fabric,
//! Androulaki et al. 2018). This crate supplies the missing half of the
//! comparison: programs whose footprints are *discovered* at execution
//! time, the way Blockbench-style contracts behave (Dinh et al. 2017).
//!
//! # Determinism argument
//!
//! [`run`] is a pure function of `(program, args, gas_limit, state
//! snapshot)`:
//!
//! * the machine is integer-only (`u64` words, two's-complement views
//!   where sign matters) — no floats, so no platform rounding;
//! * there is no clock, randomness, or ambient I/O — state access goes
//!   exclusively through [`VmHost`], whose implementations read a
//!   versioned snapshot;
//! * every instruction costs ≥ 1 gas, so the gas limit bounds the step
//!   count — execution always terminates (loop fuel);
//! * every abnormal path (stack fault, bad dynamic index, out-of-gas,
//!   contract abort) is a deterministic [`VmStatus`], never a panic.
//!
//! Replicas that agree on the transaction and the state snapshot
//! therefore agree on the result, the gas, and the footprint — the SMR
//! requirement of §2.2 of the survey.
//!
//! # Crate layout
//!
//! * [`program`] — instruction set, gas table, canonical bytecode codec
//!   with typed [`DecodeError`]s;
//! * [`interp`] — the metered interpreter and the [`VmHost`] state
//!   interface that records footprints as a side effect;
//! * [`compile`] — translation of legacy static [`pbc_types::Op`] lists
//!   into bytecode with bit-identical observable behaviour.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compile;
pub mod interp;
pub mod program;

pub use compile::{compile_ops, ABORT_INSUFFICIENT_FUNDS};
pub use interp::{run, run_resolved, Fault, FaultKind, VmHost, VmRun, VmStatus};
pub use program::{
    gas_cost, DecodeError, Instr, KeyTable, Program, BYTECODE_VERSION, MAX_CODE, MAX_CONSTS,
    MAX_CONST_LEN, MAX_KEYS, STACK_MAX,
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A plain in-memory host with read-your-writes semantics and
    /// footprint recording, structurally mirroring the lookup closure
    /// in `pbc-ledger::exec`.
    #[derive(Default)]
    struct MapHost {
        state: HashMap<String, Vec<u8>>,
        writes: Vec<(String, Option<Vec<u8>>)>,
        reads: Vec<String>,
    }

    impl MapHost {
        fn lookup(&mut self, key: &str) -> Option<Vec<u8>> {
            if let Some((_, v)) = self.writes.iter().rev().find(|(k, _)| k == key) {
                return v.clone();
            }
            self.reads.push(key.to_string());
            self.state.get(key).cloned()
        }
    }

    fn as_balance(v: Option<Vec<u8>>) -> u64 {
        match v {
            Some(b) if b.len() >= 8 => u64::from_be_bytes(b[..8].try_into().unwrap()),
            _ => 0,
        }
    }

    impl VmHost for MapHost {
        fn get(&mut self, key: &str) -> u64 {
            let v = self.lookup(key);
            as_balance(v)
        }
        fn put(&mut self, key: &str, value: u64) {
            self.writes.push((key.to_string(), Some(value.to_be_bytes().to_vec())));
        }
        fn put_bytes(&mut self, key: &str, value: &[u8]) {
            self.writes.push((key.to_string(), Some(value.to_vec())));
        }
        fn delete(&mut self, key: &str) {
            self.writes.push((key.to_string(), None));
        }
    }

    fn prog(code: Vec<Instr>, keys: Vec<&str>) -> Program {
        Program { code, keys: keys.into_iter().map(String::from).collect(), consts: vec![] }
    }

    fn run_fresh(p: &Program, args: &[u64], gas: u64) -> (VmRun, MapHost) {
        let mut host = MapHost::default();
        let r = run(p, args, gas, &mut host);
        (r, host)
    }

    // ------------------------------------------------- interpreter

    #[test]
    fn arithmetic_and_stack_discipline() {
        // (7 + 3) * 2 - 5 = 15, left on the stack at halt.
        let p = prog(
            vec![
                Instr::Push(7),
                Instr::Push(3),
                Instr::Add,
                Instr::Push(2),
                Instr::Mul,
                Instr::Push(5),
                Instr::Sub,
                Instr::Push(15),
                Instr::Eq,
                Instr::Jz(11),
                Instr::Halt,
                Instr::Abort(9),
            ],
            vec![],
        );
        let (r, _) = run_fresh(&p, &[], 100);
        assert_eq!(r.status, VmStatus::Halted);
    }

    #[test]
    fn saturating_ops_clamp() {
        let p = prog(vec![Instr::Push(3), Instr::Push(10), Instr::SubSat], vec![]);
        let (r, _) = run_fresh(&p, &[], 100);
        assert_eq!(r.status, VmStatus::Halted);
        let p = prog(vec![Instr::Push(u64::MAX), Instr::Push(1), Instr::AddSat], vec![]);
        assert_eq!(run_fresh(&p, &[], 100).0.status, VmStatus::Halted);
    }

    #[test]
    fn args_are_addressable_and_bounds_checked() {
        let p = prog(vec![Instr::Arg(1)], vec![]);
        let (r, _) = run_fresh(&p, &[10, 20], 100);
        assert_eq!(r.status, VmStatus::Halted);
        let (r, _) = run_fresh(&p, &[10], 100);
        assert_eq!(
            r.status,
            VmStatus::Fault(Fault { pc: 0, kind: FaultKind::ArgIndexOutOfRange(1) })
        );
    }

    #[test]
    fn host_ops_record_footprint_dynamically() {
        // The key written depends on an *argument*: static analysis of
        // the bytecode cannot know the footprint. args[0] selects key 0
        // or key 1.
        let p = prog(vec![Instr::Arg(0), Instr::Push(42), Instr::Put], vec!["a", "b"]);
        let (r, host) = run_fresh(&p, &[1], 100);
        assert_eq!(r.status, VmStatus::Halted);
        assert_eq!(host.writes, vec![("b".to_string(), Some(42u64.to_be_bytes().to_vec()))]);
        assert!(host.reads.is_empty());
    }

    #[test]
    fn incr_matches_static_interpreter_saturation() {
        // Negative delta on a missing key saturates at zero.
        let p = prog(vec![Instr::Push(0), Instr::Push((-5i64) as u64), Instr::Incr], vec!["c"]);
        let (r, host) = run_fresh(&p, &[], 100);
        assert_eq!(r.status, VmStatus::Halted);
        assert_eq!(host.writes, vec![("c".to_string(), Some(0u64.to_be_bytes().to_vec()))]);
        assert_eq!(host.reads, vec!["c".to_string()]);
    }

    #[test]
    fn read_your_writes_suppresses_footprint_reads() {
        let p = prog(
            vec![
                Instr::Push(0),
                Instr::Push(5),
                Instr::Put, // buffer k := 5
                Instr::Push(0),
                Instr::Get, // served from the buffer: no recorded read
                Instr::Pop,
            ],
            vec!["k"],
        );
        let (r, host) = run_fresh(&p, &[], 100);
        assert_eq!(r.status, VmStatus::Halted);
        assert!(host.reads.is_empty(), "buffered read must not hit the store");
    }

    #[test]
    fn gas_exhaustion_is_exact_and_conserving() {
        // An infinite loop: Jump(0). Each iteration costs 1 gas.
        let p = prog(vec![Instr::Jump(0)], vec![]);
        let (r, _) = run_fresh(&p, &[], 1000);
        assert_eq!(r.status, VmStatus::OutOfGas);
        assert!(r.gas_used <= 1000, "gas_used must never exceed the limit");
        assert_eq!(r.gas_used, 1000, "a 1-gas loop should meter the whole budget");
    }

    #[test]
    fn gas_never_exceeds_limit_when_cost_straddles() {
        // Burn(100) costs 101; with 50 gas it must refuse to start the
        // instruction rather than overdraw.
        let p = prog(vec![Instr::Burn(100)], vec![]);
        let (r, _) = run_fresh(&p, &[], 50);
        assert_eq!(r.status, VmStatus::OutOfGas);
        assert_eq!(r.gas_used, 0);
    }

    #[test]
    fn stack_faults_are_reported_not_panics() {
        let (r, _) = run_fresh(&prog(vec![Instr::Pop], vec![]), &[], 10);
        assert_eq!(r.status, VmStatus::Fault(Fault { pc: 0, kind: FaultKind::StackUnderflow }));
        let overflow = prog(vec![Instr::Push(1), Instr::Dup, Instr::Dup, Instr::Jump(1)], vec![]);
        let (r, _) = run_fresh(&overflow, &[], 10_000);
        assert!(matches!(r.status, VmStatus::Fault(Fault { kind: FaultKind::StackOverflow, .. })));
    }

    #[test]
    fn dynamic_key_index_out_of_range_faults() {
        let p = prog(vec![Instr::Push(7), Instr::Get], vec!["only"]);
        let (r, _) = run_fresh(&p, &[], 100);
        assert_eq!(
            r.status,
            VmStatus::Fault(Fault { pc: 1, kind: FaultKind::KeyIndexOutOfRange(7) })
        );
    }

    #[test]
    fn abort_reports_contract_code() {
        let p = prog(vec![Instr::Abort(42)], vec![]);
        let (r, _) = run_fresh(&p, &[], 100);
        assert_eq!(r.status, VmStatus::Aborted(42));
    }

    #[test]
    fn running_off_the_end_halts_cleanly() {
        let (r, _) = run_fresh(&prog(vec![Instr::Push(1)], vec![]), &[], 100);
        assert_eq!(r.status, VmStatus::Halted);
        assert_eq!(r.gas_used, 1);
    }

    #[test]
    fn same_inputs_same_run() {
        let p = compile_ops(&[
            pbc_types::Op::Incr { key: "x".into(), delta: 3 },
            pbc_types::Op::Noop { busy_work: 64 },
            pbc_types::Op::Get { key: "y".into() },
        ]);
        let gas = p.straight_line_gas();
        let (r1, h1) = run_fresh(&p, &[], gas);
        let (r2, h2) = run_fresh(&p, &[], gas);
        assert_eq!(r1, r2);
        assert_eq!(h1.writes, h2.writes);
        assert_eq!(h1.reads, h2.reads);
    }

    // ------------------------------------------------------- codec

    fn sample_program() -> Program {
        Program {
            code: vec![
                Instr::Push(0),
                Instr::Get,
                Instr::Arg(2),
                Instr::Add,
                Instr::Push(0),
                Instr::Swap,
                Instr::Put,
                Instr::Push(1),
                Instr::PutData(0),
                Instr::Jz(11),
                Instr::Abort(3),
                Instr::Burn(17),
                Instr::Halt,
            ],
            keys: vec!["hot".into(), "cold".into()],
            consts: vec![b"payload".to_vec()],
        }
    }

    #[test]
    fn codec_roundtrips_every_instruction() {
        let mut p = sample_program();
        // Touch every opcode at least once.
        p.code.extend([
            Instr::Pop,
            Instr::Dup,
            Instr::Sub,
            Instr::AddSat,
            Instr::SubSat,
            Instr::Mul,
            Instr::Eq,
            Instr::Lt,
            Instr::Not,
            Instr::Jump(0),
            Instr::Incr,
            Instr::Delete,
        ]);
        let bytes = p.to_bytes();
        assert_eq!(Program::from_bytes(&bytes), Ok(p));
    }

    #[test]
    fn decoder_rejects_malformation_at_every_boundary() {
        // Mirrors the `PersistPayload` codec tests: truncation at every
        // prefix length must produce a typed error, never a panic or a
        // silently different program.
        let bytes = sample_program().to_bytes();
        for cut in 0..bytes.len() {
            let r = Program::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "truncation to {cut} bytes decoded: {r:?}");
        }
        // Trailing garbage is rejected, not ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(Program::from_bytes(&padded), Err(DecodeError::TrailingBytes));
        // The empty buffer is truncated, not a valid empty program.
        assert_eq!(Program::from_bytes(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decoder_rejects_bad_version_and_unknown_opcode() {
        let mut bytes = sample_program().to_bytes();
        bytes[0] = 99;
        assert_eq!(Program::from_bytes(&bytes), Err(DecodeError::BadVersion(99)));

        let one_op = Program { code: vec![Instr::Halt], ..Default::default() };
        let mut bytes = one_op.to_bytes();
        // Byte layout: version(1) + code_len(4) + first opcode byte.
        bytes[5] = 0xEE;
        assert_eq!(Program::from_bytes(&bytes), Err(DecodeError::UnknownOpcode(0xEE)));
    }

    #[test]
    fn decoder_rejects_oversized_sections() {
        let mut bytes = Vec::new();
        bytes.push(BYTECODE_VERSION);
        bytes.extend_from_slice(&(MAX_CODE as u32 + 1).to_be_bytes());
        assert_eq!(
            Program::from_bytes(&bytes),
            Err(DecodeError::TooLarge { what: "code", len: MAX_CODE + 1, max: MAX_CODE })
        );
    }

    #[test]
    fn decoder_rejects_static_operand_violations() {
        let p = Program { code: vec![Instr::Jump(2)], ..Default::default() };
        assert_eq!(
            Program::from_bytes(&p.to_bytes()),
            Err(DecodeError::BadJumpTarget { at: 0, target: 2 })
        );
        // Jump target == code length is the clean off-the-end halt.
        let p = Program { code: vec![Instr::Jump(1)], ..Default::default() };
        assert!(Program::from_bytes(&p.to_bytes()).is_ok());
        let p = Program { code: vec![Instr::Push(0), Instr::PutData(0)], ..Default::default() };
        assert_eq!(
            Program::from_bytes(&p.to_bytes()),
            Err(DecodeError::BadConstIndex { at: 1, index: 0 })
        );
    }

    // ---------------------------------------------------- compiler

    #[test]
    fn compiled_transfer_matches_static_semantics() {
        let p = compile_ops(&[pbc_types::Op::Transfer {
            from: "alice".into(),
            to: "bob".into(),
            amount: 30,
        }]);
        let mut host = MapHost::default();
        host.state.insert("alice".into(), 100u64.to_be_bytes().to_vec());
        host.state.insert("bob".into(), 50u64.to_be_bytes().to_vec());
        let r = run(&p, &[], p.straight_line_gas(), &mut host);
        assert_eq!(r.status, VmStatus::Halted);
        assert_eq!(
            host.writes,
            vec![
                ("alice".to_string(), Some(70u64.to_be_bytes().to_vec())),
                ("bob".to_string(), Some(80u64.to_be_bytes().to_vec())),
            ]
        );
        assert_eq!(host.reads, vec!["alice".to_string(), "bob".to_string()]);
    }

    #[test]
    fn compiled_transfer_aborts_on_insufficient_funds() {
        let p = compile_ops(&[pbc_types::Op::Transfer {
            from: "alice".into(),
            to: "bob".into(),
            amount: 1000,
        }]);
        let mut host = MapHost::default();
        host.state.insert("alice".into(), 100u64.to_be_bytes().to_vec());
        let r = run(&p, &[], p.straight_line_gas(), &mut host);
        assert_eq!(r.status, VmStatus::Aborted(ABORT_INSUFFICIENT_FUNDS));
        // Like the static interpreter: the debit-side read happened,
        // nothing was written.
        assert_eq!(host.reads, vec!["alice".to_string()]);
        assert!(host.writes.is_empty());
    }

    #[test]
    fn compiled_self_transfer_conserves_balance() {
        let p = compile_ops(&[pbc_types::Op::Transfer {
            from: "a".into(),
            to: "a".into(),
            amount: 40,
        }]);
        let mut host = MapHost::default();
        host.state.insert("a".into(), 100u64.to_be_bytes().to_vec());
        let r = run(&p, &[], p.straight_line_gas(), &mut host);
        assert_eq!(r.status, VmStatus::Halted);
        // Debit write (60), then credit read served from the buffer
        // (suppressed in the footprint), then credit write (100).
        assert_eq!(host.reads, vec!["a".to_string()]);
        assert_eq!(
            host.writes.last(),
            Some(&("a".to_string(), Some(100u64.to_be_bytes().to_vec())))
        );
    }

    #[test]
    fn compiled_programs_roundtrip_through_bytecode() {
        let ops = vec![
            pbc_types::Op::Get { key: "g".into() },
            pbc_types::Op::Put { key: "p".into(), value: bytes::Bytes::from_static(b"v") },
            pbc_types::Op::Incr { key: "i".into(), delta: -9 },
            pbc_types::Op::Transfer { from: "f".into(), to: "t".into(), amount: 5 },
            pbc_types::Op::Noop { busy_work: 3 },
            pbc_types::Op::Delete { key: "d".into() },
        ];
        let p = compile_ops(&ops);
        assert_eq!(Program::from_bytes(&p.to_bytes()), Ok(p));
    }

    // -------------------------------------------------------- fuzz

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Seeded fuzz: arbitrary byte soup must decode to a typed error
        /// or a program that survives re-encoding — never panic.
        #[test]
        fn decoder_never_panics_on_random_bytes(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
            if let Ok(p) = Program::from_bytes(&raw) {
                // Anything accepted must be canonical: it re-encodes to
                // the exact input bytes.
                prop_assert_eq!(p.to_bytes(), raw);
            }
        }

        /// Valid programs survive roundtrip; every truncation of their
        /// encoding is rejected.
        #[test]
        fn random_programs_roundtrip_and_reject_truncation(
            raw in proptest::collection::vec((0u8..23, any::<u64>()), 0..40),
            keys in 0usize..4,
            cut_frac in 0u64..1000,
        ) {
            let keys: Vec<String> = (0..keys).map(|i| format!("k{i}")).collect();
            let consts = vec![b"c0".to_vec(), b"c1".to_vec()];
            let code: Vec<Instr> = raw
                .iter()
                .map(|&(op, operand)| match op {
                    0 => Instr::Push(operand),
                    1 => Instr::Arg((operand % 8) as u16),
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
                    13 => Instr::Jump((operand % (raw.len() as u64 + 1)) as u32),
                    14 => Instr::Jz((operand % (raw.len() as u64 + 1)) as u32),
                    15 => Instr::Halt,
                    16 => Instr::Abort(operand as u32),
                    17 => Instr::Burn((operand % 64) as u32),
                    18 => Instr::Get,
                    19 => Instr::Put,
                    20 => Instr::Incr,
                    21 => Instr::Delete,
                    _ => Instr::PutData((operand % 2) as u32),
                })
                .collect();
            let p = Program { code, keys, consts };
            let bytes = p.to_bytes();
            prop_assert_eq!(Program::from_bytes(&bytes), Ok(p.clone()));
            let cut = (cut_frac as usize * bytes.len() / 1000).min(bytes.len().saturating_sub(1));
            prop_assert!(Program::from_bytes(&bytes[..cut]).is_err());

            // And however the program behaves, the interpreter is total:
            // bounded gas, typed status, gas_used <= limit.
            let mut host = MapHost::default();
            let r = run(&p, &[1, 2, 3], 10_000, &mut host);
            prop_assert!(r.gas_used <= 10_000);
            let _ = r.status;
        }
    }
}
