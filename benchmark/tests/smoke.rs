//! The harness's own test: `--smoke` runs every workload once untraced
//! (two epochs of one seed, so the determinism self-check runs) and once
//! traced, at quarter horizons, with every correctness gate on.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_pbc-benchmark");

#[test]
fn smoke_passes_every_gate_on_every_workload() {
    let out = Command::new(EXE).arg("--smoke").output().expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "--smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    let out = Command::new(EXE).arg("--manifest").output().expect("the benchmark binary runs");
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed,
        "regenerate with run.sh --manifest"
    );
}
