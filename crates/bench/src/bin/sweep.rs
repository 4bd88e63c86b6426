//! The two snapshots nothing else measures. Run with
//! `cargo run --release -p pbc-bench --bin sweep -- --e2e|--vm [out.json]`.
//!
//! `sweep --e2e [out.json]` drives the full client path — seeded open-
//! loop arrivals through the bounded ingress queue into consensus and
//! pipeline execution — up an offered-rate ladder for representative
//! `ConsensusKind × ArchKind` combos, detects each curve's saturation
//! knee (Kneedle-lite), asserts pre-knee monotonicity and queue
//! conservation at every point, and snapshots the curves into
//! `BENCH_E2E.json`. All rates are simulator-time, so the file is
//! host-independent. `E2E_SMOKE=1` shrinks the ladder for CI.
//!
//! `sweep --vm [out.json]` sweeps the Blockbench-style VM contract
//! workloads across a footprint-prediction-accuracy ladder, driving the
//! identical transaction stream through OXII (schedules from declared
//! footprints, salvages mispredicts serially) and XOV (declaration-
//! blind endorsement snapshots), asserting queue/gas conservation and
//! the full differential audit at every point, and snapshots the
//! mispredict/abort/out-of-gas curves into `BENCH_VM.json`. `VM_SMOKE=1`
//! shrinks the ladder for CI.
//!
//! Wall-clock numbers live in the client-path benchmark (`benchmark/`)
//! and the Criterion benches, not here.

/// The output path that follows `flag` on the command line, or
/// `default`; `None` if `flag` is absent.
fn out_path(args: &[String], flag: &str, default: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).cloned().unwrap_or_else(|| default.to_string()))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(out) = out_path(&args, "--e2e", "BENCH_E2E.json") {
        pbc_bench::e2e::e2e_bench(&out);
    } else if let Some(out) = out_path(&args, "--vm", "BENCH_VM.json") {
        pbc_bench::vm::vm_bench(&out);
    } else {
        eprintln!("usage: sweep --e2e [BENCH_E2E.json] | --vm [BENCH_VM.json]");
        std::process::exit(2);
    }
}
