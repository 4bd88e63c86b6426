//! Shared helpers for the experiment benches (E1–E13).
//!
//! Each bench target under `benches/` corresponds to one experiment in
//! the repository's `EXPERIMENTS.md`, and each experiment backs a
//! quantitative claim from the paper — the Figure 1 workload breakdown
//! (§1), the architecture comparisons of §2.3.3, the sharding and
//! cross-shard coordination costs of §2.3.4. Besides Criterion timings,
//! every bench prints the experiment's series (the "rows" a paper table
//! would hold) so `cargo bench` output doubles as the reproduction
//! record.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod persist;
pub mod simcore;
pub mod vm;

use pbc_arch::{BlockOutcome, ExecutionPipeline};
use pbc_types::Transaction;

/// Prints a table header for an experiment.
pub fn header(experiment: &str, claim: &str) {
    println!("\n================================================================");
    println!("{experiment}");
    println!("claim under test: {claim}");
    println!("================================================================");
}

/// Runs a pipeline over blocks of `block_size` and returns aggregate
/// outcome counts `(committed, aborted, blocks)`.
pub fn drive_pipeline(
    pipeline: &mut dyn ExecutionPipeline,
    txs: &[Transaction],
    block_size: usize,
) -> (usize, usize, usize) {
    let (c, a, b, _) = drive_pipeline_steps(pipeline, txs, block_size);
    (c, a, b)
}

/// Like [`drive_pipeline`] but also returns the summed critical path
/// (`sequential_steps` over all blocks) — the host-independent
/// parallelism metric: on a machine with enough cores, wall time is
/// proportional to this, not to the transaction count.
pub fn drive_pipeline_steps(
    pipeline: &mut dyn ExecutionPipeline,
    txs: &[Transaction],
    block_size: usize,
) -> (usize, usize, usize, usize) {
    let mut committed = 0;
    let mut aborted = 0;
    let mut blocks = 0;
    let mut steps = 0;
    for chunk in txs.chunks(block_size) {
        let BlockOutcome { committed: c, aborted: a, sequential_steps, .. } =
            pipeline.process_block(chunk.to_vec());
        committed += c.len();
        aborted += a.len();
        steps += sequential_steps;
        blocks += 1;
    }
    (committed, aborted, blocks, steps)
}

/// Formats a throughput-ish number with thousands separators.
pub fn fmt_u64(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}
