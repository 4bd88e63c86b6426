//! Nemesis chaos demo — reproduce a full fault timeline from one seed.
//!
//! Expands a seed into a deterministic chaos schedule (partitions,
//! crashes with and without memory loss, link degradations), drives a
//! 4-node PBFT cluster through it with safety invariants checked after
//! every step, and prints the timeline plus the final verdict. The same
//! seed always produces the same timeline and the same event order, so
//! any violation printed here is a one-line reproduction recipe.
//!
//! ```text
//! cargo run --example nemesis_chaos            # default seed
//! cargo run --example nemesis_chaos -- 1234    # your seed
//! ```

use pbc_consensus::pbft::{PbftConfig, PbftMsg, PbftReplica};
use pbc_sim::{InvariantChecker, Nemesis, NemesisConfig, Network, NetworkConfig};

fn main() {
    let seed: u64 =
        std::env::args().nth(1).map(|s| s.parse().expect("seed must be a u64")).unwrap_or(42);

    let n = 4;
    println!("=== Nemesis chaos: {n}-node PBFT, seed {seed} ===\n");

    let cfg = PbftConfig::new(n);
    let actors: Vec<PbftReplica<u64>> = (0..n).map(|_| PbftReplica::new(cfg.clone())).collect();
    let mut net = Network::new(actors, NetworkConfig { seed, ..Default::default() });

    // Warm-up: decide a few requests on a healthy cluster.
    for p in 1..=5u64 {
        for i in 0..n {
            net.inject(0, i, PbftMsg::Request(p), 1);
        }
    }
    net.run_until(600_000);

    let views = |net: &Network<PbftReplica<u64>>| -> Vec<Vec<(u64, u64)>> {
        (0..net.len())
            .map(|i| {
                net.actor(i)
                    .log
                    .delivered()
                    .iter()
                    .map(|(s, p, _)| (*s, pbc_consensus::Payload::digest_u64(p)))
                    .collect()
            })
            .collect()
    };
    let mut checker = InvariantChecker::new(n);
    checker.observe(&views(&net)).expect("healthy warm-up");
    println!("warm-up: {} slots decided on a healthy cluster", checker.total_decided());

    let ncfg = NemesisConfig::new(seed).with_steps(12).with_amnesia();
    let nemesis = Nemesis::generate(n, &ncfg);
    println!("\nschedule ({} ops, quorum guard: at most 1 node down):", nemesis.ops().len());
    for (i, op) in nemesis.ops().iter().enumerate() {
        println!("  {i:>2}: {op:?}");
    }

    println!("\ndriving, checking agreement + rewrite invariants after every op ...");
    match nemesis.drive(&mut net, 400_000, &mut checker, views) {
        Ok(()) => println!("no safety violation during the schedule"),
        Err(v) => {
            println!("SAFETY VIOLATION: {v}");
            println!("reproduce with: cargo run --example nemesis_chaos -- {seed}");
            std::process::exit(1);
        }
    }

    // The schedule ends fully healed: the cluster must still be live.
    for p in 6..=8u64 {
        for i in 0..n {
            net.inject(0, i, PbftMsg::Request(p), 1);
        }
    }
    net.run_until(net.now() + 4_000_000);
    checker.observe(&views(&net)).expect("post-chaos safety");

    println!("\nafter the final heal: {} slots decided in total", checker.total_decided());
    checker.check_progress(6).expect("cluster must make progress once healed");
    println!("verdict: safety and liveness held through the whole timeline ✓");
    println!("replay me: cargo run --example nemesis_chaos -- {seed}");
}
