//! Seeded chaos schedules: randomized fault timelines with a quorum
//! guard, in the style of Jepsen's nemesis process.
//!
//! A [`Nemesis`] deterministically expands a seed into a sequence of
//! [`NemesisOp`]s — partitions, crashes (with or without amnesia),
//! recoveries, link degradations — that never take more than
//! `max_down` nodes out of service at once, so a correct protocol is
//! *expected* to keep its safety invariants throughout and to make
//! progress once the schedule's final heal restores the cluster.
//! Re-running the same seed reproduces the same timeline exactly, which
//! turns any invariant violation into a one-line reproduction recipe.
//!
//! # Example
//!
//! Expanding a seed into a schedule is pure — no network required — so
//! a failing seed can be inspected before it is replayed:
//!
//! ```
//! use pbc_sim::{Nemesis, NemesisConfig};
//!
//! let mut cfg = NemesisConfig::new(1234).with_steps(8);
//! cfg.amnesia = true; // allow crash-with-memory-loss ops
//! let nemesis = Nemesis::generate(5, &cfg);
//!
//! // The same seed always expands to the same timeline.
//! assert_eq!(nemesis.ops(), Nemesis::generate(5, &cfg).ops());
//! // The quorum guard holds: the schedule ends fully healed.
//! assert!(!nemesis.ops().is_empty());
//! for op in nemesis.ops() {
//!     println!("{op:?}");
//! }
//! ```
//!
//! Driving a network through the schedule ([`Nemesis::drive`]) checks
//! the supplied invariants after every op; on a violation,
//! [`violation_report`] renders the last trace events into a post-mortem
//! string when a [`pbc_trace`] sink is installed.

use crate::actor::{Actor, Durable};
use crate::fault::LinkFault;
use crate::invariants::{DecidedEntry, InvariantChecker, Violation};
use crate::network::Network;
use crate::{NodeIdx, SimTime};
use pbc_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step in a chaos timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum NemesisOp {
    /// Split the cluster into the given groups (cross-group traffic
    /// drops).
    Partition {
        /// Disjoint groups covering every node.
        groups: Vec<Vec<NodeIdx>>,
    },
    /// Remove any active partition.
    HealPartition,
    /// Crash-stop a node (RAM intact; resume via [`NemesisOp::Recover`]).
    Crash {
        /// The node to stop.
        node: NodeIdx,
    },
    /// Resume a node crashed with its memory intact.
    Recover {
        /// The node to resume.
        node: NodeIdx,
    },
    /// Crash a node **losing all volatile state**; it must be brought
    /// back with [`NemesisOp::Restart`]. Requires a [`Durable`] actor.
    CrashAmnesia {
        /// The node to crash.
        node: NodeIdx,
    },
    /// Restart a node rebuilt from stable storage (re-runs `on_start`).
    Restart {
        /// The node to restart.
        node: NodeIdx,
    },
    /// Degrade one directed link with the given fault.
    DegradeLink {
        /// Sending side of the link.
        from: NodeIdx,
        /// Receiving side of the link.
        to: NodeIdx,
        /// The fault to install.
        fault: LinkFault,
    },
    /// Restore every link to the model's default behaviour.
    HealLinks,
    /// Make the next `count` fsyncs on `node`'s stable store fail,
    /// leaving recently written state vulnerable to the next crash. A
    /// no-op at the plain simulation level — harnesses that attach a
    /// real store (`pbc-store`) intercept it.
    FailSyncs {
        /// The node whose disk misbehaves.
        node: NodeIdx,
        /// How many consecutive syncs fail.
        count: u32,
    },
    /// Flip a bit in the tail of `node`'s write-ahead log while the
    /// node is down — the "disk rotted between crash and restart"
    /// fault. No-op without an attached store.
    CorruptWalTail {
        /// The (currently crashed) node whose WAL tail rots.
        node: NodeIdx,
    },
    /// Flip a bit in one of `node`'s cold (sealed) block segments.
    /// No-op without an attached store.
    BitRot {
        /// The node whose cold storage rots.
        node: NodeIdx,
    },
}

impl NemesisOp {
    /// Short label for trace events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            NemesisOp::Partition { .. } => "partition",
            NemesisOp::HealPartition => "heal_partition",
            NemesisOp::Crash { .. } => "crash",
            NemesisOp::Recover { .. } => "recover",
            NemesisOp::CrashAmnesia { .. } => "crash_amnesia",
            NemesisOp::Restart { .. } => "restart",
            NemesisOp::DegradeLink { .. } => "degrade_link",
            NemesisOp::HealLinks => "heal_links",
            NemesisOp::FailSyncs { .. } => "fail_syncs",
            NemesisOp::CorruptWalTail { .. } => "corrupt_wal_tail",
            NemesisOp::BitRot { .. } => "bit_rot",
        }
    }

    /// The node the op acts on, or `usize::MAX` for cluster-wide ops
    /// (used to label [`TraceEvent::NemesisOp`] records).
    pub fn primary_node(&self) -> NodeIdx {
        match self {
            NemesisOp::Crash { node }
            | NemesisOp::Recover { node }
            | NemesisOp::CrashAmnesia { node }
            | NemesisOp::Restart { node }
            | NemesisOp::FailSyncs { node, .. }
            | NemesisOp::CorruptWalTail { node }
            | NemesisOp::BitRot { node } => *node,
            NemesisOp::DegradeLink { from, .. } => *from,
            _ => usize::MAX,
        }
    }

    /// Records this op in the installed trace sink at tick `now`.
    pub fn trace(&self, now: SimTime) {
        pbc_trace::emit(now, || TraceEvent::NemesisOp {
            op: self.label(),
            node: self.primary_node(),
        });
    }

    /// Applies this op to a network of plain actors: the one interpreter
    /// of the network ops, which every ordering cluster delegates to.
    ///
    /// # Panics
    /// Panics on [`NemesisOp::CrashAmnesia`] — amnesia crashes need a
    /// [`Durable`] actor; use [`NemesisOp::apply_durable`] (schedules
    /// generated with `amnesia: false` never contain them).
    pub fn apply<A: Actor>(&self, net: &mut Network<A>) {
        self.trace(net.now());
        match self {
            NemesisOp::Partition { groups } => net.partition(groups),
            NemesisOp::HealPartition => net.heal_partition(),
            NemesisOp::Crash { node } => net.crash(*node),
            NemesisOp::Recover { node } => net.recover(*node),
            NemesisOp::CrashAmnesia { .. } => {
                panic!("CrashAmnesia requires a Durable actor; use apply_durable")
            }
            NemesisOp::Restart { node } => net.restart(*node),
            NemesisOp::DegradeLink { from, to, fault } => {
                net.fault_model_mut().set_link(*from, *to, *fault);
            }
            NemesisOp::HealLinks => net.fault_model_mut().heal_all(),
            // Disk faults are no-ops on a bare network: there is no
            // stable store to damage. Harnesses that wire actors over a
            // real store (pbc-consensus `DurableNet`) intercept these
            // before they reach here.
            NemesisOp::FailSyncs { .. }
            | NemesisOp::CorruptWalTail { .. }
            | NemesisOp::BitRot { .. } => {}
        }
    }

    /// Applies this op to a network of [`Durable`] actors (all ops
    /// supported, including amnesia crashes).
    pub fn apply_durable<A: Durable>(&self, net: &mut Network<A>) {
        match self {
            NemesisOp::CrashAmnesia { node } => {
                self.trace(net.now());
                net.crash_and_lose_memory(*node);
            }
            other => other.apply(net),
        }
    }
}

/// Parameters of a chaos timeline.
#[derive(Clone, Debug)]
pub struct NemesisConfig {
    /// Seed expanding deterministically into the op sequence.
    pub seed: u64,
    /// Number of randomized fault steps (healing steps are appended on
    /// top so the schedule always ends with a whole cluster).
    pub steps: usize,
    /// Maximum nodes simultaneously unavailable (crashed or isolated in
    /// a minority partition group). Set to the protocol's fault budget
    /// `f` to keep safety *and* eventual progress expectations valid.
    pub max_down: usize,
    /// Allow [`NemesisOp::CrashAmnesia`] (requires [`Durable`] actors).
    pub amnesia: bool,
    /// Allow per-link degradations (loss, duplication, delay spikes,
    /// reordering).
    pub link_faults: bool,
    /// Allow network partitions.
    pub partitions: bool,
    /// Allow disk faults ([`NemesisOp::FailSyncs`],
    /// [`NemesisOp::CorruptWalTail`], [`NemesisOp::BitRot`]). Only
    /// meaningful for harnesses with an attached stable store; no-ops
    /// elsewhere.
    pub disk_faults: bool,
}

impl NemesisConfig {
    /// A default chaos mix: 12 steps, partitions and link faults on,
    /// amnesia off, at most one node down at a time.
    pub fn new(seed: u64) -> Self {
        NemesisConfig {
            seed,
            steps: 12,
            max_down: 1,
            amnesia: false,
            link_faults: true,
            partitions: true,
            disk_faults: false,
        }
    }

    /// Enables amnesia crashes (schedule becomes `Durable`-only).
    pub fn with_amnesia(mut self) -> Self {
        self.amnesia = true;
        self
    }

    /// Enables disk faults (failed syncs, WAL-tail rot, segment bit
    /// rot). Pair with a store-attached harness; bare networks treat
    /// them as no-ops.
    pub fn with_disk_faults(mut self) -> Self {
        self.disk_faults = true;
        self
    }

    /// Sets the fault budget.
    pub fn with_max_down(mut self, max_down: usize) -> Self {
        self.max_down = max_down;
        self
    }

    /// Sets the number of randomized steps.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }
}

/// Renders a violation report embedding the most recent `window` trace
/// events (oldest first) from the installed [`pbc_trace`] sink. With
/// tracing disabled the report degrades to the bare violation message —
/// install a sink (`pbc_trace::install`) before driving the nemesis to
/// get the causal timeline.
pub fn violation_report(violation: &Violation, window: usize) -> String {
    let recent = pbc_trace::recent(window);
    if recent.is_empty() {
        return format!("invariant violated: {violation}\n(no trace sink installed)");
    }
    pbc_trace::postmortem::render(&format!("invariant violated: {violation}"), &recent)
}

/// Which way a node is currently down, for matching the recovery op.
#[derive(Clone, Copy, PartialEq)]
enum Down {
    Stop,
    Amnesia,
}

/// A deterministic chaos timeline.
#[derive(Clone, Debug)]
pub struct Nemesis {
    ops: Vec<NemesisOp>,
}

impl Nemesis {
    /// Expands `config.seed` into a timeline for an `n`-node cluster.
    ///
    /// Invariants of the generated schedule:
    /// * at every point, crashed nodes plus the smallest partition
    ///   group's healthy members number at most `config.max_down`;
    /// * crashes and partitions are never active at the same time (their
    ///   combined unavailability would be hard to budget);
    /// * every `CrashAmnesia` is eventually matched by a `Restart`,
    ///   every `Crash` by a `Recover`;
    /// * the schedule ends fully healed: no partition, no link faults,
    ///   all nodes up.
    ///
    /// # Panics
    /// Panics if `n < 2` or `config.max_down == 0`.
    pub fn generate(n: usize, config: &NemesisConfig) -> Self {
        assert!(n >= 2, "nemesis needs at least two nodes");
        assert!(config.max_down >= 1, "max_down must be at least 1");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x004e_454d_4553_4953); // "NEMESIS"
        let mut ops = Vec::new();
        let mut down: Vec<(NodeIdx, Down)> = Vec::new();
        let mut partitioned = false;
        let mut degraded = false;

        // Candidate op kinds, re-evaluated each step against the current
        // fault state so the budget is respected by construction.
        #[derive(Clone, Copy)]
        enum Kind {
            Crash,
            CrashAmnesia,
            Bring, // recover or restart, matching how the node went down
            Part,
            HealPart,
            Degrade,
            HealLinks,
            FailSyncs,      // an up node's disk starts eating fsyncs
            CorruptWalTail, // a crashed node's WAL tail rots before restart
            BitRot,         // any node's cold segments rot
        }

        for _ in 0..config.steps {
            let mut kinds: Vec<Kind> = Vec::new();
            if !partitioned && down.len() < config.max_down {
                kinds.push(Kind::Crash);
                if config.amnesia {
                    kinds.push(Kind::CrashAmnesia);
                }
            }
            if !down.is_empty() {
                kinds.push(Kind::Bring);
            }
            if config.partitions && !partitioned && down.is_empty() && config.max_down >= 1 {
                kinds.push(Kind::Part);
            }
            if partitioned {
                kinds.push(Kind::HealPart);
            }
            if config.link_faults {
                kinds.push(Kind::Degrade);
            }
            if degraded {
                kinds.push(Kind::HealLinks);
            }
            if config.disk_faults {
                if down.len() < n {
                    kinds.push(Kind::FailSyncs);
                }
                kinds.push(Kind::BitRot);
                if down.iter().any(|(_, how)| *how == Down::Amnesia) {
                    kinds.push(Kind::CorruptWalTail);
                }
            }
            if kinds.is_empty() {
                continue;
            }
            let kind = kinds[rng.gen_range(0..kinds.len())];
            match kind {
                Kind::Crash | Kind::CrashAmnesia => {
                    let up: Vec<NodeIdx> =
                        (0..n).filter(|i| down.iter().all(|(d, _)| d != i)).collect();
                    let node = up[rng.gen_range(0..up.len())];
                    match kind {
                        Kind::Crash => {
                            down.push((node, Down::Stop));
                            ops.push(NemesisOp::Crash { node });
                        }
                        _ => {
                            down.push((node, Down::Amnesia));
                            ops.push(NemesisOp::CrashAmnesia { node });
                        }
                    }
                }
                Kind::Bring => {
                    let idx = rng.gen_range(0..down.len());
                    let (node, how) = down.swap_remove(idx);
                    ops.push(match how {
                        Down::Stop => NemesisOp::Recover { node },
                        Down::Amnesia => NemesisOp::Restart { node },
                    });
                }
                Kind::Part => {
                    // Isolate a minority of at most `max_down` nodes.
                    let m = rng.gen_range(1..=config.max_down.min(n - 1));
                    let mut pool: Vec<NodeIdx> = (0..n).collect();
                    for i in 0..m {
                        let j = rng.gen_range(i..pool.len());
                        pool.swap(i, j);
                    }
                    let mut minority = pool[..m].to_vec();
                    minority.sort_unstable();
                    let majority: Vec<NodeIdx> = (0..n).filter(|i| !minority.contains(i)).collect();
                    partitioned = true;
                    ops.push(NemesisOp::Partition { groups: vec![majority, minority] });
                }
                Kind::HealPart => {
                    partitioned = false;
                    ops.push(NemesisOp::HealPartition);
                }
                Kind::Degrade => {
                    let from = rng.gen_range(0..n);
                    let mut to = rng.gen_range(0..n - 1);
                    if to >= from {
                        to += 1;
                    }
                    let fault = match rng.gen_range(0..4u32) {
                        0 => LinkFault::lossy(rng.gen_range(0.1..0.5)),
                        1 => LinkFault::duplicating(rng.gen_range(0.1..0.5)),
                        2 => LinkFault::spiky(rng.gen_range(0.1..0.5), 5_000),
                        _ => LinkFault::reordering(rng.gen_range(0.1..0.5)),
                    };
                    degraded = true;
                    ops.push(NemesisOp::DegradeLink { from, to, fault });
                }
                Kind::HealLinks => {
                    degraded = false;
                    ops.push(NemesisOp::HealLinks);
                }
                Kind::FailSyncs => {
                    let up: Vec<NodeIdx> =
                        (0..n).filter(|i| down.iter().all(|(d, _)| d != i)).collect();
                    let node = up[rng.gen_range(0..up.len())];
                    let count = rng.gen_range(1..=3);
                    ops.push(NemesisOp::FailSyncs { node, count });
                }
                Kind::CorruptWalTail => {
                    let candidates: Vec<NodeIdx> = down
                        .iter()
                        .filter(|(_, how)| *how == Down::Amnesia)
                        .map(|(d, _)| *d)
                        .collect();
                    let node = candidates[rng.gen_range(0..candidates.len())];
                    ops.push(NemesisOp::CorruptWalTail { node });
                }
                Kind::BitRot => {
                    let node = rng.gen_range(0..n);
                    ops.push(NemesisOp::BitRot { node });
                }
            }
        }

        // Final heal: the timeline always hands back a whole cluster.
        if partitioned {
            ops.push(NemesisOp::HealPartition);
        }
        if degraded {
            ops.push(NemesisOp::HealLinks);
        }
        for (node, how) in down.drain(..) {
            ops.push(match how {
                Down::Stop => NemesisOp::Recover { node },
                Down::Amnesia => NemesisOp::Restart { node },
            });
        }
        Nemesis { ops }
    }

    /// The full timeline, in execution order.
    pub fn ops(&self) -> &[NemesisOp] {
        &self.ops
    }

    /// Drives a network of [`Durable`] actors through the timeline
    /// (amnesia crashes included): apply an op, run `op_gap` ticks of
    /// simulation, snapshot every node's decided view via `views`, feed
    /// it to the checker; stop at the first violation. A final settling
    /// window of `4 * op_gap` runs after the last (healing) op before
    /// the last observation.
    pub fn drive<A, F>(
        &self,
        net: &mut Network<A>,
        op_gap: SimTime,
        checker: &mut InvariantChecker,
        mut views: F,
    ) -> Result<(), Violation>
    where
        A: Durable,
        F: FnMut(&Network<A>) -> Vec<Vec<DecidedEntry>>,
    {
        for op in &self.ops {
            op.apply_durable(net);
            let deadline = net.now() + op_gap;
            net.run_until(deadline);
            checker.observe(&views(net))?;
        }
        let deadline = net.now() + 4 * op_gap;
        net.run_until(deadline);
        checker.observe(&views(net))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_cfg(seed: u64) -> NemesisConfig {
        NemesisConfig::new(seed).with_amnesia().with_steps(40).with_max_down(2)
    }

    /// Replays a schedule against a model of cluster availability,
    /// returning the worst-case simultaneous unavailability.
    fn max_unavailable(n: usize, ops: &[NemesisOp]) -> usize {
        let mut down: Vec<NodeIdx> = Vec::new();
        let mut minority: Vec<NodeIdx> = Vec::new();
        let mut worst = 0;
        for op in ops {
            match op {
                NemesisOp::Crash { node } | NemesisOp::CrashAmnesia { node } => down.push(*node),
                NemesisOp::Recover { node } | NemesisOp::Restart { node } => {
                    down.retain(|d| d != node)
                }
                NemesisOp::Partition { groups } => {
                    minority = groups.iter().min_by_key(|g| g.len()).cloned().unwrap_or_default();
                }
                NemesisOp::HealPartition => minority.clear(),
                _ => {}
            }
            let mut unavailable: Vec<NodeIdx> = down.clone();
            for m in &minority {
                if !unavailable.contains(m) {
                    unavailable.push(*m);
                }
            }
            worst = worst.max(unavailable.len());
            assert!(down.len() <= n);
        }
        worst
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Nemesis::generate(5, &chaos_cfg(7));
        let b = Nemesis::generate(5, &chaos_cfg(7));
        assert_eq!(a.ops(), b.ops());
        assert!(!a.ops().is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Nemesis::generate(5, &chaos_cfg(1));
        let b = Nemesis::generate(5, &chaos_cfg(2));
        assert_ne!(a.ops(), b.ops());
    }

    #[test]
    fn quorum_guard_holds_across_seeds() {
        for seed in 0..50 {
            let cfg = chaos_cfg(seed);
            let nemesis = Nemesis::generate(7, &cfg);
            let worst = max_unavailable(7, nemesis.ops());
            assert!(
                worst <= cfg.max_down,
                "seed {seed}: {worst} nodes unavailable at once (budget {})",
                cfg.max_down
            );
        }
    }

    #[test]
    fn schedule_ends_fully_healed() {
        for seed in 0..50 {
            let nemesis = Nemesis::generate(5, &chaos_cfg(seed));
            let mut down: Vec<NodeIdx> = Vec::new();
            let mut partitioned = false;
            let mut degraded = false;
            for op in nemesis.ops() {
                match op {
                    NemesisOp::Crash { node } | NemesisOp::CrashAmnesia { node } => {
                        down.push(*node)
                    }
                    NemesisOp::Recover { node } | NemesisOp::Restart { node } => {
                        down.retain(|d| d != node)
                    }
                    NemesisOp::Partition { .. } => partitioned = true,
                    NemesisOp::HealPartition => partitioned = false,
                    NemesisOp::DegradeLink { .. } => degraded = true,
                    NemesisOp::HealLinks => degraded = false,
                    // Disk faults don't change availability state.
                    NemesisOp::FailSyncs { .. }
                    | NemesisOp::CorruptWalTail { .. }
                    | NemesisOp::BitRot { .. } => {}
                }
            }
            assert!(down.is_empty(), "seed {seed}: nodes left down: {down:?}");
            assert!(!partitioned, "seed {seed}: partition left active");
            assert!(!degraded, "seed {seed}: links left degraded");
        }
    }

    #[test]
    fn recovery_matches_crash_kind() {
        for seed in 0..50 {
            let nemesis = Nemesis::generate(5, &chaos_cfg(seed));
            let mut how = std::collections::HashMap::new();
            for op in nemesis.ops() {
                match op {
                    NemesisOp::Crash { node } => {
                        how.insert(*node, "stop");
                    }
                    NemesisOp::CrashAmnesia { node } => {
                        how.insert(*node, "amnesia");
                    }
                    NemesisOp::Recover { node } => {
                        assert_eq!(how.remove(node), Some("stop"), "seed {seed}");
                    }
                    NemesisOp::Restart { node } => {
                        assert_eq!(how.remove(node), Some("amnesia"), "seed {seed}");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn no_amnesia_ops_unless_enabled() {
        for seed in 0..20 {
            let cfg = NemesisConfig::new(seed).with_steps(30);
            let nemesis = Nemesis::generate(5, &cfg);
            assert!(
                !nemesis.ops().iter().any(|op| matches!(op, NemesisOp::CrashAmnesia { .. })),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn no_disk_ops_unless_enabled() {
        for seed in 0..20 {
            let nemesis = Nemesis::generate(5, &chaos_cfg(seed));
            assert!(
                !nemesis.ops().iter().any(|op| matches!(
                    op,
                    NemesisOp::FailSyncs { .. }
                        | NemesisOp::CorruptWalTail { .. }
                        | NemesisOp::BitRot { .. }
                )),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn disk_ops_generated_and_corrupt_wal_targets_a_down_node() {
        let mut seen_disk = false;
        for seed in 0..30 {
            let cfg = chaos_cfg(seed).with_disk_faults();
            let nemesis = Nemesis::generate(5, &cfg);
            let mut amnesiac_down: Vec<NodeIdx> = Vec::new();
            for op in nemesis.ops() {
                match op {
                    NemesisOp::CrashAmnesia { node } => amnesiac_down.push(*node),
                    NemesisOp::Restart { node } => amnesiac_down.retain(|d| d != node),
                    NemesisOp::CorruptWalTail { node } => {
                        seen_disk = true;
                        assert!(
                            amnesiac_down.contains(node),
                            "seed {seed}: WAL-tail rot must hit a crashed node, got {node}"
                        );
                    }
                    NemesisOp::FailSyncs { count, .. } => {
                        seen_disk = true;
                        assert!((1..=3).contains(count), "seed {seed}");
                    }
                    NemesisOp::BitRot { .. } => seen_disk = true,
                    _ => {}
                }
            }
        }
        assert!(seen_disk, "30 seeds with disk faults on must generate some disk op");
    }

    #[test]
    fn partitions_respect_budget() {
        for seed in 0..30 {
            let cfg = chaos_cfg(seed);
            let nemesis = Nemesis::generate(7, &cfg);
            for op in nemesis.ops() {
                if let NemesisOp::Partition { groups } = op {
                    let all: usize = groups.iter().map(|g| g.len()).sum();
                    assert_eq!(all, 7, "groups must cover the cluster");
                    let smallest = groups.iter().map(|g| g.len()).min().unwrap();
                    assert!(smallest <= cfg.max_down, "seed {seed}");
                }
            }
        }
    }
}
