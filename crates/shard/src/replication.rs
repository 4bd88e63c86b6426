//! Real replication under the shards: every cluster can run a consensus
//! group through the generic ordering layer (§2.3.4).
//!
//! The surveyed sharded systems put a BFT/CFT replica group under each
//! shard; earlier revisions of this crate modelled that group as a
//! single-copy ledger plus an *abstract* per-round cost. A
//! [`ConsensusGroup`] replaces the abstraction with an actual simulated
//! replica group — any protocol in the `pbc-consensus` ordering
//! registry, selectable per cluster — so intra-shard versus cross-shard
//! decide latency is **measured** from consensus runs rather than
//! asserted from a formula. The abstract `elapsed` accounting is kept
//! untouched alongside (it backs the E8/E9 comparative sweeps); the
//! measured tick counts land in the `*_decide` fields of
//! [`crate::cluster::ShardStats`].

use pbc_consensus::{cluster, OrderingCluster};
use pbc_sim::{NetworkConfig, SimTime};

/// Event budget for ordering a single command; generous enough for any
/// registered protocol to decide one slot from a cold start.
const ORDER_BUDGET: u64 = 200_000;

/// A replica group ordering one shard's commands.
///
/// Commands are opaque `u64` digests; the group tags each with a serial
/// so repeated digests stay distinguishable in the protocol's log.
pub struct ConsensusGroup {
    cluster: Box<dyn OrderingCluster<u64>>,
    replicas: usize,
    submitted: u64,
}

impl std::fmt::Debug for ConsensusGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsensusGroup")
            .field("protocol", &self.cluster.protocol())
            .field("replicas", &self.replicas)
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl ConsensusGroup {
    /// A started `replicas`-node group running `proto` (any name in the
    /// `pbc-consensus` ordering registry).
    ///
    /// # Panics
    /// Panics if `proto` is not a registered protocol.
    pub fn new(proto: &str, replicas: usize, seed: u64) -> Self {
        let cfg = NetworkConfig { seed, ..Default::default() };
        let cluster = cluster::<u64>(proto, replicas, cfg)
            .unwrap_or_else(|| panic!("unknown ordering protocol {proto:?}"));
        ConsensusGroup { cluster, replicas, submitted: 0 }
    }

    /// Orders one command through the group's consensus and returns the
    /// measured decide latency in simulation ticks (submission →
    /// decision on the first alive replica).
    ///
    /// # Panics
    /// Panics, naming the protocol, if the group fails to decide the
    /// command within its event budget: a latency read off a stalled
    /// group would be the previous command's.
    pub fn order(&mut self, digest: u64) -> SimTime {
        let cmd = (self.submitted << 32) ^ (digest & 0xffff_ffff);
        let t0 = self.cluster.now();
        self.cluster.submit(cmd);
        self.submitted += 1;
        let decided = self.cluster.run_until_decided(self.submitted as usize, ORDER_BUDGET);
        assert!(decided, "{} group stalled ordering a command", self.cluster.protocol());
        let reference = (0..self.replicas).find(|&i| !self.cluster.is_crashed(i));
        reference
            .and_then(|node| self.cluster.decided(node).last().map(|(_, _, t)| *t))
            .map(|t| t.saturating_sub(t0))
            .unwrap_or(0)
    }

    /// Number of replicas in the group.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The protocol the group runs.
    pub fn protocol(&self) -> &'static str {
        self.cluster.protocol()
    }

    /// Commands ordered so far.
    pub fn decided_len(&self) -> usize {
        self.submitted as usize
    }

    /// True when every alive replica's decided log is a prefix of the
    /// longest one (no forks inside the group).
    pub fn agreement(&self) -> bool {
        let logs: Vec<&[(u64, u64, SimTime)]> = (0..self.replicas)
            .filter(|&i| !self.cluster.is_crashed(i))
            .map(|i| self.cluster.decided(i))
            .collect();
        let Some(longest) = logs.iter().max_by_key(|l| l.len()) else {
            return true;
        };
        logs.iter().all(|log| log.iter().zip(longest.iter()).all(|(a, b)| a.0 == b.0 && a.1 == b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_orders_commands_and_agrees() {
        let mut g = ConsensusGroup::new("pbft", 4, 0x5A);
        let lat1 = g.order(0xAAAA);
        let lat2 = g.order(0xAAAA); // same digest, distinct serial
        assert!(lat1 > 0 && lat2 > 0, "decides take simulated time");
        assert_eq!(g.decided_len(), 2);
        assert!(g.agreement());
        assert_eq!(g.protocol(), "pbft");
        assert_eq!(g.replicas(), 4);
    }

    #[test]
    fn every_registry_protocol_backs_a_group() {
        for kind in pbc_consensus::ConsensusKind::ALL {
            let proto = kind.registry_name();
            let mut g = ConsensusGroup::new(proto, kind.min_nodes(), 7);
            assert!(g.order(1) > 0, "{proto}");
            assert!(g.agreement(), "{proto}");
        }
    }

    #[test]
    #[should_panic(expected = "pbft group stalled ordering a command")]
    fn a_group_without_a_quorum_refuses_to_report_a_latency() {
        let mut g = ConsensusGroup::new("pbft", 4, 0x5A);
        g.order(1);
        g.cluster.crash(1);
        g.cluster.crash(2);
        g.order(2);
    }

    #[test]
    #[should_panic(expected = "unknown ordering protocol")]
    fn unknown_protocol_panics() {
        ConsensusGroup::new("zab", 4, 0);
    }
}
