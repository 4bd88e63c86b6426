//! Per-protocol metrics derived from the event stream.
//!
//! The registry is updated incrementally on every [`TraceEvent`] the
//! sink receives, so it reflects the *whole* run even when the bounded
//! ring has long since overwritten the early events. All updates are
//! O(1): counters, log-scale histogram increments, and two small hash
//! maps for commit timing.

use crate::event::TraceEvent;
use std::collections::HashMap;

/// Log-scale latency histogram: bucket 0 counts zeros and bucket
/// `i ≥ 1` counts values in `[2^(i-1), 2^i)`. Mirrors the shape of
/// `pbc_sim::stats::LatencyHistogram` (this crate cannot depend on
/// `pbc-sim` — the dependency points the other way) and additionally
/// tracks the sum for a mean.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 48],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 48], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).min(47) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`); exact
    /// for the maximum, bucket-upper-bound otherwise. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { ((1u64 << i) - 1).min(self.max) };
            }
        }
        self.max
    }

    /// `p50 / p99 / max / mean / n` on one line.
    pub fn summary(&self) -> String {
        format!(
            "p50={} p99={} max={} mean={:.1} n={}",
            self.quantile(0.50),
            self.quantile(0.99),
            self.max,
            self.mean(),
            self.count
        )
    }
}

/// Counters and histograms for one consensus protocol.
#[derive(Clone, Debug, Default)]
pub struct ProtoMetrics {
    /// Committed (decided) log slots, summed over all replicas.
    pub commits: u64,
    /// View changes started or joined.
    pub view_changes: u64,
    /// Elections started.
    pub elections: u64,
    /// Leaderships won.
    pub leaders_elected: u64,
    /// Phase transitions recorded.
    pub phases: u64,
    /// Round latency: per-replica gap between consecutive commits —
    /// the steady-state time one consensus round takes.
    pub round_latency: Histogram,
    /// Commit latency: per slot, each replica's lag behind the *first*
    /// replica to commit that slot (the quorum front). The first
    /// committer records 0.
    pub commit_latency: Histogram,
    /// Last commit time per replica (round-latency bookkeeping).
    last_commit: HashMap<usize, u64>,
    /// First commit time per slot (commit-latency bookkeeping).
    first_commit: HashMap<u64, u64>,
}

/// Metrics over the whole traced run: network totals plus a
/// [`ProtoMetrics`] per protocol label seen in the stream.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Messages delivered.
    pub delivers: u64,
    /// Messages dropped (link faults, partitions, crashed receivers).
    pub drops: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Adversary mutations observed.
    pub adversary_mutations: u64,
    /// Pipeline stages completed.
    pub stages: u64,
    /// Cross-shard legs observed.
    pub cross_shard_legs: u64,
    per_proto: HashMap<&'static str, ProtoMetrics>,
}

impl MetricsRegistry {
    /// Folds one event into the registry. Called by the sink for every
    /// emission; must stay O(1).
    pub fn observe(&mut self, at: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::Deliver { .. } => self.delivers += 1,
            TraceEvent::DropLink { .. } | TraceEvent::DropCrashed { .. } => self.drops += 1,
            TraceEvent::TimerFire { .. } => self.timers_fired += 1,
            TraceEvent::AdversaryMutate { .. } => self.adversary_mutations += 1,
            TraceEvent::Stage { .. } => self.stages += 1,
            TraceEvent::CrossShard { .. } => self.cross_shard_legs += 1,
            TraceEvent::Phase { proto, .. } => self.proto_mut(proto).phases += 1,
            TraceEvent::ViewChange { proto, .. } => self.proto_mut(proto).view_changes += 1,
            TraceEvent::Election { proto, .. } => self.proto_mut(proto).elections += 1,
            TraceEvent::LeaderElected { proto, .. } => self.proto_mut(proto).leaders_elected += 1,
            TraceEvent::Commit { proto, node, seq, .. } => {
                let m = self.proto_mut(proto);
                m.commits += 1;
                if let Some(&prev) = m.last_commit.get(&node) {
                    m.round_latency.record(at.saturating_sub(prev));
                }
                m.last_commit.insert(node, at);
                let first = *m.first_commit.entry(seq).or_insert(at);
                m.commit_latency.record(at.saturating_sub(first));
            }
            _ => {}
        }
    }

    /// Metrics for one protocol label, if any were recorded.
    pub fn proto(&self, label: &str) -> Option<&ProtoMetrics> {
        self.per_proto.get(label)
    }

    /// All protocol labels seen, sorted for stable output.
    pub fn protocols(&self) -> Vec<&'static str> {
        let mut labels: Vec<&'static str> = self.per_proto.keys().copied().collect();
        labels.sort_unstable();
        labels
    }

    /// Delivered messages per committed slot for `label`: the measured
    /// message complexity the paper's §2.3.3 Discussion compares across
    /// protocols. Counts *all* deliveries in the run (the registry does
    /// not attribute network traffic to protocols), so this is only
    /// meaningful for single-protocol runs.
    pub fn msgs_per_commit(&self, label: &str) -> f64 {
        match self.proto(label) {
            Some(m) if m.commits > 0 => {
                let slots = m.first_commit.len().max(1) as f64;
                self.delivers as f64 / slots
            }
            _ => 0.0,
        }
    }

    /// Multi-line human-readable summary (one block per protocol).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "net: delivers={} drops={} timers_fired={} adversary={} stages={} xshard={}\n",
            self.delivers,
            self.drops,
            self.timers_fired,
            self.adversary_mutations,
            self.stages,
            self.cross_shard_legs
        ));
        for label in self.protocols() {
            let m = &self.per_proto[label];
            out.push_str(&format!(
                "{label}: commits={} view_changes={} elections={} leaders={} phases={}\n",
                m.commits, m.view_changes, m.elections, m.leaders_elected, m.phases
            ));
            out.push_str(&format!("  round latency:  {}\n", m.round_latency.summary()));
            out.push_str(&format!("  commit latency: {}\n", m.commit_latency.summary()));
            out.push_str(&format!("  msgs/commit:    {:.1}\n", self.msgs_per_commit(label)));
        }
        out
    }

    fn proto_mut(&mut self, label: &'static str) -> &mut ProtoMetrics {
        self.per_proto.entry(label).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_and_mean() {
        let mut h = Histogram::default();
        for v in [10u64, 10, 10, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 257.5).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 10 && h.quantile(0.5) < 32);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn commit_latency_is_lag_behind_first_committer() {
        let mut m = MetricsRegistry::default();
        // Slot 0: node 0 commits at t=100 (lag 0), node 1 at t=130 (lag 30).
        m.observe(100, &TraceEvent::Commit { proto: "pbft", node: 0, seq: 0, digest: 1 });
        m.observe(130, &TraceEvent::Commit { proto: "pbft", node: 1, seq: 0, digest: 1 });
        let p = m.proto("pbft").unwrap();
        assert_eq!(p.commits, 2);
        assert_eq!(p.commit_latency.count(), 2);
        assert_eq!(p.commit_latency.max(), 30);
    }

    #[test]
    fn round_latency_is_per_node_commit_gap() {
        let mut m = MetricsRegistry::default();
        m.observe(100, &TraceEvent::Commit { proto: "raft", node: 0, seq: 0, digest: 1 });
        m.observe(250, &TraceEvent::Commit { proto: "raft", node: 0, seq: 1, digest: 2 });
        let p = m.proto("raft").unwrap();
        assert_eq!(p.round_latency.count(), 1);
        assert_eq!(p.round_latency.max(), 150);
    }

    #[test]
    fn msgs_per_commit_uses_distinct_slots() {
        let mut m = MetricsRegistry::default();
        for _ in 0..30 {
            m.observe(1, &TraceEvent::Deliver { from: 0, to: 1, seq: 0, sent_at: 0 });
        }
        for node in 0..3 {
            m.observe(10, &TraceEvent::Commit { proto: "pbft", node, seq: 0, digest: 1 });
        }
        // 30 deliveries, 1 distinct slot -> 30 msgs per committed slot.
        assert!((m.msgs_per_commit("pbft") - 30.0).abs() < 1e-9);
        assert_eq!(m.msgs_per_commit("absent"), 0.0);
    }

    #[test]
    fn summary_mentions_every_protocol() {
        let mut m = MetricsRegistry::default();
        m.observe(5, &TraceEvent::Commit { proto: "hotstuff", node: 0, seq: 0, digest: 9 });
        m.observe(6, &TraceEvent::ViewChange { proto: "pbft", node: 2, view: 3 });
        let s = m.summary();
        assert!(s.contains("hotstuff:"), "{s}");
        assert!(s.contains("pbft:"), "{s}");
        assert!(s.contains("commit latency"), "{s}");
    }
}
