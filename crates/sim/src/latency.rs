//! Link latency models.

use crate::{NodeIdx, SimTime};
use rand::Rng;

/// How long a message from `from` to `to` takes to deliver.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every link has the same base latency plus uniform jitter in
    /// `[0, jitter]`.
    Uniform {
        /// Base one-way latency.
        base: SimTime,
        /// Maximum additional jitter.
        jitter: SimTime,
    },
    /// Per-pair base latency matrix (row = sender, column = receiver)
    /// plus uniform jitter. Used for WAN / hierarchical topologies.
    Matrix {
        /// `n × n` base latencies.
        base: Vec<Vec<SimTime>>,
        /// Maximum additional jitter.
        jitter: SimTime,
    },
}

impl LatencyModel {
    /// A LAN-like model: 1 tick base, 1 tick jitter.
    pub fn lan() -> Self {
        LatencyModel::Uniform { base: 100, jitter: 20 }
    }

    /// Samples the delivery latency for one message.
    pub fn sample<R: Rng + ?Sized>(&self, from: NodeIdx, to: NodeIdx, rng: &mut R) -> SimTime {
        let (base, jitter) = match self {
            LatencyModel::Uniform { base, jitter } => (*base, *jitter),
            LatencyModel::Matrix { base, jitter } => (base[from][to], *jitter),
        };
        // Local (self) delivery still takes one tick so causality is strict.
        let j = if jitter == 0 { 0 } else { rng.gen_range(0..=jitter) };
        (base + j).max(1)
    }

    /// Number of nodes this model covers, if constrained (matrix models).
    pub fn node_limit(&self) -> Option<usize> {
        match self {
            LatencyModel::Uniform { .. } => None,
            LatencyModel::Matrix { base, .. } => Some(base.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn uniform_within_bounds() {
        let m = LatencyModel::Uniform { base: 100, jitter: 10 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let l = m.sample(0, 1, &mut rng);
            assert!((100..=110).contains(&l));
        }
    }

    #[test]
    fn zero_latency_clamped_to_one() {
        let m = LatencyModel::Uniform { base: 0, jitter: 0 };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(0, 0, &mut rng), 1);
    }

    #[test]
    fn matrix_is_directional() {
        let m = LatencyModel::Matrix { base: vec![vec![1, 500], vec![900, 1]], jitter: 0 };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(0, 1, &mut rng), 500);
        assert_eq!(m.sample(1, 0, &mut rng), 900);
        assert_eq!(m.node_limit(), Some(2));
    }

    #[test]
    fn lower_bounds_never_exceed_samples() {
        // Jitter only adds and the clamp only raises: no sample on a link
        // is below that link's base latency (or below one tick).
        let models = [
            LatencyModel::Uniform { base: 100, jitter: 20 },
            LatencyModel::Uniform { base: 0, jitter: 0 },
            LatencyModel::Matrix { base: vec![vec![0, 500], vec![900, 3]], jitter: 7 },
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for m in &models {
            for from in 0..2 {
                for to in 0..2 {
                    let base = match m {
                        LatencyModel::Uniform { base, .. } => *base,
                        LatencyModel::Matrix { base, .. } => base[from][to],
                    };
                    for _ in 0..50 {
                        assert!(m.sample(from, to, &mut rng) >= base.max(1), "sample under bound");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let m = LatencyModel::Uniform { base: 10, jitter: 100 };
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|i| m.sample(i % 3, (i + 1) % 3, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(sample(42), sample(42));
        assert_ne!(sample(42), sample(43));
    }
}
