//! End-to-end saturation sweep (`sweep --e2e`): open-loop load ladders
//! driven through the full client path — seeded arrivals, bounded
//! ingress queue, consensus, pipeline execution — for representative
//! `ConsensusKind × ArchKind` combos, with throughput/latency **knee
//! detection** on each curve.
//!
//! Every point is measured in *simulator* time (ticks are abstract µs),
//! so a curve is bit-for-bit reproducible across hosts:
//! the numbers in `BENCH_E2E.json` are properties of the protocols, not
//! of the machine the sweep ran on. Wall-clock only decides how long
//! you wait for them.
//!
//! Knee detection is Kneedle-lite: normalize offered and achieved
//! throughput to `[0, 1]` and take the point of maximum distance above
//! the chord — where the curve bends away from the ideal
//! `achieved = offered` line. Pre-knee the curve must be monotone
//! (asserted); post-knee the committed rate flattens while queueing
//! delay and shed load grow.

use pbc_core::ingress_queue::{IngressQueue, LoadGen, LoadProfile, QueueConfig, WorkloadSource};
use pbc_core::{ArchKind, ConsensusKind, IngressConfig, IngressReport, NetworkBuilder};
use pbc_workload::PaymentWorkload;

/// Seed shared by every point of the sweep: curves differ only in the
/// knob under study (combo, offered rate), never in the random tape.
pub const E2E_SEED: u64 = 0xE2E0;

/// The orderer's bounded pipeline window for every point: at most this
/// many batches submitted to consensus but undecided. This is the
/// service-rate knob — a wider window pipelines more rounds and moves
/// the knee right — so the sweep pins it and lets the offered rate be
/// the only variable.
pub const E2E_INFLIGHT_WINDOW: usize = 4;

/// One measured point of a saturation curve.
#[derive(Clone, Debug)]
pub struct E2ePoint {
    /// Open-loop offered rate, transactions per second.
    pub offered_tps: f64,
    /// Committed transactions per second actually achieved.
    pub committed_tps: f64,
    /// Mean arrival→decision commit latency, ticks (µs).
    pub mean_latency: f64,
    /// Median commit latency, ticks.
    pub p50_latency: u64,
    /// 99th-percentile commit latency, ticks.
    pub p99_latency: u64,
    /// Full ingress report the point was read off.
    pub report: IngressReport,
}

/// One consensus × architecture saturation curve with its knee.
#[derive(Clone, Debug)]
pub struct E2eCurve {
    /// Consensus protocol under load.
    pub consensus: ConsensusKind,
    /// Execution architecture under load.
    pub arch: ArchKind,
    /// Points in ascending offered-rate order.
    pub points: Vec<E2ePoint>,
    /// Index into `points` of the detected saturation knee.
    pub knee: usize,
}

/// Kneedle-lite knee detection on an ascending-offered-rate curve.
///
/// Both axes are normalized to `[0, 1]`; the knee is the point with the
/// maximum value of `achieved_norm - offered_norm` — the farthest
/// vertical distance above the chord joining the curve's endpoints.
/// For a concave saturation curve this is where it bends away from the
/// ideal `achieved = offered` diagonal. Degenerate inputs (fewer than
/// three points, or a flat curve) return the last index.
pub fn knee_index(offered: &[f64], achieved: &[f64]) -> usize {
    assert_eq!(offered.len(), achieved.len(), "curve axes must pair up");
    let n = offered.len();
    if n < 3 {
        return n.saturating_sub(1);
    }
    let (x0, x1) = (offered[0], offered[n - 1]);
    let (y0, y1) = (
        achieved.iter().cloned().fold(f64::INFINITY, f64::min),
        achieved.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    if x1 <= x0 || y1 <= y0 {
        return n - 1;
    }
    let mut best = n - 1;
    let mut best_d = f64::NEG_INFINITY;
    for i in 0..n {
        let xn = (offered[i] - x0) / (x1 - x0);
        let yn = (achieved[i] - y0) / (y1 - y0);
        let d = yn - xn;
        if d > best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// The workload every point runs: moderately contended payments over a
/// small hot set, the shape §2.3.3's architecture comparisons assume.
fn workload() -> PaymentWorkload {
    PaymentWorkload { accounts: 128, theta: 0.6, ..Default::default() }
}

/// Runs one (combo, offered-rate) point through the full client path.
fn run_point(consensus: ConsensusKind, arch: ArchKind, offered_tps: f64, horizon: u64) -> E2ePoint {
    // Ticks are abstract µs, so the open-loop mean inter-arrival gap is
    // 1e6 / rate, floored at one tick.
    let mean_gap = ((1_000_000.0 / offered_tps).round() as u64).max(1);
    let mut net = NetworkBuilder::new(consensus.min_nodes())
        .consensus(consensus)
        .architecture(arch)
        .initial_state(workload().initial_state())
        .batch_size(8)
        .seed(E2E_SEED)
        .build();
    let mut load = LoadGen::new(
        WorkloadSource::payments(workload()),
        LoadProfile::Open { mean_gap },
        E2E_SEED,
    );
    // Admission control sized so the queue — not an unbounded buffer —
    // is what saturation fills: past the knee, Full rejections and TTL
    // expiries appear in the point's report.
    let mut queue = IngressQueue::new(QueueConfig { capacity: 512, ttl: horizon / 2 });
    let cfg =
        IngressConfig { horizon, max_inflight_batches: E2E_INFLIGHT_WINDOW, ..Default::default() };
    let report = net.run_ingress(&mut load, &mut queue, &cfg);
    assert!(report.conserves(), "{consensus:?} × {arch:?} broke conservation: {:?}", report.queue);
    assert!(!report.diverged, "{consensus:?} × {arch:?} diverged under load");
    E2ePoint {
        offered_tps,
        committed_tps: report.committed_tps,
        mean_latency: report.mean_latency,
        p50_latency: report.p50_latency,
        p99_latency: report.p99_latency,
        report,
    }
}

/// Sweeps one combo up its offered-rate ladder and detects the knee.
///
/// Asserts the pre-knee segment is monotone: below saturation, offering
/// more must commit more (within 2% slack for batch-boundary effects).
pub fn sweep_combo(
    consensus: ConsensusKind,
    arch: ArchKind,
    ladder: &[f64],
    horizon: u64,
) -> E2eCurve {
    let points: Vec<E2ePoint> =
        ladder.iter().map(|&tps| run_point(consensus, arch, tps, horizon)).collect();
    let offered: Vec<f64> = points.iter().map(|p| p.offered_tps).collect();
    let achieved: Vec<f64> = points.iter().map(|p| p.committed_tps).collect();
    let knee = knee_index(&offered, &achieved);
    for w in achieved[..=knee].windows(2) {
        assert!(
            w[1] >= w[0] * 0.98,
            "{consensus:?} × {arch:?} pre-knee throughput not monotone: {achieved:?} knee={knee}"
        );
    }
    E2eCurve { consensus, arch, points, knee }
}

/// The representative combos the sweep saturates: both CFT and BFT
/// orderers, and the paper's three §2.3.3 architecture families
/// (order-execute, parallel order-execute, execute-order-validate with
/// and without reordering/parallel validation).
pub const COMBOS: [(ConsensusKind, ArchKind); 7] = [
    (ConsensusKind::Pbft, ArchKind::Ox),
    (ConsensusKind::Pbft, ArchKind::Xov),
    (ConsensusKind::HotStuff, ArchKind::Ox),
    (ConsensusKind::HotStuff, ArchKind::Oxii),
    (ConsensusKind::Raft, ArchKind::Ox),
    (ConsensusKind::Tendermint, ArchKind::XovFabricPp),
    (ConsensusKind::MinBft, ArchKind::FastFabric),
];

/// Runs the full sweep and writes `BENCH_E2E.json` (schema
/// `pbc-e2e-knee-v1`). `E2E_SMOKE=1` shrinks the ladder and horizon
/// for CI while keeping every combo and every assertion.
pub fn e2e_bench(out_path: &str) {
    let smoke = std::env::var("E2E_SMOKE").is_ok_and(|v| v == "1");
    let horizon: u64 = if smoke { 40_000 } else { 200_000 };
    let ladder: Vec<f64> = if smoke {
        vec![2_000.0, 8_000.0, 32_000.0, 128_000.0, 512_000.0]
    } else {
        vec![
            2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0,
            512_000.0,
        ]
    };
    println!(
        "e2e sweep: {} combos, ladder {:?} tx/s, horizon {horizon} ticks, smoke={smoke}",
        COMBOS.len(),
        ladder
    );

    let mut combo_rows = Vec::new();
    for (consensus, arch) in COMBOS {
        let curve = sweep_combo(consensus, arch, &ladder, horizon);
        let kp = &curve.points[curve.knee];
        println!(
            "{consensus:?} × {arch:?}: knee at {:.0} offered tx/s → {:.0} committed tx/s, \
             p50 {} p99 {} ticks",
            kp.offered_tps, kp.committed_tps, kp.p50_latency, kp.p99_latency
        );
        let point_rows: Vec<String> = curve
            .points
            .iter()
            .map(|p| {
                let q = &p.report.queue;
                format!(
                    "        {{\"offered_tps\": {:.0}, \"committed_tps\": {:.1}, \
                     \"mean_latency_us\": {:.1}, \"p50_latency_us\": {}, \"p99_latency_us\": {}, \
                     \"offered\": {}, \"admitted\": {}, \"committed\": {}, \"aborted\": {}, \
                     \"rejected_full\": {}, \"expired\": {}, \"consensus_complete\": {}}}",
                    p.offered_tps,
                    p.committed_tps,
                    p.mean_latency,
                    p.p50_latency,
                    p.p99_latency,
                    q.offered,
                    q.admitted,
                    q.committed,
                    q.aborted,
                    q.rejected_full,
                    q.expired,
                    p.report.consensus_complete,
                )
            })
            .collect();
        combo_rows.push(format!(
            "    {{\"consensus\": \"{consensus:?}\", \"arch\": \"{arch:?}\", \
             \"knee_index\": {}, \"knee_offered_tps\": {:.0}, \"knee_committed_tps\": {:.1}, \
             \"knee_p99_latency_us\": {}, \"points\": [\n{}\n      ]}}",
            curve.knee,
            kp.offered_tps,
            kp.committed_tps,
            kp.p99_latency,
            point_rows.join(",\n"),
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"pbc-e2e-knee-v1\",\n  \"seed\": {E2E_SEED},\n  \
         \"smoke\": {smoke},\n  \"horizon_ticks\": {horizon},\n  \"batch_size\": 8,\n  \
         \"queue_capacity\": 512,\n  \"max_inflight_batches\": {E2E_INFLIGHT_WINDOW},\n  \
         \"workload\": \"payments accounts=128 zipf-theta=0.6\",\n  \
         \"note\": \"all rates and latencies are simulator-time (ticks = abstract us); \
         deterministic for a given seed, host-independent\",\n  \"combos\": [\n{}\n  ]\n}}\n",
        combo_rows.join(",\n"),
    );
    std::fs::write(out_path, json).expect("write e2e bench json");
    println!("e2e sweep written to {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_of_ideal_then_flat_curve() {
        // Linear to 4k then dead flat: the knee is the corner.
        let offered = [1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0];
        let achieved = [1_000.0, 2_000.0, 4_000.0, 4_100.0, 4_050.0];
        assert_eq!(knee_index(&offered, &achieved), 2);
    }

    #[test]
    fn knee_of_linear_curve_is_an_endpoint() {
        // Never saturates: no interior point beats the chord.
        let offered = [1.0, 2.0, 3.0, 4.0];
        let achieved = [10.0, 20.0, 30.0, 40.0];
        let k = knee_index(&offered, &achieved);
        assert!(k == 0 || k == achieved.len() - 1, "linear curve has no interior knee, got {k}");
    }

    #[test]
    fn knee_degenerate_inputs() {
        assert_eq!(knee_index(&[], &[]), 0);
        assert_eq!(knee_index(&[1.0], &[5.0]), 0);
        assert_eq!(knee_index(&[1.0, 2.0], &[5.0, 6.0]), 1);
        // Flat achieved axis: falls back to the last point.
        assert_eq!(knee_index(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]), 2);
    }

    #[test]
    fn one_combo_smoke_curve_has_a_knee_and_conserves() {
        let ladder = [2_000.0, 8_000.0, 32_000.0, 128_000.0];
        let curve = sweep_combo(ConsensusKind::Pbft, ArchKind::Ox, &ladder, 40_000);
        assert_eq!(curve.points.len(), 4);
        assert!(curve.knee < 4);
        for p in &curve.points {
            assert!(p.report.conserves());
            assert!(p.committed_tps > 0.0, "point committed nothing: {:?}", p.report.queue);
        }
        // Saturation is real: the top rung cannot commit every offer.
        let top = &curve.points[3].report.queue;
        assert!(top.committed < top.offered, "128k tx/s fully absorbed: {top:?}");
    }
}
