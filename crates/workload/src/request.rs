//! Inference requests and engine results — the vocabulary shared by the
//! Planaria and PREMA simulation engines and the metrics.

use planaria_model::units::{Cycles, Picojoules};
use planaria_model::DnnId;
use planaria_telemetry::CycleSketch;

/// One dispatched inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id within a trace.
    pub id: u64,
    /// Network to run.
    pub dnn: DnnId,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Priority level, 1 (lowest) ..= 11 (highest), per the Google-trace
    /// analysis the paper cites (§VI-A).
    pub priority: u32,
    /// QoS latency bound, seconds.
    pub qos: f64,
}

impl Request {
    /// Absolute deadline (arrival + QoS bound), seconds.
    pub fn deadline(&self) -> f64 {
        self.arrival + self.qos
    }
}

/// A finished request as reported by an engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The originating request.
    pub request: Request,
    /// Completion time, seconds.
    pub finish: f64,
    /// Dynamic energy attributed to this request.
    pub energy: Picojoules,
}

impl Completion {
    /// End-to-end (multi-tenant) latency, seconds.
    pub fn latency(&self) -> f64 {
        self.finish - self.request.arrival
    }

    /// Whether the request met its QoS bound.
    pub fn met_qos(&self) -> bool {
        self.latency() <= self.request.qos + 1e-12
    }
}

/// Full result of simulating one workload instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// All completions (same cardinality as the input trace).
    pub completions: Vec<Completion>,
    /// Total energy (dynamic + leakage over the makespan).
    pub total_energy: Picojoules,
    /// Time from first arrival to last completion, seconds.
    pub makespan: f64,
}

/// Version tag of the [`SimResult::digest`] format, carried in the top
/// byte of every digest value (see [`digest_version`]). Bump it whenever
/// the digest's *layout* changes — fields added/removed/reordered, the
/// hash function swapped — so a stored digest from another format can
/// never collide into a false "results changed" diagnosis.
///
/// History: version 1 is the untagged pre-overhaul format (count +
/// per-completion fields + aggregates, full 64-bit FNV); version 2 mixes
/// this tag first and reserves the top byte to carry it.
pub const DIGEST_VERSION: u8 = 2;

/// The format version a digest value was produced under. Compare this
/// *before* comparing digests: differing versions mean **the digest
/// format changed** (re-baseline and re-compare), while equal versions
/// with differing digests mean **the results changed** — the distinction
/// golden-digest failures should report.
pub fn digest_version(digest: u64) -> u8 {
    (digest >> 56) as u8
}

impl SimResult {
    /// Assembles one node's result from its completions in any order:
    /// sorts them by request id, sums their dynamic energy in that order
    /// and adds the node's static energy. Every simulation path that
    /// keeps completions finishes through here, so their energy sums
    /// agree bit for bit.
    pub fn from_completions(
        mut completions: Vec<Completion>,
        static_energy: Picojoules,
        makespan: f64,
    ) -> Self {
        completions.sort_by_key(|c| c.request.id);
        let dynamic: Picojoules = completions.iter().map(|c| c.energy).sum();
        Self {
            completions,
            total_energy: dynamic + static_energy,
            makespan,
        }
    }

    /// Order-sensitive FNV-1a digest over the bit-exact content of the
    /// result: every completion's id, network, arrival, priority, QoS
    /// bound, finish time and energy, plus the aggregate energy and
    /// makespan. Two results digest equal iff they are byte-identical,
    /// which is how the determinism tests and the cluster bench assert
    /// that a parallel fabric run reproduces the serial run exactly.
    ///
    /// The top byte of the value is the [`DIGEST_VERSION`] format tag:
    /// on a mismatch against a stored digest, check
    /// [`digest_version`] first to report "digest format changed"
    /// rather than "results changed".
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        // The count is mixed up front, after the version tag, so a
        // truncated result can never digest equal to a complete one.
        mix(u64::from(DIGEST_VERSION));
        mix(self.completions.len() as u64);
        for c in &self.completions {
            let dnn = DnnId::ALL
                .iter()
                .position(|&d| d == c.request.dnn)
                // lint: ALL enumerates every DnnId variant by construction
                .expect("every DnnId appears in DnnId::ALL");
            mix(c.request.id);
            mix(dnn as u64);
            mix(c.request.arrival.to_bits());
            mix(u64::from(c.request.priority));
            mix(c.request.qos.to_bits());
            mix(c.finish.to_bits());
            mix(c.energy.as_pj().to_bits());
        }
        mix(self.total_energy.as_pj().to_bits());
        mix(self.makespan.to_bits());
        (u64::from(DIGEST_VERSION) << 56) | (h & ((1 << 56) - 1))
    }

    /// Mean end-to-end latency, seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions
            .iter()
            .map(Completion::latency)
            .sum::<f64>()
            / self.completions.len() as f64
    }

    /// Exact latency summary of this result (the materialized oracle).
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_completions(&self.completions)
    }
}

/// A latency summary in seconds, computable two ways: exactly from a
/// materialized completion vector (the nearest-rank oracle), or from a
/// streaming [`CycleSketch`] when completions were never kept — in which
/// case each percentile over-reports by at most `1/32` relative (the
/// sketch's bucket bound) and the mean is exact up to f64 rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of completions summarized.
    pub count: u64,
    /// Mean end-to-end latency, seconds.
    pub mean: f64,
    /// Median (nearest-rank p50), seconds.
    pub p50: f64,
    /// Tail latency (nearest-rank p99), seconds.
    pub p99: f64,
    /// Slowest completion, seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Exact stats from materialized completions; `None` when empty.
    pub fn from_completions(completions: &[Completion]) -> Option<Self> {
        if completions.is_empty() {
            return None;
        }
        let mut lats: Vec<f64> = completions.iter().map(Completion::latency).collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = lats.len();
        let rank = |p: f64| lats[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        Some(Self {
            count: n as u64,
            mean: lats.iter().sum::<f64>() / n as f64,
            p50: rank(0.50),
            p99: rank(0.99),
            max: lats[n - 1],
        })
    }

    /// Stats from a streaming sketch of integer latency cycles recorded
    /// at `freq_hz`; `None` when the sketch is empty. Percentiles carry
    /// the sketch's documented `≤ 1/32` relative over-report bound.
    pub fn from_sketch(sketch: &CycleSketch, freq_hz: f64) -> Option<Self> {
        let secs = |v: u64| Cycles::new(v).seconds_at(freq_hz);
        Some(Self {
            count: sketch.count(),
            mean: sketch.mean()? / freq_hz,
            p50: secs(sketch.value_at_ratio(50, 100)?),
            p99: secs(sketch.value_at_ratio(99, 100)?),
            max: secs(sketch.max()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: f64, qos: f64) -> Request {
        Request {
            id: 0,
            dnn: DnnId::ResNet50,
            arrival,
            priority: 5,
            qos,
        }
    }

    #[test]
    fn latency_stats_nearest_rank() {
        let completions: Vec<Completion> = (1..=100)
            .map(|i| Completion {
                request: req(0.0, 1.0),
                finish: i as f64 / 1000.0,
                energy: Picojoules::ZERO,
            })
            .collect();
        let s = LatencyStats::from_completions(&completions).expect("non-empty");
        assert_eq!(s.count, 100);
        assert!((s.p99 - 0.099).abs() < 1e-12);
        assert!((s.p50 - 0.050).abs() < 1e-12);
        assert!((s.max - 0.100).abs() < 1e-12);
    }

    #[test]
    fn empty_result_has_no_percentile() {
        let empty = SimResult {
            completions: Vec::new(),
            total_energy: Picojoules::ZERO,
            makespan: 0.0,
        };
        assert_eq!(empty.latency_stats(), None);
    }

    #[test]
    fn latency_stats_from_sketch_tracks_oracle() {
        let freq = 1e9;
        let mk = |latency: f64| Completion {
            request: req(0.0, 1.0),
            finish: latency,
            energy: Picojoules::ZERO,
        };
        let completions: Vec<Completion> = (1..=200).map(|i| mk(i as f64 * 1e-4)).collect();
        let exact = LatencyStats::from_completions(&completions).expect("non-empty");
        let mut sketch = CycleSketch::new();
        for c in &completions {
            sketch.record((c.latency() * freq).round() as u64);
        }
        let approx = LatencyStats::from_sketch(&sketch, freq).expect("non-empty");
        assert_eq!(approx.count, exact.count);
        assert!((approx.mean - exact.mean).abs() / exact.mean < 1e-9);
        for (a, e) in [(approx.p50, exact.p50), (approx.p99, exact.p99)] {
            assert!(a >= e - 1e-12, "sketch {a} under oracle {e}");
            assert!(
                a <= e * (1.0 + 1.0 / 32.0) + 1e-9,
                "sketch {a} above bound for {e}"
            );
        }
    }

    #[test]
    fn digest_distinguishes_bitwise_differences() {
        let mk = |finish: f64| Completion {
            request: req(0.0, 1.0),
            finish,
            energy: Picojoules::ZERO,
        };
        let base = SimResult {
            completions: vec![mk(0.010), mk(0.020)],
            total_energy: Picojoules::new(5.0),
            makespan: 0.020,
        };
        assert_eq!(base.digest(), base.clone().digest());
        let mut late = base.clone();
        late.completions[1].finish = 0.020 + f64::EPSILON;
        assert_ne!(base.digest(), late.digest());
        let mut reordered = base.clone();
        reordered.completions.swap(0, 1);
        assert_ne!(base.digest(), reordered.digest());
        let mut hotter = base.clone();
        hotter.total_energy = Picojoules::new(5.0 + f64::EPSILON * 8.0);
        assert_ne!(base.digest(), hotter.digest());
    }

    #[test]
    fn digest_carries_the_format_version() {
        let r = SimResult {
            completions: vec![Completion {
                request: req(0.0, 1.0),
                finish: 0.010,
                energy: Picojoules::ZERO,
            }],
            total_energy: Picojoules::new(5.0),
            makespan: 0.010,
        };
        assert_eq!(digest_version(r.digest()), DIGEST_VERSION);
        // Result differences move the digest but never the version byte.
        let mut other = r.clone();
        other.makespan = 0.011;
        assert_ne!(r.digest(), other.digest());
        assert_eq!(digest_version(other.digest()), DIGEST_VERSION);
    }

    #[test]
    fn from_completions_sorts_by_id_and_sums_in_id_order() {
        // Energies whose float sum depends on the order: only the
        // id-ordered sum reproduces the expected total bit for bit.
        let energies = [1e16, 1.0, -1e16, 1.0];
        let mk = |id: u64| Completion {
            request: Request {
                id,
                ..req(0.0, 1.0)
            },
            finish: 0.5,
            energy: Picojoules::new(energies[id as usize]),
        };
        let r = SimResult::from_completions(
            [3, 1, 0, 2].into_iter().map(mk).collect(),
            Picojoules::new(0.25),
            0.5,
        );
        let ids: Vec<u64> = r.completions.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        let id_order: Picojoules = energies.iter().map(|&e| Picojoules::new(e)).sum();
        assert_eq!(r.total_energy, id_order + Picojoules::new(0.25));
        assert_eq!(r.makespan, 0.5);
    }

    #[test]
    fn deadline_and_latency() {
        let r = req(1.0, 0.015);
        assert!((r.deadline() - 1.015).abs() < 1e-12);
        let c = Completion {
            request: r,
            finish: 1.010,
            energy: Picojoules::ZERO,
        };
        assert!((c.latency() - 0.010).abs() < 1e-12);
        assert!(c.met_qos());
        let late = Completion {
            request: r,
            finish: 1.020,
            energy: Picojoules::ZERO,
        };
        assert!(!late.met_qos());
    }
}
