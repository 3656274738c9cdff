//! The paper's evaluation metrics (§VI-A).

use crate::qos::sla_percentile;
use crate::request::Completion;
use planaria_model::DnnId;
use planaria_parallel::{effective_jobs, par_map};
use std::collections::BTreeMap;

/// Fraction of requests that violated their QoS bound.
pub fn violation_rate(completions: &[Completion]) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let late = completions.iter().filter(|c| !c.met_qos()).count();
    late as f64 / completions.len() as f64
}

/// Whether a workload instance meets the MLPerf server SLA: per domain,
/// the required percentile of requests (99 % vision / 97 % translation)
/// finish within their QoS bound.
pub fn meets_sla(completions: &[Completion]) -> bool {
    // (total, met) per network, indexed by `DnnId as usize`.
    let mut by_dnn = [(0usize, 0usize); DnnId::ALL.len()];
    for c in completions {
        let (total, met) = &mut by_dnn[c.request.dnn as usize];
        *total += 1;
        *met += usize::from(c.met_qos());
    }
    DnnId::ALL.into_iter().all(|id| {
        // MLPerf's percentile with finite samples: the allowed miss count
        // is the rounded (1 - p) fraction of the sample. A network with no
        // completions passes: 0 misses, 0 allowed.
        let (total, met) = by_dnn[id as usize];
        let allowed = ((1.0 - sla_percentile(id)) * total as f64).round() as usize;
        total - met <= allowed
    })
}

/// PREMA's fairness metric: `min_{i,j} PP_i / PP_j` where
/// `PP_i = (T_isolated / T_multitenant) / (priority_i / Σ priority)`.
///
/// `isolated` maps each network to its isolated-execution latency in
/// seconds on the *same* system.
///
/// Returns 1.0 for fewer than two completions (perfect fairness trivially).
pub fn fairness(completions: &[Completion], isolated: &BTreeMap<DnnId, f64>) -> f64 {
    if completions.len() < 2 {
        return 1.0;
    }
    let sum_priority: f64 = completions.iter().map(|c| c.request.priority as f64).sum();
    let pp: Vec<f64> = completions
        .iter()
        .map(|c| {
            let t_iso = isolated
                .get(&c.request.dnn)
                .copied()
                // lint: callers pass `isolated_latencies()`, which covers
                // every DnnId by construction
                .expect("isolated latency for every network");
            let progress = t_iso / c.latency().max(1e-12);
            let weight = c.request.priority as f64 / sum_priority;
            progress / weight
        })
        .collect();
    let min = pp.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = pp.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        0.0
    } else {
        min / max
    }
}

/// SLA satisfaction rate (Fig. 13): the fraction of workload instances
/// (one per seed) whose completions meet the SLA. `run` simulates one
/// instance from a seed.
///
/// Seeds are independent simulations, so they fan out over the
/// deterministic [`planaria_parallel`] pool; the rate is a count over
/// index-ordered per-seed booleans and is identical at any job count.
pub fn sla_satisfaction_rate<F>(run: F, seeds: &[u64]) -> f64
where
    F: Fn(u64) -> Vec<Completion> + Sync,
{
    if seeds.is_empty() {
        return 0.0;
    }
    let ok = par_map(seeds.to_vec(), effective_jobs(), |s| meets_sla(&run(s)))
        .into_iter()
        .filter(|&b| b)
        .count();
    ok as f64 / seeds.len() as f64
}

/// Throughput (Fig. 12): the maximum arrival rate λ (queries/second) at
/// which every probe instance meets the SLA, located by bisection over
/// `[lo, hi]` with `iters` refinement steps. `run(lambda, seed)` simulates
/// one instance.
///
/// Returns `lo` when even the lowest rate fails — callers should treat a
/// result at `lo` as "does not meet the SLA at any probed rate" (the
/// paper's dash for PREMA on Workload-B, QoS-H).
///
/// The bisection itself is inherently sequential (each step depends on the
/// previous verdict), but the per-seed probe instances at one rate are
/// independent and fan out over the deterministic [`planaria_parallel`]
/// pool. The verdict is a conjunction over all seeds, so the search path —
/// and therefore the result — is bit-identical at any job count.
pub fn max_throughput<F>(run: F, seeds: &[u64], lo: f64, hi: f64, iters: u32) -> f64
where
    F: Fn(f64, u64) -> Vec<Completion> + Sync,
{
    assert!(lo > 0.0 && hi > lo, "invalid throughput search range");
    let ok_at = |lambda: f64| {
        par_map(seeds.to_vec(), effective_jobs(), |s| {
            meets_sla(&run(lambda, s))
        })
        .into_iter()
        .all(|ok| ok)
    };
    if !ok_at(lo) {
        return lo;
    }
    let (mut lo, mut hi) = (lo, hi);
    if ok_at(hi) {
        return hi;
    }
    for _ in 0..iters {
        let mid = (lo * hi).sqrt(); // geometric bisection: rates span decades
        if ok_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn completion(dnn: DnnId, priority: u32, latency: f64, qos: f64) -> Completion {
        Completion {
            request: Request {
                id: 0,
                dnn,
                arrival: 0.0,
                priority,
                qos,
            },
            finish: latency,
            energy: planaria_model::units::Picojoules::ZERO,
        }
    }

    #[test]
    fn violation_rate_counts_late_requests() {
        let cs = vec![
            completion(DnnId::ResNet50, 5, 0.01, 0.015),
            completion(DnnId::ResNet50, 5, 0.02, 0.015),
        ];
        assert!((violation_rate(&cs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sla_allows_three_percent_gnmt_misses() {
        // 100 GNMT requests, 3 late: 97% => meets SLA.
        let mut cs: Vec<_> = (0..97)
            .map(|_| completion(DnnId::Gnmt, 5, 0.1, 0.25))
            .collect();
        cs.extend((0..3).map(|_| completion(DnnId::Gnmt, 5, 0.3, 0.25)));
        assert!(meets_sla(&cs));
        // A vision model with 3% late fails the 99% bar.
        let mut vs: Vec<_> = (0..97)
            .map(|_| completion(DnnId::ResNet50, 5, 0.01, 0.015))
            .collect();
        vs.extend((0..3).map(|_| completion(DnnId::ResNet50, 5, 0.02, 0.015)));
        assert!(!meets_sla(&vs));
    }

    #[test]
    fn absent_networks_pass() {
        // Only ResNet-50 and one GNMT request ran; the seven networks with
        // no completions allow and have no misses.
        let mut cs: Vec<_> = (0..10)
            .map(|_| completion(DnnId::ResNet50, 5, 0.01, 0.015))
            .collect();
        cs.push(completion(DnnId::Gnmt, 5, 0.1, 0.25));
        assert!(meets_sla(&cs));
        assert!(meets_sla(&[]));
        // One late request of the only network present fails it.
        cs.push(completion(DnnId::ResNet50, 5, 0.02, 0.015));
        assert!(!meets_sla(&cs));
    }

    #[test]
    fn allowance_boundary_is_the_rounded_miss_count() {
        // 150 vision requests allow round(1.5) = 2 misses: 2 pass, 3 fail.
        let run = |late: usize| {
            let mut cs: Vec<_> = (0..150 - late)
                .map(|_| completion(DnnId::TinyYolo, 5, 0.01, 0.015))
                .collect();
            cs.extend((0..late).map(|_| completion(DnnId::TinyYolo, 5, 0.02, 0.015)));
            // A passing network beside it changes nothing.
            cs.push(completion(DnnId::ResNet50, 5, 0.01, 0.015));
            meets_sla(&cs)
        };
        assert!(run(2));
        assert!(!run(3));
    }

    #[test]
    fn fairness_is_one_for_proportional_progress() {
        let mut iso = BTreeMap::new();
        iso.insert(DnnId::ResNet50, 0.001);
        // Two equal-priority tasks slowed equally: perfectly fair.
        let cs = vec![
            completion(DnnId::ResNet50, 5, 0.002, 1.0),
            completion(DnnId::ResNet50, 5, 0.002, 1.0),
        ];
        assert!((fairness(&cs, &iso) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_penalizes_starvation() {
        let mut iso = BTreeMap::new();
        iso.insert(DnnId::ResNet50, 0.001);
        let cs = vec![
            completion(DnnId::ResNet50, 5, 0.001, 1.0), // full speed
            completion(DnnId::ResNet50, 5, 0.100, 1.0), // starved 100x
        ];
        let f = fairness(&cs, &iso);
        assert!(f < 0.05, "got {f}");
    }

    #[test]
    fn throughput_search_finds_capacity() {
        // Synthetic system that meets SLA iff lambda <= 50.
        let run = |lambda: f64, _seed: u64| {
            let late = lambda > 50.0;
            vec![completion(
                DnnId::ResNet50,
                5,
                if late { 1.0 } else { 0.001 },
                0.015,
            )]
        };
        let thr = max_throughput(run, &[1, 2], 1.0, 1000.0, 30);
        assert!((thr - 50.0).abs() < 1.0, "got {thr}");
    }

    #[test]
    fn throughput_search_reports_floor_on_hopeless_systems() {
        let run = |_lambda: f64, _seed: u64| vec![completion(DnnId::ResNet50, 5, 1.0, 0.015)];
        let thr = max_throughput(run, &[1], 1.0, 1000.0, 10);
        assert!((thr - 1.0).abs() < 1e-12);
    }
}
