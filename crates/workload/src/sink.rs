//! Completion sinks: where the kernel's retirement stream goes.
//!
//! A simulation retires one [`Completion`] per request. What should
//! happen to it depends on the caller: figure binaries want the full
//! vector ([`VecSink`]), while cluster sweeps and 10⁷-request streamed
//! runs want aggregate stats only ([`DiscardSink`]) and read counts,
//! percentiles and sums from the kernel's summary and the telemetry
//! sketches. The kernel is generic over the [`CompletionSink`] trait, so
//! the choice is a type parameter with zero per-event dispatch cost: the
//! sink call inlines, and for [`DiscardSink`] the whole record path
//! folds away.

use crate::request::Completion;
use planaria_model::units::Cycles;

/// A destination for retired requests, chosen at kernel construction.
///
/// `record` is on the hot retirement path: implementations must not
/// allocate per event (amortized growth, like [`VecSink`]'s push, is
/// fine) and must tolerate any retirement order; callers needing a
/// canonical order sort afterwards, as
/// [`SimResult::from_completions`](crate::SimResult::from_completions)
/// does.
pub trait CompletionSink {
    /// Accepts one retired request. `latency` is the exact end-to-end
    /// integer-cycle latency (retirement cycle minus admission cycle) —
    /// already computed by the kernel, so sketch-style sinks need no
    /// float reconstruction.
    fn record(&mut self, completion: Completion, latency: Cycles);
}

/// Keeps every completion in memory — the default sink behind
/// `SimResult`-producing runs.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Completions in retirement order.
    pub completions: Vec<Completion>,
}

impl CompletionSink for VecSink {
    fn record(&mut self, completion: Completion, _latency: Cycles) {
        self.completions.push(completion);
    }
}

/// Drops every completion: aggregate tallies only (the kernel keeps
/// those itself). The record path compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink;

impl CompletionSink for DiscardSink {
    fn record(&mut self, _completion: Completion, _latency: Cycles) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Request;
    use planaria_model::units::Picojoules;
    use planaria_model::DnnId;

    fn completion(id: u64, finish: f64) -> Completion {
        Completion {
            request: Request {
                id,
                dnn: DnnId::ResNet50,
                arrival: finish - 0.25,
                priority: 5,
                qos: 1.0,
            },
            finish,
            energy: Picojoules::ZERO,
        }
    }

    #[test]
    fn vec_sink_keeps_retirement_order() {
        let mut s = VecSink::default();
        s.record(completion(2, 1.0), Cycles::new(10));
        s.record(completion(1, 2.0), Cycles::new(20));
        assert_eq!(s.completions.len(), 2);
        assert_eq!(s.completions[0].request.id, 2);
    }
}
