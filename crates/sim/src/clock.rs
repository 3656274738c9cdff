//! The single place where wall-clock seconds and integer [`Cycles`] meet.
//!
//! Everything inside the kernel and the engines runs on integer cycles;
//! the conversions below happen exactly once, at the trace /
//! [`SimResult`](planaria_workload::SimResult) boundary. This file is the
//! allowlisted exception to the `planaria-checks` time-domain lint — new
//! float-time arithmetic belongs here or nowhere.

use planaria_arch::AcceleratorConfig;
use planaria_model::units::Cycles;
use planaria_telemetry::SimMeta;
use planaria_workload::Request;

/// Converts between absolute trace seconds and kernel cycles.
///
/// Kernel time is cycles since `origin_seconds` (the run's first
/// arrival), so a run starting late in a long trace does not lose cycle
/// resolution to float rounding of large absolute timestamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    origin_seconds: f64,
    freq_hz: f64,
}

impl SimClock {
    /// A clock at `freq_hz` whose cycle 0 is `origin_seconds`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive and finite.
    pub fn new(origin_seconds: f64, freq_hz: f64) -> Self {
        assert!(
            freq_hz > 0.0 && freq_hz.is_finite(),
            "clock frequency must be positive and finite, got {freq_hz}"
        );
        Self {
            origin_seconds,
            freq_hz,
        }
    }

    /// A clock for `cfg` with origin 0.
    pub fn for_config(cfg: &AcceleratorConfig) -> Self {
        Self::new(0.0, cfg.freq_hz)
    }

    /// The clock frequency, Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// The absolute time of cycle 0, seconds.
    pub fn origin_seconds(&self) -> f64 {
        self.origin_seconds
    }

    /// Absolute seconds → cycles since the origin (rounded to the
    /// nearest cycle; times before the origin clamp to 0).
    pub fn cycles_from_seconds(&self, seconds: f64) -> Cycles {
        Cycles::new(
            ((seconds - self.origin_seconds) * self.freq_hz)
                .max(0.0)
                .round() as u64,
        )
    }

    /// The cycle `request` arrives at, checked where requests enter a run.
    ///
    /// # Panics
    ///
    /// Panics if the arrival is not finite, or lies 2^63 or more cycles
    /// past the origin (scheduler slack is a signed `i64` cycle count).
    #[inline]
    pub fn check_arrival(&self, request: &Request) -> Cycles {
        let Request { id, arrival, .. } = *request;
        let at = self.cycles_from_seconds(arrival);
        assert!(
            arrival.is_finite() && at.get() < 1 << 63,
            "request {id} arrives at {arrival} s, outside the clock's range"
        );
        at
    }

    /// A duration in seconds → cycles (rounded; negatives clamp to 0).
    pub fn duration_cycles(&self, seconds: f64) -> Cycles {
        Cycles::new((seconds * self.freq_hz).max(0.0).round() as u64)
    }

    /// Cycles since the origin → absolute seconds.
    pub fn to_seconds(&self, cycles: Cycles) -> f64 {
        self.origin_seconds + cycles.as_f64() / self.freq_hz
    }

    /// A cycle count → duration in seconds.
    pub fn span_seconds(&self, cycles: Cycles) -> f64 {
        cycles.as_f64() / self.freq_hz
    }

    /// The telemetry metadata for a chip of `total_subarrays` granules
    /// on this clock.
    pub fn meta(&self, total_subarrays: u32) -> SimMeta {
        SimMeta {
            freq_hz: self.freq_hz,
            total_subarrays,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_cycle_resolution() {
        let c = SimClock::new(1.5, 700e6);
        let cy = c.cycles_from_seconds(1.5 + 1e-3);
        assert_eq!(cy, Cycles::new(700_000));
        assert!((c.to_seconds(cy) - (1.5 + 1e-3)).abs() < 1e-12);
        assert!((c.span_seconds(Cycles::new(700)) - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn times_before_origin_clamp_to_zero() {
        let c = SimClock::new(10.0, 1e9);
        assert_eq!(c.cycles_from_seconds(9.0), Cycles::ZERO);
        assert_eq!(c.duration_cycles(-1.0), Cycles::ZERO);
    }

    #[test]
    fn rounds_to_nearest_cycle() {
        let c = SimClock::new(0.0, 1.0);
        assert_eq!(c.duration_cycles(2.4), Cycles::new(2));
        assert_eq!(c.duration_cycles(2.6), Cycles::new(3));
    }

    #[test]
    fn meta_carries_clock_and_chip() {
        let c = SimClock::for_config(&AcceleratorConfig::planaria());
        let m = c.meta(16);
        assert_eq!(m.total_subarrays, 16);
        assert_eq!(m.freq_hz, c.freq_hz());
        assert_eq!(c.origin_seconds(), 0.0);
    }

    #[test]
    fn check_arrival_accepts_cycles_below_two_to_the_63() {
        let c = SimClock::new(0.0, 1.0);
        let at = |arrival| Request {
            id: 0,
            dnn: planaria_model::DnnId::TinyYolo,
            arrival,
            priority: 1,
            qos: 1.0,
        };
        let last = 2f64.powi(63) - 1024.0; // the largest f64 below 2^63
        assert_eq!(c.check_arrival(&at(last)).get(), last as u64);
        for bad in [2f64.powi(63), f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let rejected = std::panic::catch_unwind(|| c.check_arrival(&at(bad)));
            assert!(rejected.is_err(), "{bad} s accepted");
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_frequency_rejected() {
        let _ = SimClock::new(0.0, 0.0);
    }
}
