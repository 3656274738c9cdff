//! Validated geometry construction: the chip shape as a runtime value.
//!
//! The paper evaluates one fixed geometry (16 subarrays of 32×32 in 4
//! pods, §VI-A), but the design space behind Fig. 18 — granule size, pod
//! radix, off-chip bandwidth — is exactly what a deployment sweeps when
//! provisioning a fleet. This module makes any point in that space a
//! first-class value: [`GeometryBuilder`] applies the structural
//! invariants once, up front, and returns `Result` instead of panicking
//! mid-simulation.
//!
//! # Invariants enforced by [`GeometryBuilder::build`]
//!
//! * the fission granule tiles the PE array exactly (non-divisor
//!   granules would leave dead PEs the timing model cannot see);
//! * pods partition the granules (`subarrays_per_pod` divides the
//!   granule count) and are non-empty;
//! * the chip exposes at most [`MAX_MASK_SUBARRAYS`] granules — tenant
//!   placement masks are `u128` bitsets end-to-end (simulator, telemetry,
//!   Chrome traces), so a wider chip would silently alias subarray ids;
//! * clock frequency and per-channel bandwidth are positive and finite,
//!   and at least one DRAM channel and one SIMD lane exist.
//!
//! Multi-node fleets add one cross-node invariant, checked by
//! [`validate_fleet`]: every node must run on the same clock frequency
//! (the fabric's rounds share one cycle domain).

use crate::config::AcceleratorConfig;
use std::fmt;

/// Widest placement mask the simulator supports: tenant subarray masks
/// are `u128` bitsets, so a chip exposes at most 128 fission granules.
pub const MAX_MASK_SUBARRAYS: u32 = 128;

/// Clock derate applied when a pod crossbar's radix exceeds the paper's
/// 4×4 (§III-C: high-radix crossbars "can seriously curtail scaling up
/// the compute resources" — a radix-16 crossbar costs the design its
/// 700 MHz clock even with pipelining).
pub const CROSSBAR_DERATE: f64 = 0.85;

/// Why a requested geometry is not buildable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometryError {
    /// The PE array has a zero side.
    EmptyArray {
        /// Requested PE rows.
        rows: u32,
        /// Requested PE columns.
        cols: u32,
    },
    /// The fission granule has side zero.
    ZeroDim,
    /// The granule does not tile the PE array.
    NonDivisorDim {
        /// Requested granule side.
        dim: u32,
        /// PE rows of the array.
        rows: u32,
        /// PE columns of the array.
        cols: u32,
    },
    /// More granules than a `u128` placement mask can address.
    MaskOverflow {
        /// Granule count the geometry would expose.
        subarrays: u32,
    },
    /// A pod with zero subarrays (or a request for zero pods).
    ZeroPods,
    /// Pods do not partition the granules evenly.
    PodsDontPartition {
        /// Requested subarrays per pod.
        per_pod: u32,
        /// Total granule count.
        subarrays: u32,
    },
    /// Clock frequency is zero, negative, or not finite.
    BadFrequency {
        /// The rejected frequency, Hz.
        freq_hz: f64,
    },
    /// Per-channel DRAM bandwidth is zero, negative, or not finite.
    BadBandwidth {
        /// The rejected bandwidth, bytes/second.
        bytes_per_s: f64,
    },
    /// No off-chip memory channel.
    ZeroChannels,
    /// No SIMD lanes attached to the subarrays.
    ZeroSimdLanes,
    /// A fleet with no nodes.
    EmptyFleet,
    /// A fleet mixes clock frequencies across nodes.
    MixedClockFrequency {
        /// Index of the offending node.
        node: usize,
        /// Its clock frequency, Hz.
        freq_hz: f64,
        /// Node 0's clock frequency, Hz.
        expected: f64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GeometryError::EmptyArray { rows, cols } => {
                write!(f, "PE array {rows}x{cols} has a zero side")
            }
            GeometryError::ZeroDim => write!(f, "fission granule side must be nonzero"),
            GeometryError::NonDivisorDim { dim, rows, cols } => {
                write!(f, "granularity {dim} must divide the {rows}x{cols} array")
            }
            GeometryError::MaskOverflow { subarrays } => write!(
                f,
                "{subarrays} subarrays exceed the {MAX_MASK_SUBARRAYS}-granule u128 \
                 placement-mask capacity"
            ),
            GeometryError::ZeroPods => write!(f, "pods must hold at least one subarray"),
            GeometryError::PodsDontPartition { per_pod, subarrays } => write!(
                f,
                "{per_pod} subarrays per pod do not partition {subarrays} subarrays evenly"
            ),
            GeometryError::BadFrequency { freq_hz } => {
                write!(
                    f,
                    "clock frequency {freq_hz} Hz must be positive and finite"
                )
            }
            GeometryError::BadBandwidth { bytes_per_s } => write!(
                f,
                "DRAM bandwidth {bytes_per_s} B/s must be positive and finite"
            ),
            GeometryError::ZeroChannels => write!(f, "at least one DRAM channel is required"),
            GeometryError::ZeroSimdLanes => write!(f, "at least one SIMD lane is required"),
            GeometryError::EmptyFleet => write!(f, "a fleet needs at least one node"),
            GeometryError::MixedClockFrequency {
                node,
                freq_hz,
                expected,
            } => write!(
                f,
                "fabric nodes must share one clock frequency: node {node} runs at \
                 {freq_hz} Hz, node 0 at {expected} Hz"
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

/// How the builder derives the pod grouping at [`GeometryBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PodSpec {
    /// Explicit subarrays per pod.
    PerPod(u32),
    /// Explicit pod count; subarrays per pod is derived.
    Pods(u32),
    /// The paper's quadrant rule: four pods, however many granules each
    /// (one pod for a monolithic chip).
    Quadrant,
}

/// A validated-at-`build` constructor for [`AcceleratorConfig`].
///
/// Starts from the paper configuration and mutates one knob per call;
/// [`build`](Self::build) applies every structural invariant and returns
/// the finished config or a [`GeometryError`] naming the violation.
///
/// ```
/// use planaria_arch::geometry::GeometryBuilder;
///
/// let fine = GeometryBuilder::new().subarray_dim(16).pods(16).build().unwrap();
/// assert_eq!(fine.num_subarrays(), 64);
/// assert_eq!(fine.num_pods(), 16);
/// assert!(GeometryBuilder::new().subarray_dim(48).build().is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GeometryBuilder {
    cfg: AcceleratorConfig,
    pods: PodSpec,
    derate: bool,
}

impl Default for GeometryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GeometryBuilder {
    /// A builder seeded with the paper's Planaria configuration.
    pub fn new() -> Self {
        Self::from_config(AcceleratorConfig::planaria())
    }

    /// A builder seeded with an existing configuration (its pod grouping
    /// is kept unless overridden).
    pub fn from_config(cfg: AcceleratorConfig) -> Self {
        Self {
            pods: PodSpec::PerPod(cfg.subarrays_per_pod),
            derate: false,
            cfg,
        }
    }

    /// Sets the PE array sides.
    pub fn pe_array(mut self, rows: u32, cols: u32) -> Self {
        self.cfg.pe_rows = rows;
        self.cfg.pe_cols = cols;
        self
    }

    /// Sets the fission granule side; SIMD lanes follow the granule
    /// width (one lane per output column, as in every paper point).
    pub fn subarray_dim(mut self, dim: u32) -> Self {
        self.cfg.subarray_dim = dim;
        self.cfg.simd_lanes_per_subarray = dim;
        self
    }

    /// Sets the pod grouping by subarrays per pod.
    pub fn subarrays_per_pod(mut self, per_pod: u32) -> Self {
        self.pods = PodSpec::PerPod(per_pod);
        self
    }

    /// Sets the pod grouping by pod count (subarrays per pod is derived
    /// at build; the count must partition the granules).
    pub fn pods(mut self, pods: u32) -> Self {
        self.pods = PodSpec::Pods(pods);
        self
    }

    /// The paper's quadrant rule: the granules group into 4 pods (one
    /// for a monolithic chip), as `with_granularity` always did.
    pub fn quadrant_pods(mut self) -> Self {
        self.pods = PodSpec::Quadrant;
        self
    }

    /// Sets the clock frequency, Hz.
    pub fn frequency_hz(mut self, freq_hz: f64) -> Self {
        self.cfg.freq_hz = freq_hz;
        self
    }

    /// Sets the off-chip channel count.
    pub fn dram_channels(mut self, channels: u32) -> Self {
        self.cfg.dram_channels = channels;
        self
    }

    /// Scales the per-channel DRAM bandwidth (1.0 = the paper's
    /// 25 GB/s).
    pub fn bandwidth_scale(mut self, scale: f64) -> Self {
        self.cfg.dram_bw_per_channel *= scale;
        self
    }

    /// Overrides the SIMD lane count (normally follows the granule side).
    pub fn simd_lanes(mut self, lanes: u32) -> Self {
        self.cfg.simd_lanes_per_subarray = lanes;
        self
    }

    /// Sets the on-chip activation/output buffer capacity, bytes.
    pub fn onchip_buffer_bytes(mut self, bytes: u64) -> Self {
        self.cfg.onchip_buffer_bytes = bytes;
        self
    }

    /// Toggles the omni-directional switching network (§IV-A ablation).
    pub fn omnidirectional(mut self, on: bool) -> Self {
        self.cfg.omnidirectional = on;
        self
    }

    /// Applies the §III-C crossbar timing rule at build: a pod radix
    /// above 4 derates the clock by [`CROSSBAR_DERATE`].
    pub fn crossbar_derate(mut self) -> Self {
        self.derate = true;
        self
    }

    /// Validates every structural invariant and returns the finished
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`GeometryError`] violated, checked in
    /// structural order: array shape, granule tiling, mask capacity, pod
    /// partition, then clock/memory parameters.
    pub fn build(self) -> Result<AcceleratorConfig, GeometryError> {
        let mut cfg = self.cfg;
        if cfg.pe_rows == 0 || cfg.pe_cols == 0 {
            return Err(GeometryError::EmptyArray {
                rows: cfg.pe_rows,
                cols: cfg.pe_cols,
            });
        }
        if cfg.subarray_dim == 0 {
            return Err(GeometryError::ZeroDim);
        }
        if !cfg.pe_rows.is_multiple_of(cfg.subarray_dim)
            || !cfg.pe_cols.is_multiple_of(cfg.subarray_dim)
        {
            return Err(GeometryError::NonDivisorDim {
                dim: cfg.subarray_dim,
                rows: cfg.pe_rows,
                cols: cfg.pe_cols,
            });
        }
        let subarrays = (cfg.pe_rows / cfg.subarray_dim) * (cfg.pe_cols / cfg.subarray_dim);
        if subarrays > MAX_MASK_SUBARRAYS {
            return Err(GeometryError::MaskOverflow { subarrays });
        }
        let per_pod = match self.pods {
            PodSpec::PerPod(p) => p,
            PodSpec::Pods(0) => return Err(GeometryError::ZeroPods),
            PodSpec::Pods(n) => {
                if !subarrays.is_multiple_of(n) {
                    return Err(GeometryError::PodsDontPartition {
                        per_pod: subarrays / n,
                        subarrays,
                    });
                }
                subarrays / n
            }
            PodSpec::Quadrant => (subarrays / 4).max(1),
        };
        if per_pod == 0 {
            return Err(GeometryError::ZeroPods);
        }
        if !subarrays.is_multiple_of(per_pod) {
            return Err(GeometryError::PodsDontPartition { per_pod, subarrays });
        }
        cfg.subarrays_per_pod = per_pod;
        if self.derate && per_pod > 4 {
            cfg.freq_hz *= CROSSBAR_DERATE;
        }
        if !(cfg.freq_hz.is_finite() && cfg.freq_hz > 0.0) {
            return Err(GeometryError::BadFrequency {
                freq_hz: cfg.freq_hz,
            });
        }
        if !(cfg.dram_bw_per_channel.is_finite() && cfg.dram_bw_per_channel > 0.0) {
            return Err(GeometryError::BadBandwidth {
                bytes_per_s: cfg.dram_bw_per_channel,
            });
        }
        if cfg.dram_channels == 0 {
            return Err(GeometryError::ZeroChannels);
        }
        if cfg.simd_lanes_per_subarray == 0 {
            return Err(GeometryError::ZeroSimdLanes);
        }
        Ok(cfg)
    }
}

/// Re-validates an already-constructed configuration against every
/// builder invariant (hand-mutated configs enter the simulator here).
///
/// # Errors
///
/// Returns the first violated [`GeometryError`].
pub fn validate(cfg: &AcceleratorConfig) -> Result<(), GeometryError> {
    GeometryBuilder::from_config(*cfg).build().map(|_| ())
}

/// Validates a multi-node fleet: every node's geometry individually,
/// plus the fabric's shared-clock invariant (all nodes on node 0's
/// frequency — the epoch-synchronized rounds run one cycle domain).
///
/// # Errors
///
/// Returns [`GeometryError::EmptyFleet`] for no nodes, the first
/// per-node [`GeometryError`], or
/// [`GeometryError::MixedClockFrequency`] naming the first node whose
/// clock disagrees with node 0's.
pub fn validate_fleet(cfgs: &[AcceleratorConfig]) -> Result<(), GeometryError> {
    if cfgs.is_empty() {
        return Err(GeometryError::EmptyFleet);
    }
    for (node, cfg) in cfgs.iter().enumerate() {
        validate(cfg)?;
        if cfg.freq_hz != cfgs[0].freq_hz {
            return Err(GeometryError::MixedClockFrequency {
                node,
                freq_hz: cfg.freq_hz,
                expected: cfgs[0].freq_hz,
            });
        }
    }
    Ok(())
}

/// One named point of the geometry design space.
#[derive(Debug, Clone, Copy)]
pub struct NamedGeometry {
    /// Short sweep label (TSV row key).
    pub name: &'static str,
    /// The validated configuration.
    pub cfg: AcceleratorConfig,
}

/// The named single-chip sweep points: the Fig. 18 granule sweep
/// (16/32/64 with quadrant pods and the §III-C crossbar derate), a pod
/// radix sweep at the paper granule (1–8 pods), off-chip bandwidth
/// scaling, and the monolithic baseline.
///
/// Every point is validated by construction; the list is the canonical
/// input of the `ext_geometry` design-space exploration and
/// `planaria-cli explore --sweep`.
pub fn named_sweep() -> Vec<NamedGeometry> {
    let point = |name, builder: GeometryBuilder| NamedGeometry {
        name,
        // lint: every sweep point is a compile-time-known valid geometry
        cfg: builder.build().expect("named sweep points are valid"),
    };
    vec![
        point(
            "granule16",
            GeometryBuilder::new()
                .subarray_dim(16)
                .quadrant_pods()
                .crossbar_derate(),
        ),
        point("granule32", GeometryBuilder::new()),
        point(
            "granule64",
            GeometryBuilder::new()
                .subarray_dim(64)
                .quadrant_pods()
                .crossbar_derate(),
        ),
        point("pods1", GeometryBuilder::new().pods(1).crossbar_derate()),
        point("pods2", GeometryBuilder::new().pods(2).crossbar_derate()),
        point("pods4", GeometryBuilder::new().pods(4).crossbar_derate()),
        point("pods8", GeometryBuilder::new().pods(8).crossbar_derate()),
        point("bw-half", GeometryBuilder::new().bandwidth_scale(0.5)),
        point("bw-double", GeometryBuilder::new().bandwidth_scale(2.0)),
        point(
            "monolithic",
            GeometryBuilder::from_config(AcceleratorConfig::monolithic()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reproduces_the_paper_points_bit_exactly() {
        assert_eq!(
            GeometryBuilder::new().build().unwrap(),
            AcceleratorConfig::planaria()
        );
        assert_eq!(
            GeometryBuilder::from_config(AcceleratorConfig::monolithic())
                .build()
                .unwrap(),
            AcceleratorConfig::monolithic()
        );
        for dim in [16, 32, 64, 128] {
            let via_builder = GeometryBuilder::new()
                .subarray_dim(dim)
                .quadrant_pods()
                .crossbar_derate()
                .build()
                .unwrap();
            let legacy = AcceleratorConfig::with_granularity(dim);
            assert_eq!(via_builder, legacy, "dim {dim}");
            assert_eq!(via_builder.freq_hz.to_bits(), legacy.freq_hz.to_bits());
        }
    }

    #[test]
    fn non_divisor_granule_is_rejected_with_must_divide() {
        let err = GeometryBuilder::new().subarray_dim(48).build().unwrap_err();
        assert!(matches!(err, GeometryError::NonDivisorDim { dim: 48, .. }));
        assert!(err.to_string().contains("must divide"));
    }

    #[test]
    fn zero_inputs_are_rejected() {
        assert_eq!(
            GeometryBuilder::new().subarray_dim(0).build().unwrap_err(),
            GeometryError::ZeroDim
        );
        assert_eq!(
            GeometryBuilder::new().pe_array(0, 128).build().unwrap_err(),
            GeometryError::EmptyArray { rows: 0, cols: 128 }
        );
        assert_eq!(
            GeometryBuilder::new()
                .subarrays_per_pod(0)
                .build()
                .unwrap_err(),
            GeometryError::ZeroPods
        );
        assert_eq!(
            GeometryBuilder::new().pods(0).build().unwrap_err(),
            GeometryError::ZeroPods
        );
        assert_eq!(
            GeometryBuilder::new().dram_channels(0).build().unwrap_err(),
            GeometryError::ZeroChannels
        );
        assert_eq!(
            GeometryBuilder::new().simd_lanes(0).build().unwrap_err(),
            GeometryError::ZeroSimdLanes
        );
    }

    #[test]
    fn mask_overflow_is_rejected_not_aliased() {
        // An 8-PE granule on the 128x128 array yields 256 subarrays —
        // more than a u128 placement mask can address. Before the
        // builder this was a silent aliasing hazard.
        let err = GeometryBuilder::new()
            .subarray_dim(8)
            .quadrant_pods()
            .build()
            .unwrap_err();
        assert_eq!(err, GeometryError::MaskOverflow { subarrays: 256 });
        assert!(err.to_string().contains("placement-mask"));
        // 128 granules (the exact capacity) still build: 8x16 granules
        // via a 64x256 array of dim 8? Keep it simple: dim 16 on a
        // 128x256 array = 8*16 = 128 granules.
        let ok = GeometryBuilder::new()
            .pe_array(128, 256)
            .subarray_dim(16)
            .pods(16)
            .build()
            .unwrap();
        assert_eq!(ok.num_subarrays(), MAX_MASK_SUBARRAYS);
    }

    #[test]
    fn pods_must_partition_the_granules() {
        assert!(matches!(
            GeometryBuilder::new().pods(3).build().unwrap_err(),
            GeometryError::PodsDontPartition { subarrays: 16, .. }
        ));
        assert!(matches!(
            GeometryBuilder::new()
                .subarrays_per_pod(5)
                .build()
                .unwrap_err(),
            GeometryError::PodsDontPartition {
                per_pod: 5,
                subarrays: 16
            }
        ));
    }

    #[test]
    fn bad_scalars_are_rejected() {
        assert!(matches!(
            GeometryBuilder::new()
                .frequency_hz(0.0)
                .build()
                .unwrap_err(),
            GeometryError::BadFrequency { .. }
        ));
        assert!(matches!(
            GeometryBuilder::new()
                .frequency_hz(f64::NAN)
                .build()
                .unwrap_err(),
            GeometryError::BadFrequency { .. }
        ));
        assert!(matches!(
            GeometryBuilder::new()
                .bandwidth_scale(-1.0)
                .build()
                .unwrap_err(),
            GeometryError::BadBandwidth { .. }
        ));
    }

    #[test]
    fn crossbar_derate_only_fires_past_radix_four() {
        let radix4 = GeometryBuilder::new().crossbar_derate().build().unwrap();
        assert_eq!(radix4.freq_hz.to_bits(), 700e6f64.to_bits());
        let radix16 = GeometryBuilder::new()
            .pods(1)
            .crossbar_derate()
            .build()
            .unwrap();
        assert_eq!(radix16.subarrays_per_pod, 16);
        assert_eq!(
            radix16.freq_hz.to_bits(),
            (700e6 * CROSSBAR_DERATE).to_bits()
        );
    }

    #[test]
    fn fleet_validation_requires_one_clock() {
        let a = AcceleratorConfig::planaria();
        let mut b = a;
        b.freq_hz = a.freq_hz * 2.0;
        let err = validate_fleet(&[a, b]).unwrap_err();
        assert!(matches!(
            err,
            GeometryError::MixedClockFrequency { node: 1, .. }
        ));
        assert!(err.to_string().contains("share one clock frequency"));
        assert!(validate_fleet(&[a, a, AcceleratorConfig::monolithic()]).is_ok());
        assert_eq!(validate_fleet(&[]), Err(GeometryError::EmptyFleet));
    }

    #[test]
    fn fleet_validation_rejects_invalid_members() {
        let mut bad = AcceleratorConfig::planaria();
        bad.subarray_dim = 48;
        assert!(matches!(
            validate_fleet(&[AcceleratorConfig::planaria(), bad]).unwrap_err(),
            GeometryError::NonDivisorDim { dim: 48, .. }
        ));
    }

    #[test]
    fn named_sweep_points_are_distinct_and_valid() {
        let points = named_sweep();
        assert!(points.len() >= 10);
        for (i, p) in points.iter().enumerate() {
            assert!(validate(&p.cfg).is_ok(), "{}", p.name);
            assert_eq!(p.cfg.total_pes(), 16_384, "{}", p.name);
            for q in &points[i + 1..] {
                assert!(
                    !(p.name == q.name || p.cfg == q.cfg && p.name != "granule32"),
                    "{} duplicates {}",
                    p.name,
                    q.name
                );
            }
        }
    }
}
