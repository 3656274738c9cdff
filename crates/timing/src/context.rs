//! Execution context: the slice of the chip a logical accelerator owns.

use planaria_arch::AcceleratorConfig;
use planaria_model::units::Bytes;

/// Resources available to one logical accelerator while executing a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecContext {
    /// Chip configuration.
    pub cfg: AcceleratorConfig,
    /// Subarrays owned by this logical accelerator.
    pub subarrays: u32,
    /// Pro-rata share of the chip's DRAM channels. Fractional: co-located
    /// tenants in one pod share that pod's channel, so an allocation of `s`
    /// granules out of 16 owns `s/4` channels — bandwidth is conserved
    /// across tenants.
    pub dram_channels: f64,
    /// On-chip activation+output buffer share.
    pub buffer_bytes: Bytes,
}

impl ExecContext {
    /// Context for an allocation of `subarrays` granules, with the pro-rata
    /// buffer share and one DRAM channel per spanned pod.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the chip.
    #[inline]
    pub fn for_allocation(cfg: &AcceleratorConfig, subarrays: u32) -> Self {
        assert!(
            subarrays >= 1 && subarrays <= cfg.num_subarrays(),
            "allocation of {subarrays} subarrays out of range 1..={}",
            cfg.num_subarrays()
        );
        let channels =
            f64::from(subarrays) * f64::from(cfg.dram_channels) / f64::from(cfg.num_subarrays());
        Self {
            cfg: *cfg,
            subarrays,
            dram_channels: channels,
            buffer_bytes: Bytes::new(cfg.buffer_share(subarrays)),
        }
    }

    /// Context owning the entire chip.
    pub fn full_chip(cfg: &AcceleratorConfig) -> Self {
        Self::for_allocation(cfg, cfg.num_subarrays())
    }

    /// Activation-buffer share (2/3 of the buffer, the TPU-like split).
    pub fn act_buffer_bytes(&self) -> Bytes {
        self.buffer_bytes * 2 / 3
    }

    /// Output-buffer share (remaining 1/3).
    pub fn out_buffer_bytes(&self) -> Bytes {
        self.buffer_bytes - self.act_buffer_bytes()
    }

    /// Weight-buffer capacity across the allocation (per-PE buffers).
    pub fn weight_buffer_bytes(&self) -> Bytes {
        let pes = u64::from(self.subarrays)
            * u64::from(self.cfg.subarray_dim)
            * u64::from(self.cfg.subarray_dim);
        Bytes::new(pes * self.cfg.weight_buffer_per_pe)
    }

    /// Off-chip bytes per cycle over this allocation's bandwidth share.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_channels * self.cfg.dram_bw_per_channel / self.cfg.freq_hz
    }

    /// SIMD lanes across the allocation.
    pub fn simd_lanes(&self) -> u64 {
        u64::from(self.subarrays) * u64::from(self.cfg.simd_lanes_per_subarray)
    }

    /// Total PEs in the allocation.
    pub fn pes(&self) -> u64 {
        u64::from(self.subarrays)
            * u64::from(self.cfg.subarray_dim)
            * u64::from(self.cfg.subarray_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_chip_gets_everything() {
        let cfg = AcceleratorConfig::planaria();
        let ctx = ExecContext::full_chip(&cfg);
        assert_eq!(ctx.subarrays, 16);
        assert!((ctx.dram_channels - 4.0).abs() < 1e-9);
        assert_eq!(ctx.buffer_bytes, Bytes::new(cfg.onchip_buffer_bytes));
        assert_eq!(ctx.pes(), 16_384);
        assert_eq!(ctx.simd_lanes(), 512);
    }

    #[test]
    fn bandwidth_shares_are_pro_rata_and_conserved() {
        let cfg = AcceleratorConfig::planaria();
        let total: f64 = (0..4)
            .map(|_| ExecContext::for_allocation(&cfg, 4).dram_channels)
            .sum();
        assert!(
            (total - 4.0).abs() < 1e-9,
            "four quarter-tenants own the chip"
        );
        assert!((ExecContext::for_allocation(&cfg, 1).dram_channels - 0.25).abs() < 1e-9);
        assert!((ExecContext::for_allocation(&cfg, 9).dram_channels - 2.25).abs() < 1e-9);
    }

    #[test]
    fn buffer_split_two_to_one() {
        let cfg = AcceleratorConfig::planaria();
        let ctx = ExecContext::full_chip(&cfg);
        assert_eq!(
            ctx.act_buffer_bytes() + ctx.out_buffer_bytes(),
            ctx.buffer_bytes
        );
        assert!(ctx.act_buffer_bytes() > ctx.out_buffer_bytes());
    }

    #[test]
    fn monolithic_context() {
        let cfg = AcceleratorConfig::monolithic();
        let ctx = ExecContext::full_chip(&cfg);
        assert_eq!(ctx.subarrays, 1);
        assert_eq!(ctx.pes(), 16_384);
        // The monolithic baseline keeps all four DRAM channels.
        assert!((ctx.dram_channels - 4.0).abs() < 1e-9);
        assert_eq!(ctx.simd_lanes(), 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_allocation_panics() {
        let cfg = AcceleratorConfig::planaria();
        let _ = ExecContext::for_allocation(&cfg, 17);
    }
}
