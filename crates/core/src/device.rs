//! The modeled accelerator device: clock, replication, DMA link.

use crate::fault::FaultConfig;
use genesis_hw::{EngineMode, MemoryConfig};
use genesis_obs::TraceConfig;
use std::time::Duration;

/// The host↔FPGA DMA link model (paper §V-B: "the host communicates to and
/// from the FPGA via a PCIe DMA interface, which is measured at
/// approximately 7 GB/s on our custom microbenchmark").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Fixed per-transfer setup latency.
    pub per_transfer_latency: Duration,
}

impl DmaModel {
    /// The paper's measured PCIe 3 DMA: ~7 GB/s.
    #[must_use]
    pub fn pcie3() -> DmaModel {
        DmaModel { bandwidth: 7.0e9, per_transfer_latency: Duration::from_micros(30) }
    }

    /// The paper's PCIe 4.0 what-if: 32 GB/s (§V-B).
    #[must_use]
    pub fn pcie4() -> DmaModel {
        DmaModel { bandwidth: 32.0e9, per_transfer_latency: Duration::from_micros(30) }
    }

    /// An arbitrary bandwidth (for the `ablation_pcie` sweep).
    #[must_use]
    pub fn with_bandwidth(bytes_per_sec: f64) -> DmaModel {
        DmaModel { bandwidth: bytes_per_sec, per_transfer_latency: Duration::from_micros(30) }
    }

    /// Transfer time for `bytes` moved in `transfers` DMA operations.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64, transfers: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bandwidth)
            + self.per_transfer_latency * transfers as u32
    }
}

/// Tiered-memory model in physical units: how much scratchpad state stays
/// on chip, how much spills to device DRAM, and what the PCIe link to the
/// host spill pool costs. Converted to the simulator's cycle-domain
/// [`genesis_hw::TierParams`] via [`TierConfig::to_params`] at system
/// build time, so the same config means the same physics at any modeled
/// clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierConfig {
    /// Modeled on-chip SPM capacity in bytes shared by all paged
    /// scratchpads (scratchpads that fit entirely are pinned and never
    /// wait).
    pub spm_bytes: u64,
    /// Device DRAM spill capacity in bytes.
    pub dram_bytes: u64,
    /// Host DRAM spill pool in bytes; `0` = unbounded (no admission
    /// failure).
    pub host_bytes: u64,
    /// Spill/fill granularity in bytes.
    pub page_bytes: u64,
    /// PCIe link bandwidth in bytes per second.
    pub pcie_bandwidth: f64,
    /// PCIe per-transfer latency.
    pub pcie_latency: Duration,
    /// Device DRAM port bandwidth in bytes per second.
    pub dram_bandwidth: f64,
    /// Device DRAM access latency.
    pub dram_latency: Duration,
    /// Maximum concurrently in-flight page transfers.
    pub max_inflight: usize,
}

impl Default for TierConfig {
    /// 4 MiB of modeled SPM over 1 GiB of device DRAM, an 8 GB/s / 800 ns
    /// PCIe link, a 16 GB/s / 400 ns DRAM port, 4 KiB pages — at the
    /// paper's 250 MHz clock this lands exactly on
    /// [`genesis_hw::TierParams::default`] (200/32 PCIe, 100/64 DRAM
    /// cycles/bytes-per-cycle).
    fn default() -> TierConfig {
        TierConfig {
            spm_bytes: 4 << 20,
            dram_bytes: 1 << 30,
            host_bytes: 0,
            page_bytes: 4096,
            pcie_bandwidth: 8.0e9,
            pcie_latency: Duration::from_nanos(800),
            dram_bandwidth: 16.0e9,
            dram_latency: Duration::from_nanos(400),
            max_inflight: 8,
        }
    }
}

impl TierConfig {
    /// Converts this physical-unit config to simulator cycle units at
    /// `clock_hz`. Bandwidths round to whole bytes/cycle (minimum 1),
    /// latencies to whole cycles.
    #[must_use]
    pub fn to_params(&self, clock_hz: f64) -> genesis_hw::TierParams {
        let bpc = |bw: f64| ((bw / clock_hz).round() as u64).max(1);
        let cycles = |d: Duration| (d.as_secs_f64() * clock_hz).round() as u64;
        genesis_hw::TierParams {
            page_bytes: self.page_bytes.max(64),
            spm_bytes: self.spm_bytes,
            dram_bytes: self.dram_bytes,
            host_bytes: self.host_bytes,
            pcie_lat_cycles: cycles(self.pcie_latency),
            pcie_bytes_per_cycle: bpc(self.pcie_bandwidth),
            dram_lat_cycles: cycles(self.dram_latency),
            dram_bytes_per_cycle: bpc(self.dram_bandwidth),
            max_inflight: self.max_inflight.max(1),
        }
    }

    /// PCIe link capacity in bytes/cycle at `clock_hz` — the budget the
    /// replication chooser divides among replicated pipelines.
    #[must_use]
    pub fn link_bytes_per_cycle(&self, clock_hz: f64) -> f64 {
        self.pcie_bandwidth / clock_hz.max(1.0)
    }
}

/// Full device configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Accelerator clock (paper: 250 MHz).
    pub clock_hz: f64,
    /// Number of replicated pipelines sharing the memory system
    /// (paper §V-A: 16× for mark duplicates and metadata update,
    /// 8× for BQSR).
    pub pipelines: usize,
    /// DMA link.
    pub dma: DmaModel,
    /// Device memory system configuration.
    pub mem: MemoryConfig,
    /// Partition window size in base pairs (paper: ~1 Mbp).
    pub psize: u32,
    /// Simulation engine every batch system runs on: the fast (park/wake)
    /// engine by default, the naive reference engine as the differential
    /// oracle. The two are bit-identical.
    pub engine: EngineMode,
    /// Host worker threads simulating independent batches concurrently
    /// (`0` = auto-detect, one per available host core); see
    /// [`DeviceConfig::resolved_host_threads`].
    pub host_threads: usize,
    /// Opt-in engine tracing for every batch system the accelerators
    /// spawn (off by default). When enabled with a path, each accelerator
    /// run writes the merged Chrome trace there plus a
    /// `<path>.stalls.txt` flame table (a later run overwrites an earlier
    /// one).
    pub trace: TraceConfig,
    /// Fault injection and recovery policy. The default is inert: no
    /// injection, no retries, no fallback.
    pub faults: FaultConfig,
    /// Tiered-memory model: `None` (the default) keeps every scratchpad
    /// fully on chip; `Some` bounds on-chip SPM and spills page-granularly
    /// to device DRAM and the host over the modeled PCIe link.
    pub tiers: Option<TierConfig>,
    /// Predicate pushdown into the scan: absorb supported `WHERE`
    /// conjuncts over a scan directly into `PreparedScan` so only
    /// surviving rows are serialized to the device (the host-side analog
    /// of in-storage filtering). On by default; turn off to force every
    /// predicate through lowered Filter modules (e.g. for differential
    /// testing of the module path).
    pub pushdown: bool,
}

impl Default for DeviceConfig {
    /// F1-like defaults at the paper's configuration — a pure value; the
    /// environment enters only through [`DeviceConfig::from_env`].
    fn default() -> DeviceConfig {
        DeviceConfig {
            clock_hz: 250.0e6,
            pipelines: 16,
            dma: DmaModel::pcie3(),
            mem: MemoryConfig::default(),
            psize: 1_000_000,
            engine: EngineMode::default(),
            host_threads: 0,
            trace: TraceConfig::off(),
            faults: FaultConfig::default(),
            tiers: None,
            pushdown: true,
        }
    }
}

impl DeviceConfig {
    /// F1-like defaults with the engine, trace, fault, host-thread and
    /// tier settings of the validated `GENESIS_*` environment
    /// ([`crate::env::GenesisEnv`]). The environment is read once, here;
    /// whatever `with_*` call follows wins.
    ///
    /// # Errors
    ///
    /// [`crate::env::EnvError`] for the first malformed variable.
    pub fn from_env() -> Result<DeviceConfig, crate::env::EnvError> {
        Ok(crate::env::GenesisEnv::load()?.device_config())
    }

    /// A configuration scaled down for unit tests: 4 pipelines, 20 kbp
    /// partitions, low memory latency.
    #[must_use]
    pub fn small() -> DeviceConfig {
        DeviceConfig {
            pipelines: 4,
            psize: 20_000,
            mem: MemoryConfig { latency_cycles: 20, ..MemoryConfig::default() },
            ..DeviceConfig::default()
        }
    }

    /// Sets the pipeline replication factor.
    #[must_use]
    pub fn with_pipelines(mut self, n: usize) -> DeviceConfig {
        self.pipelines = n.max(1);
        self
    }

    /// Sets the partition window size.
    #[must_use]
    pub fn with_psize(mut self, psize: u32) -> DeviceConfig {
        self.psize = psize;
        self
    }

    /// Selects the simulation engine.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> DeviceConfig {
        self.engine = engine;
        self
    }

    /// Sets the host worker-thread count (`0` = auto-detect).
    #[must_use]
    pub fn with_host_threads(mut self, n: usize) -> DeviceConfig {
        self.host_threads = n;
        self
    }

    /// Sets the tracing configuration.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> DeviceConfig {
        self.trace = trace;
        self
    }

    /// Sets the fault injection and recovery policy.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> DeviceConfig {
        self.faults = faults;
        self
    }

    /// Enables the tiered-memory model.
    #[must_use]
    pub fn with_tiers(mut self, tiers: TierConfig) -> DeviceConfig {
        self.tiers = Some(tiers);
        self
    }

    /// Enables or disables predicate pushdown into the scan (on by
    /// default).
    #[must_use]
    pub fn with_pushdown(mut self, on: bool) -> DeviceConfig {
        self.pushdown = on;
        self
    }

    /// Effective host worker-thread count: [`DeviceConfig::host_threads`]
    /// when non-zero, otherwise the number of available host cores.
    #[must_use]
    pub fn resolved_host_threads(&self) -> usize {
        if self.host_threads > 0 {
            return self.host_threads;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Converts simulated cycles to device wall-clock time.
    #[must_use]
    pub fn cycles_to_time(&self, cycles: u64) -> Duration {
        Duration::from_secs_f64(cycles as f64 / self.clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_transfer_time() {
        let dma = DmaModel::pcie3();
        let t = dma.transfer_time(7_000_000_000, 0);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = dma.transfer_time(0, 10);
        assert_eq!(t2, Duration::from_micros(300));
    }

    #[test]
    fn pcie4_is_faster() {
        let b = 1_000_000_000u64;
        assert!(DmaModel::pcie4().transfer_time(b, 1) < DmaModel::pcie3().transfer_time(b, 1));
    }

    #[test]
    fn cycles_to_time_at_250mhz() {
        let cfg = DeviceConfig::default();
        assert!((cfg.cycles_to_time(250_000_000).as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let cfg = DeviceConfig::default().with_pipelines(0).with_psize(5);
        assert_eq!(cfg.pipelines, 1);
        assert_eq!(cfg.psize, 5);
        assert_eq!(cfg.tiers, None);
        let tiered = cfg.with_tiers(TierConfig::default());
        assert!(tiered.tiers.is_some());
    }

    #[test]
    fn default_tiers_land_on_simulator_defaults_at_250mhz() {
        // The physical-unit defaults were chosen so the cycle-domain
        // conversion at the paper's clock reproduces TierParams::default —
        // one source of truth for "what the tiers cost".
        let p = TierConfig::default().to_params(250.0e6);
        assert_eq!(p, genesis_hw::TierParams::default());
    }

    #[test]
    fn tier_conversion_scales_with_clock() {
        let t = TierConfig::default();
        let fast = t.to_params(500.0e6);
        // Same physics at twice the clock: twice the latency in cycles,
        // half the bytes per cycle.
        assert_eq!(fast.pcie_lat_cycles, 400);
        assert_eq!(fast.pcie_bytes_per_cycle, 16);
        assert!((t.link_bytes_per_cycle(250.0e6) - 32.0).abs() < 1e-9);
    }
}
