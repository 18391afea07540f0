//! Performance accounting: the numbers behind Figure 13.

use crate::fault::FaultReport;
use std::fmt;
use std::time::Duration;

/// Statistics of one accelerated stage run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccelStats {
    /// Total simulated accelerator cycles (summed over sequential batches;
    /// parallel pipelines within a batch share cycles).
    pub cycles: u64,
    /// Bytes DMA'd host → device.
    pub dma_in_bytes: u64,
    /// Bytes DMA'd device → host.
    pub dma_out_bytes: u64,
    /// Number of DMA transfers.
    pub dma_transfers: u64,
    /// Device-memory traffic in bytes.
    pub device_mem_bytes: u64,
    /// Accelerator invocations (one per partition batch).
    pub invocations: u64,
    /// Backpressure stall events observed in the dataflow.
    pub backpressure_stalls: u64,
    /// Total flits moved through all hardware queues (simulated work — the
    /// numerator of the simulator's flits/sec throughput metric).
    pub total_flits: u64,
    /// Module ticks the simulator ran (`genesis_hw::SimStats::module_ticks`):
    /// its host work per flit moved is `module_ticks / total_flits`. Depends
    /// on the engine, like the stall split below.
    pub module_ticks: u64,
    /// Module-cycles spent doing observable work (summed over every module
    /// of every batch system; see `genesis_obs::StallCounters`).
    pub active_cycles: u64,
    /// Module-cycles parked waiting for input data.
    pub input_starved_cycles: u64,
    /// Module-cycles parked waiting for output space.
    pub backpressured_cycles: u64,
    /// Module-cycles parked inside a device-memory latency window.
    pub memory_wait_cycles: u64,
    /// Module-cycles parked waiting for tiered-memory page spills/fills
    /// (zero when `GENESIS_TIERS` is off or every scratchpad fits on
    /// chip).
    pub spill_wait_cycles: u64,
    /// Tiered-memory pages filled into SPM (demand misses + prefetches).
    pub tier_pages_filled: u64,
    /// Tiered-memory pages evicted out of SPM.
    pub tier_pages_spilled: u64,
    /// Demand touches absorbed by an earlier prefetch.
    pub tier_prefetch_hits: u64,
    /// Bytes moved across the modeled PCIe spill link.
    pub tier_pcie_bytes: u64,
    /// Catalog rows inspected by the prepared scans, *before* any pushed
    /// predicate dropped rows (equals `rows_emitted` when nothing was
    /// pushed down).
    pub rows_scanned: u64,
    /// Catalog rows that survived pushed predicates and were actually
    /// serialized to the device as MemoryReader input.
    pub rows_emitted: u64,
    /// Cycles charged for FPGA reconfiguration by the serving layer's
    /// compiled-pipeline cache on a cache miss (zero when the job hit the
    /// cache or bypassed the server). Included in `cycles`.
    pub reconfig_cycles: u64,
    /// Injected faults observed and recovery actions taken (all zeros in a
    /// fault-free run).
    pub faults: FaultReport,
}

impl AccelStats {
    /// Accumulates another run's statistics.
    pub fn absorb(&mut self, other: AccelStats) {
        self.cycles += other.cycles;
        self.dma_in_bytes += other.dma_in_bytes;
        self.dma_out_bytes += other.dma_out_bytes;
        self.dma_transfers += other.dma_transfers;
        self.device_mem_bytes += other.device_mem_bytes;
        self.invocations += other.invocations;
        self.backpressure_stalls += other.backpressure_stalls;
        self.total_flits += other.total_flits;
        self.module_ticks += other.module_ticks;
        self.active_cycles += other.active_cycles;
        self.input_starved_cycles += other.input_starved_cycles;
        self.backpressured_cycles += other.backpressured_cycles;
        self.memory_wait_cycles += other.memory_wait_cycles;
        self.spill_wait_cycles += other.spill_wait_cycles;
        self.tier_pages_filled += other.tier_pages_filled;
        self.tier_pages_spilled += other.tier_pages_spilled;
        self.tier_prefetch_hits += other.tier_prefetch_hits;
        self.tier_pcie_bytes += other.tier_pcie_bytes;
        self.rows_scanned += other.rows_scanned;
        self.rows_emitted += other.rows_emitted;
        self.reconfig_cycles += other.reconfig_cycles;
        self.faults.absorb(other.faults);
    }

    /// Fraction of module-cycles spent in each stall class, as
    /// `(active, input-starved, backpressured, memory-wait, spill-wait)`;
    /// all zeros before any run.
    #[must_use]
    pub fn stall_fractions(&self) -> [f64; 5] {
        let t = self.active_cycles
            + self.input_starved_cycles
            + self.backpressured_cycles
            + self.memory_wait_cycles
            + self.spill_wait_cycles;
        if t == 0 {
            return [0.0; 5];
        }
        let t = t as f64;
        [
            self.active_cycles as f64 / t,
            self.input_starved_cycles as f64 / t,
            self.backpressured_cycles as f64 / t,
            self.memory_wait_cycles as f64 / t,
            self.spill_wait_cycles as f64 / t,
        ]
    }
}

impl fmt::Display for AccelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, i, b, m, s] = self.stall_fractions();
        write!(
            f,
            "cycles {} | dma {} B in / {} B out ({} transfers) | device mem {} B | \
             invocations {} | flits {} | backpressure stalls {} | \
             module-cycles: active {:.1}% input {:.1}% backpr {:.1}% mem {:.1}% spill {:.1}%",
            self.cycles,
            self.dma_in_bytes,
            self.dma_out_bytes,
            self.dma_transfers,
            self.device_mem_bytes,
            self.invocations,
            self.total_flits,
            self.backpressure_stalls,
            a * 100.0,
            i * 100.0,
            b * 100.0,
            m * 100.0,
            s * 100.0,
        )?;
        if self.tier_pages_filled + self.tier_pages_spilled + self.tier_pcie_bytes > 0 {
            write!(
                f,
                " | tier: {} filled / {} spilled / {} prefetch hits / {} PCIe B",
                self.tier_pages_filled,
                self.tier_pages_spilled,
                self.tier_prefetch_hits,
                self.tier_pcie_bytes,
            )?;
        }
        if self.rows_scanned > 0 {
            write!(f, " | scan: {} scanned / {} emitted", self.rows_scanned, self.rows_emitted)?;
        }
        if self.reconfig_cycles > 0 {
            write!(f, " | reconfig {} cycles", self.reconfig_cycles)?;
        }
        if !self.faults.is_empty() {
            write!(f, " | faults: {}", self.faults)?;
        }
        Ok(())
    }
}

/// The Figure 13(b) wall-clock breakdown of an accelerated stage:
/// host software portion, host↔FPGA communication, and accelerator
/// execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Un-accelerated host software time (measured).
    pub host: Duration,
    /// Host↔FPGA DMA time (modeled).
    pub dma: Duration,
    /// Accelerator execution time (simulated cycles / clock).
    pub accel: Duration,
}

impl Breakdown {
    /// Total accelerated-stage wall-clock time. DMA and accelerator
    /// execution are serialized with the host portion, matching the
    /// paper's per-stage accounting (overlap across *stages* is what the
    /// non-blocking API buys, not overlap within one stage's invocation).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.host + self.dma + self.accel
    }

    /// Fractions of the total, as plotted in Figure 13(b).
    #[must_use]
    pub fn fractions(&self) -> [(&'static str, f64); 3] {
        let t = self.total().as_secs_f64().max(1e-12);
        [
            ("host software", self.host.as_secs_f64() / t),
            ("host-FPGA communication", self.dma.as_secs_f64() / t),
            ("accelerator execution", self.accel.as_secs_f64() / t),
        ]
    }

    /// Speedup of this accelerated stage over a software baseline.
    #[must_use]
    pub fn speedup_over(&self, baseline: Duration) -> f64 {
        baseline.as_secs_f64() / self.total().as_secs_f64().max(1e-12)
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {:.3?} = host {:.3?} + dma {:.3?} + accel {:.3?}",
            self.total(),
            self.host,
            self.dma,
            self.accel
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = AccelStats { cycles: 10, dma_in_bytes: 100, ..AccelStats::default() };
        a.absorb(AccelStats { cycles: 5, dma_out_bytes: 7, invocations: 1, ..AccelStats::default() });
        assert_eq!(a.cycles, 15);
        assert_eq!(a.dma_in_bytes, 100);
        assert_eq!(a.dma_out_bytes, 7);
        assert_eq!(a.invocations, 1);
    }

    #[test]
    fn display_is_one_line_and_mentions_stalls() {
        let s = AccelStats {
            cycles: 42,
            total_flits: 7,
            active_cycles: 30,
            input_starved_cycles: 10,
            backpressured_cycles: 0,
            memory_wait_cycles: 0,
            ..AccelStats::default()
        };
        let text = s.to_string();
        assert!(!text.contains('\n'));
        assert!(text.contains("cycles 42"));
        assert!(text.contains("flits 7"));
        assert!(text.contains("active 75.0%"));
        assert!(text.contains("input 25.0%"));
        let f = s.stall_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(AccelStats::default().stall_fractions(), [0.0; 5]);
    }

    #[test]
    fn display_appends_tier_traffic_only_when_present() {
        let clean = AccelStats { cycles: 1, ..AccelStats::default() };
        assert!(!clean.to_string().contains("tier:"));
        let spilled = AccelStats {
            cycles: 100,
            active_cycles: 60,
            spill_wait_cycles: 40,
            tier_pages_filled: 12,
            tier_pages_spilled: 9,
            tier_prefetch_hits: 3,
            tier_pcie_bytes: 49_152,
            ..AccelStats::default()
        };
        let text = spilled.to_string();
        assert!(text.contains("spill 40.0%"), "got: {text}");
        assert!(text.contains("tier: 12 filled / 9 spilled"), "got: {text}");
        let mut merged = clean;
        merged.absorb(spilled);
        assert_eq!(merged.spill_wait_cycles, 40);
        assert_eq!(merged.tier_pcie_bytes, 49_152);
    }

    #[test]
    fn display_appends_reconfig_only_when_charged() {
        let clean = AccelStats { cycles: 1, ..AccelStats::default() };
        assert!(!clean.to_string().contains("reconfig"));
        let missed = AccelStats { cycles: 9, reconfig_cycles: 8, ..AccelStats::default() };
        assert!(missed.to_string().contains("reconfig 8 cycles"));
        let mut merged = clean;
        merged.absorb(missed);
        assert_eq!(merged.reconfig_cycles, 8);
        assert_eq!(merged.cycles, 10);
    }

    #[test]
    fn display_appends_faults_only_when_present() {
        let clean = AccelStats { cycles: 1, ..AccelStats::default() };
        assert!(!clean.to_string().contains("faults"));
        let faulty = AccelStats {
            cycles: 1,
            faults: FaultReport { retries: 2, fallback_batches: 1, ..FaultReport::default() },
            ..AccelStats::default()
        };
        let text = faulty.to_string();
        assert!(!text.contains('\n'));
        assert!(text.contains("faults:") && text.contains("retries 2"));
        let mut merged = clean;
        merged.absorb(faulty);
        assert_eq!(merged.faults.retries, 2);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = Breakdown {
            host: Duration::from_millis(10),
            dma: Duration::from_millis(50),
            accel: Duration::from_millis(40),
        };
        let sum: f64 = b.fractions().iter().map(|(_, x)| x).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(b.total(), Duration::from_millis(100));
        assert!((b.speedup_over(Duration::from_millis(1000)) - 10.0).abs() < 1e-9);
    }
}
