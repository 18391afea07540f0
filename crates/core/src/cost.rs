//! Cost models: AWS pricing (paper Tables II and III) and the
//! pipeline-replication chooser (paper Figure 8).

use genesis_hw::memory::LINE_BYTES;
use genesis_hw::resource::{
    pipeline_overhead, shell_overhead, VU9P_BRAM_BYTES, VU9P_LUTS, VU9P_REGISTERS,
};
use genesis_hw::{MemoryConfig, ResourceUsage};
use std::time::Duration;

/// Hourly price of one machine configuration (paper Table II, Nov 2019).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstancePrice {
    /// Instance name.
    pub name: &'static str,
    /// Total $/hour (compute + storage where applicable).
    pub dollars_per_hour: f64,
}

/// `f1.2xlarge` hosting the Genesis hardware: $1.65/hr.
pub const F1_2XLARGE: InstancePrice = InstancePrice { name: "f1.2xlarge", dollars_per_hour: 1.65 };

/// `r5.4xlarge` running GATK4 software: $1.01/hr compute + $0.28/hr storage.
pub const R5_4XLARGE: InstancePrice =
    InstancePrice { name: "r5.4xlarge", dollars_per_hour: 1.01 + 0.28 };

impl InstancePrice {
    /// Dollar cost of running for `d`.
    #[must_use]
    pub fn cost_of(&self, d: Duration) -> f64 {
        self.dollars_per_hour * d.as_secs_f64() / 3600.0
    }
}

/// One row of paper Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Stage name.
    pub stage: String,
    /// Genesis cost reduction over the baseline (×).
    pub cost_reduction: f64,
    /// Genesis speedup over the baseline (×).
    pub speedup: f64,
    /// Normalized performance per dollar (×).
    pub perf_per_dollar: f64,
}

/// Computes a Table III row from stage runtimes.
///
/// Following the paper: the baseline runs on the R5 instance, the
/// accelerated system on the F1 instance; *cost reduction* compares
/// dollars for the same work, *performance/$* compares speedup per dollar
/// rate, and their product relationship
/// `perf/$ = speedup × cost_reduction / (accel/baseline price ratio …)`
/// reduces to `speedup²/(price ratio × speedup)` — computed here directly
/// from first principles.
#[must_use]
pub fn cost_row(stage: &str, baseline: Duration, accelerated: Duration) -> CostRow {
    let base_cost = R5_4XLARGE.cost_of(baseline);
    let accel_cost = F1_2XLARGE.cost_of(accelerated);
    let speedup = baseline.as_secs_f64() / accelerated.as_secs_f64().max(1e-12);
    let cost_reduction = base_cost / accel_cost.max(1e-18);
    // Performance per dollar: (work/time)/(dollars/time) ratio vs baseline.
    let perf_per_dollar = speedup * cost_reduction;
    CostRow { stage: stage.to_owned(), cost_reduction, speedup, perf_per_dollar }
}

/// Hard cap on pipeline replication: the paper never replicates beyond 16
/// (the Figure 8 Mark Duplicates / metadata designs).
pub const MAX_REPLICATION: usize = 16;

/// Memory-port and fabric demand of *one* pipeline instance, the input to
/// [`choose_replication`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineProfile {
    /// Element width in bytes of each *sustained* read port (a streaming
    /// Memory Reader consumes one element per cycle at peak). Ports that
    /// move one element per multi-cycle item (e.g. an aggregate writer
    /// emitting one sum per read) contribute negligible bandwidth and are
    /// omitted.
    pub read_port_bytes: Vec<usize>,
    /// Element width in bytes of each sustained write port.
    pub write_port_bytes: Vec<usize>,
    /// Fabric usage of one pipeline: modules, queues and scratchpads
    /// (shell and per-pipeline arbiter overhead are added by the chooser).
    pub fabric: ResourceUsage,
    /// Cardinality expansion of the pipeline body: output rows per scanned
    /// input row (`1.0` for row-preserving pipelines). An exploding module
    /// (e.g. ReadToBases, ~read-length×) emits at most one flit per cycle,
    /// so its *upstream* readers sustain only `1/expansion` elements per
    /// cycle — their port demand on the memory channels shrinks
    /// accordingly, letting the Figure 8 chooser replicate an
    /// explode-bound pipeline further than raw port widths suggest.
    pub expansion: f64,
    /// Post-pushdown row rate of the spine scan: surviving rows per
    /// scanned row (`1.0` when no predicate was pushed into the scan).
    /// Replication splits the spine's *surviving* rows, so at selectivity
    /// `s` only about `ceil(s × cap)` replicas ever hold a non-trivial
    /// batch — the chooser caps the factor there, freeing area instead of
    /// replicating pipelines that would idle.
    pub selectivity: f64,
}

impl Default for PipelineProfile {
    fn default() -> PipelineProfile {
        PipelineProfile {
            read_port_bytes: Vec::new(),
            write_port_bytes: Vec::new(),
            fabric: ResourceUsage::default(),
            expansion: 1.0,
            selectivity: 1.0,
        }
    }
}

impl PipelineProfile {
    /// Bytes per cycle the pipeline's memory ports sustain at steady
    /// state: read ports are throttled by the expansion factor (the
    /// exploding module is the rate limiter), write ports run at full
    /// rate.
    fn port_bytes_per_cycle(&self) -> f64 {
        let reads: usize = self.read_port_bytes.iter().sum();
        let writes: usize = self.write_port_bytes.iter().sum();
        reads as f64 / self.expansion.max(1.0) + writes as f64
    }

    /// Peak memory-line demand of one pipeline in lines/cycle: every port
    /// moves one element per cycle (scaled by the expansion factor for
    /// read ports), 64-byte lines amortize across elements, and the local
    /// arbiter forwards at most `local_requests_per_cycle` lines.
    #[must_use]
    pub fn lines_per_cycle(&self, mem: &MemoryConfig) -> f64 {
        let raw = self.port_bytes_per_cycle() / LINE_BYTES as f64;
        raw.min(f64::from(mem.local_requests_per_cycle))
    }
}

/// Which budget limited the chosen replication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationBound {
    /// The global memory channels saturate first (paper Figure 8: the
    /// channel arbiters accept `num_channels × channel_requests_per_cycle`
    /// lines per cycle).
    MemoryChannels,
    /// The FPGA fabric (LUT/register/BRAM) fills first — the BQSR case,
    /// whose per-pipeline covariate scratchpads are BRAM-heavy.
    FpgaArea,
    /// The tiered-memory PCIe spill link saturates first: every replica
    /// adds projected spill/fill traffic to one shared link, so replicating
    /// past its bandwidth only converts compute into spill-wait stalls.
    PcieLink,
    /// A pushed-down predicate leaves so few surviving rows that more
    /// replicas would idle: the factor is capped at `ceil(selectivity ×
    /// cap)` (see [`PipelineProfile::selectivity`]).
    Selectivity,
    /// Neither budget binds below the [`MAX_REPLICATION`] policy cap.
    PolicyCap,
}

/// Projected tiered-memory spill traffic of one pipeline plus the PCIe
/// link budget all replicas share — the extra input that lets
/// [`choose_replication_spill`] shrink the factor when the spill link,
/// not the memory channels or the fabric, is the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpillProfile {
    /// Projected spill + fill PCIe traffic of one pipeline in bytes/cycle.
    pub demand_bytes_per_cycle: f64,
    /// PCIe link capacity in bytes/cycle, shared by every replica.
    pub link_bytes_per_cycle: f64,
}

impl SpillProfile {
    /// Projects one pipeline's spill traffic under `tiers` at `clock_hz`:
    /// scratchpad state beyond the modeled SPM misses in proportion to the
    /// overflow (`1 − spm/working-set`, with the BRAM footprint standing
    /// in for the working set), and every missed element drags a fill plus
    /// an eventual dirty write-back across the link.
    #[must_use]
    pub fn project(
        profile: &PipelineProfile,
        tiers: &crate::device::TierConfig,
        clock_hz: f64,
    ) -> SpillProfile {
        let ws = profile.fabric.bram_bytes as f64;
        let miss = if ws > 0.0 { ((ws - tiers.spm_bytes as f64) / ws).max(0.0) } else { 0.0 };
        SpillProfile {
            demand_bytes_per_cycle: miss * profile.port_bytes_per_cycle() * 2.0,
            link_bytes_per_cycle: tiers.link_bytes_per_cycle(clock_hz),
        }
    }
}

/// A replication decision with the budgets that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationChoice {
    /// Chosen replication factor (a power of two, like all paper designs).
    pub factor: usize,
    /// Largest factor the memory channels sustain.
    pub mem_bound: usize,
    /// Largest factor that fits the VU9P fabric.
    pub area_bound: usize,
    /// Largest factor the tiered-memory PCIe spill link sustains
    /// (`usize::MAX`-clamped-to-`4×MAX_REPLICATION` when tiering is off or
    /// the pipeline projects no spill traffic).
    pub pcie_bound: usize,
    /// Largest factor a selective (pushed-down) scan keeps busy
    /// (clamped like `pcie_bound` when selectivity is 1.0).
    pub work_bound: usize,
    /// Which budget bound the choice.
    pub limited_by: ReplicationBound,
    /// One pipeline's line demand in lines/cycle.
    pub demand_lines_per_cycle: f64,
}

impl ReplicationChoice {
    /// Human-readable summary for `explain` output.
    #[must_use]
    pub fn summary(&self) -> String {
        let pcie = if self.pcie_bound < MAX_REPLICATION * 4 {
            format!(", pcie bound {}x", self.pcie_bound)
        } else {
            String::new()
        };
        let work = if self.work_bound < MAX_REPLICATION * 4 {
            format!(", selectivity bound {}x", self.work_bound)
        } else {
            String::new()
        };
        format!(
            "replication {}x (mem bound {}x, area bound {}x{pcie}{work}, demand {:.3} lines/cycle, limited by {:?})",
            self.factor, self.mem_bound, self.area_bound, self.demand_lines_per_cycle, self.limited_by
        )
    }
}

/// Largest power of two `<= n` (minimum 1): arbiter trees are binary, so
/// replication factors are powers of two — exactly the paper's 16/16/8.
fn prev_pow2(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// Largest replication factor whose fabric fits the VU9P.
fn area_bound(profile: &PipelineProfile) -> usize {
    let shell = shell_overhead();
    let per = profile.fabric + pipeline_overhead();
    let mut r = 0usize;
    loop {
        let next = per.times(r as u64 + 1) + shell;
        let fits = next.luts <= VU9P_LUTS
            && next.registers <= VU9P_REGISTERS
            && next.bram_bytes <= VU9P_BRAM_BYTES;
        if !fits || r + 1 > 4096 {
            break;
        }
        r += 1;
    }
    r.max(1)
}

/// Picks the pipeline replication factor for one pipeline profile under
/// the channel/arbiter budget of `mem` (paper Figure 8): replicate until
/// either the global memory channels or the FPGA fabric saturates, round
/// down to a power of two, and never exceed `cap`. Equivalent to
/// [`choose_replication_spill`] with no spill profile — the tiers-off
/// decision.
#[must_use]
pub fn choose_replication(
    profile: &PipelineProfile,
    mem: &MemoryConfig,
    cap: usize,
) -> ReplicationChoice {
    choose_replication_spill(profile, mem, cap, None)
}

/// [`choose_replication`] extended with projected tiered-memory spill
/// traffic: the shared PCIe spill link becomes a third saturable budget,
/// so a pipeline whose working set overflows the modeled SPM replicates
/// only as far as the link sustains its spill/fill traffic.
#[must_use]
pub fn choose_replication_spill(
    profile: &PipelineProfile,
    mem: &MemoryConfig,
    cap: usize,
    spill: Option<SpillProfile>,
) -> ReplicationChoice {
    let capacity =
        mem.num_channels as f64 * f64::from(mem.channel_requests_per_cycle);
    let demand = profile.lines_per_cycle(mem);
    let mem_bound = if demand <= 0.0 {
        usize::MAX
    } else {
        ((capacity / demand).floor() as usize).max(1)
    };
    let pcie_bound = match spill {
        Some(s) if s.demand_bytes_per_cycle > 0.0 => {
            (((s.link_bytes_per_cycle / s.demand_bytes_per_cycle).floor()) as usize).max(1)
        }
        _ => usize::MAX,
    };
    let area = area_bound(profile);
    let cap = cap.clamp(1, MAX_REPLICATION);
    // A selective scan feeds only `selectivity × rows` into the replicas
    // that split them: past `ceil(selectivity × cap)` replicas the extra
    // pipelines hold near-empty batches, so replication stops paying.
    let work_bound = if profile.selectivity < 1.0 {
        ((cap as f64 * profile.selectivity).ceil() as usize).max(1)
    } else {
        usize::MAX
    };
    let raw = mem_bound.min(area).min(pcie_bound).min(work_bound).min(cap);
    let factor = prev_pow2(raw);
    let limited_by = if work_bound < mem_bound.min(area).min(pcie_bound).min(cap) {
        ReplicationBound::Selectivity
    } else if factor >= prev_pow2(cap) {
        ReplicationBound::PolicyCap
    } else if pcie_bound < mem_bound.min(area) {
        ReplicationBound::PcieLink
    } else if mem_bound <= area {
        ReplicationBound::MemoryChannels
    } else {
        ReplicationBound::FpgaArea
    };
    ReplicationChoice {
        factor,
        mem_bound: mem_bound.min(MAX_REPLICATION * 4),
        area_bound: area,
        pcie_bound: pcie_bound.min(MAX_REPLICATION * 4),
        work_bound: work_bound.min(MAX_REPLICATION * 4),
        limited_by,
        demand_lines_per_cycle: demand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiles of the three retired seed fast paths (ColumnReduce,
    /// CountMatchingBases, GroupCount), inlined verbatim from their deleted
    /// characterizations, pin the paper's Figure 8 factors: 16× for the
    /// reduce and metadata pipelines, 8× for the BRAM-heavy BQSR histogram.
    #[test]
    fn replication_bounds_reproduce_figure8() {
        let mem = MemoryConfig::default();
        // Figure 10 reduce: a light pipeline (1-byte stream, small fabric)
        // hits the policy cap.
        let light = PipelineProfile {
            read_port_bytes: vec![1],
            write_port_bytes: vec![],
            fabric: ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 2_304 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let c = choose_replication(&light, &mem, MAX_REPLICATION);
        assert_eq!(c.factor, 16);
        assert_eq!(c.limited_by, ReplicationBound::PolicyCap);
        // Figure 7/11 metadata: read fields + reference stream through
        // explode/join/compare — six ports, still policy-capped.
        let metadata = PipelineProfile {
            read_port_bytes: vec![4, 4, 2, 1, 1, 1],
            write_port_bytes: vec![],
            fabric: ResourceUsage { luts: 9_500, registers: 11_000, bram_bytes: 41_000 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let c = choose_replication(&metadata, &mem, MAX_REPLICATION);
        assert_eq!(c.factor, 16);
        assert_eq!(c.limited_by, ReplicationBound::PolicyCap);
        // A memory-hungry pipeline saturates the 4 channels first.
        let heavy = PipelineProfile {
            read_port_bytes: vec![8, 8, 8, 8, 8, 8, 8, 8],
            write_port_bytes: vec![8, 8],
            fabric: ResourceUsage { luts: 10_000, registers: 10_000, bram_bytes: 10_000 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let c = choose_replication(&heavy, &mem, MAX_REPLICATION);
        assert_eq!(c.limited_by, ReplicationBound::MemoryChannels);
        assert!(c.factor <= 4);
        // Figure 12 BQSR histogram: key stream in, drain out, 512 KB of
        // covariate scratchpads — area-bound at 8.
        let bram = PipelineProfile {
            read_port_bytes: vec![4],
            write_port_bytes: vec![4],
            fabric: ResourceUsage { luts: 4_650, registers: 5_700, bram_bytes: 528_896 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let c = choose_replication(&bram, &mem, MAX_REPLICATION);
        assert_eq!(c.factor, 8);
        assert_eq!(c.limited_by, ReplicationBound::FpgaArea);
    }

    #[test]
    fn pcie_saturation_shrinks_replication() {
        use crate::device::TierConfig;
        let mem = MemoryConfig::default();
        // A light pipeline whose 256 KiB scratchpad working set is 4× the
        // modeled 64 KiB SPM: tiers off it replicates to the 16× policy
        // cap...
        let profile = PipelineProfile {
            read_port_bytes: vec![4],
            write_port_bytes: vec![4],
            fabric: ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 256 << 10 },
            expansion: 1.0,
            selectivity: 1.0,
        };
        let untired = choose_replication(&profile, &mem, MAX_REPLICATION);
        assert_eq!(untired.factor, 16);
        // ...but over the default 8 GB/s link at 250 MHz (32 B/cycle), the
        // projected spill traffic (75% miss × 8 B/cycle × 2 = 12 B/cycle
        // per replica) saturates the link at 2 replicas.
        let tiers = TierConfig { spm_bytes: 64 << 10, ..TierConfig::default() };
        let spill = SpillProfile::project(&profile, &tiers, 250.0e6);
        assert!((spill.demand_bytes_per_cycle - 12.0).abs() < 1e-9);
        assert!((spill.link_bytes_per_cycle - 32.0).abs() < 1e-9);
        let tiered = choose_replication_spill(&profile, &mem, MAX_REPLICATION, Some(spill));
        assert_eq!(tiered.factor, 2);
        assert_eq!(tiered.pcie_bound, 2);
        assert_eq!(tiered.limited_by, ReplicationBound::PcieLink);
        assert!(tiered.factor < untired.factor);
        assert!(tiered.summary().contains("pcie bound 2x"), "got: {}", tiered.summary());
        // A working set that fits the SPM projects no spill traffic and
        // keeps the tiers-off decision.
        let small = PipelineProfile {
            fabric: ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 32 << 10 },
            ..profile.clone()
        };
        let s = SpillProfile::project(&small, &tiers, 250.0e6);
        assert_eq!(s.demand_bytes_per_cycle, 0.0);
        let c = choose_replication_spill(&small, &mem, MAX_REPLICATION, Some(s));
        assert_eq!(c.factor, 16);
    }

    #[test]
    fn selectivity_caps_replication() {
        let mem = MemoryConfig::default();
        // A light pipeline behind a 10%-selective pushed predicate:
        // ceil(0.1 × 16) = 2 replicas hold every surviving row, so
        // replicating further only parks idle pipelines.
        let selective = PipelineProfile {
            read_port_bytes: vec![1],
            write_port_bytes: vec![],
            fabric: ResourceUsage { luts: 3_500, registers: 4_900, bram_bytes: 2_304 },
            expansion: 1.0,
            selectivity: 0.1,
        };
        let c = choose_replication(&selective, &mem, MAX_REPLICATION);
        assert_eq!(c.work_bound, 2);
        assert_eq!(c.factor, 2);
        assert_eq!(c.limited_by, ReplicationBound::Selectivity);
        assert!(c.summary().contains("selectivity bound 2x"), "got: {}", c.summary());
        // The same pipeline with nothing pushed keeps the policy cap.
        let full = PipelineProfile { selectivity: 1.0, ..selective };
        let c = choose_replication(&full, &mem, MAX_REPLICATION);
        assert_eq!(c.factor, 16);
        assert_eq!(c.limited_by, ReplicationBound::PolicyCap);
        assert!(!c.summary().contains("selectivity"), "got: {}", c.summary());
    }

    #[test]
    fn factors_are_powers_of_two() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(9), 8);
        assert_eq!(prev_pow2(15), 8);
        assert_eq!(prev_pow2(16), 16);
        assert_eq!(prev_pow2(31), 16);
    }

    #[test]
    fn instance_cost() {
        let hour = Duration::from_secs(3600);
        assert!((F1_2XLARGE.cost_of(hour) - 1.65).abs() < 1e-12);
        assert!((R5_4XLARGE.cost_of(hour) - 1.29).abs() < 1e-12);
    }

    #[test]
    fn equal_runtime_row() {
        // Same runtime: speedup 1, cost reduction = price ratio.
        let row = cost_row("x", Duration::from_secs(100), Duration::from_secs(100));
        assert!((row.speedup - 1.0).abs() < 1e-9);
        assert!((row.cost_reduction - 1.29 / 1.65).abs() < 1e-9);
    }

    #[test]
    fn paper_markdup_shape() {
        // Paper Table III: 2.08× speedup gives 2.08× (well, 1.63×·…)
        // cost reduction at the same price ratio and 4.31× perf/$;
        // with our formula: reduction = 2.08 × (1.29/1.65) = 1.63,
        // perf/$ = 2.08 × 1.63 = 3.38. The paper's 2.08×/4.31× implies
        // it normalized prices slightly differently; the *relationship*
        // perf/$ ≈ speedup × reduction holds in both.
        let row = cost_row("markdup", Duration::from_secs(208), Duration::from_secs(100));
        assert!(row.speedup > 2.0);
        assert!((row.perf_per_dollar - row.speedup * row.cost_reduction).abs() < 1e-9);
    }
}
