//! Pipeline wiring and the per-cycle simulation engine.

use crate::engine::{EngineCore, EngineTables};
use crate::memory::{MemStats, MemoryConfig, MemorySystem, PortId};
use crate::modules::{Module, ModuleKind};
use crate::queue::{QueueId, QueuePool};
use crate::resource::{pipeline_overhead, queue_bram, ResourceReport, ResourceUsage};
use crate::spm::{SpmId, SpmPool};
use crate::word::HwWord;
use genesis_obs::{
    ModuleStall, StallCounters, StallReport, TraceBuffer, TraceConfig,
};
use std::fmt;

/// Which simulation engine [`System::run`] uses.
///
/// Both engines produce bit-identical results — cycle counts, stall
/// counters, memory traffic, scratchpad contents, and module outputs all
/// match. The fast engine is the default; the reference engine is the
/// frozen oracle for differential testing and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Quiescence-aware engine: modules whose [`crate::modules::Tick`]
    /// reports that no progress is possible are parked and re-ticked only
    /// when a watched queue changes or a timed wake (memory latency)
    /// arrives. Cycles on which every live module is parked are skipped
    /// in closed form.
    #[default]
    Fast,
    /// The naive engine: every unfinished module ticks every cycle.
    Reference,
}

impl EngineMode {
    /// Parses a `GENESIS_ENGINE` value, case-insensitively: `fast` (also
    /// the empty string, i.e. the default) or `reference`; anything else
    /// is `None`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<EngineMode> {
        if name.is_empty() || name.eq_ignore_ascii_case("fast") {
            Some(EngineMode::Fast)
        } else if name.eq_ignore_ascii_case("reference") {
            Some(EngineMode::Reference)
        } else {
            None
        }
    }
}

/// Handle for a module registered in a [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModuleId(usize);

/// Simulation error.
#[derive(Debug, Clone)]
pub enum SimError {
    /// No forward progress for an implausibly long window: a wiring bug
    /// (e.g. a queue nobody drains) rather than a performance artifact.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Labels of modules that had not finished.
        stuck: Vec<String>,
        /// Per-module stall attribution at the point of the deadlock, for
        /// diagnosing *why* the stuck modules stopped (input starvation vs
        /// backpressure vs memory wait). Diagnostic only — excluded from
        /// equality so the two engines' error outcomes still compare equal
        /// (the reference engine attributes all cycles as active).
        report: Box<StallReport>,
    },
    /// The cycle budget was exhausted before the pipeline drained.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl PartialEq for SimError {
    fn eq(&self, other: &SimError) -> bool {
        match (self, other) {
            (
                SimError::Deadlock { cycle: a, stuck: b, report: _ },
                SimError::Deadlock { cycle: c, stuck: d, report: _ },
            ) => a == c && b == d,
            (SimError::CycleLimit { limit: a }, SimError::CycleLimit { limit: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for SimError {}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, stuck, report } => {
                write!(f, "simulation deadlocked at cycle {cycle}; stuck modules: {stuck:?}")?;
                // Name the module that spent the most cycles not making
                // progress — usually the head of the blocked chain.
                let worst = report
                    .modules
                    .iter()
                    .max_by_key(|m| m.counters.total().saturating_sub(m.counters.active));
                if let Some(m) = worst.filter(|m| m.counters.total() > m.counters.active) {
                    let c = m.counters;
                    write!(
                        f,
                        "; most stalled: {} (starved {}, backpressured {}, memory {}, spill {})",
                        m.label, c.input_starved, c.backpressured, c.memory_wait, c.spill_wait
                    )?;
                }
                Ok(())
            }
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit {limit} exhausted before pipeline drained")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles until every module finished.
    pub cycles: u64,
    /// Device memory traffic.
    pub mem: MemStats,
    /// Total flits moved through all queues.
    pub total_flits: u64,
    /// Total refused pushes (backpressure events).
    pub backpressure_stalls: u64,
    /// [`Module::tick`] calls the engine made, summed over runs: the
    /// simulator's host work, not a hardware quantity. Deterministic, but
    /// it depends on the engine — the reference engine ticks every
    /// unfinished module every cycle, the fast engine skips parked ones.
    pub module_ticks: u64,
}

/// A complete simulated accelerator: queues, scratchpads, device memory,
/// and modules, stepped one clock cycle at a time.
///
/// Modules tick in registration order each cycle; register pipelines
/// front-to-back so data can flow through multiple modules per cycle
/// without inflating cycle counts.
#[derive(Debug)]
pub struct System {
    queues: QueuePool,
    spms: SpmPool,
    mem: MemorySystem,
    modules: Vec<Box<dyn Module>>,
    cycle: u64,
    /// [`Module::tick`] calls so far ([`SimStats::module_ticks`]).
    module_ticks: u64,
    /// Module-id ranges per pipeline (for resource accounting).
    pipeline_count: u32,
    engine: EngineMode,
    /// Per-module cumulative stall attribution (always on; updated only at
    /// park/unpark events, so it costs nothing per cycle).
    stall: Vec<StallCounters>,
    /// Opt-in span/counter tracing (None = disabled, the default).
    trace: Option<TraceState>,
    /// The engine's per-run tables, refilled by every run.
    tables: EngineTables,
}

/// Tracing state while enabled: the recording buffer plus the sampling
/// cursor for queue-depth counter tracks.
#[derive(Debug)]
pub(crate) struct TraceState {
    pub(crate) buf: TraceBuffer,
    /// Last sampled depth per queue (`u64::MAX` = never sampled), so only
    /// changes are recorded.
    pub(crate) last_depth: Vec<u64>,
    /// Next cycle at which queue depths are due for a sample.
    pub(crate) next_sample: u64,
    /// Sampling stride in cycles (cached from the config).
    pub(crate) stride: u64,
}

impl Default for System {
    fn default() -> System {
        System::new()
    }
}

impl System {
    /// Creates a system with default (F1-like) memory configuration.
    #[must_use]
    pub fn new() -> System {
        System::with_memory(MemoryConfig::default())
    }

    /// Creates a system with an explicit memory configuration, on the
    /// default engine ([`EngineMode::Fast`]; see [`System::set_engine`]).
    #[must_use]
    pub fn with_memory(cfg: MemoryConfig) -> System {
        System {
            queues: QueuePool::new(),
            spms: SpmPool::new(),
            mem: MemorySystem::new(cfg),
            modules: Vec::new(),
            cycle: 0,
            module_ticks: 0,
            pipeline_count: 1,
            engine: EngineMode::default(),
            stall: Vec::new(),
            trace: None,
            tables: EngineTables::default(),
        }
    }

    /// Makes this system what [`System::with_memory`]`(cfg)` makes, keeping
    /// only the buffers a rebuild fills again: the queue rings, the
    /// device-memory store, the memory ports' response buffers, the
    /// scratchpads' element vectors, the stall counters, the engine's
    /// per-run tables and the capacity of the module, queue, port and
    /// scratchpad lists. A graph built after a reset gets the same
    /// [`QueueId`]s, [`SpmId`]s, [`PortId`]s and device addresses as on a
    /// new system, every buffer it is handed holds nothing of an earlier
    /// run, and its run is the new system's run.
    pub fn reset(&mut self, cfg: MemoryConfig) {
        let old = std::mem::replace(self, System::with_memory(cfg));
        let System { queues, spms, mem, mut modules, mut stall, tables, .. } = old;
        self.queues.recycle(queues);
        self.spms.recycle(spms);
        self.mem.recycle(mem);
        modules.clear();
        stall.clear();
        (self.modules, self.stall, self.tables) = (modules, stall, tables);
    }

    /// Enables (or disables, with a config whose `enabled` is false) span
    /// and queue-depth tracing for subsequent [`System::run`] calls.
    /// Replaces any previously recorded trace.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace = cfg.enabled.then(|| TraceState {
            stride: cfg.sample_stride.max(1),
            buf: TraceBuffer::new(cfg),
            last_depth: Vec::new(),
            next_sample: 0,
        });
    }

    /// The recorded trace, when tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref().map(|t| &t.buf)
    }

    /// Takes the recorded trace out of the system (disabling further
    /// recording).
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take().map(|t| t.buf)
    }

    /// Per-module stall attribution accumulated by [`System::run`]: each
    /// module's simulated cycles split into active / input-starved /
    /// output-backpressured / memory-wait / spill-wait, where the parked
    /// classes come from the [`crate::modules::Watch`] each park declared.
    /// The five buckets sum to [`StallReport::total_cycles`] for every
    /// module (`active` includes the tail where a finished module sits
    /// retired while the rest of the pipeline drains).
    ///
    /// Attribution is event-based (updated at park/unpark, not per cycle),
    /// so it is always on. Under [`EngineMode::Reference`] modules never
    /// park and every cycle is accounted as active.
    #[must_use]
    pub fn stall_report(&self) -> StallReport {
        StallReport {
            total_cycles: self.cycle,
            modules: self
                .modules
                .iter()
                .enumerate()
                .map(|(i, m)| ModuleStall {
                    label: m.label().to_owned(),
                    counters: self.stall.get(i).copied().unwrap_or_default(),
                })
                .collect(),
        }
    }

    /// The five stall buckets of [`System::stall_report`] summed over every
    /// module ([`StallReport::totals`]), without copying a label.
    #[must_use]
    pub fn stall_totals(&self) -> StallCounters {
        let mut t = StallCounters::default();
        for &c in self.stall.iter().take(self.modules.len()) {
            t.absorb(c);
        }
        t
    }

    /// Selects the simulation engine for subsequent [`System::run`] calls.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.engine = engine;
    }

    /// The currently selected simulation engine.
    #[must_use]
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Adds a queue.
    pub fn add_queue(&mut self, name: impl Into<String>) -> QueueId {
        self.queues.add(name)
    }

    /// Adds a queue with explicit capacity.
    pub fn add_queue_with_capacity(&mut self, name: impl Into<String>, capacity: usize) -> QueueId {
        self.queues.add_with_capacity(name, capacity)
    }

    /// Adds a scratchpad.
    pub fn add_spm(&mut self, name: impl Into<String>, len: usize, elem_bytes: usize) -> SpmId {
        self.spms.add(name, len, elem_bytes)
    }

    /// Enables tiered memory over the scratchpad pool (see
    /// [`SpmPool::set_tiers`]): scratchpads that fit the SPM quota stay
    /// pinned; the rest are paged against device DRAM and host DRAM, and
    /// accesses to non-resident pages become timed `stall:spill` waits.
    /// Call after all scratchpads are added, before [`System::run`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::tier::TierOverflow`] when the combined scratchpad
    /// working set exceeds the total capacity of all three tiers.
    pub fn set_tiers(
        &mut self,
        params: crate::tier::TierParams,
    ) -> Result<(), crate::tier::TierOverflow> {
        self.spms.set_tiers(params)
    }

    /// Tier activity counters (pages spilled/filled, prefetch hits, PCIe
    /// bytes), when tiering is enabled.
    #[must_use]
    pub fn tier_stats(&self) -> Option<crate::tier::TierStats> {
        self.spms.tier_stats()
    }

    /// Registers a memory port in local-arbiter group `group`.
    pub fn register_mem_port(&mut self, group: u32) -> PortId {
        self.pipeline_count = self.pipeline_count.max(group + 1);
        self.mem.register_port(group)
    }

    /// Reserves device-memory backing store for `bytes` more bytes of
    /// [`System::alloc_mem`] calls (see [`MemorySystem::reserve`]).
    pub fn reserve_mem(&mut self, bytes: usize) {
        self.mem.reserve(bytes);
    }

    /// Allocates device memory.
    pub fn alloc_mem(&mut self, len: usize) -> u64 {
        self.mem.alloc(len)
    }

    /// Host-side device-memory fill (the DMA copy of `configure_mem`).
    pub fn host_write(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.host_write(addr, bytes);
    }

    /// Host-side device-memory readback (`genesis_flush`), borrowed: the
    /// caller copies what it keeps.
    #[must_use]
    pub fn host_read(&self, addr: u64, len: usize) -> &[u8] {
        self.mem.host_read(addr, len)
    }

    /// Registers a module; tick order follows registration order.
    pub fn add_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        self.modules.push(module);
        ModuleId(self.modules.len() - 1)
    }

    /// Borrows a registered module.
    #[must_use]
    pub fn module(&self, id: ModuleId) -> &dyn Module {
        self.modules[id.0].as_ref()
    }

    /// Downcasts a registered module to a concrete type.
    #[must_use]
    pub fn module_as<T: 'static>(&self, id: ModuleId) -> Option<&T> {
        self.modules[id.0].as_any().downcast_ref::<T>()
    }

    /// Convenience: the collected field-0 values of a
    /// [`crate::modules::sink::StreamSink`].
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a `StreamSink`.
    #[must_use]
    pub fn sink_values(&self, id: ModuleId) -> Vec<HwWord> {
        self.module_as::<crate::modules::sink::StreamSink>(id)
            .expect("module is a StreamSink")
            .values()
    }

    /// Borrows the scratchpad pool (for result extraction).
    #[must_use]
    pub fn spms(&self) -> &SpmPool {
        &self.spms
    }

    /// Mutably borrows the scratchpad pool (host-side initialization in
    /// tests).
    #[must_use]
    pub fn spms_mut(&mut self) -> &mut SpmPool {
        &mut self.spms
    }

    /// Borrows the queue pool.
    #[must_use]
    pub fn queues(&self) -> &QueuePool {
        &self.queues
    }

    /// Runs until every module finishes or `max_cycles` elapse, using the
    /// engine selected by [`System::set_engine`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when no observable progress happens
    /// for a long window, or [`SimError::CycleLimit`] at the budget.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimStats, SimError> {
        let n = self.modules.len();
        if self.stall.len() < n {
            self.stall.resize(n, StallCounters::default());
        }
        self.init_trace_run();
        let mut core = EngineCore::new(
            &mut self.modules,
            &mut self.queues,
            &mut self.spms,
            &mut self.mem,
            &mut self.stall,
            &mut self.trace,
            self.cycle,
            self.engine == EngineMode::Fast,
            std::mem::take(&mut self.tables),
        );
        let result = core.drive(max_cycles);
        core.finalize_obs();
        self.cycle = core.cycle;
        self.module_ticks += core.ticks;
        self.tables = core.into_tables();
        match result {
            Ok(()) => Ok(self.stats()),
            // The engine constructs `Deadlock` with an empty report (stall
            // accounting is only complete once the run finalizes); attach
            // the real attribution here.
            Err(SimError::Deadlock { cycle, stuck, .. }) => Err(SimError::Deadlock {
                cycle,
                stuck,
                report: Box::new(self.stall_report()),
            }),
            Err(e) => Err(e),
        }
    }

    /// Prepares the trace buffer for a run: installs the module/queue name
    /// tables and resets the sampling cursor.
    fn init_trace_run(&mut self) {
        let Some(ts) = &mut self.trace else { return };
        if ts.buf.tracks().len() != self.modules.len() {
            ts.buf.set_tracks(self.modules.iter().map(|m| m.label().to_owned()).collect());
        }
        if ts.buf.counters().len() != self.queues.len() {
            ts.buf.set_counters(self.queues.iter().map(|q| q.name().to_owned()).collect());
        }
        ts.last_depth.resize(self.queues.len(), u64::MAX);
        ts.next_sample = self.cycle;
    }

    /// Statistics for the run so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycle,
            mem: self.mem.stats(),
            total_flits: self.queues.iter().map(|q| q.total_pushed()).sum(),
            backpressure_stalls: self.queues.iter().map(|q| q.total_full_stalls()).sum(),
            module_ticks: self.module_ticks,
        }
    }

    /// Analytical FPGA resource usage of this design (paper Table IV):
    /// module logic + queue BRAM + scratchpad BRAM + per-pipeline and
    /// shell overheads.
    #[must_use]
    pub fn resource_report(&self) -> ResourceReport {
        let mut fabric = ResourceUsage::default();
        for m in &self.modules {
            fabric = fabric + m.resources();
        }
        let queue_bytes: u64 = self.queues.iter().map(|q| queue_bram(q.capacity())).sum();
        fabric.bram_bytes += queue_bytes + self.spms.total_bytes() as u64;
        fabric = fabric + pipeline_overhead().times(u64::from(self.pipeline_count));
        ResourceReport {
            backpressure_stalls: self.queues.iter().map(|q| q.total_full_stalls()).sum(),
            total_flits: self.queues.iter().map(|q| q.total_pushed()).sum(),
            ..ResourceReport::from_fabric(fabric)
        }
    }

    /// Current cycle number.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Renders the module/queue graph in Graphviz dot format — the
    /// pipeline diagrams of paper Figures 7, 10, 11 and 12, generated
    /// from the actual wiring.
    #[must_use]
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
        let _ = writeln!(out, "  label=\"{title}\";");
        for (i, m) in self.modules.iter().enumerate() {
            let shape = match m.kind() {
                ModuleKind::MemoryReader | ModuleKind::MemoryWriter => "cylinder",
                ModuleKind::SpmReader | ModuleKind::SpmUpdater => "box3d",
                ModuleKind::Source | ModuleKind::Sink => "ellipse",
                _ => "box",
            };
            let _ = writeln!(
                out,
                "  m{i} [label=\"{}\\n({:?})\", shape={shape}];",
                m.label(),
                m.kind()
            );
        }
        // Queue edges: producer module -> consumer module, labeled by the
        // queue name. The queue -> consumers index is built once up front
        // instead of rescanning every module per producer queue.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.queues.len()];
        let mut qs = Vec::new();
        for (ci, m) in self.modules.iter().enumerate() {
            qs.clear();
            m.input_queues(&mut qs);
            qs.sort_unstable_by_key(|q| q.index());
            qs.dedup();
            for q in &qs {
                consumers[q.index()].push(ci);
            }
        }
        for (pi, producer) in self.modules.iter().enumerate() {
            qs.clear();
            producer.output_queues(&mut qs);
            for &q in &qs {
                let name = self.queues.get(q).name();
                for &ci in &consumers[q.index()] {
                    let _ = writeln!(out, "  m{pi} -> m{ci} [label=\"{name}\"];");
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::sink::StreamSink;
    use crate::modules::source::StreamSource;

    #[test]
    fn source_to_sink_roundtrip() {
        let mut sys = System::new();
        let q = sys.add_queue("q");
        sys.add_module(Box::new(StreamSource::from_items("src", q, &[vec![1, 2], vec![3]])));
        let sink = sys.add_module(Box::new(StreamSink::new("sink", q)));
        let stats = sys.run(1000).unwrap();
        assert_eq!(
            sys.sink_values(sink),
            vec![HwWord::Val(1), HwWord::Val(2), HwWord::Val(3)]
        );
        let items = sys.module_as::<StreamSink>(sink).unwrap().items();
        assert_eq!(items.len(), 2);
        assert!(stats.cycles >= 5);
    }

    #[test]
    fn engine_names_parse_case_insensitively() {
        for (name, want) in [
            ("fast", Some(EngineMode::Fast)),
            ("FAST", Some(EngineMode::Fast)),
            ("", Some(EngineMode::Fast)),
            ("reference", Some(EngineMode::Reference)),
            ("Reference", Some(EngineMode::Reference)),
            ("block", None),
            ("event", None),
            ("event-driven", None),
            ("referense", None),
            (" fast", None),
        ] {
            assert_eq!(EngineMode::from_name(name), want, "{name:?}");
        }
        assert_eq!(EngineMode::default(), EngineMode::Fast);
    }

    #[test]
    fn cycle_limit_detected() {
        let mut sys = System::new();
        let q = sys.add_queue("q");
        // A sink on a queue nobody ever closes never finishes.
        let _ = sys.add_module(Box::new(StreamSink::new("sink", q)));
        let err = sys.run(100).unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 100 });
    }

    #[test]
    fn deadlock_detected() {
        let mut sys = System::new();
        let q = sys.add_queue("q");
        let _ = sys.add_module(Box::new(StreamSink::new("sink", q)));
        let err = sys.run(u64::MAX >> 2).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn resource_report_counts_modules() {
        let mut sys = System::new();
        let q = sys.add_queue("q");
        sys.add_spm("ref", 1000, 1);
        sys.add_module(Box::new(StreamSource::from_items("src", q, &[vec![1]])));
        sys.add_module(Box::new(StreamSink::new("sink", q)));
        let report = sys.resource_report();
        // Sources/sinks are free; shell + pipeline overhead + queue + spm.
        assert!(report.total.luts >= 95_000);
        assert!(report.total.bram_bytes >= 250_000 + 1000);
        assert!(report.fits());
    }

    /// A Memory Reader or Writer costs its kind once per column: a
    /// three-column writer and a two-column row reader cost three writers
    /// and two readers.
    #[test]
    fn resource_report_charges_readers_and_writers_per_lane() {
        use crate::modules::mem_reader::{ReaderColumn, RowReader};
        use crate::modules::mem_writer::{MemWriter, MemWriterConfig, WriterColumn};
        use crate::resource::module_cost;
        let fabric = |attach: bool| {
            let mut sys = System::new();
            let q = sys.add_queue("rows");
            let mut region = || (sys.alloc_mem(64), sys.register_mem_port(0));
            let reads: Vec<ReaderColumn> = (0..2)
                .map(|_| region())
                .map(|(base_addr, port)| ReaderColumn { base_addr, elem_bytes: 4, port })
                .collect();
            let writes: Vec<WriterColumn> = (0..3)
                .map(|field| {
                    let (base_addr, port) = region();
                    WriterColumn { field, cfg: MemWriterConfig { base_addr, elem_bytes: 4 }, port }
                })
                .collect();
            if attach {
                sys.add_module(Box::new(RowReader::new("rd", reads, 1, q)));
                sys.add_module(Box::new(MemWriter::columns("wr", writes, q)));
            }
            sys.resource_report().total
        };
        let (with, without) = (fabric(true), fabric(false));
        let lanes = module_cost(ModuleKind::MemoryReader).times(2)
            + module_cost(ModuleKind::MemoryWriter).times(3);
        assert_eq!(with.luts - without.luts, lanes.luts);
        assert_eq!(with.registers - without.registers, lanes.registers);
    }

    /// Memory → scratchpad histogram → drain → sink, with a second stream
    /// written back to device memory: `n` values through every pool a
    /// reset keeps (rings of three sizes, a reading and a writing port,
    /// the store, a scratchpad whose counts start from its contents).
    /// Returns the sink and the written region.
    fn probe(sys: &mut System, n: u64) -> (ModuleId, u64) {
        use crate::modules::mem_reader::{MemReader, MemReaderConfig, RowSpec};
        use crate::modules::mem_writer::{MemWriter, MemWriterConfig};
        use crate::modules::spm_reader::{SpmReadMode, SpmReader};
        use crate::modules::spm_updater::{RmwOp, SpmUpdateMode, SpmUpdater};
        let keys = n as u32 / 2 + 1;
        let vals: Vec<u8> = (0..n as u32).flat_map(|v| ((v * 7 + 3) % keys).to_le_bytes()).collect();
        let input = sys.alloc_mem(vals.len());
        sys.host_write(input, &vals);
        let output = sys.alloc_mem(n as usize * 8);
        let (rd, wr) = (sys.register_mem_port(0), sys.register_mem_port(1));
        let q_in = sys.add_queue("in");
        let q_trig = sys.add_queue_with_capacity("trig", 3);
        let q_out = sys.add_queue_with_capacity("out", 5);
        let q_back = sys.add_queue("back");
        let spm = sys.add_spm("hist", n as usize, 4);
        let cfg = MemReaderConfig { base_addr: input, elem_bytes: 4, total_elems: n, rows: RowSpec::None };
        sys.add_module(Box::new(MemReader::new("rd", cfg, rd, q_in)));
        let mode = SpmUpdateMode::Rmw { op: RmwOp::Increment };
        sys.add_module(Box::new(SpmUpdater::new("upd", spm, mode, 0, 0, q_in).with_forward(q_trig)));
        let drain = SpmReadMode::Drain { trigger: q_trig, len: n };
        sys.add_module(Box::new(SpmReader::new("drain", vec![spm], drain, 0, q_out)));
        let items: Vec<Vec<u64>> = (0..n).map(|i| vec![i * i]).collect();
        sys.add_module(Box::new(StreamSource::from_items("src", q_back, &items)));
        let wcfg = MemWriterConfig { base_addr: output, elem_bytes: 8 };
        sys.add_module(Box::new(MemWriter::new("wr", wcfg, wr, q_back)));
        (sys.add_module(Box::new(StreamSink::new("sink", q_out))), output)
    }

    /// Everything a run of [`probe`] shows the host.
    type Seen = (SimStats, StallReport, Vec<crate::word::Flit>, ResourceReport, Vec<u8>, bool, bool);

    fn probe_run(sys: &mut System, n: u64) -> Seen {
        let (sink, output) = probe(sys, n);
        let stats = sys.run(1_000_000).expect("the probe drains");
        let written = sys.host_read(output, n as usize * 8).to_vec();
        let (tiers, trace) = (sys.tier_stats().is_some(), sys.trace().is_some());
        let flits = sys.module_as::<StreamSink>(sink).expect("a sink").flits().to_vec();
        (stats, sys.stall_report(), flits, sys.resource_report(), written, tiers, trace)
    }

    /// A system reset after a run that deadlocked, hit the cycle limit,
    /// paged its scratchpads or was traced runs the probe as a new system
    /// does: the same stats, stall report, sink values, resource report
    /// and memory, with no tiers and no trace.
    #[test]
    fn a_reset_system_runs_as_a_new_one() {
        let cfg = MemoryConfig { latency_cycles: 7, ..MemoryConfig::default() };
        let other = MemoryConfig { latency_cycles: 30, max_inflight_per_port: 2, ..cfg.clone() };
        let fresh = probe_run(&mut System::with_memory(cfg.clone()), 48);
        let counts = fresh.2.iter().filter(|f| !f.is_end_item()).map(|f| f.field(1).val_or_zero());
        assert_eq!(counts.sum::<u64>(), 48, "every value counted once");
        let tiers = crate::tier::TierParams {
            page_bytes: 64,
            spm_bytes: 64,
            dram_bytes: 1 << 20,
            host_bytes: 0,
            pcie_lat_cycles: 10,
            pcie_bytes_per_cycle: 8,
            dram_lat_cycles: 4,
            dram_bytes_per_cycle: 16,
            max_inflight: 4,
        };
        type Dirty = fn(&mut System, &crate::tier::TierParams);
        let dirty: [(&str, Dirty); 4] = [
            ("deadlocked", |sys, _| {
                probe(sys, 40);
                let stuck = sys.add_queue("never closed");
                sys.add_module(Box::new(StreamSink::new("stuck", stuck)));
                let err = sys.run(u64::MAX >> 2).unwrap_err();
                assert!(matches!(err, SimError::Deadlock { .. }));
            }),
            ("cycle limit", |sys, _| {
                // Stopped with reads in flight and flits in the queues.
                probe(sys, 400);
                assert_eq!(sys.run(20).unwrap_err(), SimError::CycleLimit { limit: 20 });
            }),
            ("tiered", |sys, tiers| {
                probe(sys, 64);
                sys.set_tiers(*tiers).expect("an unbounded host admits it");
                sys.run(1_000_000).expect("the tiered probe drains");
                assert!(sys.tier_stats().is_some_and(|t| t.pages_filled > 0));
            }),
            ("traced", |sys, _| {
                sys.set_trace(TraceConfig::on());
                probe(sys, 30);
                sys.run(1_000_000).expect("the traced probe drains");
                assert!(sys.trace().is_some_and(|t| t.spans().next().is_some()));
            }),
        ];
        for (what, dirty) in dirty {
            for before in [&cfg, &other] {
                let mut sys = System::with_memory(before.clone());
                sys.set_engine(EngineMode::Reference);
                dirty(&mut sys, &tiers);
                sys.reset(cfg.clone());
                assert_eq!(sys.engine(), EngineMode::Fast, "{what}: the engine is a new system's");
                assert_eq!(sys.cycle(), 0, "{what}");
                assert!(sys.queues().is_empty() && sys.spms().is_empty(), "{what}");
                let seen = probe_run(&mut sys, 48);
                assert_eq!(seen, fresh, "{what}, then reset from {before:?}");
                // A second reset reuses what the probe itself left.
                sys.reset(cfg.clone());
                assert_eq!(probe_run(&mut sys, 48), fresh, "{what}, reset twice");
            }
        }
    }

    /// A guard predicate costs one Filter comparator: a ReadToBases
    /// guarded by two predicates costs what the unguarded ReadToBases and
    /// the two Filters it replaces cost.
    #[test]
    fn resource_report_charges_each_guard_predicate_a_filter() {
        use crate::modules::filter::{CmpOp, Filter, Predicate};
        use crate::modules::read_to_bases::{ReadToBases, ReadToBasesInputs};
        use crate::resource::module_cost;
        let preds = vec![Predicate::field_const(0, CmpOp::Lt, 9), Predicate::field_is_value(0)];
        let fabric = |guarded: bool| {
            let mut sys = System::new();
            let (a, b) = (sys.add_queue("a"), sys.add_queue("b"));
            let inputs = ReadToBasesInputs { pos: a, cigar: a, seq: None, qual: None };
            let rtb = ReadToBases::new("rtb", inputs, b);
            if guarded {
                sys.add_module(Box::new(rtb.with_guard(preds.clone())));
            } else {
                sys.add_module(Box::new(rtb));
                for (i, &p) in preds.iter().enumerate() {
                    sys.add_module(Box::new(Filter::new(format!("f{i}"), p, b, b)));
                }
            }
            sys.resource_report().total
        };
        let (guarded, chained) = (fabric(true), fabric(false));
        assert!(module_cost(ModuleKind::Filter).luts > 0);
        assert_eq!((guarded.luts, guarded.registers), (chained.luts, chained.registers));
    }
}
