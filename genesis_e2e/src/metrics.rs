//! Every metric the benchmark prints: name, unit, the clock it is read
//! on, and which way is better. `BENCHMARK.json` lists the same names; a
//! test keeps the two in step.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `host` wall-clock (normalised to the reference host unless the name
    /// says raw), modeled `device` cycles, or a `count`.
    pub clock: &'static str,
    pub better: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
    }
}

const HOST: &str = "host, normalised";
const RAW: &str = "host, raw";
const DEVICE: &str = "device";
const COUNT: &str = "count";
const MIXED: &str = "device over host";

pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s", HOST, "lower"),
    m("goodput_rps", "1/s", HOST, "higher"),
    m("latency_p50_us", "us", HOST, "lower"),
    m("modeled_cycles_per_op", "cycles/op", DEVICE, "lower"),
    m("alloc_kb_per_op", "KiB/op", COUNT, "lower"),
    m("peak_rss_mb", "MiB", "host", "lower"),
];

/// Share of the parent's median by which each end-to-end metric may
/// worsen before a change counts as a regression, in the order of
/// [`END_TO_END`]; `BENCHMARK.json` carries the same numbers.
pub const END_TO_END_BOUNDS: [f64; 6] = [0.15, 0.10, 0.10, 0.01, 0.01, 0.10];

pub const PER_LAYER: [MetricDef; 58] = [
    // load: the generator and the host it ran on. Context; moves nothing.
    m("load.host_speed", "ratio", RAW, "higher"),
    m("load.calib_iqr_share", "share", RAW, "lower"),
    m("load.blocks_discarded", "count", COUNT, "lower"),
    m("load.raw_goodput_rps", "1/s", RAW, "higher"),
    m("load.raw_latency_p50_us", "us", RAW, "lower"),
    m("load.latency_p90_us", "us", HOST, "lower"),
    m("load.latency_p99_us", "us", HOST, "lower"),
    m("load.cpu_us_per_op", "us/op", RAW, "lower"),
    m("trace.overhead_share", "share", HOST, "lower"),
    m("trace.span_count", "count", COUNT, "lower"),
    // sql: parser, planner, software executor (the CPU baseline).
    m("sql.parse_us", "us", HOST, "lower"),
    m("sql.plan_us", "us", HOST, "lower"),
    m("sql.exec_us", "us", HOST, "lower"),
    // serve: fingerprint, plan cache, admission, scheduler hand-off.
    m("serve.fingerprint_us", "us", HOST, "lower"),
    m("serve.submit_us", "us", HOST, "lower"),
    m("serve.wait_us", "us", HOST, "lower"),
    m("serve.submit_rest_us", "us", HOST, "lower"),
    m("serve.handoff_us", "us", HOST, "lower"),
    m("serve.cache_hit_share", "share", COUNT, "higher"),
    m("serve.cache_evictions_per_op", "1/op", COUNT, "lower"),
    m("serve.compile_ns_per_miss", "ns", HOST, "lower"),
    m("serve.shards_per_op", "1/op", COUNT, "lower"),
    m("serve.queue_depth_max", "count", COUNT, "lower"),
    // compile: plan → module graph, cost model.
    m("compile.compile_us", "us", HOST, "lower"),
    m("compile.alloc_kb", "KiB", COUNT, "lower"),
    m("compile.replication_factor", "count", COUNT, "higher"),
    // exec: bind, pushdown, serialise, DMA model, gather, epilogue.
    m("exec.execute_us", "us", HOST, "lower"),
    m("exec.alloc_kb", "KiB", COUNT, "lower"),
    m("exec.rows_scanned_per_op", "rows/op", COUNT, "lower"),
    m("exec.rows_emitted_per_op", "rows/op", COUNT, "lower"),
    m("exec.dma_bytes_per_op", "B/op", DEVICE, "lower"),
    // hw: the simulated device (exact counts), then simulator speed.
    m("hw.cycles_per_op", "cycles/op", DEVICE, "lower"),
    m("hw.reconfig_cycles_per_op", "cycles/op", DEVICE, "lower"),
    m("hw.flits_per_op", "flits/op", DEVICE, "lower"),
    m("hw.device_mem_bytes_per_op", "B/op", DEVICE, "lower"),
    m("hw.stall_active_share", "share", DEVICE, "higher"),
    m("hw.stall_input_share", "share", DEVICE, "lower"),
    m("hw.stall_backpressure_share", "share", DEVICE, "lower"),
    m("hw.stall_memory_share", "share", DEVICE, "lower"),
    m("hw.stall_spill_share", "share", DEVICE, "lower"),
    m("hw.mflits_per_host_s", "Mflit/s", HOST, "higher"),
    m("hw.host_ns_per_cycle", "ns/cycle", HOST, "lower"),
    // accel / gatk: the three paper accelerators and their software twins.
    m("accel.markdup_us", "us", HOST, "lower"),
    m("accel.metadata_us", "us", HOST, "lower"),
    m("accel.bqsr_us", "us", HOST, "lower"),
    m("accel.markdup_cycles", "cycles", DEVICE, "lower"),
    m("accel.metadata_cycles", "cycles", DEVICE, "lower"),
    m("accel.bqsr_cycles", "cycles", DEVICE, "lower"),
    m("gatk.markdup_us", "us", HOST, "lower"),
    m("gatk.metadata_us", "us", HOST, "lower"),
    m("gatk.bqsr_us", "us", HOST, "lower"),
    m("accel.modeled_speedup_geomean", "ratio", MIXED, "higher"),
    // setup: where set-up time goes.
    m("setup.datagen_us", "us", HOST, "lower"),
    m("setup.catalog_us", "us", HOST, "lower"),
    m("setup.server_start_us", "us", HOST, "lower"),
    m("setup.warmup_us", "us", HOST, "lower"),
    m("setup.first_request_us", "us", HOST, "lower"),
    m("obs.snapshot_us", "us", HOST, "lower"),
];

/// Metric values keyed by the definitions above; a metric that does not
/// apply to a workload reads 0.
pub struct Values {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Values {
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// # Panics
    /// On a name missing from the table: a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}
